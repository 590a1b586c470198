"""The README's documented Python API runs as written."""

import json
import re
from pathlib import Path

from stringcone import string_image

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_block(heading):
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_entry_points_block_runs(capsys):
    namespace = {}
    exec(compile(_section_block("Library entry points"), str(README), "exec"), namespace)
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "A" and report["rank"] == 2
    assert namespace["report"].passing
    assert len(namespace["image"]) == 8 and namespace["pairs"]
    # the section at (1, 1) is the string image of its weight, by first coordinate
    blocks = namespace["blocks"]
    flat = tuple((x0,) + tail for x0, tails in blocks for tail in tails)
    assert flat == string_image(namespace["datum"], (1, 1), (1, 2, 1))
    # the last calls reuse the cache that weighted_points filled
    assert len(namespace["crystals"]) == 9
