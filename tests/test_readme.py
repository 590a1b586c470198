"""The README's documented Python API and command lines run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import stringcone
from stringcone import string_image

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading):
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _section_block(heading):
    return re.search(r"```python\n(.*?)```", _section(heading), re.S).group(1)


def test_library_entry_points_block_runs(capsys):
    namespace = {}
    exec(compile(_section_block("Library entry points"), str(README), "exec"), namespace)
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "A" and report["rank"] == 2
    assert namespace["report"].passing
    assert len(namespace["image"]) == 8 and namespace["pairs"]
    # the section at (1, 1) is the string image of its weight
    assert namespace["points"] == string_image(namespace["datum"], (1, 1), (1, 2, 1))
    # the last calls reuse the cache that weighted_points filled
    assert len(namespace["crystals"]) == 9


def test_command_line_examples_exit_zero(tmp_path):
    # every `stringcone ...` line of the command-line shell blocks, run in
    # a fresh directory with the package imported from where this one is
    blocks = re.findall(r"```sh\n(.*?)```", _section("Command line"), re.S)
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("stringcone ")]
    assert {args[0] for args in commands} == {
        "crystal", "polytope", "cone", "degenerate", "verify"}
    src = Path(stringcone.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for args in commands:
        proc = subprocess.run([sys.executable, "-m", "stringcone.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, (args, proc.stderr)
