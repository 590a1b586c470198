"""Byte identity of every benchmark op against the committed digest table.

``perfbench/digests.json`` maps each command line a benchmark workload can
run to the SHA-256 of its standard output.  Each key is replayed here
through ``cli.main`` in this process; the table is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from stringcone import cli

TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_every_benchmark_op_matches_its_digest():
    digests = json.loads(TABLE.read_text())["digests"]
    assert len(digests) == 144
    mismatched = []
    for key, expected in sorted(digests.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(key.split())
        if rc != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != expected:
            mismatched.append((key, rc))
    assert mismatched == []
