"""Regenerate ``digests.json``: reduced words and the expected output digests.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/gen_digests.py

Lists every reduced word of w0 for each type a workload picks words for,
runs every op any seed can produce, checks its exit code and invariants,
and records the SHA-256 of its standard output.  Run it only on a commit
whose outputs are known good: the table is what later commits are checked
against.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import check_invariant, digest, run_op

from stringcone.cartan import all_reduced_words, build_cartan, longest_word


def main() -> int:
    slots = [s for mix in workloads.WORKLOADS.values() for s in mix]
    words = {}
    for slot in slots:
        key = workloads.word_table_key(slot)
        if slot.picks_word and key not in words:
            datum = build_cartan(slot.type_label, slot.rank)
            words[key] = [list(w) for w in all_reduced_words(datum, longest_word(datum))]
    digests = {}
    for slot in slots:
        for op in workloads.slot_ops(slot, [tuple(w) for w in words.get(
                workloads.word_table_key(slot), [])]):
            if op.key() in digests:
                continue
            rc, text, elapsed = run_op(op.argv())
            reason = f"exit {rc}" if rc != 0 else check_invariant(op, text)
            if reason is not None:
                print(f"FAILED {op.key()}: {reason}", file=sys.stderr)
                return 1
            digests[op.key()] = digest(text)
            print(f"{elapsed:8.3f}s  {op.key()}", file=sys.stderr, flush=True)
    with open(workloads.TABLE_PATH, "w") as fh:
        json.dump({"words": words, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
