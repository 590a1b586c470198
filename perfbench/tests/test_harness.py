"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -t perfbench/tests
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

# One cheap op of each command a workload uses.
TINY = {
    "certify": [workloads.Op("degenerate", "A", 2, 1, (1, 2, 1), None, None),
                workloads.Op("degenerate", "B", 2, 1, (1, 2, 1, 2), None, (1, 2))],
    "crystals": [workloads.Op("cone", "A", 2, 1, (2, 1, 2), None, None),
                 workloads.Op("crystal", "B", 2, 1, None, (1, 0), None)],
    "sections": [workloads.Op("polytope", "C", 2, 1, None, (1, 1), None)],
}


def _digests(ops):
    table = {}
    for op in ops:
        rc, text, _ = worker.run_op(op.argv())
        assert rc == 0, (op.key(), rc)
        table[op.key()] = worker.digest(text)
    return table


class TinyOpLists(unittest.TestCase):
    def test_each_workload_passes_its_checks(self):
        for name, ops in TINY.items():
            with self.subTest(workload=name):
                records, probes, _ = worker.run_pass(ops, _digests(ops))
                self.assertEqual([r["reason"] for r in records], [None] * len(ops))
                self.assertEqual(probes, [])
                attempted, failures = run.tally([{"ops": records}])
                self.assertEqual((attempted, len(failures)), (len(ops), 0))

    def test_corrupted_digest_counts_as_failed(self):
        ops = TINY["certify"]
        table = _digests(ops)
        table[ops[0].key()] = "0" * 64
        records, _, _ = worker.run_pass(ops, table)
        attempted, failures = run.tally([{"ops": records}])
        self.assertEqual(attempted, 2)
        self.assertEqual([f["reason"] for f in failures], ["stdout digest mismatch"])

    def test_bad_exit_and_broken_invariant_count_as_failed(self):
        cone = workloads.Op("cone", "A", 2, 1, (1, 1, 1), None, None)
        rc, _, _ = worker.run_op(cone.argv())
        self.assertNotEqual(rc, 0)
        self.assertEqual(worker.check_op(cone, rc, "", {}), f"exit {rc}")
        crystal = TINY["crystals"][1]
        self.assertEqual(worker.check_op(crystal, 0, "nodes 3\n", {}),
                         "stdout digest mismatch; nodes 3 != weyl_dim 5")
        self.assertIsNone(worker.check_invariant(crystal, "nodes 5\n"))
        self.assertIn("unreadable output: PolyhedralError",
                      worker.check_op(TINY["crystals"][0], 0, "dim x\n", {}))


class SeededOps(unittest.TestCase):
    def setUp(self):
        self.table = workloads.load_table()

    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            a = workloads.make_ops(name, 7, self.table)
            self.assertEqual(a, workloads.make_ops(name, 7, self.table))
            self.assertEqual(len(a), sum(s.copies for s in workloads.WORKLOADS[name]))

    def test_digests_cover_exactly_the_pickable_ops(self):
        keys = set()
        for slots in workloads.WORKLOADS.values():
            for slot in slots:
                words = self.table["words"].get(workloads.word_table_key(slot), [])
                keys.update(op.key() for op in
                            workloads.slot_ops(slot, [tuple(w) for w in words]))
        self.assertEqual(keys, set(self.table["digests"]))

    def test_demazure_ops_are_adapted_as_declared(self):
        from stringcone.cartan import apply_word, build_cartan, rho
        for slot in workloads.WORKLOADS["certify"]:
            if not slot.demazure_len:
                continue
            datum = build_cartan(slot.type_label, slot.rank)
            for w in self.table["words"][workloads.word_table_key(slot)]:
                op = workloads.slot_ops(slot, [tuple(w)])[0]
                prefix = op.word[: slot.demazure_len]
                same = (apply_word(datum, prefix, rho(datum))
                        == apply_word(datum, op.demazure, rho(datum)))
                self.assertEqual(same, slot.adapted)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class Spans(unittest.TestCase):
    def test_nesting_and_self_time(self):
        tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 4.5, 10.0]))
        inner = tracer.spanned("m.inner", lambda: None)

        def outer():
            inner()
            inner()

        tracer.spanned("m.outer", outer)()
        names = [(s[0], s[3]) for s in tracer.spans]
        self.assertEqual(names, [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)])
        self.assertEqual(tracing.self_times(tracer.spans), [7.5, 2.0, 0.5])
        self.assertEqual(tracing.layer_totals(tracer.spans),
                         {"m.outer": (7.5, 1, 10.0), "m.inner": (2.5, 2, 2.5)})

    def test_overlapping_children_are_covered_once(self):
        spans = [["p", 0.0, 10.0, -1, 0], ["c", 1.0, 5.0, 0, 0],
                 ["c", 4.0, 6.0, 0, 0], ["c", 9.0, 12.0, 0, 0]]
        self.assertEqual(tracing.self_times(spans)[0], 4.0)

    def test_span_closes_when_the_call_raises(self):
        tracer = tracing.Tracer(clock=FakeClock([0.0, 2.0]))

        def boom():
            raise ValueError

        with self.assertRaises(ValueError):
            tracer.spanned("m.boom", boom)()
        self.assertEqual(tracer.spans, [["m.boom", 0.0, 2.0, -1, -1]])
        self.assertEqual(tracer.stack, [])

    def test_install_patches_importers_and_uninstall_restores(self):
        import stringcone.cli as cli
        import stringcone.pathcrystal as pathcrystal
        original = pathcrystal.enumerate_crystal
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.enumerate_crystal, original)
            self.assertIs(cli.enumerate_crystal, pathcrystal.enumerate_crystal)
            tracer.op_id = 0
            rc, _, _ = worker.run_op(TINY["certify"][0].argv())
        finally:
            tracer.uninstall()
        self.assertEqual(rc, 0)
        self.assertIs(cli.enumerate_crystal, original)
        totals = tracing.layer_totals(tracer.spans)
        self.assertEqual(totals["cli.main"][1], 1)
        self.assertEqual(totals["degeneration.degeneration_certificate"][1], 1)
        # A2 at check level 2: one crystal per weight up to (2,2).
        self.assertEqual(tracer.counts["pathcrystal.nodes"], 1 + 3 + 6 + 3 + 8 + 15 + 6 + 15 + 27)
        self.assertGreater(tracer.counts["cartan.is_reduced_word"], 0)
        self.assertTrue(all(s[2] is not None and s[4] == 0 for s in tracer.spans))


if __name__ == "__main__":
    unittest.main()
