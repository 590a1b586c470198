"""Benchmark of the stringcone certificate pipeline through its command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

A run repeats the workload's seeded op list in fresh worker processes
(``worker.py``), one pass after another, as a closed loop with a single
client, until the next pass would end more than half a pass after
``--seconds``.  Every output is
checked against the digest table and the output invariants.

With ``--trace 0`` it reports the end-to-end metrics: the time of the whole
op list and of its slowest op (from each op's median over the passes), the
worker's peak resident memory (median over the passes) and the set-up
time, the median time from starting a fresh interpreter to
``import stringcone.cli`` done, sampled between the ops.
With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer self times, call counts and counters from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Every run must end within 180 s; a worker still running at this point
# after the start is killed and the run fails.
DEADLINE_S = 170.0

# Self times reported in seconds: layers every workload runs.
ABSOLUTE = [
    "cli.main",
    "pathcrystal.enumerate_crystal",
    "strings.string_image",
    "polyhedra.conic_hull",
    "linalg.rank_int",
]
# Self times reported as a share of the traced op time: layers that only
# some workloads run, which would read 0 s on the others.
SHARED = [
    "polyhedra.section_lattice_points",
    "polyhedra.hilbert_basis",
    "polyhedra.is_face",
    "degeneration.degeneration_certificate",
    "degeneration.build_pairs",
    "degeneration.separating_form",
    "degeneration.lattice_relations",
    "characters.weyl_dim",
    "characters.demazure_character",
]
MODULES = ["cli", "pathcrystal", "strings", "polyhedra", "linalg",
           "degeneration", "characters"]


def _metric_name(span_name: str) -> str:
    return {"cli.main": "cli",
            "degeneration.degeneration_certificate": "degeneration.certificate",
            }.get(span_name, span_name)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(workload, seed, trace, deadline, spans=None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--spans", str(spans)] if spans else ["--probes"]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def pass_wall(result) -> float:
    return sum(op["seconds"] for op in result["ops"])


def end_to_end(passes) -> dict:
    """Op times are medians over the passes, op by op, so that a slow
    stretch of the host during one op of one pass does not set the result."""
    per_op = [statistics.median(op["seconds"] for op in ops)
              for ops in zip(*(p["ops"] for p in passes))]
    return {
        "wall_s": (sum(per_op), "s"),
        "slowest_op_s": (max(per_op), "s"),
        "peak_rss_mib": (statistics.median(p["maxrss_mib"] for p in passes), "MiB"),
        "setup_s": (statistics.median(s for p in passes for s in p["setup_s"]), "s"),
    }


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics of one traced pass; ratios come with their bases."""
    layers = traced["layers"]
    counts = traced["counts"]
    op_s = pass_wall(traced)

    def self_s(name):
        return layers.get(name, (0.0, 0, 0.0))[0]

    def calls(name):
        return layers.get(name, (0.0, 0, 0.0))[1]

    def incl_s(name):
        return layers.get(name, (0.0, 0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"trace.op_s": (op_s, "s"),
         "trace.overhead_ratio": (op_s / pass_wall(untraced), "ratio")}
    for name in ABSOLUTE:
        m[f"{_metric_name(name)}.self_s"] = (self_s(name), "s")
    for name in SHARED:
        m[f"{_metric_name(name)}.self_pct"] = (100.0 * self_s(name) / op_s, "%")
    # The scan's share including the double description it runs per weight.
    m["polyhedra.section_lattice_points.incl_pct"] = (
        100.0 * incl_s("polyhedra.section_lattice_points") / op_s, "%")
    for module in MODULES:
        own = sum(v[0] for k, v in layers.items() if k.split(".")[0] == module)
        m[f"{module}.self_pct"] = (100.0 * own / op_s, "%")
    for name in ("pathcrystal.enumerate_crystal", "strings.string_image",
                 "polyhedra.conic_hull", "polyhedra.section_lattice_points",
                 "polyhedra.saturation_check", "linalg.rank_int"):
        m[f"{name}.calls"] = (calls(name), "count")
    nodes = counts.get("pathcrystal.nodes", 0)
    strings = counts.get("strings.strings", 0)
    points = counts.get("polyhedra.section_points", 0)
    checks = counts.get("cartan.is_reduced_word", 0)
    certificates = calls("degeneration.degeneration_certificate")
    m.update({
        "pathcrystal.nodes": (nodes, "count"),
        "pathcrystal.us_per_node": (
            1e6 * ratio(self_s("pathcrystal.enumerate_crystal"), nodes), "us"),
        "strings.strings": (strings, "count"),
        "strings.us_per_string": (
            1e6 * ratio(self_s("strings.string_image"), strings), "us"),
        "strings.distinct_images": (traced["images"], "count"),
        "strings.repeel_ratio": (
            ratio(calls("strings.string_image"), traced["images"]), "ratio"),
        "cartan.is_reduced_word.calls": (checks, "count"),
        "cartan.word_checks_per_string": (ratio(checks, strings), "ratio"),
        "polyhedra.section_points": (points, "count"),
        "polyhedra.section_points_per_s": (
            ratio(points, self_s("polyhedra.section_lattice_points")), "1/s"),
        "degeneration.certificates": (certificates, "count"),
        "polyhedra.saturation.escalations": (
            calls("polyhedra.saturation_check") - certificates, "count"),
        "polyhedra.hilbert_basis.size": (
            counts.get("polyhedra.hilbert_basis.size", 0), "count"),
        "degeneration.pairs": (counts.get("degeneration.pairs", 0), "count"),
    })
    return m


def tally(results):
    """(ops attempted, failed op records) over worker results."""
    ops = [op for r in results for op in r["ops"]]
    return len(ops), [op for op in ops if op["reason"]]


def median_metrics(samples) -> dict:
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "stringcone" / "cli.py").is_file():
        print(f"error: no stringcone sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    ops = workloads.make_ops(args.workload, args.seed, workloads.load_table())
    for op in ops:
        print(f"op {op.key()}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
    untraced, traced = [], []
    try:
        while True:
            untraced.append(run_worker(args.workload, args.seed, 0, deadline))
            if args.trace:
                spans = OUT_DIR / f"spans-{args.workload}-{args.seed}-{len(traced)}.jsonl"
                traced.append(run_worker(args.workload, args.seed, 1, deadline, spans))
            # Stop when another round would end more than half a round
            # after --seconds, so that a run lasts --seconds on average.
            elapsed = time.monotonic() - start
            if elapsed + elapsed / (2 * len(untraced)) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failures = tally(untraced + traced)
    for op in failures:
        print(f"FAILED {op['key']}: {op['reason']}")
    print(f"ops_failed {len(failures)}/{attempted} ratio")
    cpu = sum(p["cpu_s"] for p in untraced)
    wall = sum(pass_wall(p) for p in untraced)
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"cpu/wall {cpu / wall:.4f}")
    if args.trace:
        metrics = median_metrics([per_layer(t, u) for t, u in zip(traced, untraced)])
    else:
        metrics = end_to_end(untraced)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
