"""One pass of a workload's op list in a fresh interpreter.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --workload certify --seed 1 --trace 0

Every op goes through ``stringcone.cli.main(argv)`` in this process, one at
a time, with its standard output captured.  The op's time covers only that
call; the output checks run afterwards.  The pass prints one JSON object
on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import tracing
import workloads

import stringcone.cli as cli
from stringcone.cartan import build_cartan
from stringcone.characters import weyl_dim
from stringcone.errors import StringConeError
from stringcone.polyhedra import format_h_rep, parse_h_rep

# A fresh interpreter importing the command line, timed from the parent's
# clock reading before the spawn to the child's reading after the import.
PROBE = "import time, stringcone.cli; print(repr(time.monotonic()))"


def run_op(argv):
    """Run one CLI call; return (exit code or error text, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the op failed; the pass goes on
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _count_line(text: str, label: str):
    for line in text.splitlines():
        head, _, value = line.partition(" ")
        if head == label:
            return int(value)
    return None


def check_invariant(op: workloads.Op, text: str):
    """Seed-independent check of one op's output; None when it holds."""
    if op.command == "degenerate":
        checks = json.loads(text)["checks"]
        bad = [name for name, flag in checks.items() if not flag]
        return f"checks failed: {bad}" if bad else None
    if op.command == "cone":
        if format_h_rep(parse_h_rep(text)) != text:
            return "H-representation does not round-trip"
        return None
    label = {"polytope": "points", "crystal": "nodes"}[op.command]
    dim = weyl_dim(build_cartan(op.type_label, op.rank), op.lam)
    found = _count_line(text, label)
    return None if found == dim else f"{label} {found} != weyl_dim {dim}"


def check_op(op: workloads.Op, rc, text: str, digests: dict):
    """Why the op failed, or None: its exit code, else its digest and its
    invariant, both checked so that a changed output still gets a verdict."""
    if rc != 0:
        return f"exit {rc}"
    reasons = []
    if digest(text) != digests.get(op.key()):
        reasons.append("stdout digest mismatch")
    try:
        broken = check_invariant(op, text)
    except (ValueError, KeyError, TypeError, StringConeError) as exc:
        broken = f"unreadable output: {type(exc).__name__}: {exc}"
    if broken:
        reasons.append(broken)
    return "; ".join(reasons) or None


def probe_env() -> dict:
    """This environment with bytecode caching on: an installed command line
    imports from cached bytecode, so set-up is timed that way."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_probe(env) -> float:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout) - start


def run_pass(ops, digests, tracer=None, probe_env=None):
    """Run the ops in order; with ``probe_env``, time a fresh import
    before the first op and after each op, outside the op times."""
    records = []
    probes = []
    cpu = 0.0
    for op_id, op in enumerate(ops):
        if probe_env is not None:
            probes.append(setup_probe(probe_env))
        if tracer is not None:
            tracer.op_id = op_id
        cpu_start = time.process_time()
        rc, text, seconds = run_op(op.argv())
        cpu += time.process_time() - cpu_start
        records.append({"key": op.key(), "seconds": seconds,
                        "reason": check_op(op, rc, text, digests)})
    if probe_env is not None:
        probes.append(setup_probe(probe_env))
    return records, probes, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", action="store_true",
                        help="time fresh-interpreter imports between ops")
    parser.add_argument("--spans", help="file for the recorded spans")
    args = parser.parse_args(argv)

    table = workloads.load_table()
    ops = workloads.make_ops(args.workload, args.seed, table)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    env = None
    if args.probes:
        env = probe_env()
        setup_probe(env)  # fills the bytecode cache; not a sample
    try:
        records, probes, cpu = run_pass(ops, table["digests"], tracer, env)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "ops": records,
        "cpu_s": cpu,
        "setup_s": probes,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        if args.spans:
            tracer.dump(args.spans)
        totals = tracing.layer_totals(tracer.spans)
        result["layers"] = {name: list(v) for name, v in totals.items()}
        result["counts"] = dict(tracer.counts)
        result["images"] = len(tracer.images)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
