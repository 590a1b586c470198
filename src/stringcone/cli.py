"""Command-line surface.

Subcommands: crystal (graph dump), polytope (one weight's section),
cone (inferred weighted cone), degenerate (certificate JSON), verify
(acceptance suite).  Outputs are byte-stable for identical configs;
timings go to stderr only, as one ``timing {json}`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import time
from collections import namedtuple

from .cartan import build_cartan, check_longest_word, is_dominant, longest_word, validate_word
from .characters import weyl_dim
from .degeneration import (
    degeneration_certificate,
    level_hull,
    report_to_json,
    section_constraints,
)
from .errors import (
    EnumerationCapError,
    PolyhedralError,
    RootSystemError,
    StringConeError,
    WordError,
)
from .pathcrystal import DEFAULT_NODE_CAP, CrystalCache, edge_lines, enumerate_crystal
from .polyhedra import format_h_rep, section_runs
from .strings import dominant_crystals, weighted_points

# the most points ``polytope`` scans and prints.  ``--cap`` bounds crystals,
# and a section can be far larger than any crystal its cone needs: A3 at
# (6, 6, 6) has 117 649 points, over the default cap of 60 000.
POLYTOPE_POINT_LIMIT = 1_000_000

_STAGE_CODES = {
    "general": 1,
    "cartan": 3,
    "crystal": 4,
    "strings": 5,
    "polyhedra": 6,
    "degeneration": 7,
}


class RunConfig(namedtuple("RunConfig", "type_label rank w0_word lam demazure_word"
                           " level_bound node_cap out",
                           defaults=(None, None, None, None, None, 2, DEFAULT_NODE_CAP, None))):
    """One command's flags; a flag the command does not take keeps its default."""

    __slots__ = ()


def _int_tuple(text: str):
    if text == "":
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringcone",
        description="String parametrizations, weighted string cones, and "
        "toric-degeneration certificates",
    )
    # each subcommand takes only the flags it reads; dests are RunConfig fields
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--type", dest="type_label")
    base.add_argument("--rank", type=int)
    base.add_argument("--cap", dest="node_cap", type=int, default=DEFAULT_NODE_CAP)
    base.add_argument("--out")
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", type=_int_tuple)
    cone = argparse.ArgumentParser(add_help=False)
    cone.add_argument("--word", dest="w0_word", metavar="WORD", type=_int_tuple)
    cone.add_argument("--level-bound", type=int, default=2)
    demazure = argparse.ArgumentParser(add_help=False)
    demazure.add_argument("--demazure", dest="demazure_word", metavar="WORD", type=_int_tuple)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb, parents in (
        ("crystal", "dump one crystal graph", [base, lam]),
        ("polytope", "integral section of the weighted cone at one weight", [base, lam, cone]),
        ("cone", "infer the weighted string cone", [base, cone]),
        ("degenerate", "emit a degeneration certificate", [base, cone, demazure]),
    ):
        sub.add_parser(name, help=blurb, parents=parents)
    sub.add_parser("verify", help="run the acceptance suite").add_argument("--out")
    return parser


def parse_args(argv=None):
    """Parse and validate argv into (subcommand, RunConfig).

    Unknown types, malformed words, and non-dominant weights are usage
    errors here, before any pipeline stage runs.
    """
    parser = _build_parser()
    fields = vars(parser.parse_args(argv))
    command = fields.pop("command")
    config = RunConfig(**fields)
    if command == "verify":
        return command, config
    least = 1 if command == "degenerate" else 0
    if config.level_bound < least:
        parser.error(f"{command} needs --level-bound of at least {least}")
    if config.node_cap < 1:
        parser.error("--cap must be at least 1")
    if config.type_label is None or config.rank is None:
        parser.error(f"{command} requires --type and --rank")
    try:
        datum = build_cartan(config.type_label, config.rank)
    except RootSystemError as exc:
        parser.error(str(exc))
    for word in (config.w0_word, config.demazure_word):
        if word is not None:
            try:
                validate_word(datum, word)
            except WordError as exc:
                parser.error(str(exc))
    if config.lam is not None:
        if len(config.lam) != config.rank:
            parser.error(f"--lambda needs {config.rank} coordinates")
        if not is_dominant(config.lam):
            parser.error(f"lambda {config.lam} is not dominant")
    if command in ("crystal", "polytope") and config.lam is None:
        parser.error(f"{command} requires --lambda")
    return command, config


def _write(path: str, text: str) -> None:
    """Write through a temporary file next to the target, then rename it over.

    The target is ``path`` with its symlinks resolved, so a link keeps
    pointing at the file that receives the bytes.  A reader never sees a
    half-written file, and a failed write leaves no temporary file behind.
    An existing target that is not a regular file, such as a device or a
    pipe, is written in place: a rename would replace it with a file.
    """
    target = os.path.realpath(path)
    created = None  # the temporary file, once this call has made it
    try:
        if _is_regular_or_missing(target):
            tmp = f"{target}.{os.getpid()}.tmp"
            with open(tmp, "x") as fh:
                created = tmp
                fh.write(text)
            os.replace(tmp, target)
        else:
            with open(target, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if created is not None:
            with contextlib.suppress(OSError):
                os.unlink(created)
        raise StringConeError(f"cannot write {path}: {exc.strerror}") from exc


def _is_regular_or_missing(path: str) -> bool:
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)


def _fmt(vec) -> str:
    return ",".join(str(c) for c in vec)


def _cmd_crystal(config: RunConfig) -> int:
    datum = build_cartan(config.type_label, config.rank)
    graph = enumerate_crystal(datum, config.lam,
                              crystals=CrystalCache(datum, config.node_cap))
    lines = [
        f"crystal {config.type_label}{config.rank} lambda {_fmt(config.lam)}",
        f"nodes {graph.size}",
    ]
    coords = ",".join(["%d"] * datum.rank)
    row = f"%d weight {coords} eps {coords} phi {coords}"
    lines += [row % fields for fields
              in zip(range(graph.size), *graph.weights, *graph.eps, *graph.phi)]
    edges = edge_lines(graph)
    lines.append(f"edges {len(edges)}")
    lines.extend(edges)
    lines.append("")
    _emit("\n".join(lines), config.out)
    return 0


def _infer_cone(config: RunConfig, datum, timings: dict):
    """The word and the hull of its strings up to the level bound.

    The hull is ``level_hull``'s: the strings of 0 and the fundamental
    weights seed it, then each level's new strings are packed against it
    and inserted only where they add points.  The milliseconds of the ``crystal``,
    ``strings`` and ``hull`` stages go into ``timings``.
    """
    clock = time.perf_counter
    if config.w0_word is None:
        word = longest_word(datum)
    else:
        word = check_longest_word(datum, config.w0_word)
    crystals = CrystalCache(datum, config.node_cap)
    t = clock()
    dominant_crystals(datum, config.level_bound, crystals=crystals)
    timings["crystal"] = (clock() - t) * 1000.0
    t = clock()
    images = weighted_points(datum, word, config.level_bound, crystals=crystals)
    timings["strings"] = (clock() - t) * 1000.0
    t = clock()
    cone = level_hull(images, config.level_bound)
    timings["hull"] = (clock() - t) * 1000.0
    return word, cone


def _point_lines(columns, order, segments):
    """The text of ``polyhedra.section_runs``' points, one block per x_0.

    Each run's tail text " x_1 ... x_{m-1}" ("" for A1) is built once from
    per-integer pieces: a column's " %d" is formatted once per integer in
    its range and looked up per run, and ``zip`` hands ``join`` one reused
    tuple of pieces, so no tail tuple is built, and put in key order once.
    A block is then its x_0 joined with the texts of its live runs.
    """
    if not segments:
        return []
    pieces = []
    for column in columns:
        table = {v: " %d" % v for v in range(min(column), max(column) + 1)}
        pieces.append(map(table.__getitem__, column))
    texts = list(map("".join, zip(*pieces))) if columns else [""]
    texts = list(map(texts.__getitem__, order))
    blocks = []
    for x0, stop, live in segments:
        tails = list(map(texts.__getitem__, live))
        blocks.extend(head + ("\n" + head).join(tails) for head in map(str, range(x0, stop)))
    return blocks


def _cmd_polytope(config: RunConfig) -> int:
    clock = time.perf_counter
    datum = build_cartan(config.type_label, config.rank)
    expected = weyl_dim(datum, config.lam)
    if expected > POLYTOPE_POINT_LIMIT:
        raise EnumerationCapError(
            f"section at lambda={config.lam} has {expected} points, over the"
            f" polytope limit of {POLYTOPE_POINT_LIMIT}"
        )
    timings = {}
    word, cone = _infer_cone(config, datum, timings)
    t = clock()
    columns, order, segments = section_runs(section_constraints(cone, datum, word), config.lam)
    timings["section"] = (clock() - t) * 1000.0
    found = sum((stop - x0) * len(live) for x0, stop, live in segments)
    if found != expected:
        raise PolyhedralError(
            f"section at lambda={config.lam} has {found} points but"
            f" V(lambda) has dimension {expected}: the cone inferred up to level"
            f" bound {config.level_bound} misses points there; try a higher --level-bound"
        )
    t = clock()
    lines = [
        f"polytope {config.type_label}{config.rank}"
        f" word {_fmt(word)} lambda {_fmt(config.lam)}",
        f"inequalities {len(cone.facets)}",
    ]
    n = datum.rank
    for u in cone.facets:
        const = sum(a * b for a, b in zip(u[:n], config.lam))
        lines.append(" ".join([str(const)] + [str(c) for c in u[n:]]))
    lines.append(f"points {found}")
    lines += _point_lines(columns, order, segments)
    lines.append("")  # the final newline: one join builds the text, no + copies it
    text = "\n".join(lines)
    timings["format"] = (clock() - t) * 1000.0
    _emit(text, config.out)
    _print_timing(timings)
    return 0


def _cmd_cone(config: RunConfig) -> int:
    datum = build_cartan(config.type_label, config.rank)
    timings = {}
    word, cone = _infer_cone(config, datum, timings)
    text = format_h_rep(cone)
    if config.out is None:
        _emit(text, None)
    else:
        doc = {
            "type": config.type_label,
            "rank": config.rank,
            "word": list(word),
            "level_bound": config.level_bound,
            "rays": [list(r) for r in cone.rays],
            "facets": [list(u) for u in cone.facets],
        }
        # the companion goes first, so a failed companion leaves --out untouched
        _write(config.out + ".json", json.dumps(doc, separators=(",", ":")) + "\n")
        _write(config.out, text)
    _print_timing(timings)
    return 0


def _cmd_degenerate(config: RunConfig) -> int:
    datum = build_cartan(config.type_label, config.rank)
    word = config.w0_word if config.w0_word is not None else longest_word(datum)
    report = degeneration_certificate(
        datum,
        word,
        config.demazure_word,
        config.level_bound,
        crystals=CrystalCache(datum, config.node_cap),
    )
    _emit(report_to_json(report), config.out)
    _print_timing(report.timings)
    return 0 if report.passing else 1


def _print_timing(timings_ms) -> None:
    doc = {stage: round(ms, 1) for stage, ms in timings_ms.items()}
    print("timing " + json.dumps(doc, separators=(",", ":")), file=sys.stderr)


def _cmd_verify(config: RunConfig, runner=None) -> int:
    """Run the acceptance suite, or ``runner`` in its place.

    The suite is imported here, so no other command loads it.
    """
    if runner is None:
        from .acceptance import run_full as runner
    start = time.perf_counter()
    text, results = runner()
    _emit(text, config.out)
    _print_timing({"verify": (time.perf_counter() - start) * 1000.0})
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "crystal": _cmd_crystal,
    "polytope": _cmd_polytope,
    "cone": _cmd_cone,
    "degenerate": _cmd_degenerate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    command, config = parse_args(argv)
    try:
        return _COMMANDS[command](config)
    except StringConeError as exc:
        print(f"error[{exc.stage}]: {exc}", file=sys.stderr)
        return _STAGE_CODES.get(exc.stage, 1)


if __name__ == "__main__":
    sys.exit(main())
