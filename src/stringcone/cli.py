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
import sys
import time
from dataclasses import dataclass

from .cartan import build_cartan, is_dominant, longest_word, validate_word
from .characters import weyl_dim
from .degeneration import degeneration_certificate, report_to_json
from .errors import PolyhedralError, RootSystemError, StringConeError, WordError
from .pathcrystal import DEFAULT_NODE_CAP, CrystalCache, edge_lines, enumerate_crystal
from .polyhedra import conic_hull, format_h_rep, section_lattice_points
from .strings import weighted_points
from .acceptance import run_full

_STAGE_CODES = {
    "general": 1,
    "cartan": 3,
    "crystal": 4,
    "strings": 5,
    "polyhedra": 6,
    "degeneration": 7,
}


@dataclass(frozen=True)
class RunConfig:
    type_label: str | None = None
    rank: int | None = None
    w0_word: tuple | None = None
    lam: tuple | None = None
    demazure_word: tuple | None = None
    level_bound: int = 2
    node_cap: int = DEFAULT_NODE_CAP
    out: str | None = None


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
    """Write through a temporary file next to ``path``, then rename it over.

    A reader never sees a half-written file, and a failed write leaves no
    temporary file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise StringConeError(f"cannot write {path}: {exc.strerror}") from exc


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
    _emit("\n".join(lines) + "\n", config.out)
    return 0


def _infer_cone(config: RunConfig, datum):
    word = config.w0_word if config.w0_word is not None else longest_word(datum)
    images = weighted_points(
        datum, word, config.level_bound,
        crystals=CrystalCache(datum, config.node_cap),
    )
    return word, conic_hull([lam + psi for lam, image in images.items() for psi in image])


def _cmd_polytope(config: RunConfig) -> int:
    datum = build_cartan(config.type_label, config.rank)
    word, cone = _infer_cone(config, datum)
    section = section_lattice_points(cone, config.lam)
    expected = weyl_dim(datum, config.lam)
    if len(section) != expected:
        raise PolyhedralError(
            f"section at lambda={config.lam} has {len(section)} points but"
            f" V(lambda) has dimension {expected}: the cone inferred up to level"
            f" bound {config.level_bound} misses points there; try a higher --level-bound"
        )
    lines = [
        f"polytope {config.type_label}{config.rank}"
        f" word {_fmt(word)} lambda {_fmt(config.lam)}",
        f"inequalities {len(cone.facets)}",
    ]
    n = datum.rank
    for u in cone.facets:
        const = sum(a * b for a, b in zip(u[:n], config.lam))
        lines.append(" ".join([str(const)] + [str(c) for c in u[n:]]))
    lines.append(f"points {len(section)}")
    row = " ".join(["%d"] * (cone.ambient_dim - n))
    lines += [row % p for p in section]
    _emit("\n".join(lines) + "\n", config.out)
    return 0


def _cmd_cone(config: RunConfig) -> int:
    datum = build_cartan(config.type_label, config.rank)
    word, cone = _infer_cone(config, datum)
    text = format_h_rep(cone)
    if config.out is None:
        _emit(text, None)
        return 0
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


def _cmd_verify(config: RunConfig, runner=run_full) -> int:
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
