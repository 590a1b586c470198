"""Spans and counters around the public functions of the stringcone modules.

The tracer replaces module attributes with wrappers, in the defining module
and in every module that imported the same function object by name, so
calls between modules are seen as well as calls from the command line.
Spans are kept in memory as ``[name, start, end, parent, op_id]`` and
written out once, after the run.  Self time is a span's duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

PACKAGE = "stringcone"

# (module, function): functions that get a span.  Every layer of the
# pipeline is covered so that the self time of ``cli.main`` is only the
# command line's own parsing, formatting and output.
SPANNED = [
    ("cli", "main"),
    ("pathcrystal", "enumerate_crystal"),
    ("pathcrystal", "demazure_crystal"),
    ("strings", "string_image"),
    ("strings", "weighted_points"),
    ("strings", "demazure_strings"),
    ("polyhedra", "conic_hull"),
    ("polyhedra", "section_lattice_points"),
    ("polyhedra", "saturation_check"),
    ("polyhedra", "hilbert_basis"),
    ("polyhedra", "is_face"),
    ("linalg", "rank_int"),
    ("linalg", "det_int"),
    ("linalg", "invert_fraction"),
    ("linalg", "hnf_rows"),
    ("linalg", "kernel_basis_int"),
    ("linalg", "lattice_span_basis"),
    ("linalg", "snf_with_uinv"),
    ("degeneration", "degeneration_certificate"),
    ("degeneration", "build_pairs"),
    ("degeneration", "separating_form"),
    ("degeneration", "lattice_relations"),
    ("degeneration", "demazure_quotient"),
    ("characters", "weyl_dim"),
    ("characters", "demazure_character"),
]

# Called once per peeled crystal node: a call count only, no span, so that
# tracing stays cheap.
COUNTED = [
    ("cartan", "is_reduced_word"),
]


def _image_key(args, tracer):
    datum, lam, word = args[0], args[1], args[2]
    return (tracer.op_id, datum.type_label, datum.rank, tuple(lam), tuple(word))


# Counters read from return values at the span boundaries.
def _on_crystal(tracer, args, result):
    tracer.counts["pathcrystal.nodes"] += result.size


def _on_image(tracer, args, result):
    tracer.counts["strings.strings"] += len(result)
    tracer.images.add(_image_key(args, tracer))


def _on_section(tracer, args, result):
    tracer.counts["polyhedra.section_points"] += len(result)


def _on_hilbert(tracer, args, result):
    tracer.counts["polyhedra.hilbert_basis.size"] += len(result)


def _on_pairs(tracer, args, result):
    tracer.counts["degeneration.pairs"] += len(result)


ON_RESULT = {
    "pathcrystal.enumerate_crystal": _on_crystal,
    "strings.string_image": _on_image,
    "polyhedra.section_lattice_points": _on_section,
    "polyhedra.hilbert_basis": _on_hilbert,
    "degeneration.build_pairs": _on_pairs,
}


class Tracer:
    """In-memory span recorder; ``op_id`` tags the spans of one operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.images = set()
        self.op_id = -1
        self._patched = []

    def spanned(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every module of the package that holds a traced function."""
        modules = [
            importlib.import_module(f"{PACKAGE}.{m}")
            for m in sorted({m for m, _ in SPANNED + COUNTED})
        ]
        modules += [
            mod for key, mod in sorted(sys.modules.items())
            if (key == PACKAGE or key.startswith(PACKAGE + "."))
            and mod not in modules
        ]
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for mod_name, fn_name in table:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
                original = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                if kind == "span":
                    wrapper = self.spanned(name, original, ON_RESULT.get(name))
                else:
                    wrapper = self.counted(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the union of child intervals."""
    children = [[] for _ in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children[parent].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, span[1]), min(hi, span[2])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span[2] - span[1]) - covered)
    return out


def layer_totals(spans):
    """Per span name: (self time, call count, inclusive time).

    Inclusive time sums span durations, which would count a traced function
    that calls itself twice; none of them does.
    """
    selfs = self_times(spans)
    totals: dict = {}
    for span, own in zip(spans, selfs):
        acc = totals.setdefault(span[0], [0.0, 0, 0.0])
        acc[0] += own
        acc[1] += 1
        acc[2] += span[2] - span[1]
    return {name: tuple(acc) for name, acc in totals.items()}
