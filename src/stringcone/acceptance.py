"""Acceptance suite: one check per release criterion, with a stable report.

Every criterion prints one line; details carry deterministic counts only so
that two runs render byte-identical text.  The strings of each type and
word come from one ``weighted_points`` call up to level 2, cached by the
run and read by criteria 1, 2, 3, 5 and 6, so each crystal is peeled once
per word.  Criterion 9 compares the bytes of one certificate emitted by
command-line processes with different hash seeds against the same
certificate built in this process.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import time
from collections import Counter, namedtuple

from .cartan import (
    adapted_word,
    all_reduced_words,
    build_cartan,
    longest_word,
    weyl_group_words,
)
from .characters import (
    WeightPolynomial,
    demazure_character,
    demazure_operator,
    dimension_of,
    weyl_character,
    weyl_dim,
)
from .degeneration import (
    build_pairs,
    degeneration_certificate,
    demazure_quotient,
    level_hull,
    report_to_json,
    separating_form,
)
from .pathcrystal import CrystalCache
from .strings import dominant_weights, string_weight, weighted_points

CASES = ("A1", "A2", "A3", "B2", "G2")
_CASE_DATA = {"A1": ("A", 1), "A2": ("A", 2), "A3": ("A", 3),
              "B2": ("B", 2), "G2": ("G", 2)}
# types certified at level bound 2, so audited at level 3; the rest at
# level bound 1, audited at level 2
_DEEP_CHECK = ("A1", "A2", "B2")
_CASE_TIME_LIMIT = 60.0
_FORM_TIME_LIMIT = 1.0
_FUZZ_SAMPLES = 1000


class CriterionResult(namedtuple("CriterionResult", "index slug passed detail")):
    """Outcome of one criterion, with its one-line detail."""

    __slots__ = ()


class AcceptanceRun:
    """Caches shared between criteria of a single suite run."""

    def __init__(self):
        self.crystals = {
            key: CrystalCache(build_cartan(*_CASE_DATA[key])) for key in CASES
        }
        self._words = {}
        self._images = {}
        self._reports = {}
        self._dem_cones = {}

    def datum(self, key):
        return self.crystals[key].datum

    def words(self, key):
        """Reduced-word sample: every word, except one in four for A3."""
        if key not in self._words:
            datum = self.datum(key)
            words = all_reduced_words(datum, longest_word(datum))
            if key == "A3":
                words = words[::4]
            self._words[key] = words
        return self._words[key]

    def images(self, key, word):
        """The lambda-keyed images along ``word`` up to level 2, peeled once."""
        slot = (key, word)
        if slot not in self._images:
            self._images[slot] = weighted_points(
                self.datum(key), word, 2, crystals=self.crystals[key]
            )
        return self._images[slot]

    def report(self, key):
        if key not in self._reports:
            datum = self.datum(key)
            self._reports[key] = degeneration_certificate(
                datum,
                longest_word(datum),
                level_bound=2 if key in _DEEP_CHECK else 1,
                crystals=self.crystals[key],
            )
        return self._reports[key]

    def demazure_cone(self, key, w0_word):
        slot = (key, w0_word)
        if slot not in self._dem_cones:
            self._dem_cones[slot] = level_hull(self.images(key, w0_word), 2)
        return self._dem_cones[slot]


def _criterion_1(run: AcceptanceRun):
    """Image size, crystal size, and Weyl dimension agree everywhere."""
    checks = 0
    total_words = 0
    for key in CASES:
        datum = run.datum(key)
        start = time.perf_counter()
        words = run.words(key)
        total_words += len(words)
        for lam in dominant_weights(datum.rank, 2):
            graph = run.crystals[key][lam]
            dim = weyl_dim(datum, lam)
            if graph.size != dim:
                return False, f"crystal size {graph.size} != dim {dim} at {key} {lam}"
            for word in words:
                image = run.images(key, word)[lam]
                if len(image) != dim:
                    return False, (
                        f"image size {len(image)} != dim {dim} at {key} {word} {lam}"
                    )
                checks += 1
        elapsed = time.perf_counter() - start
        if key in ("A3", "G2") and elapsed > _CASE_TIME_LIMIT:
            return False, f"{key} exceeded the {_CASE_TIME_LIMIT:.0f}s budget"
    return True, f"{len(CASES)} types, {total_words} words, {checks} size checks"


def _criterion_2(run: AcceptanceRun):
    """No string collisions; every peel reached the highest node."""
    images = 0
    strings = 0
    for key in CASES:
        for word in run.words(key):
            # weighted_points raises if a peel stops early; recheck injectivity
            for lam, image in run.images(key, word).items():
                if len(set(image)) != len(image):
                    return False, f"collision at {key} {word} {lam}"
                images += 1
                strings += len(image)
    return True, f"{images} images, {strings} strings, zero collisions"


def _criterion_3(run: AcceptanceRun):
    """Sums of level-1 string points land in the image of the summed weight."""
    checked = 0
    for key in ("A2", "B2"):
        for word in run.words(key):
            images = run.images(key, word)
            targets = {lam: set(image) for lam, image in images.items()}
            points = [(lam, psi) for lam, image in images.items() if max(lam) <= 1
                      for psi in image]
            for (lp, pp), (lq, pq) in itertools.combinations_with_replacement(points, 2):
                lam = tuple(a + b for a, b in zip(lp, lq))
                psi = tuple(a + b for a, b in zip(pp, pq))
                if psi not in targets[lam]:
                    return False, f"{psi} escapes the image at {key} {word} {lam}"
                checked += 1
    return True, f"2 types, {checked} pair sums verified"


def _criterion_4(run: AcceptanceRun):
    """Cone sections equal the enumeration up to the certified level."""
    details = []
    for key in CASES:
        report = run.report(key)
        checks = dict(report.checks)
        wanted = 3 if key in _DEEP_CHECK else 2
        if report.certified_level != wanted:
            return False, f"{key} certified level {report.certified_level} != {wanted}"
        if not checks["saturation"]:
            return False, f"{key} saturation check failed"
        if not checks["section_counts_match_weyl"]:
            return False, f"{key} section counts disagree with Weyl dimensions"
        details.append(f"{key}:{report.certified_level}")
    return True, "certified levels " + " ".join(details)


def _criterion_5(run: AcceptanceRun):
    """Demazure images are zero-tailed coordinate faces with correct counts."""
    elements = 0
    section_checks = 0
    for key in ("A2", "B2"):
        datum = run.datum(key)
        for w_word in weyl_group_words(datum):
            w0_word = adapted_word(datum, w_word)
            quotient = demazure_quotient(
                datum,
                w0_word,
                w_word,
                run.images(key, w0_word),
                cone=run.demazure_cone(key, w0_word),
                crystals=run.crystals[key],
            )
            if not quotient.adapted:
                return False, f"word {w0_word} is not adapted to {w_word} ({key})"
            if not quotient.zero_tail:
                return False, f"nonzero tail for w={w_word} ({key})"
            if not quotient.face:
                return False, f"image of w={w_word} is not a face ({key})"
            for lam, dem in quotient.sections:
                ddim = dimension_of(demazure_character(datum, lam, w_word))
                if len(dem) != ddim:
                    return False, (
                        f"count {len(dem)} != Demazure dim {ddim}"
                        f" at {key} w={w_word} {lam}"
                    )
                section_checks += 1
            elements += 1
    return True, f"{elements} Weyl elements, {section_checks} section counts"


def _criterion_6(run: AcceptanceRun):
    """The form built on neighbour pairs splits every equal-weight pair, quickly."""
    total_pairs = 0
    for key in CASES:
        datum = run.datum(key)
        word = longest_word(datum)
        images = run.images(key, word)
        pairs = build_pairs(datum, word, images)
        start = time.perf_counter()
        form = separating_form(pairs, datum.num_positive_roots)
        elapsed = time.perf_counter() - start
        if elapsed > _FORM_TIME_LIMIT:
            return False, f"{key} form construction exceeded 1s"
        for lam, image in images.items():
            groups: dict = {}
            for psi in sorted(image):  # each pair lexicographically ordered
                groups.setdefault(string_weight(datum, lam, word, psi), []).append(psi)
            for mu in groups.values():
                for a, b in itertools.combinations(mu, 2):
                    if form.value(a) >= form.value(b):
                        return False, f"form fails on {a} vs {b} ({key})"
                    total_pairs += 1
    return True, f"{len(CASES)} types, {total_pairs} pairs separated"


def _criterion_7(run: AcceptanceRun):
    """Hilbert bases generate and are minimal; A2 shows its one relation."""
    sizes = []
    for key in CASES:
        report = run.report(key)
        checks = dict(report.checks)
        if not checks["hilbert_basis_generates"]:
            return False, f"{key} basis does not generate"
        if not checks["hilbert_basis_minimal"]:
            return False, f"{key} basis is not minimal"
        if not checks["relations_balance"]:
            return False, f"{key} has an unbalanced relation"
        sizes.append(f"{key}:{len(report.hilbert_basis)}")
    a2 = run.report("A2")
    if len(a2.relations) != 1:
        return False, f"A2 relation lattice has rank {len(a2.relations)}, expected 1"
    return True, "basis sizes " + " ".join(sizes) + ", A2 relation rank 1"


def _criterion_8(run: AcceptanceRun):
    """Crystal weights match character coefficients; Demazure ops idempotent."""
    comparisons = 0
    for key in CASES:
        datum = run.datum(key)
        for lam in dominant_weights(datum.rank, 2):
            observed = Counter(zip(*run.crystals[key][lam].weights))
            expected = weyl_character(datum, lam).as_dict()
            if dict(observed) != expected:
                return False, f"weight multiset mismatch at {key} {lam}"
            comparisons += 1
    rng = random.Random(1526)
    for step in range(_FUZZ_SAMPLES):
        datum = run.datum(CASES[step % len(CASES)])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            weight = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
            terms[weight] = terms.get(weight, 0) + rng.randint(1, 5)
        poly = WeightPolynomial.from_dict(terms)
        i = rng.randint(1, datum.rank)
        once = demazure_operator(datum, i, poly)
        if demazure_operator(datum, i, once) != once:
            return False, f"idempotence fails at sample {step}"
        comparisons += 1
    return True, (
        f"{comparisons - _FUZZ_SAMPLES} character comparisons,"
        f" {_FUZZ_SAMPLES} idempotence samples"
    )


# B2 certificate with a Demazure word: about 0.3 s, and every stage runs.
_DETERMINISM_ARGS = ("degenerate", "--type", "B", "--rank", "2",
                     "--level-bound", "1", "--demazure", "1")
_HASH_SEEDS = ("0", "1")


def _criterion_9(run: AcceptanceRun):
    """Certificate bytes depend neither on the hash seed nor on the process."""
    import subprocess  # only this criterion spawns processes

    datum = run.datum("B2")
    expected = report_to_json(degeneration_certificate(
        datum, longest_word(datum), (1,), 1, crystals=run.crystals["B2"]
    )).encode()
    # The children import the package from the same place as this process.
    path = os.pathsep.join(sys.path)
    outputs = []
    for seed in _HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "stringcone.cli", *_DETERMINISM_ARGS],
            env=env, capture_output=True, check=False,
        )
        outputs.append(proc.stdout)
    identical = all(out == expected for out in outputs)
    detail = (f"hash seeds {' and '.join(_HASH_SEEDS)}, "
              + ("identical certificates" if identical else "divergent certificates"))
    return identical, detail


_CRITERIA = (
    (1, "string-count-identity", _criterion_1),
    (2, "injectivity-and-full-peel", _criterion_2),
    (3, "semigroup-closure", _criterion_3),
    (4, "cone-saturation", _criterion_4),
    (5, "demazure-faces", _criterion_5),
    (6, "separating-form", _criterion_6),
    (7, "hilbert-basis-soundness", _criterion_7),
    (8, "oracle-cross-validation", _criterion_8),
    (9, "determinism", _criterion_9),
)


def render_report(results) -> str:
    lines = [
        f"criterion {r.index} {r.slug}: {'PASS' if r.passed else 'FAIL'} ({r.detail})"
        for r in results
    ]
    lines.append("overall: " + ("PASS" if all(r.passed for r in results) else "FAIL"))
    return "\n".join(lines) + "\n"


def run_full():
    """Run every criterion once over one set of shared caches.

    Returns the rendered report text and the result tuple.
    """
    run = AcceptanceRun()
    results = []
    for index, slug, fn in _CRITERIA:
        try:
            passed, detail = fn(run)
        except Exception as exc:  # report the failure, never hide it
            passed = False
            detail = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        results.append(CriterionResult(index, slug, passed, detail))
    results = tuple(results)
    return render_report(results), results
