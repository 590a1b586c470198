"""Toric-degeneration certificates for weighted string cones.

The certificate packages the inferred cone, a Hilbert basis of its lattice
points, the binomial relation lattice, a linear form separating equal-weight
string pairs, and (optionally) the Demazure face data, together with the
outcome of every verification check.  The enumeration is read as
``weighted_points`` returns it, one string image per weight lambda; a cone
point is ``lam + psi``, and the Hilbert basis holds ``(lam, psi)`` pairs.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import namedtuple
from operator import mul

from .cartan import CartanDatum, apply_word, check_longest_word, check_reduced_word, rho
from .characters import demazure_character, dimension_of, weyl_dim
from .errors import DegenerationError, InvariantViolation
from .linalg import kernel_basis_int, slack_lanes, vec_dot
from .pathcrystal import CrystalCache
from .polyhedra import (
    RationalCone,
    conic_hull,
    count_section_points,
    hilbert_basis,
    is_face,
    section_lattice_points,
)
from .strings import demazure_strings, dominant_crystals, dominant_weights, weighted_points


class SeparatingForm(namedtuple("SeparatingForm", "coefficients")):
    """Positive integer linear form on string coordinates."""

    __slots__ = ()

    def value(self, entries) -> int:
        return vec_dot(self.coefficients, entries)


def build_pairs(datum: CartanDatum, word, images):
    """Equal-weight pairs (phi, psi, lambda) of lexicographic neighbours.

    ``images`` is ``weighted_points``' lambda-keyed sorted images.  Strings
    are grouped by their exponent totals per simple root: the simple roots
    are linearly independent, so equal totals mean equal weight.  Each two
    consecutive strings of a group form one pair; a form strict on these
    is strict on every equal-weight pair by transitivity.
    """
    word = check_longest_word(datum, word)
    positions = [[k for k, letter in enumerate(word) if letter == i]
                 for i in range(1, datum.rank + 1)]
    pairs = []
    for lam, image in images.items():
        groups: dict = {}
        for psi in image:
            key = tuple(sum(map(psi.__getitem__, ks)) for ks in positions)
            groups.setdefault(key, []).append(psi)
        for mu in groups.values():
            pairs.extend((a, b, lam) for a, b in itertools.pairwise(mu))
    return tuple(pairs)


def separating_form(pairs, n_coords: int) -> SeparatingForm:
    """Linear form with e(phi) < e(psi) on every pair, built right to left.

    Coordinate s contributes 1 plus an epsilon-scaled copy of the form on
    the later coordinates; epsilon is the largest power of two at most the
    strictest gap ratio among pairs first separated at s, halved once, and
    1 when no pair constrains the step.  The coefficients are kept as
    integers over a common power of two whose last entry is 1, so they are
    already the cleared, coprime positive integers.  The form is not
    evaluated on the pairs here: the certificate's ``separating_form_strict``
    check is that one evaluation.
    """
    split = []
    for pair in pairs:
        phi, psi = pair[0], pair[1]
        if len(phi) != n_coords or len(psi) != n_coords:
            raise DegenerationError("pair length does not match coordinate count")
        s = next((k for k in range(n_coords) if phi[k] != psi[k]), None)
        if s is None:
            raise DegenerationError(f"pair has equal members {phi}")
        if phi[s] > psi[s]:
            raise DegenerationError(
                f"pair ({phi}, {psi}) is not oriented lexicographically"
            )
        split.append((s, phi, psi))
    coeffs = [1]  # the form so far, as integers over 2**shift
    shift = 0
    for s in range(n_coords - 2, -1, -1):
        steps = []
        for k, phi, psi in split:
            if k != s:
                continue
            tail = sum(c * phi[s + 1 + j] for j, c in enumerate(coeffs))
            if tail > 0:
                steps.append((tail, psi[s] - phi[s]))
        if steps:
            k = 0
            while any(tail > gap << (shift + k) for tail, gap in steps):
                k += 1
            shift += k + 1
        coeffs = [1 << shift] + coeffs
    return SeparatingForm(tuple(coeffs))


def lattice_relations(generators):
    """Basis of integer vectors v with sum v_i * g_i = 0 over the generators."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return ()
    dim = len(gens[0])
    rows = [[g[c] for g in gens] for c in range(dim)]
    return kernel_basis_int(rows, len(gens))


class DemazureQuotient(namedtuple("DemazureQuotient",
                                  "w_word adapted zero_tail face normal sections")):
    """String-level image of one Demazure crystal against the full cone.

    ``normal`` is None when the image spans no face; ``sections`` holds
    ``(lam, strings)`` pairs.
    """

    __slots__ = ()


def demazure_quotient(datum: CartanDatum, w0_word, w_word, level_bound: int, *,
                      cone: RationalCone,
                      crystals: CrystalCache | None = None) -> DemazureQuotient:
    """Demazure string sections, their face test in ``cone``, and the tail-vanishing flag.

    The sections run over the dominant weights up to ``level_bound``.  A
    word is adapted when its length-l(w) prefix is itself a reduced word of
    w; only then is the image guaranteed to be a coordinate face.
    """
    w0_word = check_longest_word(datum, w0_word)
    w_word = check_reduced_word(datum, w_word)
    crystals = CrystalCache.for_datum(datum, crystals)
    image = rho(datum)
    prefix = w0_word[: len(w_word)]
    adapted = apply_word(datum, prefix, image) == apply_word(datum, w_word, image)
    cut = len(w_word)
    sections = []
    weighted = []
    zero_tail = True
    for lam in dominant_weights(datum.rank, level_bound):
        dem = demazure_strings(datum, lam, w_word, w0_word, crystals=crystals)
        sections.append((lam, dem))
        for entries in dem:
            if any(entries[cut:]):
                zero_tail = False
            weighted.append(lam + entries)
    face, normal = is_face(cone, weighted)
    return DemazureQuotient(
        w_word=w_word,
        adapted=adapted,
        zero_tail=zero_tail,
        face=face,
        normal=normal,
        sections=tuple(sections),
    )


class SectionRecord(namedtuple("SectionRecord", "lam count dim match demazure_count"
                               " demazure_dim demazure_match", defaults=(None, None, None))):
    """One weight's string count against its Weyl dimension.

    The ``demazure_*`` fields are None without a Demazure word.
    """

    __slots__ = ()


class DegenerationReport(namedtuple("DegenerationReport", "datum w0_word demazure_word cone"
                                    " certified_level hilbert_basis relations form pairs"
                                    " sections demazure checks timings")):
    """Everything the degeneration construction needs, with check outcomes.

    ``demazure_word`` and ``demazure`` are None without a Demazure word;
    ``timings`` is a dict of milliseconds per stage.
    """

    __slots__ = ()

    @property
    def passing(self) -> bool:
        return all(flag for _, flag in self.checks)


def string_cone_rows(datum: CartanDatum, word):
    """Littelmann's inequalities on the points (lam, x) of the string cone of ``word``.

    Peeling a string x along the word passes through nodes b_1, ..., b_N
    with eps_{i_k}(b_k) = x_k and wt(b_k) = lam - sum_{j>=k} x_j alpha_{i_j},
    so phi_{i_k}(b_k) >= 0 and eps_{i_k}(b_k) >= 0 give, for each k, the rows
    lam_{i_k} - x_k - sum_{j>k} <alpha_{i_j}, alpha_{i_k}^vee> x_j >= 0 and
    x_k >= 0 (Littelmann, "Cones, crystals, and patterns", 1998, Prop. 1.5).
    The pairing is ``cartan_matrix[i_k - 1][i_j - 1]``.  Every string
    satisfies the rows, so the hull of any strings does.
    """
    n = datum.rank
    rows = []
    for k, i in enumerate(word):
        phi = [0] * len(word)
        phi[k] = -1
        for j in range(k + 1, len(word)):
            phi[j] = -datum.cartan_matrix[i - 1][word[j] - 1]
        eps = [0] * len(word)
        eps[k] = 1
        rows.append(tuple(int(m == i - 1) for m in range(n)) + tuple(phi))
        rows.append((0,) * n + tuple(eps))
    return tuple(rows)


def section_constraints(cone, datum: CartanDatum, word):
    """The cone's facets and the string cone's rows of ``word``, each once.

    The rows must hold on the cone's rays, so they hold on the cone and
    leave its sections unchanged; a row that fails raises.  With the
    facets they bound every free coordinate of a section from below and
    above once the later ones are fixed, as ``section_blocks`` and
    ``count_section_points`` ask: x_k >= 0 and Littelmann's phi-bound on
    x_k by lambda and the coordinates after k.
    """
    rows = string_cone_rows(datum, word)
    for row in rows:
        for ray in cone.rays:
            if vec_dot(row, ray) < 0:
                raise InvariantViolation(f"string cone row {row} fails on cone ray {ray}")
    # many rows are facets (14 of A4's 20); each is scanned once
    return tuple(dict.fromkeys(cone.facets + rows))


def _counted_saturation(constraints, images):
    """Saturation by counting: each section's lattice points against its image.

    ``constraints`` are ``section_constraints``' facets and rows, under
    which ``count_section_points`` counts each section with no box.  The
    caller checks that every image point lies in the cone, and an image is
    injective, so a section whose count equals its image's size is that
    image.  Only a section whose count differs is listed, and a cone point
    missing from the data raises; nothing is returned.
    """
    for lam, image in images.items():
        if count_section_points(constraints, lam) != len(image):
            missing = sorted(set(section_lattice_points(constraints, lam)) - set(image))
            if missing:
                raise DegenerationError(
                    f"cone section point lambda={lam} psi={missing[0]}"
                    " is absent from the enumeration"
                )


def _packed_slacks(cone, images, data_reach):
    """Facet slacks of every data point, packed by ``slack_lanes``.

    Returns the rays' bound on a Hilbert basis element, the packing, the
    packed slacks in enumeration order and the ``(lam, psi)`` points with
    a negative lane, which the cone misses.  The weight part of a slack is
    summed once per image.
    """
    reach = sum(max(map(abs, r)) for r in cone.rays)
    columns, sign = slack_lanes(cone.facets, max(data_reach, reach))
    n = len(next(iter(images)))
    head, tail = columns[:n], columns[n:]
    slacks = []
    missed = []
    for lam, image in images.items():
        base = sum(map(mul, lam, head))
        for psi in image:
            slack = base + sum(map(mul, psi, tail))
            if (slack + sign) & sign != sign:
                missed.append((lam, psi))
            slacks.append(slack)
    return reach, columns, sign, slacks, missed


def level_hull(images, top: int) -> RationalCone:
    """Conic hull of the points ``lam + psi`` with max(lam) <= top, grown one level at a time.

    ``images`` is ``weighted_points``' lambda-keyed images; weights above
    ``top`` are ignored.  The points with max(lam) <= 1 are hulled in one
    ``conic_hull`` call.  Then each shell max(lam) = 2, ..., top is packed
    against the current facets (``_packed_slacks``, its lanes as wide as
    the reach of all the points up to ``top``), and only when some point
    has a negative lane is the cone joined, in one ``conic_hull`` call on
    its rays and the missed points.  The rays generate the previous hull
    (lineality as opposite pairs), and every other shell point lies in it,
    so each join is the hull of all the points so far.  The whole level-1
    set is the base, since the intermediate cones of a sparse sample carry
    far more facets than the final one.
    """
    shells = [{} for _ in range(top + 1)]
    for lam, image in images.items():
        if (level := max(lam)) <= top:
            shells[level][lam] = image
    cone = conic_hull([lam + psi for shell in shells[:2]
                       for lam, image in shell.items() for psi in image])
    if top < 2:
        return cone
    # weights are dominant and string entries are eps-values, all >= 0
    data_reach = max(max(max(lam), max(map(max, image)))
                     for shell in shells for lam, image in shell.items())
    for shell in shells[2:]:
        missed = _packed_slacks(cone, shell, data_reach)[4]
        if missed:
            cone = conic_hull(cone.rays + tuple(lam + psi for lam, psi in missed))
    return cone


def degeneration_certificate(datum: CartanDatum, w0_word, w_word=None,
                             level_bound: int = 2, check_level: int | None = None,
                             *, crystals: CrystalCache | None = None) -> DegenerationReport:
    """Run the full pipeline and record every check outcome.

    The cone is the conic hull of the enumeration at check_level (one
    level higher than level_bound by default).  It is built as
    ``level_hull`` of the points with weight coordinates up to level_bound,
    joined once with the data points outside it: the rays generate that
    hull, lineality as opposite pairs, so the join is the hull of all the
    data.  The data points are then checked against the joined cone, and
    any outside it fail ``saturation``.  Each section is counted once under
    the facets and the string cone's rows (``_counted_saturation``); every
    data point lies in the cone and an image is injective, so a section
    whose count equals its image's size is that image, and its record
    takes its count from the image.  A section whose count differs is
    listed, and a cone section point absent from the enumeration is a
    genuine failure and raises.  Each data point's facet slack is packed
    into one int with a lane per facet (``slack_lanes``), and the Hilbert
    checks run on these packed slacks alone.  A lane is at
    most max |u|_1 over the facets u times the largest |v|_inf of a data
    point or a Hilbert basis element, and a basis element has
    |h|_inf <= sum over the rays r of |r|_inf (it is a ray or lies in a
    half-open parallelepiped of rays), which gives the lane width.

    The cone lies in lambda >= 0 and is pointed, so its facet normals span
    the space: a packed slack is zero only for the zero point, and x - g
    lies in the cone exactly when the packed difference has no negative
    lane.  ``generates`` asks that every nonzero data point x have a basis
    element g with x - g in the cone.  Then x - g is a lattice point of
    the cone whose lambda is at most x's, so it lies in a counted section.
    When ``saturation`` passes, that section's count equals its image's
    size, so the section is the image and x - g is a data point; had a
    count differed, the listing would have raised on the missing point
    or ``saturation`` would fail.  The grading sum(lambda) is positive
    on the nonzero basis elements, so x - g has lower degree, and by
    induction on degree every data point is a sum of basis elements.
    ``minimal`` asks that no difference of two basis elements lie in the
    cone.  This is stronger than "no member is a sum of others", and the
    same on a basis ``hilbert_basis`` returns, whose members generate
    every lattice point of the cone.

    The separating form is built on the build-level pairs and evaluated on
    them once, for ``separating_form_strict``: a form that fails a pair is
    reported as a failed check, not raised.
    """
    w0_word = check_longest_word(datum, w0_word)
    if w_word is not None:
        w_word = check_reduced_word(datum, w_word)
    if level_bound < 1:
        raise DegenerationError("level bound must be at least 1")
    if check_level is None:
        check_level = level_bound + 1
    if check_level < level_bound:
        raise DegenerationError("check level cannot be below the build level")
    timings: dict = {}
    crystals = CrystalCache.for_datum(datum, crystals)
    clock = time.perf_counter

    t = clock()
    dominant_crystals(datum, check_level, crystals=crystals)
    timings["crystal"] = (clock() - t) * 1000.0

    t = clock()
    images = weighted_points(datum, w0_word, check_level, crystals=crystals)
    timings["strings"] = (clock() - t) * 1000.0
    if w_word is None:  # only a Demazure word reads crystals later
        crystals = None  # so a cache passed as a temporary is freed here

    t = clock()
    # weights are dominant and string entries are eps-values, all >= 0, so
    # the largest |entry| of the data is the largest entry, read per image
    data_reach = max(max(max(lam), max(map(max, image)))
                     for lam, image in images.items())
    cone = level_hull(images, level_bound)
    reach, columns, sign, slacks, missed = _packed_slacks(cone, images, data_reach)
    if missed:
        cone = conic_hull(cone.rays + tuple(lam + psi for lam, psi in missed))
        del slacks  # the pre-join packing is dead before the repack
        reach, columns, sign, slacks, missed = _packed_slacks(cone, images, data_reach)
    timings["hull"] = (clock() - t) * 1000.0

    t = clock()
    _counted_saturation(section_constraints(cone, datum, w0_word), images)
    timings["saturation"] = (clock() - t) * 1000.0

    t = clock()
    n = datum.rank
    ncoords = datum.num_positive_roots
    quotient = None
    if w_word is not None:
        quotient = demazure_quotient(datum, w0_word, w_word, check_level,
                                     cone=cone, crystals=crystals)
    dem_sections = dict(quotient.sections) if quotient is not None else {}
    sections = []
    # a counted section equal in size to its injective image is that image
    for lam, image in images.items():
        count = len(image)
        dim = weyl_dim(datum, lam)
        if quotient is not None:
            dem = dem_sections[lam]
            ddim = dimension_of(demazure_character(datum, lam, w_word))
            sections.append(SectionRecord(
                lam=lam, count=count, dim=dim, match=count == dim,
                demazure_count=len(dem), demazure_dim=ddim,
                demazure_match=len(dem) == ddim,
            ))
        else:
            sections.append(SectionRecord(lam=lam, count=count, dim=dim,
                                          match=count == dim))
    timings["sections"] = (clock() - t) * 1000.0

    t = clock()
    grading = (1,) * n + (0,) * ncoords
    basis_vecs = hilbert_basis(cone, grading)
    basis_points = tuple((v[:n], v[n:]) for v in basis_vecs)
    if any(max(map(abs, v)) > reach for v in basis_vecs):
        raise DegenerationError("Hilbert basis element beyond its parallelepiped bound")
    basis_slacks = [sum(map(mul, v, columns)) for v in basis_vecs]
    generates = True
    for x in filter(None, slacks):
        biased = x + sign  # (biased - g) & sign is the sign test of x - g
        for g in basis_slacks:
            if (biased - g) & sign == sign:
                break
        else:
            generates = False
            break
    minimal = not any((h + sign - g) & sign == sign
                      for h, g in itertools.permutations(basis_slacks, 2))
    timings["hilbert"] = (clock() - t) * 1000.0

    t = clock()
    relations = lattice_relations(basis_vecs)
    balance = all(
        all(sum(v[i] * g[c] for i, g in enumerate(basis_vecs)) == 0
            for c in range(n + ncoords))
        for v in relations
    )
    timings["relations"] = (clock() - t) * 1000.0

    t = clock()
    pairs = build_pairs(datum, w0_word, {lam: image for lam, image in images.items()
                                         if max(lam) <= level_bound})
    form = separating_form(pairs, ncoords)
    strict = all(form.value(a) < form.value(b) for a, b, _ in pairs)
    timings["form"] = (clock() - t) * 1000.0

    checks = [
        ("saturation", not missed),
        ("section_counts_match_weyl", all(s.match for s in sections)),
        ("hilbert_basis_generates", generates),
        ("hilbert_basis_minimal", minimal),
        ("relations_balance", balance),
        ("separating_form_strict", strict),
    ]
    if quotient is not None:
        checks.append(("demazure_counts_match",
                       all(s.demazure_match for s in sections)))
        if quotient.adapted:
            checks.append(("demazure_zero_tail", quotient.zero_tail))
            checks.append(("demazure_face", quotient.face))
    return DegenerationReport(
        datum=datum,
        w0_word=w0_word,
        demazure_word=w_word,
        cone=cone,
        certified_level=check_level,
        hilbert_basis=basis_points,
        relations=relations,
        form=form,
        pairs=pairs,
        sections=tuple(sections),
        demazure=quotient,
        checks=tuple(checks),
        timings=timings,
    )


def report_to_json(report: DegenerationReport) -> str:
    """Serialize a report with a fixed key order and integer-only numerics.

    Timings are volatile and are serialized as an empty object so that
    identical configurations give byte-identical documents; the in-memory
    report keeps the measured values.
    """
    doc = {
        "type": report.datum.type_label,
        "rank": report.datum.rank,
        "word": list(report.w0_word),
        "demazure_word": list(report.demazure_word)
        if report.demazure_word is not None
        else None,
        "rays": [list(r) for r in report.cone.rays],
        "facets": [list(u) for u in report.cone.facets],
        "certified_level": report.certified_level,
        "hilbert_basis": [
            {"lambda": list(lam), "psi": list(psi)}
            for lam, psi in report.hilbert_basis
        ],
        "relations": [list(v) for v in report.relations],
        "weight_form": list(report.form.coefficients),
        "sections": [_section_doc(s) for s in report.sections],
        "checks": {name: bool(flag) for name, flag in report.checks},
        "timings_ms": {},
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _section_doc(s: SectionRecord) -> dict:
    doc = {
        "lambda": list(s.lam),
        "count": s.count,
        "dim": s.dim,
        "match": s.match,
    }
    if s.demazure_count is not None:
        doc["demazure_count"] = s.demazure_count
        doc["demazure_dim"] = s.demazure_dim
        doc["demazure_match"] = s.demazure_match
    return doc
