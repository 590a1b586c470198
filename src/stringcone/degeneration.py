"""Toric-degeneration certificates for weighted string cones.

The certificate packages the inferred cone, a Hilbert basis of its lattice
points, the binomial relation lattice, a linear form separating equal-weight
string pairs, and (optionally) the Demazure face data, together with the
outcome of every verification check.  The enumeration is read as
``weighted_points`` returns it, one string image per weight lambda, held
as ``StringColumns``: an unsigned int ``array`` per letter of the word,
in node order.  A cone point is ``lam + psi``, and the Hilbert basis holds
``(lam, psi)`` pairs.  One routine grows the cone, ``level_hull``, and
the data are tested on point lanes (``PointLanes``): one int per facet with
a lane per data point, built from the points' ``StringColumns``, a column
per coordinate, which ``point_columns`` joins from the images' columns, so
that containment is one AND of the facet ints and the generation check a
few shifts and ANDs per basis element, with no Python step per point.  The
minimal check runs the same kernel on the basis, a lane per element.  A
Demazure crystal is a set of nodes of B(lambda), so ``demazure_quotient``
reads its strings from the same images, and each crystal is peeled once.
No image is sorted, and a string becomes a tuple only where it is read as
one: in the seed of the hull, a point a shell misses, a shared weight of
``build_pairs``, a Demazure section, and a section the count cannot settle.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from collections import Counter, namedtuple
from functools import reduce
from itertools import chain, compress, repeat
from operator import add, and_, mul

from .cartan import CartanDatum, apply_word, check_longest_word, check_reduced_word, rho
from .characters import demazure_character, dimension_of, weyl_dim
from .errors import DegenerationError, InvariantViolation
from .linalg import kernel_basis_int, vec_dot
from .pathcrystal import CrystalCache, demazure_crystal
from .polyhedra import (
    RationalCone,
    _DoubleDescription,
    _reach,
    count_section_points,
    hilbert_basis,
    is_face,
    section_lattice_points,
)
from .strings import StringColumns, _typecode, dominant_crystals, weighted_points


class SeparatingForm(namedtuple("SeparatingForm", "coefficients")):
    """Positive integer linear form on string coordinates."""

    __slots__ = ()

    def value(self, entries) -> int:
        return vec_dot(self.coefficients, entries)


def build_pairs(datum: CartanDatum, word, images):
    """Equal-weight pairs (phi, psi, lambda) of lexicographic neighbours.

    ``images`` is ``weighted_points``' lambda-keyed ``StringColumns``.
    Strings are grouped by their exponent totals per simple root: the
    simple roots are linearly independent, so equal totals mean equal
    weight.  The totals are summed column by column into one int key per
    string, mixed radix over the roots, and only the strings that share a
    key become tuples.  Each group is sorted, the groups of a weight come
    in the order of their least strings, and each two consecutive strings
    of a group form one pair; a form strict on these is strict on every
    equal-weight pair by transitivity.
    """
    word = check_longest_word(datum, word)
    pairs = []
    for lam, image in images.items():
        tops = [max(column) for column in image.columns]
        totals = [0] * datum.rank
        for letter, top in zip(word, tops):
            totals[letter - 1] += top
        radix = max(totals) + 1  # above every per-root total
        keys = [0] * len(image)
        for letter, column in zip(word, image.columns):
            keys = list(map(add, keys, map(mul, column, repeat(radix ** (letter - 1)))))
        counts = Counter(keys)
        if len(counts) == len(keys):
            continue
        shared = list(compress(range(len(keys)), map((1).__lt__, map(counts.__getitem__, keys))))
        groups: dict = {}
        for key, psi in zip(map(keys.__getitem__, shared), image.strings(shared)):
            groups.setdefault(key, []).append(psi)
        for mu in sorted(map(sorted, groups.values())):
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


def demazure_quotient(datum: CartanDatum, w0_word, w_word, images, *,
                      cone: RationalCone,
                      crystals: CrystalCache | None = None) -> DemazureQuotient:
    """Demazure string sections, their face test in ``cone``, and the tail-vanishing flag.

    ``images`` is ``weighted_points``' lambda-keyed ``StringColumns`` along
    ``w0_word``, and the sections run over its weights.  B_w(lambda) is a
    set of nodes of B(lambda), so each section is read from the image at
    those nodes, sorted, with no second peel.  A word is adapted when its
    length-l(w) prefix is itself a reduced word of w; only then is the
    image guaranteed to be a coordinate face.
    """
    w0_word = check_longest_word(datum, w0_word)
    w_word = check_reduced_word(datum, w_word)
    crystals = CrystalCache.for_datum(datum, crystals)
    regular = rho(datum)
    prefix = w0_word[: len(w_word)]
    adapted = apply_word(datum, prefix, regular) == apply_word(datum, w_word, regular)
    cut = len(w_word)
    sections = []
    weighted = []
    zero_tail = True
    for lam, image in images.items():
        dem = tuple(sorted(image.strings(demazure_crystal(crystals[lam], w_word))))
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
    above once the later ones are fixed, as ``section_runs`` and
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


class PointLanes(namedtuple("PointLanes", "normals lanes ones width count reach")):
    """The values of many points on a list of normals: one int per normal, a lane per point.

    Lane i of ``lanes[j]`` is ``width`` bits holding ``normals[j] . x_i +
    2**(width-1)``, point i first, so a lane's top bit (its bit in
    ``ones << (width-1)``) is set exactly when the value is >= 0.  The
    width keeps every value in -2**(width-1) .. 2**(width-1) - 1 and every
    value minus ``u . g`` for a vector g with |g|_inf <= ``reach``, so
    shifts never carry across lanes.  Built by ``point_lanes``.
    """

    __slots__ = ()

    def outside(self) -> bytes:
        """One byte per point: 1 where some normal is negative on it, else 0.

        The points inside are one AND of the lanes.
        """
        sign = self.ones << (self.width - 1)
        return self._flags(sign ^ reduce(and_, self.lanes, sign))

    def cover(self, vectors) -> bytes:
        """One byte per point x: 1 where x - g is >= 0 on every normal for some g, else 0.

        Each vector g needs |g|_inf <= ``reach``; one beyond it raises
        ``DegenerationError``.  For each g the lanes shifted by -(u . g)
        are ANDed over the normals and their sign bits ORed over the
        vectors.  When g is >= 0 on every normal, x - g
        is so only if x is, so the AND starts from the points inside and
        skips the normals g is 0 on.  No shifted lane is kept: caching one
        per distinct (normal, u . g) saves time but raises the peak memory.
        """
        lanes, ones = self.lanes, self.ones
        sign = ones << (self.width - 1)
        inside = reduce(and_, lanes, sign)
        covered = 0
        for g in vectors:
            if max(map(abs, g), default=0) > self.reach:
                raise DegenerationError(f"vector {g} is beyond the lanes' reach {self.reach}")
            shifts = [vec_dot(u, g) for u in self.normals]
            on_side = min(shifts, default=0) >= 0
            common = inside if on_side else sign
            for j, shift in enumerate(shifts):
                if shift or not on_side:
                    common &= lanes[j] - shift * ones  # common holds sign bits alone
            covered |= common
        return self._flags(covered)

    def _flags(self, bits) -> bytes:
        size = self.width // 8
        return (bits >> (self.width - 1)).to_bytes(self.count * size, "little")[::size]


def point_columns(images) -> StringColumns:
    """The points ``lam + psi`` of ``images`` as one ``StringColumns``, a column per coordinate.

    ``images`` maps each lam to its ``StringColumns``.  Entry i of a column
    is point i's, in enumeration order, in an ``array`` of the narrowest
    typecode that holds the weights and every image's typecode: an image
    column of another typecode is converted to it with ``array(code,
    column)``, one of that typecode is appended as it is.  Entries must
    be >= 0, as weights and string entries are; no point is a tuple.
    """
    images = {lam: image for lam, image in images.items() if len(image)}  # no columns
    count = sum(map(len, images.values()))
    code = _typecode(max([0, *chain.from_iterable(images)]
                         + [(1 << 8 * image.size) - 1 for image in images.values()]))
    columns = []
    for lam, image in images.items():
        parts = [array(code, [v]) * len(image) for v in lam]
        parts += [column if column.typecode == code else array(code, column)
                  for column in image.columns]
        columns = columns or [array(code) for _ in parts]
        for column, part in zip(columns, parts):
            column += part
    return StringColumns(columns, array(code).itemsize, count)


def point_lanes(normals, points: StringColumns, reach: int = 0) -> PointLanes:
    """Pack the values of ``points`` on ``normals``, one int per normal.

    ``points`` holds a column per coordinate, as ``point_columns`` returns.

    ``reach`` bounds |g|_inf for the vectors g later passed to
    ``PointLanes.cover``.  An entry of ``size`` bytes is at most
    top = 2**(8*size) - 1, so every value u . x and u . (x - g) is at most
    max |u|_1 * (top + reach) in size; the lanes are the fewest whole
    bytes that hold that bound and a sign bit.  Each coordinate is spread
    once into one int, byte k of each entry at byte k of its lane: offset k
    of the entry in ``memoryview(column).cast("B")``, or size - 1 - k on a
    big-endian host.  Each normal's int is one multiply-add per nonzero coefficient.
    """
    normals = tuple(normals)
    columns, size, count = points.columns, points.size, len(points)
    top = (1 << 8 * size) - 1
    bound = max((sum(map(abs, u)) for u in normals), default=0) * (top + reach)
    lane = bound.bit_length() // 8 + 1
    width = 8 * lane
    ones = int.from_bytes(b"\x01".ljust(lane, b"\0") * count, "little")
    lanes = [ones << (width - 1)] * len(normals)
    spread = bytearray(count * lane)
    offsets = range(size) if sys.byteorder == "little" else range(size - 1, -1, -1)
    for column, coefficients in zip(columns, zip(*normals)):
        raw = memoryview(column).cast("B")
        for k, offset in enumerate(offsets):
            spread[k::lane] = raw[offset::size]
        coordinate = int.from_bytes(spread, "little")
        for j, a in enumerate(coefficients):
            if a:
                lanes[j] += a * coordinate
    return PointLanes(normals, lanes, ones, width, count, reach)


def level_hull(images, top: int) -> RationalCone:
    """Conic hull of the points ``lam + psi`` with max(lam) <= top.

    ``images`` is ``weighted_points``' lambda-keyed images; weights above
    ``top`` are ignored.  One double description of the dual cone, the
    points acting as constraints, grows the hull.  It is seeded with the
    points of the weights with sum(lam) <= min(top, 1): 0 and the
    fundamental weights.  Then each shell max(lam) = L with sum(lam) >= 2,
    for L = 1, ..., top, is packed on the current facets (``point_lanes``,
    a lane per point in enumeration order), and only its points outside
    are inserted: an insert only grows the cone, so the points of the
    earlier shells stay in it.  The facets and, the hull being pointed,
    the rays are read off the final dual state (``_DoubleDescription.hull``).
    The seed is small and nearly enough: the fundamental points generate
    the level-1 cone of A2-A4, B2 and C2-C3 on their default words, and
    on any reduced word they miss at most 76 level-1 points of C3, 51 of
    B3 and 3 of G2.  So the double description runs over a few dozen
    points, not over all 807 level-1 points of C3, and the C3 hull at
    top 1 takes 1.9 ms instead of 4.2 ms (in-process medians, 2-core
    Xeon, CPython 3.11).
    """
    seed = [lam + psi for lam, image in images.items() if sum(lam) <= min(top, 1)
            for psi in image]
    dual = _DoubleDescription(len(seed[0]))
    dual.insert(seed)
    for level in range(1, top + 1):
        shell = point_columns({lam: image for lam, image in images.items()
                               if max(lam) == level and sum(lam) > 1})
        outside = point_lanes(dual.generators(), shell).outside()
        if any(outside):
            dual.insert(shell.strings(compress(range(len(shell)), outside)))
    return dual.hull()


def degeneration_certificate(datum: CartanDatum, w0_word, w_word=None,
                             level_bound: int = 2,
                             *, crystals: CrystalCache | None = None) -> DegenerationReport:
    """Run the full pipeline and record every check outcome.

    The cone is the conic hull of the enumeration at the check level,
    ``level_bound + 1``, which ``level_hull`` builds up to that level.
    Then every nonzero data point is packed once on the final facets, a
    lane per point: the data's point lanes.  Any data point outside the
    cone fails ``saturation``.  The build level picks only the separating
    form's pairs.  Each section is counted once under the facets and the
    string cone's rows (``_counted_saturation``);
    every data point lies in the cone and an image is injective, so a
    section whose count equals its image's size is that image, and its
    record takes its count from the image.  A section whose count differs
    is listed, and a cone section point absent from the enumeration is a
    genuine failure and raises.  The generation check is the lanes' cover
    by the Hilbert basis (``PointLanes.cover``).  The lanes hold u . x and
    u . (x - g) for every data point x and basis element g, since a basis
    element has |g|_inf <= the lanes' reach, the sum over the rays r of
    |r|_inf (it is a ray or lies in a half-open parallelepiped of rays);
    ``cover`` raises on an element beyond it.

    The weight-zero image is the zero point alone, which every cone holds,
    so the lanes leave it out.  ``generates`` asks that every other data
    point x have a basis element g with x - g in the cone.  Then x - g is
    a lattice point of the cone whose lambda is at most x's, so it lies in
    a counted section.  When ``saturation`` passes, that section's count
    equals its image's size, so the section is the image and x - g is a
    data point; had a count differed, the listing would have raised on the
    missing point or ``saturation`` would fail.  The grading sum(lambda)
    is positive on the nonzero basis elements, so x - g has lower degree,
    and by induction on degree every data point is a sum of basis
    elements.  ``minimal`` asks that no difference of two basis elements
    lie in the cone: on point lanes of the basis, a lane per element,
    each element g covers exactly one, g itself.  This is stronger than
    "no member is a sum of others", and the same on a basis
    ``hilbert_basis`` returns, whose members generate every lattice point
    of the cone.

    The separating form is built on the build-level pairs and evaluated on
    them once, for ``separating_form_strict``: a form that fails a pair is
    reported as a failed check, not raised.
    """
    w0_word = check_longest_word(datum, w0_word)
    if w_word is not None:
        w_word = check_reduced_word(datum, w_word)
    if level_bound < 1:
        raise DegenerationError("level bound must be at least 1")
    check_level = level_bound + 1
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
    cone = level_hull(images, check_level)
    data = {lam: image for lam, image in images.items() if any(lam)}
    lanes = point_lanes(cone.facets, point_columns(data), _reach(cone))
    saturated = not any(lanes.outside())
    timings["hull"] = (clock() - t) * 1000.0

    t = clock()
    _counted_saturation(section_constraints(cone, datum, w0_word), images)
    timings["saturation"] = (clock() - t) * 1000.0

    t = clock()
    n = datum.rank
    ncoords = datum.num_positive_roots
    quotient = None
    if w_word is not None:
        quotient = demazure_quotient(datum, w0_word, w_word, images,
                                     cone=cone, crystals=crystals)
    dem_sections = dict(quotient.sections) if quotient is not None else {}
    sections = []
    # a counted section equal in size to its injective image is that image
    for lam, image in images.items():
        demazure = ()
        if quotient is not None:
            dcount = len(dem_sections[lam])
            ddim = dimension_of(demazure_character(datum, lam, w_word))
            demazure = (dcount, ddim, dcount == ddim)
        count, dim = len(image), weyl_dim(datum, lam)
        sections.append(SectionRecord(lam, count, dim, count == dim, *demazure))
    timings["sections"] = (clock() - t) * 1000.0

    t = clock()
    grading = (1,) * n + (0,) * ncoords
    basis_vecs = hilbert_basis(cone, grading)
    basis_points = tuple((v[:n], v[n:]) for v in basis_vecs)
    generates = all(lanes.cover(basis_vecs))
    basis_lanes = point_lanes(cone.facets, StringColumns.from_strings(basis_vecs), lanes.reach)
    del lanes
    minimal = all(sum(basis_lanes.cover((g,))) == 1 for g in basis_vecs)
    timings["hilbert"] = (clock() - t) * 1000.0

    t = clock()
    relations = lattice_relations(basis_vecs)
    balance = all(vec_dot(v, col) == 0 for v in relations for col in zip(*basis_vecs))
    timings["relations"] = (clock() - t) * 1000.0

    t = clock()
    pairs = build_pairs(datum, w0_word, {lam: image for lam, image in images.items()
                                         if max(lam) <= level_bound})
    form = separating_form(pairs, ncoords)
    strict = all(form.value(a) < form.value(b) for a, b, _ in pairs)
    timings["form"] = (clock() - t) * 1000.0

    checks = [
        ("saturation", saturated),
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
