import hashlib
import itertools
import json
import math
import operator
import re
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stringcone.degeneration
import stringcone.polyhedra
import stringcone.strings
from stringcone.cartan import all_reduced_words, build_cartan, longest_word, weyl_group_words
from stringcone.cli import main
from stringcone.degeneration import (
    build_pairs,
    SeparatingForm,
    degeneration_certificate,
    demazure_quotient,
    lattice_relations,
    level_hull,
    point_columns,
    point_lanes,
    report_to_json,
    section_constraints,
    separating_form,
    string_cone_rows,
)
from stringcone.errors import DegenerationError, InvariantViolation, WordError
from stringcone.linalg import vec_dot
from stringcone.pathcrystal import CrystalCache
from stringcone.polyhedra import (
    _DoubleDescription,
    _dd_pair,
    conic_hull,
    contains,
    count_section_points,
    hilbert_basis,
    section_lattice_points,
)
from stringcone.strings import (
    StringColumns,
    demazure_strings,
    dominant_weights,
    string_image,
    string_weight,
    weighted_points,
)


@pytest.fixture(scope="module")
def a2():
    return build_cartan("A", 2)


def test_build_pairs_multiplicity_free(a2):
    datum = build_cartan("A", 1)
    assert build_pairs(datum, (1,), weighted_points(datum, (1,), 2)) == ()
    assert build_pairs(a2, (1, 2, 1), weighted_points(a2, (1, 2, 1), 0)) == ()


def test_build_pairs_a2_level_one(a2):
    pairs = build_pairs(a2, (1, 2, 1), weighted_points(a2, (1, 2, 1), 1))
    assert pairs == (((0, 1, 1), (1, 1, 0), (1, 1)),)


def test_build_pairs_keys_keep_weights_apart(a2):
    # along (1, 2, 1) the root totals are (a + c, b): (1, 0, 1) totals (2, 0)
    # and (0, 1, 0) totals (0, 1), so a radix of 2 would give both the key 2;
    # the radix exceeds every total, 1 + 1 here, and the strings stay apart
    images = {(1, 1): StringColumns.from_strings([(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 1, 1)])}
    assert build_pairs(a2, (1, 2, 1), images) == (((0, 1, 1), (1, 1, 0), (1, 1)),)


def _tuple_pairs(datum, word, level):
    """The pairs of the sorted tuple images: the reference for ``build_pairs``.

    Each image is ``string_image``'s sorted tuple, grouped by its exponent
    totals per simple root in first-seen order, and each two consecutive
    strings of a group form a pair.
    """
    positions = [[k for k, letter in enumerate(word) if letter == i]
                 for i in range(1, datum.rank + 1)]
    pairs = []
    for lam in dominant_weights(datum.rank, level):
        groups: dict = {}
        for psi in string_image(datum, lam, word):
            key = tuple(sum(map(psi.__getitem__, ks)) for ks in positions)
            groups.setdefault(key, []).append(psi)
        for mu in groups.values():
            pairs.extend((a, b, lam) for a, b in itertools.pairwise(mu))
    return tuple(pairs)


@pytest.mark.parametrize("type_label, rank, every_word", [
    ("A", 2, True), ("B", 2, True), ("C", 2, True), ("G", 2, True), ("A", 3, False)])
def test_build_pairs_match_the_tuple_pairs(type_label, rank, every_word):
    # the same pairs in the same order as grouping the sorted tuple images
    datum = build_cartan(type_label, rank)
    crystals = CrystalCache(datum)
    words = all_reduced_words(datum, longest_word(datum)) if every_word else [longest_word(datum)]
    for word in words:
        pairs = build_pairs(datum, word, weighted_points(datum, word, 2, crystals=crystals))
        assert pairs and pairs == _tuple_pairs(datum, word, 2), word


def _weight_groups(datum, word, images):
    """Sorted strings of equal ``string_weight``, as (lambda, group) pairs."""
    groups = []
    for lam, image in images.items():
        by_weight = {}
        for psi in sorted(image):
            by_weight.setdefault(string_weight(datum, lam, word, psi), []).append(psi)
        groups += [(lam, mu) for mu in by_weight.values()]
    return groups


@pytest.mark.parametrize("type_label,rank,level", [
    ("A", 2, 2), ("B", 2, 2), ("C", 2, 2), ("G", 2, 2), ("A", 3, 1)])
def test_neighbour_pairs_give_the_all_pairs_form(type_label, rank, level):
    # the reference pairs every two strings of a weight space, not neighbours
    datum = build_cartan(type_label, rank)
    crystals = CrystalCache(datum)
    for word in all_reduced_words(datum, longest_word(datum)):
        images = weighted_points(datum, word, level, crystals=crystals)
        groups = _weight_groups(datum, word, images)
        pairs = build_pairs(datum, word, images)
        assert pairs == tuple((a, b, lam) for lam, mu in groups
                              for a, b in itertools.pairwise(mu))
        reference = [(a, b, lam) for lam, mu in groups
                     for a, b in itertools.combinations(mu, 2)]
        form = separating_form(pairs, datum.num_positive_roots)
        assert form == separating_form(reference, datum.num_positive_roots), word
        assert all(form.value(a) < form.value(b) for a, b, _ in reference)


def test_separating_form_worked_example():
    form = separating_form([((0, 1), (1, 0), None)], 2)
    assert form.coefficients == (2, 1)
    assert form.value((0, 1)) < form.value((1, 0))


def test_separating_form_unconstrained():
    assert separating_form((), 3).coefficients == (1, 1, 1)


def test_separating_form_from_crystal_pairs(a2):
    pairs = build_pairs(a2, (1, 2, 1), weighted_points(a2, (1, 2, 1), 1))
    form = separating_form(pairs, 3)
    assert form.coefficients == (4, 1, 1)
    for a, b, _ in pairs:
        assert form.value(a) < form.value(b)


def test_separating_form_rejections():
    with pytest.raises(DegenerationError):
        separating_form([((1, 0), (1, 0), None)], 2)
    with pytest.raises(DegenerationError):
        separating_form([((1, 0), (0, 1), None)], 2)
    with pytest.raises(DegenerationError):
        separating_form([((0, 1), (1, 0), None)], 3)


def _separating_coefficients_over_fractions(pairs, n_coords):
    """Reference form: the same right-to-left construction in Fractions.

    ``pairs`` holds lexicographically oriented ``(phi, psi)`` tuples.
    """
    split = []
    for phi, psi in pairs:
        s = next(k for k in range(n_coords) if phi[k] != psi[k])
        split.append((s, phi, psi))
    coeffs = [Fraction(1)]
    for s in range(n_coords - 2, -1, -1):
        bounds = []
        for k, phi, psi in split:
            if k != s:
                continue
            tail = sum(c * phi[s + 1 + j] for j, c in enumerate(coeffs))
            if tail > 0:
                bounds.append(Fraction(psi[s] - phi[s]) / tail)
        if bounds:
            bound = min(bounds)
            k = 0
            while Fraction(1, 2 ** k) > bound:
                k += 1
            eps = Fraction(1, 2 ** (k + 1))
        else:
            eps = Fraction(1)
        coeffs = [Fraction(1)] + [eps * c for c in coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs)


@st.composite
def oriented_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vec = st.tuples(*[st.integers(min_value=0, max_value=6)] * n)
    pairs = []
    for a, b in draw(st.lists(st.tuples(vec, vec), max_size=8)):
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(oriented_pairs())
def test_separating_form_matches_fraction_reference(case):
    n, pairs = case
    form = separating_form([(phi, psi, None) for phi, psi in pairs], n)
    assert form.coefficients == _separating_coefficients_over_fractions(pairs, n)
    for phi, psi in pairs:
        assert form.value(phi) < form.value(psi)


def test_lattice_relations():
    assert lattice_relations([(1, 0), (0, 1), (1, 1)]) == ((1, 1, -1),)
    assert lattice_relations([(1, 0), (0, 1)]) == ()
    assert lattice_relations([]) == ()


@pytest.fixture(scope="module")
def a2_images(a2):
    """The images of A2 along (1, 2, 1) up to level 1."""
    return weighted_points(a2, (1, 2, 1), 1)


@pytest.fixture(scope="module")
def a2_cone(a2_images):
    """The weighted string cone of A2 along (1, 2, 1), hulled at level 1."""
    return conic_hull([lam + psi for lam, image in a2_images.items() for psi in image])


def test_demazure_quotient_simple_reflection(a2, a2_images, a2_cone):
    q = demazure_quotient(a2, (1, 2, 1), (1,), a2_images, cone=a2_cone)
    assert q.adapted and q.zero_tail and q.face
    assert q.normal == (0, 0, 0, 1, 0)
    assert [(lam, len(dem)) for lam, dem in q.sections] == [
        ((0, 0), 1), ((0, 1), 1), ((1, 0), 2), ((1, 1), 2)]


def test_demazure_quotient_identity(a2, a2_images, a2_cone):
    q = demazure_quotient(a2, (1, 2, 1), (), a2_images, cone=a2_cone)
    assert q.adapted and q.zero_tail and q.face
    assert all(len(dem) == 1 for _, dem in q.sections)


def test_demazure_quotient_unadapted_prefix(a2, a2_images, a2_cone):
    # s2 is not a prefix of (1, 2, 1); the quotient is reported, not raised
    q = demazure_quotient(a2, (1, 2, 1), (2,), a2_images, cone=a2_cone)
    assert not q.adapted
    assert not q.zero_tail


def test_demazure_quotient_word_validation(a2, a2_images, a2_cone):
    with pytest.raises(WordError):
        demazure_quotient(a2, (1, 2, 1), (1, 1), a2_images, cone=a2_cone)
    with pytest.raises(WordError):
        demazure_quotient(a2, (1, 2), (1,), a2_images, cone=a2_cone)


@pytest.mark.parametrize("type_label", ["A", "B", "C", "G"])
def test_demazure_sections_match_the_subset_peel(type_label):
    # each section is read from the image at the Demazure nodes; the
    # reference peels the Demazure nodes of B(lam) on their own
    datum = build_cartan(type_label, 2)
    crystals = CrystalCache(datum)
    for w0 in all_reduced_words(datum, longest_word(datum)):
        images = weighted_points(datum, w0, 2, crystals=crystals)
        cone = level_hull(images, 2)
        for w in weyl_group_words(datum):
            q = demazure_quotient(datum, w0, w, images, cone=cone, crystals=crystals)
            assert q.sections == tuple(
                (lam, demazure_strings(datum, lam, w, w0, crystals=crystals))
                for lam in dominant_weights(2, 2)), (w0, w)


@pytest.mark.parametrize("type_label, rank, w_word, peels", [
    ("B", 2, (1,), 9),
    ("G", 2, (1, 2), 9),  # not adapted to the default word (2, 1, 2, 1, 2, 1)
    ("A", 3, None, 27),
], ids=["B2-demazure", "G2-unadapted", "A3"])
def test_certificate_peels_each_crystal_once(type_label, rank, w_word, peels, monkeypatch):
    # one peel per image at the check level: the Demazure sections are read
    # from the images, not peeled a second time
    calls = []
    peel = stringcone.strings._peel_nodes

    def counting(graph, nodes, word):
        calls.append(graph.lam)
        return peel(graph, nodes, word)

    monkeypatch.setattr(stringcone.strings, "_peel_nodes", counting)
    datum = build_cartan(type_label, rank)
    report = degeneration_certificate(datum, longest_word(datum), w_word, level_bound=1)
    assert len(calls) == len(report.sections) == peels
    assert calls == [s.lam for s in report.sections]


def test_certificate_a1():
    datum = build_cartan("A", 1)
    report = degeneration_certificate(datum, (1,))
    assert report.passing
    assert report.certified_level == 3
    assert report.hilbert_basis == (((1,), (0,)), ((1,), (1,)))
    assert report.relations == ()
    assert report.form.coefficients == (1,)


def test_certificate_a2(a2):
    report = degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)
    assert report.passing
    assert report.certified_level == 2
    assert len(report.hilbert_basis) == 6
    assert report.relations == ((0, 1, -1, -1, 0, 1),)
    assert report.form.coefficients == (4, 1, 1)
    counts = {s.lam: s.count for s in report.sections}
    assert counts[(0, 0)] == 1
    assert counts[(1, 0)] == counts[(0, 1)] == 3
    assert counts[(1, 1)] == 8
    assert counts[(2, 2)] == 27
    assert all(s.match for s in report.sections)
    assert dict(report.checks) == {
        "saturation": True,
        "section_counts_match_weyl": True,
        "hilbert_basis_generates": True,
        "hilbert_basis_minimal": True,
        "relations_balance": True,
        "separating_form_strict": True,
    }


def test_certificate_peels_each_image_once(a2, monkeypatch):
    # each crystal is peeled into columns once, and no sorted image is built
    peeled = []
    original = stringcone.strings._string_columns

    def counting(graph, word):
        peeled.append(graph.lam)
        return original(graph, word)

    def refuse(*args, **kwargs):
        raise AssertionError("sorted image built")

    monkeypatch.setattr(stringcone.strings, "_string_columns", counting)
    # every module that imported string_image by name refuses it
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("stringcone")
                and getattr(module, "string_image", None) is stringcone.strings.string_image):
            monkeypatch.setattr(module, "string_image", refuse)
    report = degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)
    assert report.passing
    assert peeled == list(dominant_weights(2, 2))


def test_certificate_pairs_come_from_the_build_level_points():
    datum = build_cartan("B", 2)
    word = longest_word(datum)
    report = degeneration_certificate(datum, word, level_bound=1)
    assert report.pairs
    assert report.pairs == build_pairs(datum, word, weighted_points(datum, word, 1))


def test_hilbert_path_needs_no_rational_elimination(a2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rational elimination called")

    # det_int is fraction-free and tests each cell for unimodularity
    for name in ("invert_fraction", "lattice_span_basis"):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("stringcone"):
                monkeypatch.setattr(module, name, refuse, raising=False)
    assert hilbert_basis(conic_hull([(2, 4)]), (1, 1)) == ((1, 2),)
    report = degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)
    assert report.passing
    assert len(report.hilbert_basis) == 6


@pytest.mark.parametrize("type_label", ["A", "B", "C", "G"])
def test_basis_sums_are_the_enumerated_points(type_label):
    # oracle: every sum of basis elements inside the weight box, by
    # breadth-first search, is an enumerated point and reaches all of them
    datum = build_cartan(type_label, 2)
    for word in all_reduced_words(datum, longest_word(datum)):
        report = degeneration_certificate(datum, word, level_bound=1, check_level=2)
        assert report.passing
        basis = [lam + psi for lam, psi in report.hilbert_basis]
        reached = {(0,) * len(basis[0])}
        frontier = set(reached)
        while frontier:
            frontier = {
                s for s in (tuple(map(operator.add, x, g)) for x in frontier for g in basis)
                if max(s[:2]) <= 2
            } - reached
            reached |= frontier
        points = {lam + psi for lam, image in weighted_points(datum, word, 2).items()
                  for psi in image}
        assert reached == points, word


@pytest.mark.parametrize("order", [sorted, lambda vecs: sorted(vecs, reverse=True)])
def test_minimal_check_tries_both_orders_of_each_pair(order, monkeypatch):
    # a redundant member is caught whether it comes before or after the
    # member it reduces by
    datum = build_cartan("B", 2)
    word = longest_word(datum)
    vecs = [lam + psi for lam, psi in
            degeneration_certificate(datum, word, level_bound=1).hilbert_basis]
    wrong = tuple(order(vecs + [tuple(2 * c for c in vecs[0])]))
    monkeypatch.setattr(stringcone.degeneration, "hilbert_basis",
                        lambda cone, grading: wrong)
    checks = dict(degeneration_certificate(datum, word, level_bound=1).checks)
    assert checks["hilbert_basis_minimal"] is False
    assert checks["hilbert_basis_generates"] is True


@pytest.mark.parametrize("type_label", ["B", "G"])
def test_minimal_check_rejects_a_sum_of_two_basis_elements(type_label, monkeypatch):
    # a basis with g_i + g_j added is not minimal: g_i covers it as well as
    # itself.  B2 adds every pair of its level-bound-1 basis, doubles
    # included, G2 its lowest-degree element plus each other element.  The
    # sum goes last and then first, so that neither end of the basis is
    # left out of the check; the true basis stays minimal
    datum = build_cartan(type_label, 2)
    word = longest_word(datum)
    crystals = CrystalCache(datum)
    report = degeneration_certificate(datum, word, level_bound=1, crystals=crystals)
    assert dict(report.checks)["hilbert_basis_minimal"] is True
    vecs = tuple(lam + psi for lam, psi in report.hilbert_basis)
    if type_label == "B":
        pairs = list(itertools.combinations_with_replacement(vecs, 2))
    else:
        low = min(vecs, key=lambda v: (sum(v[:2]), v))
        pairs = [(low, g) for g in vecs if g != low]
    for g, h in pairs:
        added = (tuple(map(operator.add, g, h)),)
        for wrong in (vecs + added, added + vecs):
            monkeypatch.setattr(stringcone.degeneration, "hilbert_basis",
                                lambda cone, grading, wrong=wrong: wrong)
            checks = dict(degeneration_certificate(datum, word, level_bound=1,
                                                   crystals=crystals).checks)
            assert checks["hilbert_basis_minimal"] is False, (g, h)
            assert checks["hilbert_basis_generates"] is True


def _record_level_hull(monkeypatch, events, drop=None):
    """Record ``level_hull``'s dual state in ``events``: ``("insert", batch)`` and ``("hull",)``.

    Each batch of points is listed as inserted; batch number ``drop``
    (counted from 0) is listed but not inserted.  The one-shot passes of
    ``conic_hull`` and of a hull with lineality run on the unpatched state.
    """
    class Recording(_DoubleDescription):
        __slots__ = ()

        def insert(self, constraints):
            batch = list(constraints)
            if sum(event[0] == "insert" for event in events) != drop:
                super().insert(batch)
            events.append(("insert", batch))

        def hull(self):
            events.append(("hull",))
            return super().hull()

    monkeypatch.setattr(stringcone.degeneration, "_DoubleDescription", Recording)


def _batch_sizes(events):
    return [len(event[1]) for event in events if event[0] == "insert"]


def test_demazure_certificate_hulls_only_in_the_hull_stage(a2, monkeypatch):
    # the face test reads the cone's rays and takes no hull of its own; the
    # saturated sections are counted, never listed
    events = []
    count = stringcone.degeneration.count_section_points

    def recording_count(constraints, lam):
        events.append(("count", lam))
        return count(constraints, lam)

    def refuse(*args):
        raise AssertionError("a saturated section was listed, or a second hull taken")

    _record_level_hull(monkeypatch, events)
    monkeypatch.setattr(stringcone.polyhedra, "conic_hull", refuse)
    for module in (stringcone.polyhedra, stringcone.degeneration):
        monkeypatch.setattr(module, "section_lattice_points", refuse)
    monkeypatch.setattr(stringcone.degeneration, "count_section_points", recording_count)
    report = degeneration_certificate(a2, (1, 2, 1), (1, 2), level_bound=1, check_level=2)
    assert dict(report.checks)["demazure_face"] is True
    # A2's fundamental points generate its level-2 cone: one insert, one hull
    assert [event[0] for event in events[:2]] == ["insert", "hull"]
    assert events[2:] == [("count", lam) for lam in dominant_weights(2, 2)]


def test_string_cone_rows_a2():
    # (lam1, lam2, x1, x2, x3) along 1, 2, 1: lam1 - x1 + x2 - 2 x3,
    # lam2 - x2 + x3 and lam1 - x3 bound x1, x2 and x3 from above
    assert string_cone_rows(build_cartan("A", 2), (1, 2, 1)) == (
        (1, 0, -1, 1, -2), (0, 0, 1, 0, 0),
        (0, 1, 0, -1, 1), (0, 0, 0, 1, 0),
        (1, 0, 0, 0, -1), (0, 0, 0, 0, 1),
    )


def test_section_constraints_hold_each_facet_and_row_once(a2, monkeypatch):
    # the facets, then the rows that are no facet (5 of A2's 6 rows are);
    # a row failing on a ray raises
    images = weighted_points(a2, (1, 2, 1), 1)
    cone = conic_hull([lam + psi for lam, image in images.items() for psi in image])
    rows = string_cone_rows(a2, (1, 2, 1))
    constraints = section_constraints(cone, a2, (1, 2, 1))
    assert constraints == cone.facets + tuple(r for r in rows if r not in cone.facets)
    assert len(constraints) == 7
    monkeypatch.setattr(stringcone.degeneration, "string_cone_rows",
                        lambda datum, word: rows + ((0, 0, -1, 0, 0),))
    with pytest.raises(InvariantViolation, match=r"row \(0, 0, -1, 0, 0\) fails on cone ray"):
        section_constraints(cone, a2, (1, 2, 1))


def _box_listing(cone, lam):
    """The section of the cone's facets at lam, listed inside its vertex box.

    The homogenized section's extreme rays are its vertices (one double
    description), and the box of their coordinates goes in as rows on the
    weight lam + (1,), a unit coordinate carrying the box's constants: an
    oracle, with no string cone row, for the count under the rows.
    """
    n = len(lam)
    nfree = cone.ambient_dim - n
    homog = [(1,) + (0,) * nfree] + [(vec_dot(u[:n], lam),) + u[n:] for u in cone.facets]
    lineality, vertices = _dd_pair(homog, nfree + 1)
    assert not lineality and all(v[0] > 0 for v in vertices)  # a polytope
    rows = [u[:n] + (0,) + u[n:] for u in cone.facets]
    for k in range(1, nfree + 1):
        unit = tuple(int(j == k) for j in range(1, nfree + 1))
        low = min(-(-v[k] // v[0]) for v in vertices)
        high = max(v[k] // v[0] for v in vertices)
        rows.append((0,) * n + (-low,) + unit)
        rows.append((0,) * n + (high,) + tuple(-c for c in unit))
    return section_lattice_points(rows, lam + (1,))


@pytest.mark.parametrize("type_label, rank, step", [
    ("A", 2, 1), ("B", 2, 1), ("C", 2, 1), ("G", 2, 1), ("A", 3, 4),
])
def test_counted_sections_match_the_listed_sections(type_label, rank, step):
    # every word of the rank-2 types and four words of A3: the rows hold on
    # the check-level cone's rays and on every string, and the count under
    # the rows and facets equals the listing under the facets and the
    # vertex box at each weight
    datum = build_cartan(type_label, rank)
    for word in all_reduced_words(datum, longest_word(datum))[::step]:
        images = weighted_points(datum, word, 2)
        cone = conic_hull([lam + psi for lam, image in images.items() for psi in image])
        rows = string_cone_rows(datum, word)
        assert all(vec_dot(row, v) >= 0 for row in rows for v in cone.rays)
        assert all(vec_dot(row, lam + psi) >= 0 for row in rows
                   for lam, image in images.items() for psi in image)
        for lam in dominant_weights(rank, 2):
            assert (count_section_points(cone.facets + rows, lam)
                    == len(_box_listing(cone, lam))), (word, lam)


def test_certificate_rejects_a_row_failing_on_a_ray(a2, monkeypatch):
    # -x1 >= 0 fails on every ray with x1 > 0
    monkeypatch.setattr(stringcone.degeneration, "string_cone_rows",
                        lambda datum, word: ((0, 0, -1, 0, 0),))
    with pytest.raises(InvariantViolation, match="fails on cone ray"):
        degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)


def test_certificate_names_a_section_point_missing_from_the_data(a2, monkeypatch):
    # a point dropped from the (2, 2) image leaves the hull unchanged, so
    # the count falls short and the listed section names the point
    original = stringcone.degeneration.weighted_points
    dropped = string_image(a2, (2, 2), (1, 2, 1))[5]

    def dropping(*args, **kwargs):
        images = original(*args, **kwargs)
        images[(2, 2)] = StringColumns.from_strings(p for p in images[(2, 2)] if p != dropped)
        return images

    monkeypatch.setattr(stringcone.degeneration, "weighted_points", dropping)
    with pytest.raises(DegenerationError,
                       match=re.escape(f"lambda=(2, 2) psi={dropped} is absent")):
        degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)


@pytest.mark.parametrize("type_label, missed", [("B", 6), ("G", 88)])
def test_certificate_fails_on_data_outside_the_final_cone(type_label, missed, monkeypatch):
    # a hull that drops its last insert, the level-2 points the lower
    # levels miss, leaves those points outside the final cone: the counts
    # cannot vouch for those sections, and the saturation check fails
    datum = build_cartan(type_label, 2)
    word = longest_word(datum)
    events = []
    _record_level_hull(monkeypatch, events)
    assert degeneration_certificate(datum, word, level_bound=1).passing
    last = len(_batch_sizes(events)) - 1
    events.clear()
    _record_level_hull(monkeypatch, events, drop=last)
    report = degeneration_certificate(datum, word, level_bound=1)
    assert _batch_sizes(events)[last] == missed
    assert dict(report.checks)["saturation"] is False
    assert not report.passing
    images = weighted_points(datum, word, 2)
    outside = [lam + psi for lam, image in images.items() for psi in image
               if any(vec_dot(u, lam + psi) < 0 for u in report.cone.facets)]
    assert len(outside) == missed


# SHA-256 of report_to_json for the default words at level bound 1
RANK3_REPORT_SHA256 = {
    "B": "fd08d1b2cc4232ad32f10636d2f87db90df5bf88d7ed877f62028288cf7702a7",
    "C": "e2351580bc6739b4efa809b5e6ae26c721db42ed7a8c07d5a526aeaa8312fb2e",
}


@pytest.mark.slow
def test_rank3_certificates_pass():
    for type_label in ("B", "C"):
        datum = build_cartan(type_label, 3)
        report = degeneration_certificate(datum, longest_word(datum), level_bound=1)
        assert all(ok for _, ok in report.checks), type_label
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == RANK3_REPORT_SHA256[type_label], type_label


A4_REPORT_SHA256 = "2ca2c9279b5d0f4bb8f2b7110a3101e8b95fd4743ca899714b2a6f1086fc9d21"


@pytest.mark.slow
def test_a4_certificate_passes():
    # checks at level 2, whose crystals reach (2, 2, 2, 2) with 59 049 nodes
    datum = build_cartan("A", 4)
    report = degeneration_certificate(datum, longest_word(datum), level_bound=1,
                                      crystals=CrystalCache(datum, 60000))
    assert all(ok for _, ok in report.checks)
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert digest == A4_REPORT_SHA256


@pytest.mark.slow
def test_a4_cli_report_at_the_default_cap(capsys):
    # B(2, 2, 2, 2) has 59 049 nodes, within the default cap
    assert main(["degenerate", "--type", "A", "--rank", "4", "--level-bound", "1"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == A4_REPORT_SHA256


def test_certificate_with_demazure_word(a2):
    report = degeneration_certificate(a2, (1, 2, 1), (1,),
                                      level_bound=1, check_level=2)
    assert report.passing
    names = [name for name, _ in report.checks]
    assert names[-3:] == ["demazure_counts_match", "demazure_zero_tail",
                          "demazure_face"]
    assert all(s.demazure_match for s in report.sections)
    assert report.sections[0].demazure_count == 1


def test_certificate_level_validation(a2):
    with pytest.raises(DegenerationError):
        degeneration_certificate(a2, (1, 2, 1), level_bound=0)
    with pytest.raises(DegenerationError):
        degeneration_certificate(a2, (1, 2, 1), level_bound=2, check_level=1)


def test_report_json_shape(a2):
    report = degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)
    text = report_to_json(report)
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == ["type", "rank", "word", "demazure_word", "rays",
                          "facets", "certified_level", "hilbert_basis",
                          "relations", "weight_form", "sections", "checks",
                          "timings_ms"]
    assert data["type"] == "A"
    assert data["rank"] == 2
    assert data["word"] == [1, 2, 1]
    assert data["demazure_word"] is None
    assert data["certified_level"] == 2
    assert data["timings_ms"] == {}
    assert all(data["checks"].values())


def test_report_json_deterministic(a2):
    first = report_to_json(
        degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2))
    second = report_to_json(
        degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2))
    assert first == second


@pytest.mark.parametrize("type_label, rank, level, sizes", [
    ("G", 2, 1, [22, 3, 88]),
    ("B", 2, 1, [10, 6]),
    ("G", 2, 2, [22, 3, 88, 175]),
    ("A", 3, 1, [15]),
])
def test_certificate_hulls_level_one_then_the_points_each_level_misses(
        type_label, rank, level, sizes, monkeypatch):
    # the hull is seeded with the points of 0 and the fundamental weights,
    # then takes only the points each level misses, never the whole
    # enumeration, and recovers its rays once: G2 at level bound 2 inserts
    # its 22 seed points, the 3 level-1 points they miss, then the missed
    # level-2 and level-3 points
    events = []
    _record_level_hull(monkeypatch, events)
    datum = build_cartan(type_label, rank)
    assert degeneration_certificate(datum, longest_word(datum), level_bound=level).passing
    assert _batch_sizes(events) == sizes
    assert [event[0] for event in events] == ["insert"] * len(sizes) + ["hull"]


@pytest.mark.parametrize("type_label, check_level", [
    ("B", 2), ("C", 2), ("G", 2), ("G", 3),
])
def test_certificate_cone_is_the_hull_of_the_check_level(type_label, check_level):
    datum = build_cartan(type_label, 2)
    for word in all_reduced_words(datum, longest_word(datum)):
        report = degeneration_certificate(datum, word, level_bound=1,
                                          check_level=check_level)
        points = [lam + psi for lam, image in
                  weighted_points(datum, word, check_level).items() for psi in image]
        assert report.cone == conic_hull(points)


def test_certificate_scans_sections_once(monkeypatch):
    # B2's fundamental points miss level-2 data points, so the hull takes
    # them first; then each check-level section is counted once and none
    # is listed
    events = []
    count = stringcone.degeneration.count_section_points

    def recording_count(constraints, lam):
        events.append(("count", lam))
        return count(constraints, lam)

    def refuse_listing(*args):
        raise AssertionError("a saturated section was listed")

    _record_level_hull(monkeypatch, events)
    monkeypatch.setattr(stringcone.degeneration, "count_section_points", recording_count)
    monkeypatch.setattr(stringcone.degeneration, "section_lattice_points", refuse_listing)
    datum = build_cartan("B", 2)
    report = degeneration_certificate(datum, longest_word(datum), level_bound=1)
    assert _batch_sizes(events) == [10, 6]
    assert [event[0] for event in events[:3]] == ["insert", "insert", "hull"]
    assert events[3:] == [("count", lam) for lam in dominant_weights(2, 2)]
    assert report.certified_level == 2
    assert report.passing


@pytest.mark.parametrize("type_label", ["B", "G"])
def test_hilbert_checks_reject_a_wrong_basis(type_label, monkeypatch):
    # the lane checks must see a missing generator and a redundant one
    datum = build_cartan(type_label, 2)
    word = longest_word(datum)
    basis = list(degeneration_certificate(datum, word, level_bound=1, check_level=2)
                 .hilbert_basis)
    vecs = [lam + psi for lam, psi in basis]
    top = max(vecs, key=lambda v: (sum(v[:2]), v))
    doubled = tuple(2 * c for c in top)
    for wrong, failing in [
        ([v for v in vecs if v != top], "hilbert_basis_generates"),
        (vecs + [doubled], "hilbert_basis_minimal"),
    ]:
        monkeypatch.setattr(stringcone.degeneration, "hilbert_basis",
                            lambda cone, grading, wrong=wrong: tuple(sorted(wrong)))
        report = degeneration_certificate(datum, word, level_bound=1, check_level=2)
        assert dict(report.checks)[failing] is False


@pytest.mark.parametrize("type_label, level", [("B", 1), ("B", 2), ("G", 1), ("G", 2)])
def test_generation_misses_any_dropped_basis_element(type_label, level, monkeypatch):
    # every basis element is a data point that no sum of the others reaches,
    # so the lane cover must leave it out once it is dropped
    datum = build_cartan(type_label, 2)
    word = longest_word(datum)
    crystals = CrystalCache(datum)
    vecs = [lam + psi for lam, psi in degeneration_certificate(
        datum, word, level_bound=level, crystals=crystals).hilbert_basis]
    for k, dropped in enumerate(vecs):
        wrong = tuple(vecs[:k] + vecs[k + 1:])
        monkeypatch.setattr(stringcone.degeneration, "hilbert_basis",
                            lambda cone, grading, wrong=wrong: wrong)
        checks = dict(degeneration_certificate(datum, word, level_bound=level,
                                               crystals=crystals).checks)
        assert checks["hilbert_basis_generates"] is False, dropped
        assert checks["hilbert_basis_minimal"] is True


def test_certificate_lanes_cover_every_packed_point(monkeypatch):
    # level_hull packs B2's level-1 shell (1, 1) on the cone of its seed
    # points, and the level-2 shell on the level-1 cone, which misses
    # level-2 points; the certificate packs every nonzero data point once
    # on the final cone, then the basis on that cone.  Each width must hold
    # every packed point's facet values, and the lanes a cover reads every
    # difference with a basis element
    packed = []

    def recording(normals, columns, reach=0):
        packed.append(point_lanes(normals, columns, reach))
        return packed[-1]

    monkeypatch.setattr(stringcone.degeneration, "point_lanes", recording)
    datum = build_cartan("B", 2)
    word = longest_word(datum)
    report = degeneration_certificate(datum, word, level_bound=1)
    images = weighted_points(datum, word, 2)
    data = [lam + psi for lam, image in images.items() if any(lam) for psi in image]

    def chosen(keep):
        return [lam + psi for lam, image in images.items() if keep(lam) for psi in image]

    seed = conic_hull(chosen(lambda lam: sum(lam) <= 1))
    level_one = conic_hull(chosen(lambda lam: max(lam) <= 1))
    assert level_one != report.cone  # the level-1 hull misses level-2 points
    basis = [lam + psi for lam, psi in report.hilbert_basis]
    reach = sum(max(map(abs, r)) for r in report.cone.rays)
    steps = [(seed, chosen(lambda lam: lam == (1, 1)), 0),
             (level_one, chosen(lambda lam: max(lam) == 2), 0),
             (report.cone, data, reach), (report.cone, basis, reach)]
    assert [lanes.normals for lanes in packed] == [cone.facets for cone, _, _ in steps]
    assert [lanes.count for lanes in packed] == [len(points) for _, points, _ in steps]
    assert [lanes.reach for lanes in packed] == [reach for _, _, reach in steps]
    gens = hilbert_basis(report.cone, (1, 1) + (0,) * 4)
    assert max(max(map(abs, g)) for g in gens) <= reach
    for lanes, (cone, points, reach) in zip(packed, steps):
        half = 1 << (lanes.width - 1)
        for u in cone.facets:
            values = [vec_dot(u, x) for x in points]
            assert -half <= min(values) <= max(values) < half
            if reach:
                shifts = [vec_dot(u, g) for g in gens]
                assert -half <= min(values) - max(shifts) <= max(values) - min(shifts) < half
    # the data lanes hold every nonzero point, none outside the final cone
    assert not any(packed[2].outside())


@pytest.mark.parametrize("type_label, rank, level, events", [
    # A3's seed points generate every check-level point: one pack per shell
    ("A", 3, 1, ["insert", ("pack", 1, False), ("pack", 2, False), "hull",
                 ("pack", "data", False), ("pack", "basis", False)]),
    ("A", 3, 2, ["insert", ("pack", 1, False), ("pack", 2, False), ("pack", 3, False),
                 "hull", ("pack", "data", False), ("pack", "basis", False)]),
    # B2's miss 6 level-2 points: one more insert, and no shell is packed again
    ("B", 2, 1, ["insert", ("pack", 1, False), ("pack", 2, True), "insert", "hull",
                 ("pack", "data", False), ("pack", "basis", False)]),
    # G2's miss points at levels 1, 2 and 3: each shell is packed on the
    # cone of the points inserted before it
    ("G", 2, 2, ["insert", ("pack", 1, True), "insert", ("pack", 2, True), "insert",
                 ("pack", 3, True), "insert", "hull",
                 ("pack", "data", False), ("pack", "basis", False)]),
], ids=["A3-1", "A3-2", "B2-1", "G2-2"])
def test_certificate_packs_each_level_once_and_repacks_only_after_a_join(
        type_label, rank, level, events, monkeypatch):
    # level_hull packs each shell max(lam) = L, sum(lam) >= 2 once, on the
    # cone of the seed and the shells below it, and recovers the rays once,
    # at the end; the certificate then packs the nonzero data once, on the
    # final cone, whether or not a level inserted points, for every data
    # check, and the basis once more, for the minimal check.  A pack is
    # named by its point count: a shell's, all the nonzero data's, or the
    # basis'
    seen = []
    pack = stringcone.degeneration.point_lanes

    def recording_pack(normals, columns, reach=0):
        lanes = pack(normals, columns, reach)
        seen.append(("pack", lanes.count, any(lanes.outside())))
        return lanes

    _record_level_hull(monkeypatch, seen)
    monkeypatch.setattr(stringcone.degeneration, "point_lanes", recording_pack)
    datum = build_cartan(type_label, rank)
    word = longest_word(datum)
    report = degeneration_certificate(datum, word, level_bound=level)
    assert report.passing
    images = weighted_points(datum, word, level + 1)
    counts = {top: sum(len(image) for lam, image in images.items()
                       if max(lam) == top and sum(lam) > 1)
              for top in range(1, level + 2)}
    counts["data"] = sum(len(image) for lam, image in images.items() if any(lam))
    counts["basis"] = len(report.hilbert_basis)
    assert len(set(counts.values())) == len(counts)
    assert [event[0] if event[0] != "pack" else event for event in seen] == [
        event if event in ("insert", "hull") else ("pack", counts[event[1]], event[2])
        for event in events]


LANE_ENTRIES = st.one_of(st.integers(0, 9), st.sampled_from([127, 128, 255, 256, 65535, 65536]))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=5),
    st.lists(st.tuples(*[LANE_ENTRIES] * dim), max_size=12),
    st.integers(0, dim),
    st.sampled_from([0, 1, 7, 128, 300]).flatmap(lambda reach: st.tuples(
        st.just(reach),
        st.lists(st.tuples(*[st.integers(-reach, reach)] * dim), max_size=4))),
)))
# values at the width bound: a lane of max |u|_1 * 255 = 255 needs 9 bits,
# and one of 255 + 32513 = 2**15 needs 17
@example((1, [(1,), (-1,)], [(0,), (128,), (255,)], 0, (0, [])))
@example((1, [(1,), (-1,)], [(0,), (255,)], 0, (32513, [(-32513,), (32513,), (0,)])))
@example((1, [(1,)], [(255,), (0,)], 0, (32513, [(-32513,)])))
@example((2, [(1, 0), (0, 1)], [(3, 5), (4, 5)], 1, (7, [(4, 0)])))  # x - g is -1 or 0
@example((2, [(2, -1), (-1, 3)], [(0, 0), (256, 1), (65536, 70)], 1, (300, [(1, 0), (-3, -1)])))
def test_point_lanes_match_the_dot_products(case):
    dim, normals, points, split, (reach, vectors) = case
    images: dict = {}
    for x in points:
        images.setdefault(x[:split], []).append(x[split:])
    order = [lam + psi for lam, image in images.items() for psi in image]
    images = {lam: StringColumns.from_strings(image) for lam, image in images.items()}
    lanes = point_lanes(normals, point_columns(images), reach)
    assert lanes.outside() == bytes(any(vec_dot(u, x) < 0 for u in normals) for x in order)
    assert lanes.cover(vectors) == bytes(
        any(all(vec_dot(u, x) >= vec_dot(u, g) for u in normals) for g in vectors)
        for x in order)
    with pytest.raises(ValueError, match="beyond the lanes' reach"):
        lanes.cover([(reach + 1,) * dim])


def test_point_columns_widen_narrow_images_beside_a_wide_one():
    # A1's image at 256 takes two bytes per entry, so every column of the
    # points is an "H" array, the byte images converted to it; the lanes
    # hold each point's facet values
    datum = build_cartan("A", 1)
    crystals = CrystalCache(datum)
    images = {lam: stringcone.strings._string_columns(crystals[lam], (1,))
              for lam in [(1,), (256,), (3,)]}
    assert [image.size for image in images.values()] == [1, 2, 1]
    joined = point_columns(images)
    points = [lam + psi for lam, image in images.items() for psi in image]
    assert (joined.size, len(joined)) == (2, len(points)) == (2, 2 + 257 + 4)
    assert joined.columns == [array("H", column) for column in zip(*points)]
    assert [column.typecode for column in joined.columns] == ["H", "H"]
    assert list(joined) == points
    normals = ((1, -1), (0, 1), (1, -2))
    lanes = point_lanes(normals, joined, 1)
    assert lanes.outside() == bytes(any(vec_dot(u, x) < 0 for u in normals) for x in points)
    assert lanes.cover([(1, 0)]) == bytes(
        all(vec_dot(u, x) >= vec_dot(u, (1, 0)) for u in normals) for x in points)


@pytest.mark.parametrize("type_label, rank, tops, words", [
    ("A", 2, range(4), None), ("B", 2, range(4), None), ("C", 2, range(4), None),
    ("G", 2, range(4), None), ("A", 3, [2], None),
    # the default word, and the word whose fundamental points miss the most
    # level-1 points: 51 of B3's, 76 of C3's
    ("B", 3, [1], [(3, 2, 3, 1, 2, 3, 1, 2, 1), (1, 3, 2, 3, 1, 2, 1, 3, 2)]),
    ("C", 3, [1], [(3, 2, 3, 1, 2, 3, 1, 2, 1), (1, 2, 3, 1, 2, 3, 1, 2, 3)]),
], ids=["A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_level_hull_is_the_hull_of_all_points(type_label, rank, tops, words):
    # every reduced word unless words are named; weights above the top are
    # ignored
    datum = build_cartan(type_label, rank)
    _check_level_hulls(datum, words or all_reduced_words(datum, longest_word(datum)), tops)


@pytest.mark.slow
def test_level_hull_is_the_hull_of_all_points_on_every_rank3_word():
    for type_label in ("B", "C"):
        datum = build_cartan(type_label, 3)
        words = all_reduced_words(datum, longest_word(datum))
        assert len(words) == 42
        _check_level_hulls(datum, words, [1])
    datum = build_cartan("A", 4)
    _check_level_hulls(datum, [longest_word(datum)], [1])


def _check_level_hulls(datum, words, tops):
    crystals = CrystalCache(datum)
    for word in words:
        images = weighted_points(datum, word, max(tops) + 1, crystals=crystals)
        for top in tops:
            points = [lam + psi for lam, image in images.items() if max(lam) <= top
                      for psi in image]
            assert level_hull(images, top) == conic_hull(points), (word, top)


@pytest.mark.parametrize("type_label, base, missed", [("B", 26, 6), ("G", 86, 88)])
def test_level_hull_joins_the_rays_and_the_missed_shell_points(
        type_label, base, missed, monkeypatch):
    # the hull of the 26 level-1 points of B2 (86 of G2) misses 6 level-2
    # points (88), and the level-2 insert takes those points alone, in
    # enumeration order; the earlier inserts take level-1 points only
    events = []
    _record_level_hull(monkeypatch, events)
    datum = build_cartan(type_label, 2)
    images = weighted_points(datum, longest_word(datum), 2)
    cone = level_hull(images, 2)
    level_one = [lam + psi for lam, image in images.items() if max(lam) <= 1 for psi in image]
    shell = [lam + psi for lam, image in images.items() if max(lam) == 2 for psi in image]
    assert len(level_one) == base
    outside = [x for x in shell if not contains(conic_hull(level_one), x)]
    assert len(outside) == missed
    *earlier, (_, last), end = events
    assert last == outside
    assert {x for _, batch in earlier for x in batch} <= set(level_one)
    assert end == ("hull",)
    assert cone == conic_hull(level_one + shell)


def test_cone_command_hulls_the_level_one_strings_once(monkeypatch, capsys):
    # A3's 15 seed points, of 0 and the fundamental weights, generate every
    # level-2 string: one insert of those, not of all 2 996, and one hull
    events = []
    _record_level_hull(monkeypatch, events)
    assert main(["cone", "--type", "A", "--rank", "3", "--level-bound", "2"]) == 0
    capsys.readouterr()
    assert [event[0] for event in events] == ["insert", "hull"]
    assert _batch_sizes(events) == [15]


def test_degenerate_reports_a_form_that_fails_a_pair(monkeypatch, capsys):
    # A2's level-1 pair (0, 1, 1) < (1, 1, 0) ties under the all-ones form:
    # the certificate reports the failed check instead of raising
    monkeypatch.setattr(stringcone.degeneration, "separating_form",
                        lambda pairs, n_coords: SeparatingForm((1,) * n_coords))
    assert main(["degenerate", "--type", "A", "--rank", "2", "--level-bound", "1"]) == 1
    out = capsys.readouterr().out
    assert '"separating_form_strict":false' in out
    assert '"weight_form":[1,1,1]' in out
