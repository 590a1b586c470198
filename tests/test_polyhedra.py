import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stringcone.polyhedra
from stringcone.cartan import all_reduced_words, build_cartan, longest_word
from stringcone.cli import _point_lines
from stringcone.degeneration import string_cone_rows
from stringcone.errors import PolyhedralError
from stringcone.linalg import det_int, kernel_basis_int, primitive, rank_int, vec_dot
from stringcone.polyhedra import (
    RationalCone,
    _DoubleDescription,
    _dd_pair,
    _generators,
    _parallelepiped_points,
    _triangulate,
    conic_hull,
    contains,
    count_section_points,
    format_h_rep,
    hilbert_basis,
    is_face,
    parse_h_rep,
    saturation_check,
    section_lattice_points,
    section_runs,
)
from stringcone.strings import weighted_points


def test_planar_hull():
    cone = conic_hull([(1, 0), (1, 1), (1, 2)])
    assert cone.rays == ((1, 0), (1, 2))
    assert cone.facets == ((0, 1), (2, -1))
    assert cone.pointed


def test_halfplane_and_dual():
    half = conic_hull([(1, 0), (-1, 0), (0, 1)])
    assert half.facets == ((0, 1),)
    assert not half.pointed


def test_zero_cone_full_space_pair():
    zero = conic_hull([(0, 0)])
    assert zero.rays == ()
    assert zero.pointed


def test_contains():
    cone = conic_hull([(1, 0), (1, 2)])
    assert contains(cone, (3, 1))
    assert contains(cone, (0, 0))
    assert not contains(cone, (0, 1))
    assert not contains(cone, (-1, 0))


def test_section_one_dimensional():
    cone = conic_hull([(1, 0), (1, 1)])
    assert section_lattice_points(cone.facets, (2,)) == ((0,), (1,), (2,))
    assert section_lattice_points(cone.facets, (0,)) == ((0,),)


def test_section_unbounded():
    # no facet bounds x from above: the scan names the coordinate, with no box
    cone = conic_hull([(1, 0), (0, 1)])
    for listing in (section_lattice_points, section_runs):
        with pytest.raises(PolyhedralError, match="coordinate 0 unbounded"):
            listing(cone.facets, (1,))


def test_empty_section_is_not_unbounded():
    # The recession direction (1,) does not matter: no point has lambda = -1.
    cone = conic_hull([(1, 0), (0, 1), (0, -1)])
    assert section_lattice_points(cone.facets, (-1,)) == ()
    assert section_runs(cone.facets, (-1,)) == ([], [], [])


def test_count_section_points_cases():
    # 0 <= x <= lam, and x <= 1 once a row with no free coefficient holds
    constraints = ((0, 1), (1, -1))
    assert [count_section_points(constraints, (lam,)) for lam in (-1, 0, 2)] == [0, 1, 3]
    assert count_section_points(constraints + ((1, 0),), (-1,)) == 0
    # x2 bounds x1 from above only through the later coordinate
    rows = ((0, 1, 0), (1, -1, -1), (0, 0, 1), (1, 0, -1))
    assert count_section_points(rows, (2,)) == 6
    with pytest.raises(PolyhedralError, match="coordinate 0 unbounded"):
        count_section_points(((0, 1),), (1,))


@pytest.mark.parametrize("constraints, lam", [((), (1,)), (((1,),), (1,))])
def test_count_needs_a_free_coordinate(constraints, lam):
    # no constraint, or constraints that fix every coordinate to lam
    with pytest.raises(PolyhedralError, match="no free coordinates"):
        count_section_points(constraints, lam)


@st.composite
def bounded_rows(draw):
    """Rows on (1, t, x) with -3 <= x_k <= 3 among them, and a weight t."""
    nfree = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.tuples(*[entry] * (2 + nfree)), max_size=5))
    for k in range(nfree):
        for sign in (1, -1):
            rows.append((3, 0) + tuple(sign if j == k else 0 for j in range(nfree)))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], (1, draw(st.integers(min_value=-2, max_value=4)))


@settings(max_examples=150, deadline=None)
@given(bounded_rows())
def test_count_matches_brute_force(case):
    rows, lam = case
    nfree = len(rows[0]) - 2
    box = itertools.product(range(-3, 4), repeat=nfree)
    expected = sum(all(vec_dot(u, lam + x) >= 0 for u in rows) for x in box)
    assert count_section_points(rows, lam) == expected


@settings(max_examples=150, deadline=None)
@given(bounded_rows())
def test_segments_match_brute_force(case):
    # the points are the brute-force points in lexicographic order, and the
    # segments cover each x_0 of a point once, in ascending order, with
    # live runs
    rows, lam = case
    nfree = len(rows[0]) - 2
    box = itertools.product(range(-3, 4), repeat=nfree)
    expected = tuple(x for x in box if all(vec_dot(u, lam + x) >= 0 for u in rows))
    assert section_lattice_points(rows, lam) == expected
    _check_segments(section_runs(rows, lam), expected)


def _check_segments(runs, points):
    *_, segments = runs
    assert [x0 for start, stop, _ in segments
            for x0 in range(start, stop)] == sorted({p[0] for p in points})
    assert all(live for *_, live in segments)


def test_is_face_cases():
    cone = conic_hull([(1, 0), (1, 1), (1, 2)])
    ok, normal = is_face(cone, [(0, 0)])
    assert ok and normal == (1, 0)
    ok, normal = is_face(cone, [(1, 0), (2, 0)])
    assert ok and normal == (0, 1)
    ok, normal = is_face(cone, [(1, 0), (1, 1), (1, 2)])
    assert ok and normal == (0, 0)
    ok, normal = is_face(cone, [(1, 1)])
    assert not ok and normal is None
    with pytest.raises(PolyhedralError):
        is_face(cone, [])
    with pytest.raises(PolyhedralError):
        is_face(cone, [(0, 1)])
    with pytest.raises(PolyhedralError, match="pointed"):
        is_face(conic_hull([(1, 0), (-1, 0), (0, 1)]), [(1, 0)])


def _spans_face_by_hull(cone, points):
    """The face test by a second hull: the points' hull has the face's rays."""
    active = [u for u in cone.facets if all(vec_dot(u, p) == 0 for p in points)]
    face_rays = {r for r in cone.rays if all(vec_dot(u, r) == 0 for u in active)}
    nonzero = [p for p in points if any(p)]
    return (set(conic_hull(nonzero).rays) if nonzero else set()) == face_rays


@st.composite
def pointed_cones_and_points(draw):
    """A pointed cone in Z^2..Z^4 and a few nonnegative combinations of its rays."""
    dim = draw(st.integers(min_value=2, max_value=4))
    entry = st.integers(min_value=-2, max_value=3)
    gens = draw(st.lists(st.tuples(st.integers(1, 3), *[entry] * (dim - 1)),
                         min_size=2, max_size=6))
    cone = conic_hull(gens)
    coeff = st.integers(min_value=0, max_value=2)
    combos = draw(st.lists(st.tuples(*[coeff] * len(cone.rays)), min_size=1, max_size=4))
    points = [tuple(sum(c * r[k] for c, r in zip(cs, cone.rays)) for k in range(dim))
              for cs in combos]
    return cone, points


@settings(max_examples=200, deadline=None)
@given(pointed_cones_and_points())
@example(case=(conic_hull([(1, 0), (1, 2)]), [(1, 0), (2, 2)]))
def test_is_face_matches_the_hull_definition(case):
    cone, points = case
    assert cone.pointed
    ok, normal = is_face(cone, points)
    assert ok == _spans_face_by_hull(cone, points)
    if ok:
        assert all(vec_dot(normal, r) >= 0 for r in cone.rays)
        assert all(vec_dot(normal, p) == 0 for p in points)


def test_hilbert_basis_planar():
    cone = conic_hull([(1, 0), (1, 2)])
    assert hilbert_basis(cone, (1, 0)) == ((1, 0), (1, 1), (1, 2))


def test_hilbert_basis_single_ray():
    cone = conic_hull([(2, 4)])
    assert hilbert_basis(cone, (1, 1)) == ((1, 2),)


def test_hilbert_basis_rejects_bad_input():
    half = conic_hull([(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(PolyhedralError):
        hilbert_basis(half, (0, 1))
    cone = conic_hull([(1, 0), (1, 2)])
    with pytest.raises(PolyhedralError):
        hilbert_basis(cone, (0, 1))  # vanishes on the ray (1, 0)


def test_saturation_report():
    facets = conic_hull([(1, 0), (1, 1)]).facets
    good = {(0,): ((0,),), (1,): ((0,), (1,))}
    report = saturation_check(facets, good, 1)
    assert report.clean
    assert [s.cone_count for s in report.sections] == [1, 2]

    report = saturation_check(facets, {(0,): ((0,),), (1,): ((0,),)}, 1)
    assert report.cone_points_missing_from_data == (((1,), (1,)),)
    assert not report.clean

    bogus = {(0,): ((0,),), (1,): ((0,), (1,), (5,))}
    report = saturation_check(facets, bogus, 1)
    assert report.data_points_outside_cone == (((1,), (5,)),)

    with pytest.raises(PolyhedralError):
        saturation_check(facets, {}, 1)

    # data in any order and with repeats: counts are of distinct points
    section = section_lattice_points(facets, (2,))
    images = {(0,): ((0,),), (1,): ((0,), (1,)),
              (2,): tuple(reversed(section)) + (section[0],)}
    report = saturation_check(facets, images, 2)
    assert report.clean
    assert [(s.cone_count, s.data_count) for s in report.sections] == [(1, 1), (2, 2), (3, 3)]


def test_h_rep_round_trip():
    cone = conic_hull([(1, 0), (1, 1), (1, 2)])
    text = format_h_rep(cone)
    assert text.startswith("dim 2\nfacets 2\n")
    assert text.endswith("\n")
    back = parse_h_rep(text)
    assert back == cone


def test_h_rep_malformed():
    for text in ("", "dim 2\n", "rays 1\n1 0\n", "dim 2\nfacets 1\n0 1\nrays 1\n1\n"):
        with pytest.raises(PolyhedralError):
            parse_h_rep(text)


coords = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=5))
def test_hull_contains_generators(points):
    cone = conic_hull(points)
    for p in points:
        assert contains(cone, p)


@st.composite
def hull_cases(draw):
    """Generators in Z^2..Z^4: pointed, with lineality, or unconstrained.

    The generators span a subspace of dimension ``span``: drawn in Z^span,
    then extended by ``dim - span`` integer linear functionals of them.
    Pointed draws flip every generator to the positive side of a grading;
    lineality draws add the negatives of one or two generators.
    """
    dim = draw(st.integers(min_value=2, max_value=4))
    span = draw(st.integers(min_value=1, max_value=dim))
    entry = st.integers(min_value=-2, max_value=2)
    gens = draw(st.lists(st.tuples(*[entry] * span), min_size=1, max_size=span + 3))
    extra = draw(st.lists(st.tuples(*[st.integers(min_value=-1, max_value=1)] * span),
                          min_size=dim - span, max_size=dim - span))
    points = [g + tuple(vec_dot(a, g) for a in extra) for g in gens]
    kind = draw(st.sampled_from(["pointed", "lineality", "any"]))
    if kind == "pointed":
        grading = draw(st.tuples(*[st.integers(min_value=-1, max_value=3)] * dim))
        points = [p if vec_dot(grading, p) > 0 else tuple(-c for c in p)
                  for p in points if vec_dot(grading, p)]
    elif kind == "lineality":
        k = draw(st.integers(min_value=1, max_value=min(2, len(points))))
        points += [tuple(-c for c in p) for p in points[:k]]
    assume(any(any(p) for p in points))
    return points


def _facet_values(gens):
    """Facets of cone(gens), each named by its primitive values on gens.

    Brute force, with no double description.  A facet is cut out by
    rank - 1 independent generators; a normal vanishing on them is fixed up
    to the orthogonal complement of the span, where every generator
    vanishes, so its values on the generators name the facet whatever
    normal represents it.  The candidates nonnegative on every generator
    are the facets.
    """
    d = rank_int(gens)
    found = set()
    for sub in itertools.combinations(gens, d - 1) if d else ():
        if rank_int(sub) != d - 1:
            continue
        kernel = kernel_basis_int(sub, len(gens[0]))
        values = (tuple(vec_dot(k, g) for g in gens) for k in kernel)
        s = primitive(next(v for v in values if any(v)))
        if min(s) < 0:
            s = tuple(-c for c in s)
        if min(s) >= 0:
            found.add(s)
    return sorted(found)


def _split(vectors, against):
    """Values of each vector on ``against``: the nonzero ones, and the rest."""
    values = [primitive(tuple(vec_dot(v, a) for a in against)) for v in vectors]
    rest = [v for v, x in zip(vectors, values) if not any(x)]
    return sorted(x for x in values if any(x)), rest


def _is_subspace_basis_pairs(vectors, rank):
    """Opposite pairs spanning a subspace of the given rank."""
    return (set(vectors) == {tuple(-c for c in v) for v in vectors}
            and rank_int(vectors) == rank)


@settings(max_examples=120, deadline=None)
@given(hull_cases())
@example([(1, 0), (-1, 0), (0, 1)])
@example([(1, 2, 3), (2, 4, 6)])
@example([(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 1)])
@example([(0, 1, 1, 0), (0, -1, 1, 0), (1, 0, 1, 0), (-1, 0, 1, 0), (1, 1, 1, 0)])
@example([(2, -2, 2), (1, 0, 2), (1, 2, 0), (2, -2, 1), (0, 2, 2)])
def test_hull_matches_brute_force(gens):
    cone = conic_hull(gens)
    dim = cone.ambient_dim
    # facets: one per facet of cone(gens), plus opposite pairs spanning
    # the orthogonal complement of its span
    facet_values, complement = _split(cone.facets, gens)
    assert facet_values == _facet_values(gens)
    assert _is_subspace_basis_pairs(complement, dim - rank_int(gens))
    # rays: facets of the dual cone, plus opposite pairs spanning the
    # lineality space; the facets were just checked to generate the dual
    ray_values, lineality = _split(cone.rays, cone.facets)
    assert ray_values == _facet_values(cone.facets)
    assert _is_subspace_basis_pairs(lineality, dim - rank_int(cone.facets))
    assert cone.pointed == (not lineality)


@settings(max_examples=80, deadline=None)
@given(hull_cases(), st.data())
def test_hull_of_rays_and_further_points_is_the_hull_of_all(gens, data):
    # a hull's rays, lineality included as opposite pairs, stand for its
    # points in a later hull
    k = data.draw(st.integers(min_value=1, max_value=len(gens)))
    assert conic_hull(conic_hull(gens[:k]).rays + tuple(gens[k:])) == conic_hull(gens)


@settings(max_examples=120, deadline=None)
@given(hull_cases())
@example([(1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 1, -1, 0, 1), (0, 0, 0, 1, 1)])
@example([(1, 2, 0, -1, 0), (-1, -2, 0, 1, 0), (0, 1, 1, 0, 2), (2, 0, -1, 1, 1)])
def test_double_description_resumes_at_any_split(constraints):
    # inserting a prefix and then the rest gives one-shot _dd_pair's
    # canonical result, for lower-dimensional and non-pointed sets too
    dim = len(constraints[0])
    whole = _dd_pair(constraints, dim)
    for k in range(len(constraints) + 1):
        dd = _DoubleDescription(dim)
        dd.insert(constraints[:k])
        dd.insert(constraints[k:])
        assert dd.result() == whole, k


@settings(max_examples=150, deadline=None)
@given(hull_cases(), st.integers(min_value=0, max_value=9))
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)
@example([(0, 1, 1, 0), (0, -1, 1, 0), (1, 0, 1, 0), (-1, 0, 1, 0), (1, 1, 1, 0)], 2)
@example([(1, 0), (-1, 0), (0, 1)], 1)
@example([(1, 0, 1), (0, 1, 1), (-1, -1, 1)], 0)
def test_hull_reads_its_rays_off_the_incidence(points, split):
    # the rays read off the zero sets of the dual state are those of a
    # primal pass over the facets, for pointed, lower-dimensional and
    # non-pointed sets inserted in two batches split at a drawn point
    dim = len(points[0])
    dual = _DoubleDescription(dim)
    dual.insert(points[:split])
    dual.insert(points[split:])
    facets = dual.generators()
    lineality, rays = _dd_pair(facets, dim)
    assert dual.hull() == RationalCone(dim, _generators(lineality, rays), facets, not lineality)


def test_double_description_widens_its_lanes_for_a_later_batch():
    # the first batch has entries of 1, the second one of 1000: lanes sized
    # for the first batch would read (-1000, 1) . (1, 0) as nonnegative and
    # skip the constraint
    dd = _DoubleDescription(2)
    dd.insert([(1, 0), (0, 1)])
    assert dd.result() == ((), ((0, 1), (1, 0)))
    dd.insert([(-1000, 1)])
    assert dd.result() == _dd_pair([(1, 0), (0, 1), (-1000, 1)], 2) == ((), ((0, 1), (1, 1000)))


def test_hull_at_large_coordinates():
    # cone over a box in Z^3 at height 50021; the other points are sums of
    # its rays with coordinates up to about 10**6, so the packed redundancy
    # test in _dd_pair runs on wide lanes
    corners = [(sx * 31337, sy * 40009, sz * 27183, 50021)
               for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    rng = random.Random(11)

    def combination(weights):
        return tuple(sum(w * g[i] for g, w in zip(corners, weights)) for i in range(4))

    inner = [combination([rng.randint(0, 2) for _ in corners]) for _ in range(400)]
    inner = [p for p in inner if any(p)]
    assert max(max(map(abs, p)) for p in inner) > 5 * 10**5
    points = inner + corners
    rng.shuffle(points)
    assert _dd_pair(points, 4) == _dd_pair(corners, 4)
    cone = conic_hull(points)
    assert cone == conic_hull(corners)
    assert sorted(cone.rays) == sorted(corners) and len(cone.facets) == 6
    # every point of a parabola at height one is extreme: a constraint
    # skipped by mistake would drop its ray
    curve = [(k, k * k, 1) for k in rng.sample(range(-1000, 1001), 60)]
    mids = [tuple(map(sum, zip(*pair))) for pair in zip(curve, curve[1:])]
    assert sorted(conic_hull(curve + mids).rays) == sorted(curve)


def test_hull_and_sections_need_no_rank_test(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rank test called")

    monkeypatch.setattr(stringcone.polyhedra, "rank_int", refuse)
    a2 = build_cartan("A", 2)
    images = weighted_points(a2, (1, 2, 1), 1)
    cone = conic_hull([lam + psi for lam, image in images.items() for psi in image])
    constraints = cone.facets + string_cone_rows(a2, (1, 2, 1))
    assert len(section_lattice_points(constraints, (1, 1))) == 8
    assert saturation_check(constraints, images, 1).clean


@st.composite
def sections(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    f = draw(st.integers(min_value=1, max_value=2))
    entry = st.integers(min_value=-3, max_value=4)
    gens = draw(st.lists(st.tuples(*[entry] * (n + f)), min_size=1, max_size=6))
    lam = draw(st.tuples(*[st.integers(min_value=-2, max_value=4)] * n))
    return gens, lam


def _boxed(constraints, n, nfree, bound):
    """The constraints with -bound <= x_k <= bound, on the weight lam + (1,).

    A unit weight coordinate, zero in every constraint, carries the box's
    constant, so the box does not scale with lam.
    """
    rows = [tuple(u[:n]) + (0,) + tuple(u[n:]) for u in constraints]
    rows += [(0,) * n + (bound,) + tuple(sign * int(j == k) for j in range(nfree))
             for k in range(nfree) for sign in (1, -1)]
    return rows


@settings(max_examples=150, deadline=None)
@given(sections())
@example(([(3, -1, -3, -3), (4, 2, 0, -1), (-1, 3, -2, -1), (3, 2, -1, -3)], (4, 1)))
def test_section_matches_brute_force(case):
    # an explicit box bounds the section of any cone; the points inside
    # it are the brute-force ones, in lexicographic order
    gens, lam = case
    cone = conic_hull(gens)
    n = len(lam)
    nfree = cone.ambient_dim - n
    points = section_lattice_points(_boxed(cone.facets, n, nfree, 25), lam + (1,))
    box = itertools.product(range(-25, 26), repeat=nfree)
    assert points == tuple(p for p in box if contains(cone, lam + p))


@st.composite
def boxed_cones(draw):
    """Generators of a general cone with one to four free coordinates, and a weight.

    ``_boxed`` bounds its section by -3 <= x_k <= 3, so coordinates and
    run starts go negative and a tail has up to three columns.
    """
    n = draw(st.integers(min_value=1, max_value=2))
    f = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-3, max_value=4)
    gens = draw(st.lists(st.tuples(*[entry] * (n + f)), min_size=1, max_size=6))
    lam = draw(st.tuples(*[st.integers(min_value=-2, max_value=4)] * n))
    return gens, lam


# runs that start at six x_0, five of them while earlier runs are live
SEVERAL_STARTS = ([(0, -3, 1, -3), (-2, -2, -3, 0), (3, 1, 1, -1), (-3, 2, 2, 2)], (2,))


@settings(max_examples=100, deadline=None)
@given(boxed_cones())
@example(([(1, 0), (1, 1)], (2,)))  # one free coordinate, as for A1
@example(([(1, 0), (1, 1)], (-1,)))  # an empty section
@example(SEVERAL_STARTS)
def test_filing_matches_naive_enumeration(case):
    # the int-key order and the index filing against a sort of the
    # brute-force points: the points, and polytope's text of them
    gens, lam = case
    cone = conic_hull(gens)
    n = len(lam)
    nfree = cone.ambient_dim - n
    rows, weight = _boxed(cone.facets, n, nfree, 3), lam + (1,)
    box = itertools.product(range(-3, 4), repeat=nfree)
    points = sorted(p for p in box if contains(cone, lam + p))
    assert section_lattice_points(rows, weight) == tuple(points)
    text = "\n".join(_point_lines(*section_runs(rows, weight)))
    assert text == "\n".join(" ".join(map(str, p)) for p in points)


def test_filing_merges_runs_that_start_at_several_x0():
    # string cone sections start every run at x_0 = 0; this general cone
    # reaches the merge of new runs into live ones
    gens, lam = SEVERAL_STARTS
    cone = conic_hull(gens)
    *_, segments = section_runs(_boxed(cone.facets, 1, 3, 3), lam + (1,))
    live = [set(runs) for _, _, runs in segments]
    merges = sum(bool(now - before and now & before) for before, now in zip(live, live[1:]))
    assert merges >= 2


@st.composite
def wide_sections(draw):
    """Generators with weight coordinate 1 or 2 and 3 or 4 free coordinates.

    A point of the section at t is sum a_i g_i with sum a_i g_i[0] = t, so
    sum a_i <= t and each free coordinate lies in [-2t, 2t]: that box
    holds the whole section, and its tails have two or three coordinates.
    """
    f = draw(st.integers(min_value=3, max_value=4))
    entry = st.integers(min_value=-2, max_value=2)
    head = st.integers(min_value=1, max_value=2)
    gens = draw(st.lists(st.tuples(head, *[entry] * f), min_size=1, max_size=6))
    return gens, (draw(st.integers(min_value=-1, max_value=2)),)


@settings(max_examples=60, deadline=None)
@given(wide_sections())
@example(([(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0)], (2,)))
def test_wide_section_matches_brute_force(case):
    # the rows 2t +- x_k >= 0 cut out a box holding the whole section
    gens, lam = case
    cone = conic_hull(gens)
    nfree = cone.ambient_dim - 1
    box_rows = tuple((2,) + tuple(sign * int(j == k) for j in range(nfree))
                     for k in range(nfree) for sign in (1, -1))
    constraints = cone.facets + box_rows
    points = section_lattice_points(constraints, lam)
    box = itertools.product(range(-2 * lam[0], 2 * lam[0] + 1), repeat=nfree)
    assert points == tuple(p for p in box if contains(cone, lam + p))
    assert count_section_points(constraints, lam) == len(points)
    _check_segments(section_runs(constraints, lam), points)


def test_sections_are_the_images_and_the_counts():
    # every A3 word: the level-2 cone is saturated, so each section at
    # lambda <= (2, 2, 2) is its sorted string image, and its size is the
    # count under the facets and the string cone's rows
    datum = build_cartan("A", 3)
    for word in all_reduced_words(datum, longest_word(datum)):
        images = weighted_points(datum, word, 2)
        cone = conic_hull([lam + psi for lam, image in images.items() for psi in image])
        constraints = cone.facets + string_cone_rows(datum, word)
        for lam, image in images.items():
            points = section_lattice_points(constraints, lam)
            assert points == tuple(sorted(image)), (word, lam)
            assert count_section_points(constraints, lam) == len(points), (word, lam)


@st.composite
def graded_cones(draw):
    """Generators of a pointed cone in Z^2..Z^4 and a grading positive on them.

    The generators span a subspace of dimension ``span``: drawn in Z^span,
    then extended by ``dim - span`` integer linear functionals of them.
    """
    dim = draw(st.integers(min_value=2, max_value=4))
    span = draw(st.integers(min_value=1, max_value=dim))
    entry = st.integers(min_value=-2, max_value=2)
    gens = draw(st.lists(st.tuples(*[entry] * span), min_size=span, max_size=span + 3))
    extra = draw(st.lists(st.tuples(*[st.integers(min_value=-1, max_value=1)] * span),
                          min_size=dim - span, max_size=dim - span))
    points = [g + tuple(vec_dot(a, g) for a in extra) for g in gens]
    grading = draw(st.tuples(*[st.integers(min_value=-1, max_value=3)] * dim))
    points = [p if vec_dot(grading, p) > 0 else tuple(-c for c in p)
              for p in points if vec_dot(grading, p)]
    assume(points)
    return points, grading


def _hilbert_by_brute_force(cone, grading):
    """Irreducible nonzero lattice points of the cone, from a bounding box.

    Every basis element lies in the half-open parallelepiped of a simplicial
    cone spanned by rays, so ``|x_i| <= sum over rays of |r_i|``.  A point is
    reducible exactly when it minus some lower-degree basis element stays in
    the cone.
    """
    bounds = [sum(abs(r[i]) for r in cone.rays) for i in range(cone.ambient_dim)]
    box = itertools.product(*(range(-b, b + 1) for b in bounds))
    points = sorted((p for p in box if any(p) and contains(cone, p)),
                    key=lambda p: (vec_dot(grading, p), p))
    basis = []
    for p in points:
        if not any(contains(cone, tuple(a - b for a, b in zip(p, h))) for h in basis):
            basis.append(p)
    return tuple(sorted(basis))


@settings(max_examples=150, deadline=None)
@given(graded_cones())
def test_hilbert_basis_matches_brute_force(case):
    points, grading = case
    cone = conic_hull(points)
    assert hilbert_basis(cone, grading) == _hilbert_by_brute_force(cone, grading)


def test_parallelepiped_of_a_determinant_two_cell_keeps_its_point():
    # the columns (1, 0) and (1, 2) span a cell of |det| 2 whose half-open
    # parallelepiped holds (1, 1) = ((1, 0) + (1, 2)) / 2
    assert _parallelepiped_points([(1, 1), (0, 2)]) == ((1, 1),)


def test_unimodular_cells_need_no_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Smith form called")

    monkeypatch.setattr(stringcone.polyhedra, "snf_with_uinv", refuse)
    assert _parallelepiped_points([(1, 1), (0, 1)]) == ()
    assert _parallelepiped_points([(2, 1), (1, 1)]) == ()
    assert _parallelepiped_points([(0, 1, 0), (1, 0, 0), (0, 0, -1)]) == ()
    # a simplicial cone of det 1 is its own basis
    assert hilbert_basis(conic_hull([(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
                         (1, 0, 0)) == ((1, 0, 0), (1, 1, 0), (1, 1, 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_parallelepiped_points_match_the_smith_form_path(matrix):
    # the Smith form path, forced by a determinant that never reads 1,
    # gives the same points in the same order; there are |det| - 1 of them
    det = det_int(matrix)
    assume(det)
    points = _parallelepiped_points(matrix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stringcone.polyhedra, "det_int", lambda m: 0)
        assert _parallelepiped_points(matrix) == points
    assert len(set(points)) == len(points) == abs(det) - 1


def _pulling_by_hulls(rays):
    """Pulling triangulation that recomputes the hull of every face."""
    memo = {}

    def rec(ray_set):
        key = frozenset(ray_set)
        if key in memo:
            return memo[key]
        if len(ray_set) == rank_int(ray_set):
            memo[key] = (tuple(sorted(ray_set)),)
            return memo[key]
        hull = conic_hull(ray_set)
        apex = sorted(ray_set)[0]
        cells = []
        for u in hull.facets:
            if vec_dot(u, apex) > 0:
                sub = tuple(r for r in hull.rays if vec_dot(u, r) == 0)
                for cell in rec(sub):
                    cells.append(tuple(sorted(cell + (apex,))))
        memo[key] = tuple(cells)
        return memo[key]

    return rec(tuple(sorted(rays)))


# Cone over (pyramid over an octahedron) x segment, in Z^6.  Inside one of
# its facets F, another facet cuts out a square that is not a facet of F;
# only the maximality test keeps it out of the cells.  Below dimension 6 an
# F & m that is not a facet of F has dimension at most 2, hence fewer rays
# than the dimension it would be taken for, and adds no cell either way.
_OCTAHEDRAL_PYRAMID_PRISM = [
    v + (0, t, 1)
    for v in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    for t in (0, 1)
] + [(0, 0, 0, 1, t, 1) for t in (0, 1)]


@st.composite
def pointed_cones(draw):
    """Generators of a pointed cone in Z^2..Z^5, full- or lower-dimensional."""
    dim = draw(st.integers(min_value=2, max_value=5))
    span = draw(st.integers(min_value=1, max_value=dim))
    entry = st.integers(min_value=-2, max_value=2)
    gens = draw(st.lists(st.tuples(*[entry] * span), min_size=1, max_size=span + 4))
    extra = draw(st.lists(st.tuples(*[st.integers(min_value=-1, max_value=1)] * span),
                          min_size=dim - span, max_size=dim - span))
    points = [g + tuple(vec_dot(a, g) for a in extra) for g in gens]
    grading = draw(st.tuples(*[st.integers(min_value=-1, max_value=3)] * dim))
    points = [p if vec_dot(grading, p) > 0 else tuple(-c for c in p)
              for p in points if vec_dot(grading, p)]
    assume(points)
    return points


@settings(max_examples=150, deadline=None)
@given(pointed_cones())
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
@example([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
@example(_OCTAHEDRAL_PYRAMID_PRISM)
def test_triangulation_matches_hull_recursion(gens):
    cone = conic_hull(gens)
    assert cone.pointed
    cells = _triangulate(cone)
    assert len(set(cells)) == len(cells)
    assert set(cells) == set(_pulling_by_hulls(cone.rays))


def test_square_pyramid_triangulation(monkeypatch):
    cone = conic_hull([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])

    def refuse(*args, **kwargs):
        raise AssertionError("conic_hull called")

    monkeypatch.setattr(stringcone.polyhedra, "conic_hull", refuse)
    # the apex (-1, -1, 1) is joined to the two facets missing it, which
    # cuts the square along the diagonal from the apex to (1, 1, 1)
    assert set(_triangulate(cone)) == {
        ((-1, -1, 1), (-1, 1, 1), (1, 1, 1)),
        ((-1, -1, 1), (1, -1, 1), (1, 1, 1)),
    }


@pytest.mark.parametrize("type_label", ["A", "B"])
def test_hilbert_basis_needs_no_hull(type_label, monkeypatch):
    datum = build_cartan(type_label, 2)
    images = weighted_points(datum, longest_word(datum), 1)
    cone = conic_hull([lam + psi for lam, image in images.items() for psi in image])
    grading = (1, 1) + (0,) * (cone.ambient_dim - 2)
    expected = _hilbert_by_brute_force(cone, grading)

    def refuse(*args, **kwargs):
        raise AssertionError("conic_hull called")

    monkeypatch.setattr(stringcone.polyhedra, "conic_hull", refuse)
    assert hilbert_basis(cone, grading) == expected
