import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stringcone.errors import PolyhedralError, UnboundedSectionError
from stringcone.polyhedra import (
    conic_hull,
    contains,
    dualize,
    format_h_rep,
    hilbert_basis,
    is_face,
    parse_h_rep,
    saturation_check,
    section_lattice_points,
)
from stringcone.strings import WeightedPoint


def test_planar_hull():
    cone = conic_hull([(1, 0), (1, 1), (1, 2)])
    assert cone.rays == ((1, 0), (1, 2))
    assert cone.facets == ((0, 1), (2, -1))
    assert cone.pointed


def test_halfplane_and_dual():
    half = conic_hull([(1, 0), (-1, 0), (0, 1)])
    assert half.facets == ((0, 1),)
    assert not half.pointed
    dual = dualize(half)
    assert dual.rays == ((0, 1),)
    assert dual.pointed


def test_zero_cone_full_space_pair():
    zero = conic_hull([(0, 0)])
    assert zero.rays == ()
    assert zero.pointed
    full = dualize(zero)
    assert full.facets == ()
    assert not full.pointed
    assert dualize(full).rays == ()


def test_contains():
    cone = conic_hull([(1, 0), (1, 2)])
    assert contains(cone, (3, 1))
    assert contains(cone, (0, 0))
    assert not contains(cone, (0, 1))
    assert not contains(cone, (-1, 0))


def test_dualize_involution_on_hull():
    cone = conic_hull([(2, 1, 0), (0, 1, 1), (1, 0, 3)])
    back = dualize(dualize(cone))
    assert back.rays == cone.rays
    assert back.facets == cone.facets


def test_section_one_dimensional():
    cone = conic_hull([(1, 0), (1, 1)])
    assert section_lattice_points(cone, (2,)) == ((0,), (1,), (2,))
    assert section_lattice_points(cone, (0,)) == ((0,),)


def test_section_unbounded():
    cone = conic_hull([(1, 0), (0, 1)])
    with pytest.raises(UnboundedSectionError) as info:
        section_lattice_points(cone, (1,))
    assert info.value.ray == (1,)


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
    cone = conic_hull([(1, 0), (1, 1)])
    good = [WeightedPoint(lam=(0,), psi=(0,)),
            WeightedPoint(lam=(1,), psi=(0,)),
            WeightedPoint(lam=(1,), psi=(1,))]
    report = saturation_check(cone, good, 1)
    assert report.clean
    assert [s.cone_count for s in report.sections] == [1, 2]

    report = saturation_check(cone, good[:-1], 1)
    assert report.cone_points_missing_from_data == (
        WeightedPoint(lam=(1,), psi=(1,)),)
    assert not report.clean

    bogus = good + [WeightedPoint(lam=(1,), psi=(5,))]
    report = saturation_check(cone, bogus, 1)
    assert report.data_points_outside_cone == (
        WeightedPoint(lam=(1,), psi=(5,)),)

    with pytest.raises(PolyhedralError):
        saturation_check(cone, [], 1)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=4))
def test_dualize_round_trip(points):
    cone = conic_hull(points)
    back = dualize(dualize(cone))
    assert back == cone


@st.composite
def sections(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    f = draw(st.integers(min_value=1, max_value=2))
    entry = st.integers(min_value=-3, max_value=4)
    gens = draw(st.lists(st.tuples(*[entry] * (n + f)), min_size=1, max_size=6))
    lam = draw(st.tuples(*[st.integers(min_value=-2, max_value=4)] * n))
    return gens, lam


@settings(max_examples=150, deadline=None)
@given(sections())
@example(([(3, -1, -3, -3), (4, 2, 0, -1), (-1, 3, -2, -1), (3, 2, -1, -3)], (4, 1)))
def test_section_matches_brute_force(case):
    gens, lam = case
    cone = conic_hull(gens)
    n = len(lam)
    nfree = cone.ambient_dim - n
    try:
        points = section_lattice_points(cone, lam)
    except UnboundedSectionError as exc:
        assert any(exc.ray)
        for u in cone.facets:
            assert sum(c * r for c, r in zip(u[n:], exc.ray)) >= 0
        return
    assert list(points) == sorted(set(points))
    for p in points:
        assert contains(cone, lam + p)
    box = itertools.product(range(-25, 26), repeat=nfree)
    assert {p for p in box if contains(cone, lam + p)} <= set(points)
