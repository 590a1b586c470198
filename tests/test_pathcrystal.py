import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stringcone import pathcrystal
from stringcone.cartan import _positive_roots, build_cartan
from stringcone.characters import weyl_dim
from stringcone.errors import EnumerationCapError, InvariantViolation, WeightError
from stringcone.pathcrystal import (
    DEFAULT_NODE_CAP,
    CrystalCache,
    _graph,
    _mirrors,
    _path_crystal,
    _search,
    _split,
    _tensor_crystal,
    _time_scale,
    demazure_crystal,
    edge_lines,
    enumerate_crystal,
)

from oracles import epsilon_phi, highest_path, lowering_operator, make_path, path_weight


def test_make_path_merges_and_validates():
    p = make_path([((1, 0), Fraction(1, 2)), ((1, 0), Fraction(1, 2))])
    assert len(p.segments) == 1
    with pytest.raises(WeightError):
        make_path([((1, 0), Fraction(1, 2))])  # durations must fill [0, 1]


def test_highest_path_requires_dominance():
    datum = build_cartan("A", 2)
    path = highest_path(datum, (2, 1))
    assert path_weight(path) == (2, 1)
    with pytest.raises(WeightError):
        highest_path(datum, (-1, 0))


def test_highest_statistics():
    datum = build_cartan("A", 2)
    path = highest_path(datum, (2, 1))
    assert epsilon_phi(path, 1) == (0, 2)
    assert epsilon_phi(path, 2) == (0, 1)


def test_lowering_then_raising_roundtrip():
    datum = build_cartan("A", 2)
    path = highest_path(datum, (1, 1))
    low = lowering_operator(datum, path, 1)
    assert low is not None
    # one step down from the highest path: e_1 applies once, f_1 no more
    assert path_weight(low) == (-1, 2)
    assert epsilon_phi(low, 1) == (1, 0)


def test_a2_fundamental_graph():
    datum = build_cartan("A", 2)
    graph = enumerate_crystal(datum, (1, 0))
    assert graph.size == 3
    assert graph.weights == ([1, -1, 0], [0, 1, -1])
    assert graph.highest == 0
    assert edge_lines(graph) == ["0 1 1", "1 2 2"]


def test_graph_keeps_no_paths():
    graph = enumerate_crystal(build_cartan("A", 2), (1, 1))
    assert not hasattr(graph, "paths")
    assert graph.size == len(graph.weights[0]) == 8


@pytest.mark.parametrize("lam", [(0, 1, 0), (1, 1, 0)])
def test_tables_hold_one_column_per_simple_root(lam):
    # a path crystal and a tensor crystal: rank columns of size entries each
    datum = build_cartan("B", 3)
    graph = enumerate_crystal(datum, lam)
    assert graph.size == weyl_dim(datum, lam)
    for table in ("f_edge", "e_edge", "eps", "phi", "weights"):
        columns = getattr(graph, table)
        assert len(columns) == datum.rank, table
        assert all(type(col) is list and len(col) == graph.size for col in columns), table


def test_zero_weight_crystal():
    datum = build_cartan("A", 2)
    graph = enumerate_crystal(datum, (0, 0))
    assert graph.size == 1
    assert edge_lines(graph) == []


@pytest.mark.parametrize("label,rank,lam", [
    ("A", 2, (1, 1)),
    ("A", 3, (1, 0, 1)),
    ("B", 2, (1, 1)),
    ("G", 2, (1, 0)),
    ("G", 2, (0, 1)),
])
def test_crystal_size_matches_weyl_dim(label, rank, lam):
    datum = build_cartan(label, rank)
    graph = enumerate_crystal(datum, lam)
    assert graph.size == weyl_dim(datum, lam)


def test_edge_tables_are_mutually_inverse():
    datum = build_cartan("B", 2)
    graph = enumerate_crystal(datum, (1, 1))
    for node in range(graph.size):
        for pos in range(datum.rank):
            down = graph.f_edge[pos][node]
            if down >= 0:
                assert graph.e_edge[pos][down] == node
            up = graph.e_edge[pos][node]
            if up >= 0:
                assert graph.f_edge[pos][up] == node


def test_statistics_consistency():
    datum = build_cartan("A", 2)
    graph = enumerate_crystal(datum, (2, 1))
    for node in range(graph.size):
        for pos in range(datum.rank):
            # phi - eps equals the weight paired with the coroot
            mu = graph.weights[pos][node]
            assert graph.phi[pos][node] - graph.eps[pos][node] == mu
            assert (graph.f_edge[pos][node] >= 0) == (graph.phi[pos][node] > 0)
            assert (graph.e_edge[pos][node] >= 0) == (graph.eps[pos][node] > 0)


def test_node_cap():
    datum = build_cartan("A", 2)
    # B(2, 2) has 27 nodes, so both caps stop it before any crystal is built
    for cap in (5, 26):
        crystals = CrystalCache(datum, cap)
        with pytest.raises(EnumerationCapError,
                           match=rf"lambda=\(2, 2\) exceeded node cap {cap}"):
            enumerate_crystal(datum, (2, 2), crystals=crystals)
        assert not crystals
    assert enumerate_crystal(datum, (2, 2), crystals=CrystalCache(datum, 27)).size == 27


def test_the_cache_holds_the_only_cap():
    # a second cap beside the cache's could pass the Weyl-dimension check,
    # fill the cache and then stop the build half way
    datum = build_cartan("A", 2)
    crystals = CrystalCache(datum)
    with pytest.raises(TypeError):
        enumerate_crystal(datum, (2, 2), node_cap=5, crystals=crystals)
    assert not crystals
    assert enumerate_crystal(datum, (2, 2), crystals=crystals).size == 27


def test_cap_is_checked_before_any_crystal_is_built(monkeypatch):
    # the chain below (10**4, 0) has 10**4 crystals; none may be started
    def refuse(*args, **kwargs):
        raise AssertionError("crystal built")

    monkeypatch.setattr(pathcrystal, "_path_crystal", refuse)
    monkeypatch.setattr(pathcrystal, "_tensor_crystal", refuse)
    datum = build_cartan("A", 2)
    with pytest.raises(EnumerationCapError,
                       match=r"lambda=\(10000, 0\) exceeded node cap 50$"):
        enumerate_crystal(datum, (10**4, 0), crystals=CrystalCache(datum, 50))


def _weights_up_to(rank, bound):
    return list(itertools.product(range(bound + 1), repeat=rank))


ORACLE_CASES = [
    pytest.param(label, rank, lam, id=f"{label}{rank}-{','.join(map(str, lam))}")
    for label, rank, lams in [
        ("A", 2, _weights_up_to(2, 2)),
        ("B", 2, _weights_up_to(2, 2)),
        ("C", 2, _weights_up_to(2, 2)),
        ("G", 2, _weights_up_to(2, 2)),
        ("A", 3, _weights_up_to(3, 1)),
        ("B", 3, [(1, 1, 1)]),
        ("C", 3, [(1, 1, 1)]),
        ("A", 4, [(1, 1, 1, 1)]),
        ("D", 4, [(0, 1, 0, 1)]),
    ]
    for lam in lams
]


@pytest.mark.parametrize("label,rank,lam", ORACLE_CASES)
def test_tensor_product_matches_path_model(label, rank, lam):
    datum = build_cartan(label, rank)
    graph = enumerate_crystal(datum, lam)
    oracle = _path_crystal(datum, lam, DEFAULT_NODE_CAP)
    for table in ("f_edge", "e_edge", "eps", "phi", "weights"):
        assert getattr(graph, table) == getattr(oracle, table), table
    assert graph.lam == oracle.lam == lam


def test_path_model_runs_only_on_fundamental_crystals(monkeypatch):
    # the integer kernel runs once per node of B(omega_1) and B(omega_2) and
    # operator index
    seen = []
    original = pathcrystal._lower

    def counting(path, *args):
        scale = sum(duration for _, duration in path)
        seen.append(tuple(sum(d[j] * t for d, t in path) // scale for j in range(2)))
        return original(path, *args)

    monkeypatch.setattr(pathcrystal, "_lower", counting)
    datum = build_cartan("A", 2)
    assert enumerate_crystal(datum, (2, 2)).size == 27
    fundamental = [(1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (-1, 0)]
    assert sorted(seen) == sorted(fundamental * 2)


def _rational_crystal(datum, lam):
    """The crystal below ``highest_path`` by ``lowering_operator``, the reference."""
    ops = range(1, datum.rank + 1)

    def step(paths):
        return [[lowering_operator(datum, path, i) for path in paths] for i in ops]

    return _graph(datum, lam, _search(datum, lam, highest_path(datum, lam), step,
                                      DEFAULT_NODE_CAP))


def _fundamental_and_zero(rank):
    return [(0,) * rank] + [tuple(int(k == j) for k in range(rank)) for j in range(rank)]


FUNDAMENTAL_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                     ("D", 4), ("G", 2)]


RATIONAL_CASES = [
    pytest.param(label, rank, lam, id=f"{label}{rank}-{','.join(map(str, lam))}")
    for label, rank in [("A", 1)] + FUNDAMENTAL_TYPES
    for lam in sorted(set(_fundamental_and_zero(rank)) | (
        {lam for lam in _weights_up_to(2, 3) if sum(lam) <= 3} if rank == 2 else set()))
]


@pytest.mark.parametrize("label,rank,lam", RATIONAL_CASES)
def test_integer_path_model_matches_the_rational_one(label, rank, lam):
    datum = build_cartan(label, rank)
    graph = _path_crystal(datum, lam, DEFAULT_NODE_CAP)
    oracle = _rational_crystal(datum, lam)
    for table in ("f_edge", "e_edge", "eps", "phi", "weights"):
        assert getattr(graph, table) == getattr(oracle, table), table


@pytest.mark.parametrize("label,rank", [("A", 1)] + FUNDAMENTAL_TYPES)
def test_time_scale_is_lcm_up_to_the_highest_coroot_pairing(label, rank):
    # the highest root of the transposed matrix is the highest coroot
    datum = build_cartan(label, rank)
    coroot = _positive_roots(tuple(zip(*datum.cartan_matrix)), rank)[-1]
    for lam in _fundamental_and_zero(rank) + [(1,) * rank, (2,) + (0,) * (rank - 1)]:
        top = sum(c * x for c, x in zip(coroot, lam))
        assert _time_scale(_mirrors(datum, lam)) == math.lcm(*range(1, top + 1)), lam


def test_a_too_coarse_time_scale_is_caught(monkeypatch):
    # G2's 7-dimensional crystal has its zero-weight path turn at t = 1/2
    datum = build_cartan("G", 2)
    lam = next(lam for lam in [(1, 0), (0, 1)] if weyl_dim(datum, lam) == 7)
    assert _rational_crystal(datum, lam).size == 7
    monkeypatch.setattr(pathcrystal, "_time_scale", lambda mirrors: 1)
    with pytest.raises(InvariantViolation, match="time grid 1/1"):
        _path_crystal(datum, lam, DEFAULT_NODE_CAP)


def test_lower_merges_the_window_with_equal_neighbours():
    # the window [1/3, 2/3] turns (3) into (-3), which joins both neighbours
    datum = build_cartan("A", 1)
    path = (((-3,), 2), ((3,), 2), ((-3,), 1), ((3,), 1))
    low = pathcrystal._lower(path, 0, 6, _mirrors(datum, (3,))[0])
    assert low == (((-3,), 5), ((3,), 1))


@st.composite
def integer_paths(draw):
    """A canonical integer path of A2 on the orbit of (1, 1), and its scale."""
    orbit = sorted(_mirrors(build_cartan("A", 2), (1, 1))[0])
    directions = draw(st.lists(st.sampled_from(orbit), min_size=1, max_size=5))
    directions = [d for k, d in enumerate(directions) if not k or d != directions[k - 1]]
    durations = draw(st.lists(st.integers(1, 4), min_size=len(directions),
                              max_size=len(directions)))
    return tuple(zip(directions, durations)), sum(durations)


@settings(max_examples=200, deadline=None)
@given(integer_paths(), st.sampled_from([1, 2]))
def test_lower_matches_lowering_operator(case, i):
    # the integer kernel against the rational reference on the same path
    path, scale = case
    datum = build_cartan("A", 2)
    rational = make_path([(d, Fraction(t, scale)) for d, t in path])
    try:
        low = pathcrystal._lower(path, i - 1, scale, _mirrors(datum, (1, 1))[i - 1])
    except InvariantViolation as exc:
        if "time grid" in str(exc):
            return  # a cut the rational model makes at a finer time
        with pytest.raises(InvariantViolation):
            lowering_operator(datum, rational, i)
        return
    expected = lowering_operator(datum, rational, i)
    if low is None:
        assert expected is None
    else:
        # equal segments, so the kernel's path is canonical like make_path's
        assert tuple((d, Fraction(t, scale)) for d, t in low) == expected.segments


def test_demazure_crystal_growth():
    datum = build_cartan("A", 2)
    graph = enumerate_crystal(datum, (1, 1))
    sizes = [len(demazure_crystal(graph, w))
             for w in [(), (1,), (1, 2), (1, 2, 1)]]
    assert sizes[0] == 1
    assert sizes == sorted(sizes)
    assert sizes[-1] == graph.size


@pytest.mark.parametrize("label,rank", FUNDAMENTAL_TYPES)
def test_path_tables_match_the_path_statistics(label, rank):
    # the tables read off the lowering table against the height profiles
    datum = build_cartan(label, rank)
    for j in range(rank):
        lam = tuple(int(k == j) for k in range(rank))
        graph = _path_crystal(datum, lam, DEFAULT_NODE_CAP)
        paths = [highest_path(datum, lam)]
        for node in range(graph.size):
            for i, dst in enumerate((col[node] for col in graph.f_edge), start=1):
                if dst == len(paths):
                    paths.append(lowering_operator(datum, paths[node], i))
        assert len(paths) == graph.size == weyl_dim(datum, lam)
        for node, path in enumerate(paths):
            stats = [epsilon_phi(path, i) for i in range(1, rank + 1)]
            assert [col[node] for col in graph.eps] == [e for e, _ in stats], (lam, node)
            assert [col[node] for col in graph.phi] == [p for _, p in stats], (lam, node)
            assert tuple(col[node] for col in graph.weights) == path_weight(path), (lam, node)


def _tensor_by_node(datum, lam, left, right):
    """Node-by-node breadth-first construction of the component of (0, 0)."""
    rank = datum.rank
    index = {(0, 0): 0}
    pairs = [(0, 0)]
    f_rows = []
    k = 0
    while k < len(pairs):
        a, b = pairs[k]
        row = []
        for i in range(rank):
            if left.phi[i][a] > right.eps[i][b]:
                nxt = (left.f_edge[i][a], b)
            elif right.f_edge[i][b] == -1:
                row.append(-1)
                continue
            else:
                nxt = (a, right.f_edge[i][b])
            if nxt not in index:
                index[nxt] = len(pairs)
                pairs.append(nxt)
            row.append(index[nxt])
        f_rows.append(tuple(row))
        k += 1

    def at(table, node):
        return [col[node] for col in table]

    weights = [tuple(x + y for x, y in zip(at(left.weights, a), at(right.weights, b)))
               for a, b in pairs]
    eps = [tuple(max(ea, eb - wa) for ea, eb, wa in
                 zip(at(left.eps, a), at(right.eps, b), at(left.weights, a)))
           for a, b in pairs]
    phi = [tuple(e + w for e, w in zip(row, wt)) for row, wt in zip(eps, weights)]
    e_rows = [[-1] * rank for _ in f_rows]
    for src, row in enumerate(f_rows):
        for pos, dst in enumerate(row):
            if dst != -1:
                e_rows[dst][pos] = src
    # the rows are the reference; the graph stores one column per simple root
    tables = {"f_edge": f_rows, "e_edge": e_rows, "eps": eps, "phi": phi, "weights": weights}
    return {name: tuple(map(list, zip(*rows))) for name, rows in tables.items()}


def _tensor_cases():
    # every dominant weight above a fundamental one with at most 3000 nodes
    cases = []
    for case in [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]:
        datum = build_cartan(*case)
        cases += [(case, lam) for lam in _weights_up_to(datum.rank, 6)
                  if sum(lam) > 1 and weyl_dim(datum, lam) <= 3000]
    return cases


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_tensor_cases()))
def test_level_tensor_matches_node_by_node_tensor(case):
    (label, rank), lam = case
    datum = build_cartan(label, rank)
    crystals = CrystalCache(datum)
    left, omega = _split(lam)
    graph = _tensor_crystal(datum, lam, crystals[left], crystals[omega], DEFAULT_NODE_CAP)
    oracle = _tensor_by_node(datum, lam, crystals[left], crystals[omega])
    for table, rows in oracle.items():
        assert getattr(graph, table) == rows, table
    assert graph.size == weyl_dim(datum, lam)


@pytest.mark.parametrize("label,rank,lam", [
    ("A", 2, (1, 0)), ("A", 2, (2, 1)), ("B", 2, (1, 1)), ("G", 2, (1, 2))])
def test_graph_rejects_a_cut_string_at_the_highest_node(label, rank, lam):
    datum = build_cartan(label, rank)
    graph = enumerate_crystal(datum, lam)
    for i, f_col in enumerate(graph.f_edge):
        if not lam[i]:
            continue
        # drop the last edge of the i-string through the highest node
        node = graph.highest
        while f_col[f_col[node]] != -1:
            node = f_col[node]
        f_edge = [list(col) for col in graph.f_edge]
        f_edge[i][node] = -1
        with pytest.raises(InvariantViolation, match=re.escape(f"lambda={lam}") + " has weight"):
            _graph(datum, lam, f_edge)


def test_both_constructions_share_one_search(monkeypatch):
    # every crystal of a sweep is searched once: fundamental ones from the
    # straight path, the others from the highest pair, coded 0
    starts = []
    search = pathcrystal._search

    def recording(datum, lam, start, step, node_cap):
        starts.append((lam, start))
        return search(datum, lam, start, step, node_cap)

    monkeypatch.setattr(pathcrystal, "_search", recording)
    datum = build_cartan("B", 2)
    crystals = CrystalCache(datum)
    for lam in _weights_up_to(2, 2):
        crystals[lam]
    assert sorted(lam for lam, _ in starts) == _weights_up_to(2, 2)
    for lam, start in starts:
        straight = ((lam, _time_scale(_mirrors(datum, lam))),)
        assert start == (straight if sum(lam) <= 1 else 0), lam


def test_tensor_cap_counts_the_component():
    datum = build_cartan("B", 2)
    crystals = CrystalCache(datum)
    left, omega = _split((1, 2))
    size = weyl_dim(datum, (1, 2))
    args = (datum, (1, 2), crystals[left], crystals[omega])
    assert _tensor_crystal(*args, size).size == size
    with pytest.raises(EnumerationCapError, match=rf"exceeded node cap {size - 1}$"):
        _tensor_crystal(*args, size - 1)
