import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stringcone import pathcrystal
from stringcone.cartan import build_cartan
from stringcone.characters import weyl_dim
from stringcone.errors import EnumerationCapError, InvariantViolation, WeightError
from stringcone.pathcrystal import (
    DEFAULT_NODE_CAP,
    CrystalCache,
    _graph,
    _path_crystal,
    _split,
    _tensor_crystal,
    demazure_crystal,
    edge_lines,
    enumerate_crystal,
    epsilon_phi,
    highest_path,
    lowering_operator,
    make_path,
    path_weight,
    raising_operator,
)


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
    assert raising_operator(datum, low, 1) == path
    # raising the highest path gives nothing
    assert raising_operator(datum, path, 1) is None
    assert raising_operator(datum, path, 2) is None


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
    seen = []
    original = pathcrystal.lowering_operator

    def counting(datum, path, i):
        seen.append(path_weight(path))
        return original(datum, path, i)

    monkeypatch.setattr(pathcrystal, "lowering_operator", counting)
    datum = build_cartan("A", 2)
    assert enumerate_crystal(datum, (2, 2)).size == 27
    # each node of B(omega_1) and B(omega_2), once per operator index
    fundamental = [(1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (-1, 0)]
    assert sorted(seen) == sorted(fundamental * 2)


def test_demazure_crystal_growth():
    datum = build_cartan("A", 2)
    graph = enumerate_crystal(datum, (1, 1))
    sizes = [len(demazure_crystal(graph, w))
             for w in [(), (1,), (1, 2), (1, 2, 1)]]
    assert sizes[0] == 1
    assert sizes == sorted(sizes)
    assert sizes[-1] == graph.size


FUNDAMENTAL_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                     ("D", 4), ("G", 2)]


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
        assert start == (highest_path(datum, lam) if sum(lam) <= 1 else 0), lam


def test_tensor_cap_counts_the_component():
    datum = build_cartan("B", 2)
    crystals = CrystalCache(datum)
    left, omega = _split((1, 2))
    size = weyl_dim(datum, (1, 2))
    args = (datum, (1, 2), crystals[left], crystals[omega])
    assert _tensor_crystal(*args, size).size == size
    with pytest.raises(EnumerationCapError, match=rf"exceeded node cap {size - 1}$"):
        _tensor_crystal(*args, size - 1)
