import itertools
from fractions import Fraction

import pytest

from stringcone import pathcrystal
from stringcone.cartan import build_cartan
from stringcone.characters import weyl_dim
from stringcone.errors import EnumerationCapError, WeightError
from stringcone.pathcrystal import (
    DEFAULT_NODE_CAP,
    _path_crystal,
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
    assert graph.weights == ((1, 0), (-1, 1), (0, -1))
    assert graph.highest == 0
    assert edge_lines(graph) == ["0 1 1", "1 2 2"]


def test_graph_keeps_no_paths():
    graph = enumerate_crystal(build_cartan("A", 2), (1, 1))
    assert not hasattr(graph, "paths")
    assert graph.size == len(graph.weights) == 8


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
            down = graph.f_edge[node][pos]
            if down >= 0:
                assert graph.e_edge[down][pos] == node
            up = graph.e_edge[node][pos]
            if up >= 0:
                assert graph.f_edge[up][pos] == node


def test_statistics_consistency():
    datum = build_cartan("A", 2)
    graph = enumerate_crystal(datum, (2, 1))
    for node in range(graph.size):
        for pos in range(datum.rank):
            # phi - eps equals the weight paired with the coroot
            mu = graph.weights[node][pos]
            assert graph.phi[node][pos] - graph.eps[node][pos] == mu
            assert (graph.f_edge[node][pos] >= 0) == (graph.phi[node][pos] > 0)
            assert (graph.e_edge[node][pos] >= 0) == (graph.eps[node][pos] > 0)


def test_node_cap():
    datum = build_cartan("A", 2)
    # B(2, 2) has 27 nodes, so both caps stop it before any crystal is built
    with pytest.raises(EnumerationCapError, match=r"lambda=\(2, 2\) exceeded node cap 5"):
        enumerate_crystal(datum, (2, 2), node_cap=5)
    with pytest.raises(EnumerationCapError, match=r"lambda=\(2, 2\) exceeded node cap 26"):
        enumerate_crystal(datum, (2, 2), node_cap=26)
    assert enumerate_crystal(datum, (2, 2), node_cap=27).size == 27


def test_cap_is_checked_before_any_crystal_is_built(monkeypatch):
    # the chain below (10**4, 0) has 10**4 crystals; none may be started
    def refuse(*args, **kwargs):
        raise AssertionError("crystal built")

    monkeypatch.setattr(pathcrystal, "_path_crystal", refuse)
    monkeypatch.setattr(pathcrystal, "_tensor_crystal", refuse)
    datum = build_cartan("A", 2)
    with pytest.raises(EnumerationCapError,
                       match=r"lambda=\(10000, 0\) exceeded node cap 50$"):
        enumerate_crystal(datum, (10**4, 0), node_cap=50)


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
