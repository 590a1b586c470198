"""Crystal graphs of dominant weights: fundamental paths, tensor products.

A path is a list of (direction, duration) segments starting at the origin;
directions are integer weight vectors and durations are exact rationals
summing to one.  Root operators cut the height profile of a path at exact
rational times, reflect the middle window, and translate the tail, so the
whole crystal of a dominant weight can be generated from the straight path.

The path model builds only the crystals of zero and of the fundamental
weights, and stays the oracle for the others.  Every other B(lambda) is the
component of the highest pair in B(lambda - omega_j) (x) B(omega_j), whose
root operators follow Kashiwara's tensor-product rule on the integer
eps/phi/edge tables of the two factors (Littelmann, *Paths and root
operators*, 1995: B(lambda) is the component of the concatenation).

Both constructions produce only the lowering edges, through one
breadth-first search (``_search``) that numbers nodes from the highest one
in operator order and works a whole level at a time; they differ only in
how a level's targets are found.  ``_graph`` then derives every other
table from the edges, in integers.  The two constructions find
isomorphic graphs, and B(lambda) has no nontrivial automorphism, so the
shared search numbers them alike and the shared derivation gives
identical tables.

Every table of a ``CrystalGraph`` is stored column-major, one list per
simple root, because every consumer reads it one root at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import sub

from .cartan import CartanDatum, Weight, check_reduced_word, is_dominant
from .characters import weyl_dim
from .errors import EnumerationCapError, InvariantViolation, RootSystemError, WeightError

DEFAULT_NODE_CAP = 60000  # at least 59 049, the size of A4's B(2, 2, 2, 2)


@dataclass(frozen=True)
class PiecewisePath:
    """Canonical piecewise-linear path: merged segments, positive durations."""

    segments: tuple[tuple[Weight, Fraction], ...]


def make_path(segments) -> PiecewisePath:
    """Canonicalize a segment list: drop zero durations, merge equal directions."""
    merged: list = []
    total = Fraction(0)
    for direction, duration in segments:
        if duration < 0:
            raise WeightError("negative segment duration")
        if duration == 0:
            continue
        direction = tuple(direction)
        total += duration
        if merged and merged[-1][0] == direction:
            merged[-1] = (direction, merged[-1][1] + duration)
        else:
            merged.append((direction, duration))
    if total != 1:
        raise WeightError("segment durations must sum to one")
    return PiecewisePath(tuple(merged))


def _dominant(datum: CartanDatum, lam) -> Weight:
    lam = tuple(lam)
    if len(lam) != datum.rank:
        raise WeightError(f"weight {lam} has wrong rank")
    if not is_dominant(lam):
        raise WeightError(f"weight {lam} is not dominant")
    return lam


def highest_path(datum: CartanDatum, lam) -> PiecewisePath:
    """Straight path to a dominant weight."""
    return PiecewisePath(((_dominant(datum, lam), Fraction(1)),))


def path_weight(path: PiecewisePath) -> Weight:
    """Endpoint of the path; integral on crystal orbits."""
    rank = len(path.segments[0][0])
    end = [Fraction(0)] * rank
    for direction, duration in path.segments:
        for j in range(rank):
            end[j] += direction[j] * duration
    for c in end:
        if c.denominator != 1:
            raise InvariantViolation("path endpoint is not an integral weight")
    return tuple(int(c) for c in end)


def _breakpoints(path: PiecewisePath, i: int):
    """Times and heights of the pairing profile against the i-th coroot."""
    times = [Fraction(0)]
    heights = [Fraction(0)]
    for direction, duration in path.segments:
        times.append(times[-1] + duration)
        heights.append(heights[-1] + direction[i - 1] * duration)
    return times, heights


def _min_height(heights) -> Fraction:
    m = min(heights)
    if m.denominator != 1:
        raise InvariantViolation("height minimum is not integral")
    return m


def epsilon_phi(path: PiecewisePath, i: int) -> tuple[int, int]:
    """Raising and lowering string lengths read off the height profile."""
    _, heights = _breakpoints(path, i)
    m = _min_height(heights)
    end = heights[-1]
    if end.denominator != 1:
        raise InvariantViolation("height endpoint is not integral")
    return int(-m), int(end - m)


def _reflect_direction(datum: CartanDatum, i: int, direction) -> Weight:
    c = direction[i - 1]
    alpha = datum.simple_root(i)
    return tuple(v - c * a for v, a in zip(direction, alpha))


def _rebuild(datum: CartanDatum, path: PiecewisePath, i: int, lo: Fraction, hi: Fraction) -> PiecewisePath:
    """Reflect the directions of the window [lo, hi] and keep the rest."""
    segments = []
    t = Fraction(0)
    for direction, duration in path.segments:
        a, b = t, t + duration
        windows = (
            (a, min(b, lo), False),
            (max(a, lo), min(b, hi), True),
            (max(a, hi), b, False),
        )
        for wlo, whi, reflect in windows:
            if whi > wlo:
                d = _reflect_direction(datum, i, direction) if reflect else direction
                segments.append((d, whi - wlo))
        t = b
    return make_path(segments)


def lowering_operator(datum: CartanDatum, path: PiecewisePath, i: int):
    """Root operator pushing the path one step away from dominance.

    Returns None when the profile cannot drop, i.e. the endpoint sits at the
    minimum.  Otherwise the window between the last minimum and the first
    later time the profile gains one unit is reflected and the tail is
    translated, which only changes directions inside the window.
    """
    datum.check_index(i)
    times, heights = _breakpoints(path, i)
    m = _min_height(heights)
    if heights[-1] - m < 1:
        return None
    idx = max(k for k, h in enumerate(heights) if h == m)
    t1 = times[idx]
    target = m + 1
    t2 = None
    for k in range(idx, len(path.segments)):
        if heights[k + 1] >= target:
            span = times[k + 1] - times[k]
            rise = heights[k + 1] - heights[k]
            t2 = times[k] + (target - heights[k]) * span / rise
            break
    if t2 is None:
        raise InvariantViolation("profile never regains one unit after its minimum")
    return _rebuild(datum, path, i, t1, t2)


def raising_operator(datum: CartanDatum, path: PiecewisePath, i: int):
    """Inverse root operator; None when the profile never goes below zero."""
    datum.check_index(i)
    times, heights = _breakpoints(path, i)
    m = _min_height(heights)
    if -m < 1:
        return None
    idx = min(k for k, h in enumerate(heights) if h == m)
    t1 = times[idx]
    target = m + 1
    t0 = None
    for k in range(idx - 1, -1, -1):
        if heights[k] >= target:
            span = times[k + 1] - times[k]
            rise = heights[k + 1] - heights[k]
            t0 = times[k] + (target - heights[k]) * span / rise
            break
    if t0 is None:
        raise InvariantViolation("profile has no unit drop before its minimum")
    return _rebuild(datum, path, i, t0, t1)


@dataclass(eq=False)
class CrystalGraph:
    """Crystal of a dominant weight, nodes numbered in search order.

    Each table holds one column per simple root: ``f_edge[i-1][node]`` and
    ``e_edge[i-1][node]`` give the target node of the lowering/raising
    operator or -1, ``eps[i-1][node]``/``phi[i-1][node]`` cache the string
    statistics and ``weights[i-1][node]`` is the i-th coordinate of the
    node weight.  Node 0 is the highest node.  ``f_edge`` is what the
    search found; ``_graph`` derives every other table from it.
    """

    datum: CartanDatum
    lam: Weight
    f_edge: tuple[list[int], ...]
    e_edge: tuple[list[int], ...]
    eps: tuple[list[int], ...]
    phi: tuple[list[int], ...]
    weights: tuple[list[int], ...]

    @property
    def size(self) -> int:
        return len(self.weights[0])

    highest = 0


def _cap_error(lam, node_cap: int) -> EnumerationCapError:
    return EnumerationCapError(f"crystal for lambda={lam} exceeded node cap {node_cap}")


def _search(datum: CartanDatum, lam: Weight, start, step, node_cap: int) -> list[list[int]]:
    """Lowering columns of the crystal below ``start``, breadth-first.

    A whole level at a time: ``step(frontier)`` returns, for each operator
    f_1, ..., f_rank, the targets of the frontier's nodes, None where there
    is no edge.  The targets are numbered node-major, operator by operator,
    which is the order of a node-by-node search, then dealt back to the
    columns.  The next frontier is the nodes first numbered in this level.
    """
    rank = datum.rank
    index = {start: 0}
    setdefault = index.setdefault
    frontier = [start]
    f_edge = [[] for _ in range(rank)]
    while frontier:
        begin = len(index)
        ids = [-1 if node is None else setdefault(node, len(index))
               for node in chain.from_iterable(zip(*step(frontier)))]
        if len(index) > node_cap:
            raise _cap_error(lam, node_cap)
        for i, f_col in enumerate(f_edge):
            f_col += ids[i::rank]
        frontier = list(islice(index, begin, None))
    return f_edge


def _graph(datum: CartanDatum, lam: Weight, f_edge) -> CrystalGraph:
    """The crystal whose lowering columns are ``f_edge``; every other table follows.

    ``e_edge`` inverts ``f_edge``.  Every edge lowers the weight by one
    simple root, so it joins consecutive breadth-first levels: e_i b is
    numbered before b and f_i b after it.  Hence eps_i(b) is
    eps_i(e_i b) + 1, read in node order, and phi_i(b) is phi_i(f_i b) + 1,
    read in reverse node order, both 0 without the edge; the i-th weight
    coordinate is phi_i - eps_i.  ``lam`` is read only to check node 0's
    weight.
    """
    size = len(f_edge[0])
    nodes = list(range(size))  # one int object per node, shared by the columns
    e_edge, eps, phi = [], [], []
    for f_col in f_edge:
        # one spare slot at the end absorbs the writes of the -1 targets
        e_col = [-1] * (size + 1)
        for src, dst in zip(nodes, f_col):
            e_col[dst] = src
        e_col.pop()
        e_edge.append(e_col)
        # here a -1 in the spare slot makes the reads of the -1 targets give 0
        eps_col = [0] * size + [-1]
        for node, up in zip(nodes, e_col):
            eps_col[node] = eps_col[up] + 1
        eps_col.pop()
        eps.append(eps_col)
        phi_col = [0] * size + [-1]
        for node in reversed(nodes):
            phi_col[node] = phi_col[f_col[node]] + 1
        phi_col.pop()
        phi.append(phi_col)
    weights = [list(map(sub, p, e)) for p, e in zip(phi, eps)]
    top = tuple(col[0] for col in weights)
    if top != lam:
        raise InvariantViolation(f"highest node of the crystal for lambda={lam} has weight {top}")
    return CrystalGraph(
        datum=datum,
        lam=lam,
        f_edge=tuple(f_edge),
        e_edge=tuple(e_edge),
        eps=tuple(eps),
        phi=tuple(phi),
        weights=tuple(weights),
    )


def _path_crystal(datum: CartanDatum, lam: Weight, node_cap: int) -> CrystalGraph:
    """The crystal below the straight dominant path, by the root operators.

    The paths are the search's nodes and are needed only for the lowering
    columns; ``_graph`` derives the other tables from those in integers.
    """
    ops = range(1, datum.rank + 1)

    def step(paths):
        return [[lowering_operator(datum, path, i) for path in paths] for i in ops]

    return _graph(datum, lam, _search(datum, lam, highest_path(datum, lam), step, node_cap))


def _split(lam: Weight) -> tuple[Weight, Weight]:
    """(lam - omega_j, omega_j) for the first j with lam_j > 0."""
    j = next(k for k, c in enumerate(lam) if c > 0)
    omega = tuple(int(k == j) for k in range(len(lam)))
    return tuple(c - o for c, o in zip(lam, omega)), omega


def _tensor_crystal(datum: CartanDatum, lam: Weight, left: CrystalGraph,
                    right: CrystalGraph, node_cap: int) -> CrystalGraph:
    """Component of the highest pair (0, 0) in ``left`` (x) ``right``.

    Kashiwara's rule: f_i(a (x) b) is f_i a (x) b when phi_i(a) > eps_i(b),
    and a (x) f_i b otherwise.  The pair (a, b) is coded as
    ``a * right.size + b``, and each operator maps a whole frontier of codes
    in one pass over the factors' columns.  Only the lowering columns come
    from the rule; ``_graph`` derives the other tables from those.
    """
    width = right.size
    ops = list(zip(left.f_edge, left.phi, right.f_edge, right.eps))

    def step(codes):
        heads = [code // width for code in codes]
        tails = [code % width for code in codes]
        return [[fa[a] * width + b if pa[a] > eb[b]
                 else None if fb[b] == -1 else a * width + fb[b]
                 for a, b in zip(heads, tails)]
                for fa, pa, fb, eb in ops]

    return _graph(datum, lam, _search(datum, lam, 0, step, node_cap))


def enumerate_crystal(datum: CartanDatum, lam, *,
                      crystals: CrystalCache | None = None) -> CrystalGraph:
    """Crystal of a dominant weight, nodes numbered breadth-first in operator order.

    Zero and fundamental weights come from the path model.  Any other lam
    is the component of the highest pair in ``crystals[lam - omega_j]`` (x)
    ``crystals[omega_j]`` (a fresh cache when None), so a level sweep
    builds each crystal once.  The smaller crystals are built smallest
    first, which keeps the recursion one level deep.  The node cap is the
    cache's alone: B(lam) has ``weyl_dim(lam)`` nodes and each smaller
    crystal no more, so lam is checked against it before any of them is
    built.
    """
    lam = _dominant(datum, lam)
    crystals = CrystalCache.for_datum(datum, crystals)
    cap = crystals.node_cap
    if weyl_dim(datum, lam) > cap:
        raise _cap_error(lam, cap)
    if sum(lam) <= 1:
        return _path_crystal(datum, lam, cap)
    chain = []
    mu = lam
    while sum(mu) > 1:
        mu, omega = _split(mu)
        chain.append((mu, omega))
    for mu, omega in reversed(chain):
        crystals[omega]
        crystals[mu]
    left, omega = chain[0]
    return _tensor_crystal(datum, lam, crystals[left], crystals[omega], cap)


class CrystalCache(dict):
    """Crystals of one Cartan datum keyed by weight, each enumerated once."""

    def __init__(self, datum: CartanDatum, node_cap: int = DEFAULT_NODE_CAP):
        super().__init__()
        self.datum = datum
        self.node_cap = node_cap

    def __missing__(self, lam) -> CrystalGraph:
        graph = self[lam] = enumerate_crystal(self.datum, lam, crystals=self)
        return graph

    @classmethod
    def for_datum(cls, datum: CartanDatum, crystals: CrystalCache | None) -> CrystalCache:
        """``crystals`` after checking it was built for ``datum``; a fresh cache if None."""
        if crystals is None:
            return cls(datum)
        if crystals.datum != datum:
            raise RootSystemError(
                f"crystal cache built for {crystals.datum.type_label}{crystals.datum.rank}"
                f" used with {datum.type_label}{datum.rank}"
            )
        return crystals


def demazure_crystal(graph: CrystalGraph, w_word) -> frozenset:
    """Node set swept out by lowering closures along a reduced word.

    The word ``(j1, ..., jp)`` closes under f_jp first and f_j1 last, so the
    last-applied letter is the word's first letter.
    """
    w_word = check_reduced_word(graph.datum, w_word)
    nodes = {graph.highest}
    for letter in reversed(w_word):
        f_col = graph.f_edge[letter - 1]
        stack = list(nodes)
        while stack:
            node = stack.pop()
            dst = f_col[node]
            if dst != -1 and dst not in nodes:
                nodes.add(dst)
                stack.append(dst)
    return frozenset(nodes)


def edge_lines(graph: CrystalGraph) -> list[str]:
    """Adjacency dump, one line per lowering edge: ``src i dst``."""
    return [f"{src} {i} {dst}" for src, row in enumerate(zip(*graph.f_edge))
            for i, dst in enumerate(row, start=1) if dst != -1]
