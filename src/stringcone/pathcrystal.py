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
operators*, 1995: B(lambda) is the component of the concatenation).  Both
constructions number nodes breadth-first from the highest node in operator
order, and B(lambda) has no nontrivial automorphism, so they give identical
tables.

Every table of a ``CrystalGraph`` is stored column-major, one list per
simple root, because every consumer reads it one root at a time.  The
tensor-product search runs a whole breadth-first level at a time, with one
pass per operator over the factors' columns and pairs coded as single
ints.  The path model needs its exact rational paths only for the lowering
table; eps, phi and the weights then follow from that table in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import add

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
    node weight.  Node 0 is the highest node.
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


def _graph(datum: CartanDatum, lam: Weight, f_edge, eps, phi, weights) -> CrystalGraph:
    """Package breadth-first columns; ``e_edge`` inverts ``f_edge`` a column at a time."""
    size = len(weights[0])
    nodes = list(range(size))  # one int object per node, shared by the columns
    e_edge = []
    for f_col in f_edge:
        # one spare slot at the end absorbs the writes of the -1 targets
        e_col = [-1] * (size + 1)
        for src, dst in zip(nodes, f_col):
            e_col[dst] = src
        e_col.pop()
        e_edge.append(e_col)
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
    """Generate the full crystal below the straight dominant path.

    Breadth-first, expanding operator indices in increasing order, so node
    numbering is deterministic.  The paths are only needed for the lowering
    table; the other tables follow from it in integers.  phi_i(b) is
    phi_i(f_i b) + 1, or 0 without an f_i edge, read in reverse node order
    since f_i b is numbered after b; wt(f_i b) is wt(b) - alpha_i, read in
    node order from wt(highest) = lam; and eps is phi - wt.  These small
    tables are built a node at a time and turned into columns at the end.
    """
    start = highest_path(datum, lam)
    index = {start: 0}
    paths = [start]
    f_rows = []
    k = 0
    while k < len(paths):
        path = paths[k]
        row = []
        for i in range(1, datum.rank + 1):
            nxt = lowering_operator(datum, path, i)
            if nxt is None:
                row.append(-1)
            else:
                if nxt not in index:
                    if len(paths) >= node_cap:
                        raise _cap_error(lam, node_cap)
                    index[nxt] = len(paths)
                    paths.append(nxt)
                row.append(index[nxt])
        f_rows.append(tuple(row))
        k += 1
    size = len(paths)
    phi = [None] * size
    for node in reversed(range(size)):
        phi[node] = tuple(0 if dst == -1 else phi[dst][pos] + 1
                          for pos, dst in enumerate(f_rows[node]))
    alphas = [datum.simple_root(i) for i in range(1, datum.rank + 1)]
    weights = [lam] + [None] * (size - 1)
    for node, row in enumerate(f_rows):
        for alpha, dst in zip(alphas, row):
            if dst != -1:
                weights[dst] = tuple(w - a for w, a in zip(weights[node], alpha))
    eps = [tuple(p - w for p, w in zip(prow, wrow)) for prow, wrow in zip(phi, weights)]
    columns = [[list(col) for col in zip(*rows)] for rows in (f_rows, eps, phi, weights)]
    return _graph(datum, lam, *columns)


def _split(lam: Weight) -> tuple[Weight, Weight]:
    """(lam - omega_j, omega_j) for the first j with lam_j > 0."""
    j = next(k for k, c in enumerate(lam) if c > 0)
    omega = tuple(int(k == j) for k in range(len(lam)))
    return tuple(c - o for c, o in zip(lam, omega)), omega


def _tensor_crystal(datum: CartanDatum, lam: Weight, left: CrystalGraph,
                    right: CrystalGraph, node_cap: int) -> CrystalGraph:
    """Component of the highest pair (0, 0) in ``left`` (x) ``right``.

    Kashiwara's rule: f_i(a (x) b) is f_i a (x) b when phi_i(a) > eps_i(b),
    and a (x) f_i b otherwise; eps_i(a (x) b) is eps_i(a) plus the excess
    of eps_i(b) over phi_i(a), and the weights add.  The pair (a, b) is
    coded as ``a * right.size + b``.

    Breadth-first a whole level at a time: each operator maps the frontier
    in one pass over the factors' columns, and the targets are numbered
    node-major, operator by operator, which is the order of a node-by-node
    search (as in ``_path_crystal``), then dealt back to the ``f_edge``
    columns.  The next frontier is the codes first numbered in this level.
    The weight, eps and phi columns are then built one at a time.
    """
    rank, width = datum.rank, right.size
    ops = list(zip(left.f_edge, left.phi, right.f_edge, right.eps))
    index = {0: 0}
    setdefault = index.setdefault
    heads, tails = [0], [0]
    all_heads, all_tails = [], []
    f_edge = [[] for _ in range(rank)]
    while heads:
        all_heads += heads
        all_tails += tails
        targets = [
            [fa[a] * width + b if pa[a] > eb[b]
             else -1 if fb[b] == -1 else a * width + fb[b]
             for a, b in zip(heads, tails)]
            for fa, pa, fb, eb in ops
        ]
        start = len(index)
        # node-major: each frontier node's targets in operator order
        ids = [-1 if code == -1 else setdefault(code, len(index))
               for code in chain.from_iterable(zip(*targets))]
        del targets
        if len(index) > node_cap:
            raise _cap_error(lam, node_cap)
        for i, f_col in enumerate(f_edge):
            f_col += ids[i::rank]
        fresh = list(islice(index, start, None))
        heads = [code // width for code in fresh]
        tails = [code % width for code in fresh]
    del index, setdefault, ids, fresh  # the search state, before the tables
    weights = [
        [wa[a] + wb[b] for a, b in zip(all_heads, all_tails)]
        for wa, wb in zip(left.weights, right.weights)
    ]
    eps = [
        [ea[a] + (eb[b] - pa[a] if eb[b] > pa[a] else 0) for a, b in zip(all_heads, all_tails)]
        for ea, pa, eb in zip(left.eps, left.phi, right.eps)
    ]
    del all_heads, all_tails
    phi = [list(map(add, e, w)) for e, w in zip(eps, weights)]
    return _graph(datum, lam, f_edge, eps, phi, weights)


def enumerate_crystal(datum: CartanDatum, lam, node_cap: int = DEFAULT_NODE_CAP, *,
                      crystals: CrystalCache | None = None) -> CrystalGraph:
    """Crystal of a dominant weight, nodes numbered breadth-first in operator order.

    Zero and fundamental weights come from the path model.  Any other lam
    is the component of the highest pair in ``crystals[lam - omega_j]`` (x)
    ``crystals[omega_j]`` (a fresh cache with ``node_cap`` when None), so a
    level sweep builds each crystal once.  The smaller crystals are built
    smallest first, which keeps the recursion one level deep.  B(lam) has
    ``weyl_dim(lam)`` nodes and each smaller crystal no more, so lam is
    checked against the cap (the cache's, when one is given) before any
    of them is built.
    """
    lam = _dominant(datum, lam)
    cap = node_cap if crystals is None else crystals.node_cap
    if weyl_dim(datum, lam) > cap:
        raise _cap_error(lam, cap)
    if sum(lam) <= 1:
        return _path_crystal(datum, lam, node_cap)
    if crystals is None:
        crystals = CrystalCache(datum, node_cap)
    else:
        crystals = CrystalCache.for_datum(datum, crystals)
    chain = []
    mu = lam
    while sum(mu) > 1:
        mu, omega = _split(mu)
        chain.append((mu, omega))
    for mu, omega in reversed(chain):
        crystals[omega]
        crystals[mu]
    left, omega = chain[0]
    return _tensor_crystal(datum, lam, crystals[left], crystals[omega], node_cap)


class CrystalCache(dict):
    """Crystals of one Cartan datum keyed by weight, each enumerated once."""

    def __init__(self, datum: CartanDatum, node_cap: int = DEFAULT_NODE_CAP):
        super().__init__()
        self.datum = datum
        self.node_cap = node_cap

    def __missing__(self, lam) -> CrystalGraph:
        graph = self[lam] = enumerate_crystal(self.datum, lam, self.node_cap, crystals=self)
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
