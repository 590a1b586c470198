"""Crystal graphs of dominant weights: fundamental paths, tensor products.

A path is a list of (direction, duration) segments starting at the origin;
directions are integer weight vectors and durations are positive and sum
to one.  Root operators cut the height profile of a path at exact times,
reflect the middle window, and translate the tail, so the whole crystal of
a dominant weight can be generated from the straight path.

The crystals are built on integer times.  Every breakpoint a_k of an LS
path of shape lambda satisfies a_k <nu_k, beta^vee> in Z for a direction
nu_k in W lambda and a positive root beta (Littelmann, *A
Littlewood-Richardson rule for symmetrizable Kac-Moody algebras*, 1994;
*Paths and root operators*, 1995), so every time lies in (1/D) Z with
D = lcm(1, ..., <lambda, theta^vee>), theta^vee the highest coroot.  The
kernel ``_lower`` keeps the durations times D as ints and raises
``InvariantViolation`` on a height minimum or a cut off that grid, so a
wrong D cannot pass as a wrong crystal.  No ``Fraction`` is made: the
rational path model, in exact times, lives with the tests as the
independent reference they compare the kernel with.

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

from collections import namedtuple
from itertools import chain, islice
from math import lcm
from operator import sub

from .cartan import CartanDatum, Weight, check_reduced_word, is_dominant
from .characters import weyl_dim
from .errors import EnumerationCapError, InvariantViolation, RootSystemError, WeightError

DEFAULT_NODE_CAP = 60000  # at least 59 049, the size of A4's B(2, 2, 2, 2)


def _dominant(datum: CartanDatum, lam) -> Weight:
    lam = tuple(lam)
    if len(lam) != datum.rank:
        raise WeightError(f"weight {lam} has wrong rank")
    if not is_dominant(lam):
        raise WeightError(f"weight {lam} is not dominant")
    return lam


class CrystalGraph(namedtuple("CrystalGraph", "datum lam f_edge e_edge eps phi weights")):
    """Crystal of a dominant weight, nodes numbered in search order.

    Each table is a tuple of one list per simple root: ``f_edge[i-1][node]``
    and ``e_edge[i-1][node]`` give the target node of the lowering/raising
    operator or -1, ``eps[i-1][node]``/``phi[i-1][node]`` cache the string
    statistics and ``weights[i-1][node]`` is the i-th coordinate of the
    node weight.  Node 0 is the highest node.  ``f_edge`` is what the
    search found; ``_graph`` derives every other table from it.  The lists
    make a graph unhashable.
    """

    __slots__ = ()

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


def _mirrors(datum: CartanDatum, lam: Weight) -> list[dict]:
    """Per simple root i, s_i as a table on the orbit W lam, the paths' directions."""
    alphas = [datum.simple_root(i) for i in range(1, datum.rank + 1)]
    mirrors = [{} for _ in alphas]
    orbit = {lam}
    frontier = [lam]
    while frontier:
        fresh = []
        for nu in frontier:
            for i, (alpha, mirror) in enumerate(zip(alphas, mirrors)):
                c = nu[i]
                image = mirror[nu] = tuple(v - c * a for v, a in zip(nu, alpha)) if c else nu
                if image not in orbit:
                    orbit.add(image)
                    fresh.append(image)
        frontier = fresh
    return mirrors


def _time_scale(mirrors: list[dict]) -> int:
    """D = lcm(1, ..., <lam, theta^vee>), theta^vee the highest coroot.

    Every time of an LS path of shape lam lies in (1/D) Z: a breakpoint
    a_k satisfies a_k <nu_k, beta^vee> in Z for a direction nu_k in W lam
    and a positive root beta (Littelmann, *Paths and root operators*,
    1995), and |<nu_k, beta^vee>| <= <lam, theta^vee>.  Every coroot is
    W-conjugate to a simple one, so <lam, theta^vee> is the largest
    coordinate over the orbit W lam, which the keys of a mirror hold.
    """
    return lcm(*range(1, max(map(max, mirrors[0])) + 1))


def _lower(path, i: int, scale: int, mirror: dict):
    """The root operator f_i for the 0-based root i on an integer path.

    ``path`` is a canonical tuple of (direction, duration) pairs whose int
    durations sum to ``scale``, so the times are multiples of 1/scale and
    the heights are scaled by ``scale``; ``mirror`` is s_i on the
    directions.  Returns None when the profile cannot drop: its end lies
    less than one unit above its minimum.  Otherwise the window from the
    last minimum to the first later time the profile regains one unit is
    reflected by s_i, and the tail is translated.  A minimum that is not a
    multiple of ``scale``, or a cut time off the grid, raises
    ``InvariantViolation``: the scale is then too coarse for the path.
    """
    height = low = cut = 0
    ends = []
    for k, (direction, duration) in enumerate(path, 1):
        height += direction[i] * duration
        ends.append(height)
        if height <= low:
            low, cut = height, k
    if low % scale:
        raise InvariantViolation(f"height minimum {low}/{scale} is not integral")
    if height - low < scale:
        return None
    target = low + scale
    k, before = cut, low
    while ends[k] < target:
        before = ends[k]
        k += 1
    direction, duration = path[k]
    rise, off = divmod(target - before, direction[i])
    if off:
        raise InvariantViolation(f"profile regains one unit off the time grid 1/{scale}")
    window = [(mirror[d], t) for d, t in path[cut:k]]
    window.append((mirror[direction], rise))
    # s_i only changes directions inside the window, so only its ends can
    # meet an equal neighbour
    if cut and path[cut - 1][0] == window[0][0]:
        cut -= 1
        window[0] = (window[0][0], path[cut][1] + window[0][1])
    tail = path[k + 1:]
    if rise < duration:
        tail = ((direction, duration - rise),) + tail
    elif tail and tail[0][0] == window[-1][0]:
        window[-1] = (window[-1][0], window[-1][1] + tail[0][1])
        tail = tail[1:]
    return path[:cut] + tuple(window) + tail


def _path_crystal(datum: CartanDatum, lam: Weight, node_cap: int) -> CrystalGraph:
    """The crystal below the straight dominant path, by the root operators.

    The operators run on integer times: a path keeps its durations times
    D = lcm(1, ..., <lam, theta^vee>) (``_time_scale``), which sum to D.
    An LS path of shape lam has every time in (1/D) Z, so this is exact
    and no ``Fraction`` is made; ``_lower`` raises ``InvariantViolation``
    on a height minimum or a cut off the grid rather than round it.  D
    follows from the datum and lam alone.  The paths are the search's
    nodes and are needed only for the lowering columns; ``_graph`` derives
    the other tables from those in integers.
    """
    mirrors = _mirrors(datum, lam)
    scale = _time_scale(mirrors)
    ops = list(enumerate(mirrors))

    def step(paths):
        return [[_lower(path, i, scale, mirror) for path in paths] for i, mirror in ops]

    return _graph(datum, lam, _search(datum, lam, ((lam, scale),), step, node_cap))


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
