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
component of the highest pair in B(lambda - nu) (x) B(nu), nu about half of
lambda, whose root operators follow Kashiwara's tensor-product rule on the
integer eps/phi/edge tables of the two factors (Littelmann, *Paths and root
operators*, 1995: B(lambda) is the component of the concatenation).

Both constructions produce only the lowering edges and number the nodes
breadth-first from the highest one, node by node in operator order: each
is one first-in-first-out pass, over the paths or over the pair codes,
that numbers a target the first time it appears, so its cost is per
node, not per level.  ``_graph`` then derives eps and phi from the
edges, in integers; a weight is phi - eps, computed when read.  The two
constructions, and any choice of nu, find isomorphic graphs, and
B(lambda) has no nontrivial automorphism, so the shared numbering names
their nodes alike and the shared derivation gives identical tables.

Every table of a ``CrystalGraph`` is stored column-major, one list per
simple root, because every consumer reads it one root at a time.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import sub

from .cartan import CartanDatum, Weight, check_dominant, check_reduced_word
from .characters import weyl_dim
from .errors import EnumerationCapError, InvariantViolation, RootSystemError

DEFAULT_NODE_CAP = 60000  # at least 59 049, the size of A4's B(2, 2, 2, 2)


class CrystalGraph(namedtuple("CrystalGraph", "datum lam f_edge eps phi")):
    """Crystal of a dominant weight, nodes numbered in search order.

    Each table is a tuple of one list per simple root: ``f_edge[i-1][node]``
    gives the target node of the lowering operator f_i or -1, and
    ``eps[i-1][node]``/``phi[i-1][node]`` cache the string statistics.
    Node 0 is the highest node.  ``f_edge`` is what the search found;
    ``_graph`` derives eps and phi from it.  No weight table is stored:
    ``weights`` computes the columns phi_i - eps_i on each read.  There is
    no raising table either: e_i b is the node whose f_i edge ends at b, so
    a caller who needs e_i inverts ``f_edge``.  The lists make a graph
    unhashable.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.eps[0])

    @property
    def weights(self) -> tuple:
        """Column i-1 holds each node's i-th weight coordinate; built anew on each read."""
        return tuple(list(map(sub, p, e)) for p, e in zip(self.phi, self.eps))

    highest = 0


def _cap_error(lam, node_cap: int) -> EnumerationCapError:
    return EnumerationCapError(f"crystal for lambda={lam} exceeded node cap {node_cap}")


def _graph(datum: CartanDatum, lam: Weight, f_edge) -> CrystalGraph:
    """The crystal whose lowering columns are ``f_edge``; eps and phi follow.

    Every edge lowers the weight by one simple root, so it joins
    consecutive breadth-first levels: e_i b is numbered before b and f_i b
    after it.  Hence eps_i(f_i b) is eps_i(b) + 1, written in node order
    (eps_i(b) is final by then), and phi_i(b) is phi_i(f_i b) + 1, read in
    reverse node order, both 0 without the edge.  ``lam`` is read only to
    check node 0's weight, phi_i(0) - eps_i(0).
    """
    size = len(f_edge[0])
    nodes = list(range(size))  # one int object per node, shared by the loops
    eps, phi = [], []
    for f_col in f_edge:
        # one spare slot at the end absorbs the writes of the -1 targets
        eps_col = [0] * (size + 1)
        for node, down in zip(nodes, f_col):
            eps_col[down] = eps_col[node] + 1
        eps_col.pop()
        eps.append(eps_col)
        # here a -1 in the spare slot makes the reads of the -1 targets give 0
        phi_col = [0] * size + [-1]
        for node in reversed(nodes):
            phi_col[node] = phi_col[f_col[node]] + 1
        phi_col.pop()
        phi.append(phi_col)
    top = tuple(p[0] - e[0] for p, e in zip(phi, eps))
    if top != lam:
        raise InvariantViolation(f"highest node of the crystal for lambda={lam} has weight {top}")
    return CrystalGraph(datum, lam, tuple(f_edge), tuple(eps), tuple(phi))


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
    follows from the datum and lam alone.  One first-in-first-out pass
    numbers each path the first time f_1, ..., f_rank reach it, checking
    the cap as it does, in the tensor pass's order; the paths serve only
    the lowering columns, from which ``_graph`` derives the other tables.
    """
    if node_cap < 1:  # the highest node alone is over the cap
        raise _cap_error(lam, node_cap)
    mirrors = _mirrors(datum, lam)
    scale = _time_scale(mirrors)
    f_edge = [[] for _ in mirrors]
    ops = list(zip(range(datum.rank), mirrors, f_edge))
    start = ((lam, scale),)
    index = {start: 0}
    get = index.get
    paths = [start]
    for path in paths:  # the list grows as targets are numbered
        for i, mirror, f_col in ops:
            target = _lower(path, i, scale, mirror)
            if target is None:
                f_col.append(-1)
                continue
            node = get(target)
            if node is None:
                node = index[target] = len(paths)
                if node == node_cap:
                    raise _cap_error(lam, node_cap)
                paths.append(target)
            f_col.append(node)
    return _graph(datum, lam, f_edge)


def _split(lam: Weight) -> tuple[Weight, Weight]:
    """(lam - nu, nu), nu the first floor(sum lam / 2) units of lam, coordinate by coordinate.

    For sum lam >= 2 both parts are nonzero, dominant and at most lam in
    every coordinate, and their sums differ by at most one.
    """
    rest = sum(lam) // 2
    nu = []
    for c in lam:
        nu.append(min(c, rest))
        rest -= nu[-1]
    return tuple(map(sub, lam, nu)), tuple(nu)


def _tensor_crystal(datum: CartanDatum, lam: Weight, left: CrystalGraph,
                    right: CrystalGraph, node_cap: int) -> CrystalGraph:
    """Component of the highest pair (0, 0) in ``left`` (x) ``right``.

    The factors are the crystals of any two dominant weights summing to
    ``lam``, such as the two from ``_split``.  Kashiwara's rule: f_i(a (x) b)
    is f_i a (x) b when phi_i(a) > eps_i(b), and a (x) f_i b otherwise.
    The pair (a, b) is coded as ``a * right.size + b``.  One
    first-in-first-out pass takes the codes in numbering order and applies
    the rule inline for each operator in turn; a target is numbered the
    first time it appears, and the cap is checked as it is.  That is the
    order of a level-by-level breadth-first search.  Only the lowering
    columns come from the rule; ``_graph`` derives eps and phi from those.
    """
    width = right.size
    f_edge = [[] for _ in range(datum.rank)]
    ops = list(zip(f_edge, left.f_edge, left.phi, right.f_edge, right.eps))
    index = {0: 0}
    get = index.get
    codes = [0]
    for code in codes:  # the list grows as targets are numbered
        a, b = divmod(code, width)
        for f_col, fa, pa, fb, eb in ops:
            if pa[a] > eb[b]:
                target = fa[a] * width + b
            elif fb[b] == -1:
                f_col.append(-1)
                continue
            else:
                target = code - b + fb[b]
            node = get(target)
            if node is None:
                node = index[target] = len(codes)
                if node == node_cap:
                    raise _cap_error(lam, node_cap)
                codes.append(target)
            f_col.append(node)
    return _graph(datum, lam, f_edge)


def enumerate_crystal(datum: CartanDatum, lam, *,
                      crystals: CrystalCache | None = None) -> CrystalGraph:
    """Crystal of a dominant weight, nodes numbered breadth-first in operator order.

    Zero and fundamental weights come from the path model.  Any other lam
    is the component of the highest pair in ``crystals[lam - nu]`` (x)
    ``crystals[nu]`` (a fresh cache when None), nu about half of lam
    (``_split``), so a level sweep builds each crystal once.  The node cap
    is the cache's alone.  A path crystal, and a tensor crystal whose
    factors are both cached, is built at once, and its pass raises the cap
    error itself.  Otherwise B(lam) has ``weyl_dim(lam)`` nodes and each
    factor, at most lam in every coordinate, no more, so lam is checked
    against the cap before any of them is built; the missing factors are
    then built the same way, halving the weight at each level.
    """
    lam = check_dominant(datum, lam)
    crystals = CrystalCache.for_datum(datum, crystals)
    cap = crystals.node_cap
    if sum(lam) <= 1:
        return _path_crystal(datum, lam, cap)
    left, right = _split(lam)
    if (left not in crystals or right not in crystals) and weyl_dim(datum, lam) > cap:
        raise _cap_error(lam, cap)
    return _tensor_crystal(datum, lam, crystals[left], crystals[right], cap)


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
