"""String parametrization of crystal nodes along reduced longest words.

Peeling walks maximal raising strings through the crystal graph: the first
letter of the supplied word peels first.  A word is adapted to a Weyl
element w when its length-l(w) prefix is a reduced word for w; the strings
of the Demazure subset then vanish beyond position l(w).

Whole images are peeled a letter at a time (``_peel_nodes``) on the
crystal's per-root columns.  For each letter i a table
``top_i[b] = e_i^{eps_i(b)} b`` is filled in node order from the columns
``eps[i-1]`` and ``e_edge[i-1]``: e_i b is one step nearer the highest
node, so breadth-first numbering puts it before b, and
``top_i[b] = top_i[e_i b]`` whenever eps_i(b) > 0.  Each letter of the word
is then one read of ``eps[i-1]`` at the current nodes, followed by one jump
of every node to its ``top_i``.  ``_peel`` walks one node edge by edge and
stays the per-node reference.

``weighted_points`` keys the images by lambda: the weighted cone's section
at lambda is the image of B(lambda) (Littelmann 1998, Prop. 1.5).  It
builds the crystals first, with ``dominant_crystals``, and then peels
them, so a caller can time the two apart.
"""

from __future__ import annotations

from operator import mul

from .cartan import CartanDatum, Weight, WeylWord, check_longest_word, validate_word
from .characters import weyl_dim
from .errors import InvariantViolation, WordError
from .pathcrystal import CrystalCache, CrystalGraph, _cap_error, demazure_crystal


def _peel(graph: CrystalGraph, node: int, word: WeylWord) -> tuple[int, ...]:
    """Peel a node along an already checked longest word."""
    entries = []
    current = node
    for letter in word:
        t = graph.eps[letter - 1][current]
        for _ in range(t):
            current = graph.e_edge[letter - 1][current]
        entries.append(t)
    if current != graph.highest:
        raise InvariantViolation(
            f"peel along {word} did not end at the highest node"
        )
    return tuple(entries)


def string_param(graph: CrystalGraph, node: int, word) -> tuple[int, ...]:
    """Peel a node along the word, recording the maximal raising exponents."""
    word = check_longest_word(graph.datum, word)
    if not 0 <= node < graph.size:
        raise InvariantViolation(f"node {node} out of range")
    return _peel(graph, node, word)


def _peel_nodes(graph: CrystalGraph, nodes, word: WeylWord) -> list[tuple[int, ...]]:
    """String entries of ``nodes`` along an already checked longest word.

    One pass per letter of the word over all the nodes; the ``top_i``
    tables are built once per simple root.
    """
    tops = []
    for eps_col, e_col in zip(graph.eps, graph.e_edge):
        top = []
        append = top.append
        for node, t, up in zip(range(graph.size), eps_col, e_col):
            append(top[up] if t else node)
        tops.append(top)
    current = list(nodes)
    columns = []
    for letter in word:
        eps_col, top = graph.eps[letter - 1], tops[letter - 1]
        columns.append([eps_col[c] for c in current])
        current = [top[c] for c in current]
    if current.count(graph.highest) != len(current):
        raise InvariantViolation(
            f"peel along {word} did not end at the highest node"
        )
    return list(zip(*columns))


def string_image(datum: CartanDatum, lam, word, *,
                 crystals: CrystalCache | None = None) -> tuple[tuple[int, ...], ...]:
    """Sorted entry tuples of the whole crystal; injectivity is enforced."""
    word = check_longest_word(datum, word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    image = tuple(sorted(_peel_nodes(graph, range(graph.size), word)))
    if len(set(image)) != graph.size:
        raise InvariantViolation(
            f"string parametrization along {word} is not injective"
        )
    return image


def string_weight(datum: CartanDatum, lam, word, entries) -> Weight:
    """Weight of the node whose string along the word is ``entries``.

    lam minus the sum of t * alpha_i over the string; the j-th coordinate
    of alpha_i is ``cartan_matrix[j][i-1]``, so the exponents are summed
    per simple root and paired with each Cartan matrix row.
    """
    totals = [0] * datum.rank
    for letter, t in zip(validate_word(datum, word), entries):
        totals[letter - 1] += t
    return tuple(c - sum(map(mul, row, totals)) for c, row in zip(lam, datum.cartan_matrix))


def dominant_weights(rank: int, level_bound: int):
    """Dominant integral weights with every coordinate at most the bound."""
    return tuple(_weight_grid(rank, level_bound))


def _weight_grid(rank: int, level_bound: int):
    """``dominant_weights`` one at a time, in lexicographic order.

    Nothing is stored up front (``itertools.product`` would store its
    ranges), so a huge bound reaches the first weight over the node cap.
    """
    if rank == 0:
        yield ()
        return
    for head in range(level_bound + 1):
        for tail in _weight_grid(rank - 1, level_bound):
            yield (head,) + tail


def dominant_crystals(datum: CartanDatum, level_bound: int, *,
                      crystals: CrystalCache | None = None) -> dict:
    """Crystals ``{lam: B(lam)}`` for dominant lam up to the bound, from the cache.

    The weights are first walked with ``weyl_dim`` alone, so a bound too
    large for the cache's node cap fails at the first weight over the cap
    before any crystal is built.  A cached crystal was built under that
    cap, so its weight needs no ``weyl_dim``.  Then each crystal is
    enumerated into ``crystals``, once; the keys run in lexicographic order.
    """
    if level_bound < 0:
        raise WordError("level bound must be nonnegative")
    crystals = CrystalCache.for_datum(datum, crystals)
    lams = []
    for lam in _weight_grid(datum.rank, level_bound):
        if lam not in crystals and weyl_dim(datum, lam) > crystals.node_cap:
            raise _cap_error(lam, crystals.node_cap)
        lams.append(lam)
    return {lam: crystals[lam] for lam in lams}


def weighted_points(datum: CartanDatum, word, level_bound: int, *,
                    crystals: CrystalCache | None = None) -> dict:
    """String images ``{lam: string_image(lam)}`` for dominant lam up to the bound.

    The crystals come from ``dominant_crystals``, all of them before the
    first peel.  The keys run in lexicographic order and each image is
    sorted, so the points ``lam + psi`` come out sorted.
    """
    word = check_longest_word(datum, word)
    crystals = CrystalCache.for_datum(datum, crystals)
    return {lam: string_image(datum, lam, word, crystals=crystals)
            for lam in dominant_crystals(datum, level_bound, crystals=crystals)}


def demazure_strings(datum: CartanDatum, lam, w_word, w0_word, *,
                     crystals: CrystalCache | None = None) -> tuple[tuple[int, ...], ...]:
    """Sorted entry tuples of the Demazure subset for w along w0_word.

    ``demazure_crystal`` checks that w_word is reduced.
    """
    w0_word = check_longest_word(datum, w0_word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    nodes = demazure_crystal(graph, w_word)
    return tuple(sorted(_peel_nodes(graph, nodes, w0_word)))
