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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, mul

from .cartan import CartanDatum, Weight, WeylWord, check_longest_word, validate_word
from .errors import InvariantViolation, WordError
from .pathcrystal import CrystalCache, CrystalGraph, demazure_crystal


@dataclass(frozen=True, order=True)
class StringVector:
    """Peeling exponents of one crystal node along a fixed reduced word."""

    entries: tuple[int, ...]
    word: WeylWord


@dataclass(frozen=True, order=True)
class WeightedPoint:
    """A dominant weight together with one of its string vectors."""

    lam: Weight
    psi: tuple[int, ...]


_entries = attrgetter("entries")


def _peel(graph: CrystalGraph, node: int, word: WeylWord) -> StringVector:
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
    return StringVector(entries=tuple(entries), word=word)


def string_param(graph: CrystalGraph, node: int, word) -> StringVector:
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


def _vectors(entries, word: WeylWord) -> tuple[StringVector, ...]:
    """One string vector per entry tuple, all along the same word."""
    return tuple(map(StringVector, entries, repeat(word)))


def string_image(datum: CartanDatum, lam, word, *,
                 crystals: CrystalCache | None = None) -> tuple[StringVector, ...]:
    """Sorted string vectors of the whole crystal; injectivity is enforced."""
    word = check_longest_word(datum, word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    entries = sorted(_peel_nodes(graph, range(graph.size), word))
    if len(set(entries)) != graph.size:
        raise InvariantViolation(
            f"string parametrization along {word} is not injective"
        )
    return _vectors(entries, word)


def string_weight(datum: CartanDatum, lam, sv: StringVector) -> Weight:
    """Weight of the node a string vector encodes.

    lam minus the sum of t * alpha_i over the string; the j-th coordinate
    of alpha_i is ``cartan_matrix[j][i-1]``, so the exponents are summed
    per simple root and paired with each Cartan matrix row.
    """
    totals = [0] * datum.rank
    for letter, t in zip(validate_word(datum, sv.word), sv.entries):
        totals[letter - 1] += t
    return tuple(c - sum(map(mul, row, totals)) for c, row in zip(lam, datum.cartan_matrix))


def dominant_weights(rank: int, level_bound: int):
    """Dominant integral weights with every coordinate at most the bound."""
    return tuple(_weight_grid(rank, level_bound))


def _weight_grid(rank: int, level_bound: int):
    """``dominant_weights`` one at a time, in lexicographic order.

    Nothing is stored up front (``itertools.product`` would store its
    ranges), so a huge bound reaches the first crystal over the node cap.
    """
    if rank == 0:
        yield ()
        return
    for head in range(level_bound + 1):
        for tail in _weight_grid(rank - 1, level_bound):
            yield (head,) + tail


def weighted_points(datum: CartanDatum, word, level_bound: int, *,
                    crystals: CrystalCache | None = None) -> tuple[WeightedPoint, ...]:
    """All (lambda, string) points for dominant lambda up to the bound.

    The points come out sorted without a sort: the weights run in
    lexicographic order and each string image is sorted.
    """
    word = check_longest_word(datum, word)
    if level_bound < 0:
        raise WordError("level bound must be nonnegative")
    crystals = CrystalCache.for_datum(datum, crystals)
    points = []
    for lam in _weight_grid(datum.rank, level_bound):
        image = string_image(datum, lam, word, crystals=crystals)
        points += map(WeightedPoint, repeat(lam), map(_entries, image))
    return tuple(points)


def demazure_strings(datum: CartanDatum, lam, w_word, w0_word, *,
                     crystals: CrystalCache | None = None) -> tuple[StringVector, ...]:
    """Sorted string vectors of the Demazure subset for w along w0_word.

    ``demazure_crystal`` checks that w_word is reduced.
    """
    w0_word = check_longest_word(datum, w0_word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    nodes = demazure_crystal(graph, w_word)
    return _vectors(sorted(_peel_nodes(graph, nodes, w0_word)), w0_word)
