"""String parametrization of crystal nodes along reduced longest words.

Peeling walks maximal raising strings through the crystal graph: the first
letter of the supplied word peels first.  A word is adapted to a Weyl
element w when its length-l(w) prefix is a reduced word for w; the strings
of the Demazure subset then vanish beyond position l(w).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanDatum, Weight, WeylWord, check_longest_word
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

    def vector(self) -> tuple[int, ...]:
        return self.lam + self.psi


def _peel(graph: CrystalGraph, node: int, word: WeylWord) -> StringVector:
    """Peel a node along an already checked longest word."""
    entries = []
    current = node
    for letter in word:
        t = graph.eps[current][letter - 1]
        for _ in range(t):
            current = graph.e_edge[current][letter - 1]
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


def string_image(datum: CartanDatum, lam, word, *,
                 crystals: CrystalCache | None = None) -> tuple[StringVector, ...]:
    """Sorted string vectors of the whole crystal; injectivity is enforced."""
    word = check_longest_word(datum, word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    vectors = sorted(_peel(graph, node, word) for node in range(graph.size))
    if len(set(vectors)) != graph.size:
        raise InvariantViolation(
            f"string parametrization along {word} is not injective"
        )
    return tuple(vectors)


def string_weight(datum: CartanDatum, lam, sv: StringVector) -> Weight:
    """Weight of the node a string vector encodes."""
    mu = list(lam)
    for letter, t in zip(sv.word, sv.entries):
        alpha = datum.simple_root(letter)
        for j in range(datum.rank):
            mu[j] -= t * alpha[j]
    return tuple(mu)


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
    """All (lambda, string) points for dominant lambda up to the bound."""
    word = check_longest_word(datum, word)
    if level_bound < 0:
        raise WordError("level bound must be nonnegative")
    crystals = CrystalCache.for_datum(datum, crystals)
    points = []
    for lam in _weight_grid(datum.rank, level_bound):
        for sv in string_image(datum, lam, word, crystals=crystals):
            points.append(WeightedPoint(lam=lam, psi=sv.entries))
    return tuple(sorted(points))


def demazure_strings(datum: CartanDatum, lam, w_word, w0_word, *,
                     crystals: CrystalCache | None = None) -> tuple[StringVector, ...]:
    """Sorted string vectors of the Demazure subset for w along w0_word.

    ``demazure_crystal`` checks that w_word is reduced.
    """
    w0_word = check_longest_word(datum, w0_word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    nodes = demazure_crystal(graph, w_word)
    return tuple(sorted(_peel(graph, node, w0_word) for node in nodes))
