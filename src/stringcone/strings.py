"""String parametrization of crystal nodes along reduced longest words.

Peeling walks maximal raising strings through the crystal graph: the first
letter of the supplied word peels first.  A word is adapted to a Weyl
element w when its length-l(w) prefix is a reduced word for w; the strings
of the Demazure subset then vanish beyond position l(w).

Whole images are peeled a letter at a time (``_peel_nodes``) on the
crystal's per-root columns.  For each letter i a table
``top_i[b] = e_i^{eps_i(b)} b`` is filled in node order from the lowering
column ``f_edge[i-1]`` alone: e_i b is one step nearer the highest node,
so breadth-first numbering puts it before b, and
``top_i[f_i b] = top_i[b]`` is written once ``top_i[b]`` is final; a node
with no incoming i-edge is its own top.  Each letter of the word is then
one read of ``eps[i-1]`` at the current nodes, followed by one jump of
every node to its ``top_i``.  The tests keep a node-by-node peel, edge by
edge, as the reference.

``weighted_points`` keys the images by lambda: the weighted cone's section
at lambda is the image of B(lambda) (Littelmann 1998, Prop. 1.5).  It
builds the crystals first, with ``dominant_crystals``, and then peels
them, so a caller can time the two apart.  Its images are
``StringColumns``: one unsigned int ``array`` of one typecode per letter
of the word, in node order, with no tuple per string and no sort.  Every
runtime reader takes these arrays as they are, so each crystal is peeled
once per word; a Demazure section is the image read at the Demazure
nodes.  ``string_image`` and ``demazure_strings`` peel on their own and
return sorted entry tuples: library API for callers that need the
strings themselves, and the tests' reference, with no runtime caller.
"""

from __future__ import annotations

from array import array
from operator import mul

from .cartan import (CartanDatum, Weight, WeylWord, check_dominant, check_longest_word,
                     validate_word)
from .characters import weyl_dim
from .errors import InvariantViolation, WordError
from .pathcrystal import CrystalCache, CrystalGraph, _cap_error, demazure_crystal


def _peel_nodes(graph: CrystalGraph, nodes, word: WeylWord):
    """String entries of ``nodes`` along an already checked longest word.

    Yields one list per letter of the word, entry j for ``nodes``' j-th
    node: one pass per letter over all the nodes, with the ``top_i``
    tables built once per simple root from ``f_edge`` alone: top_i(f_i b)
    = top_i(b), and any other node is its own top.  The check that every
    peel ends at the highest node runs when the last column has been
    taken.
    """
    # one int object per node, shared by the tables; the spare slot at the
    # end absorbs the writes of the -1 targets
    ids = list(range(graph.size + 1))
    tops = []
    for f_col in graph.f_edge:
        top = ids.copy()
        for node, down in zip(ids, f_col):
            top[down] = top[node]
        top.pop()
        tops.append(top)
    current = list(nodes)
    for letter in word:
        eps_col, top = graph.eps[letter - 1], tops[letter - 1]
        yield [eps_col[c] for c in current]
        current = [top[c] for c in current]
    if current.count(graph.highest) != len(current):
        raise InvariantViolation(
            f"peel along {word} did not end at the highest node"
        )


class StringColumns:
    """The strings of one crystal along a word, one int array per letter.

    Entry j of ``columns[k]`` is the k-th string entry of node j, in node
    order, in an ``array.array`` whose typecode, the same for every column,
    is the narrowest of B, H, I, Q that holds every entry (``_typecode``);
    ``size`` is its item size in bytes.  ``len`` is the number of strings.
    Iterating, or ``strings``, zips the columns into entry tuples in node
    order, one per string, for the readers that need them.
    """

    __slots__ = ("columns", "size", "count")

    def __init__(self, columns, size: int, count: int):
        self.columns = columns
        self.size = size
        self.count = count

    @classmethod
    def from_strings(cls, strings) -> StringColumns:
        """Encode entry tuples of one length, each entry >= 0, in their order."""
        strings = list(strings)
        columns, size = _encode(zip(*strings))
        return cls(columns, size, len(strings))

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return self.strings()

    def __eq__(self, other):
        if not isinstance(other, StringColumns):
            return NotImplemented
        return (self.count, self.size, self.columns) == (other.count, other.size, other.columns)

    def strings(self, nodes=None):
        """Entry tuples of ``nodes`` (by default every node), in that order."""
        if nodes is None:
            return zip(*self.columns)
        nodes = list(nodes)
        return zip(*[list(map(column.__getitem__, nodes)) for column in self.columns])


def _typecode(top: int) -> str:
    """The narrowest unsigned ``array`` typecode of B, H, I, Q that holds 0 ... ``top``."""
    return next((code for code in "BHI" if top >> 8 * array(code).itemsize == 0), "Q")


def _encode(columns) -> tuple[list, int]:
    """Int columns, each entry >= 0, as arrays of one typecode, and its item size."""
    encoded = []
    columns = iter(columns)
    for column in columns:
        try:
            # via bytes: 11 ns an entry, against 32 for array("B", list) (CPython 3.11)
            encoded.append(array("B", bytes(column)))
        except ValueError:  # an entry beyond a byte: every column goes wide
            values = [*encoded, column, *columns]
            code = _typecode(max(map(max, values)))
            encoded = [array(code, v) for v in values]
            break
    return encoded, encoded[0].itemsize if encoded else 1


def _string_columns(graph: CrystalGraph, word: WeylWord) -> StringColumns:
    """The image of the whole crystal as columns; injectivity is enforced.

    Distinct nodes need distinct strings: one set of the per-node rows of
    the columns, with no sort.
    """
    columns, size = _encode(_peel_nodes(graph, range(graph.size), word))
    if len(set(zip(*columns))) != graph.size:
        raise InvariantViolation(
            f"string parametrization along {word} is not injective"
        )
    return StringColumns(columns, size, graph.size)


def string_image(datum: CartanDatum, lam, word, *,
                 crystals: CrystalCache | None = None) -> tuple[tuple[int, ...], ...]:
    """Sorted entry tuples of the whole crystal; injectivity is enforced."""
    word = check_longest_word(datum, word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    return tuple(sorted(_string_columns(graph, word)))


def string_weight(datum: CartanDatum, lam, word, entries) -> Weight:
    """Weight of the node whose string along the word is ``entries``.

    lam minus the sum of t * alpha_i over the string; the j-th coordinate
    of alpha_i is ``cartan_matrix[j][i-1]``, so the exponents are summed
    per simple root and paired with each Cartan matrix row.  WeightError
    unless lam is dominant, WordError unless ``entries`` has one entry per
    letter.
    """
    lam = check_dominant(datum, lam)
    word = validate_word(datum, word)
    if len(entries) != len(word):
        raise WordError(f"string {tuple(entries)} needs one entry per letter of {word}")
    totals = [0] * datum.rank
    for letter, t in zip(word, entries):
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
    """String images ``{lam: StringColumns}`` for dominant lam up to the bound.

    The crystals come from ``dominant_crystals``, all of them before the
    first peel.  The keys run in lexicographic order; each image holds its
    crystal's strings in node order, injective, and is not sorted.
    """
    word = check_longest_word(datum, word)
    crystals = CrystalCache.for_datum(datum, crystals)
    return {lam: _string_columns(graph, word)
            for lam, graph in dominant_crystals(datum, level_bound, crystals=crystals).items()}


def demazure_strings(datum: CartanDatum, lam, w_word, w0_word, *,
                     crystals: CrystalCache | None = None) -> tuple[tuple[int, ...], ...]:
    """Sorted entry tuples of the Demazure subset for w along w0_word.

    ``demazure_crystal`` checks that w_word is reduced.
    """
    w0_word = check_longest_word(datum, w0_word)
    graph = CrystalCache.for_datum(datum, crystals)[tuple(lam)]
    nodes = demazure_crystal(graph, w_word)
    return tuple(sorted(zip(*_peel_nodes(graph, nodes, w0_word))))
