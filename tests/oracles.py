"""Reference implementations the tests compare the runtime kernels with.

No runtime path calls any of these; each is the slow, direct form of a
routine the package computes another way:

- the rational path model (``PiecewisePath``, ``make_path``,
  ``highest_path``, ``lowering_operator``, ``epsilon_phi``,
  ``path_weight``), in ``Fraction`` times, against the integer-time
  kernel ``pathcrystal._lower`` and the crystals built from it;
  ``rational_crystal`` builds its crystal with a search of its own, a
  whole level at a time (``_search``), so the runtime passes'
  first-in-first-out numbering is checked against a different one;
- ``string_params``, nodes peeled edge by edge on the raising columns
  that ``raising_edges`` inverts from ``f_edge``, against the
  whole-image peel ``strings._peel_nodes``;
- ``inversion_count``, the positive roots a word sends negative, against
  the rho test of ``cartan.is_reduced_word``, and ``adapted_word_by_roots``,
  a word extended at the first simple root its product keeps positive,
  against the rho walk of ``cartan.adapted_word``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, islice

from stringcone.cartan import _reflect_root, check_dominant, check_longest_word, validate_word
from stringcone.errors import InvariantViolation, WeightError
from stringcone.pathcrystal import _graph


class PiecewisePath(namedtuple("PiecewisePath", "segments")):
    """Canonical piecewise-linear path: merged segments, positive durations.

    ``segments`` is a tuple of ``(direction, duration)`` pairs, each
    direction a weight and each duration a ``Fraction``.
    """

    __slots__ = ()


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


def highest_path(datum, lam) -> PiecewisePath:
    """Straight path to a dominant weight."""
    return PiecewisePath(((check_dominant(datum, lam), Fraction(1)),))


def path_weight(path: PiecewisePath):
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


def _reflect_direction(datum, i: int, direction):
    c = direction[i - 1]
    alpha = datum.simple_root(i)
    return tuple(v - c * a for v, a in zip(direction, alpha))


def _rebuild(datum, path: PiecewisePath, i: int, lo: Fraction, hi: Fraction) -> PiecewisePath:
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


def lowering_operator(datum, path: PiecewisePath, i: int):
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


def _search(rank: int, start, step) -> list[list[int]]:
    """Lowering columns of the crystal below ``start``, breadth-first.

    A whole level at a time: ``step(frontier)`` returns, for each operator
    f_1, ..., f_rank, the targets of the frontier's nodes, None where there
    is no edge.  The targets are numbered node-major, operator by operator,
    which is the order of a node-by-node search, then dealt back to the
    columns.  The next frontier is the nodes first numbered in this level.
    """
    index = {start: 0}
    setdefault = index.setdefault
    frontier = [start]
    f_edge = [[] for _ in range(rank)]
    while frontier:
        begin = len(index)
        ids = [-1 if node is None else setdefault(node, len(index))
               for node in chain.from_iterable(zip(*step(frontier)))]
        for i, f_col in enumerate(f_edge):
            f_col += ids[i::rank]
        frontier = list(islice(index, begin, None))
    return f_edge


def rational_crystal(datum, lam):
    """The crystal below ``highest_path`` by ``lowering_operator``, the reference."""
    ops = range(1, datum.rank + 1)

    def step(paths):
        return [[lowering_operator(datum, path, i) for path in paths] for i in ops]

    return _graph(datum, lam, _search(datum.rank, highest_path(datum, lam), step))


def raising_edges(graph) -> list[list[int]]:
    """The raising columns: e_i b is the node whose f_i edge ends at b, else -1."""
    e_edge = []
    for f_col in graph.f_edge:
        e_col = [-1] * graph.size
        for src, dst in enumerate(f_col):
            if dst != -1:
                e_col[dst] = src
        e_edge.append(e_col)
    return e_edge


def string_params(graph, nodes, word) -> list[tuple[int, ...]]:
    """Peel each node along the word edge by edge, recording the maximal raising exponents.

    The raising columns are inverted from ``f_edge`` once for all the nodes.
    """
    word = check_longest_word(graph.datum, word)
    e_edge = raising_edges(graph)
    params = []
    for node in nodes:
        if not 0 <= node < graph.size:
            raise InvariantViolation(f"node {node} out of range")
        entries = []
        for letter in word:
            t = graph.eps[letter - 1][node]
            for _ in range(t):
                node = e_edge[letter - 1][node]
            entries.append(t)
        if node != graph.highest:
            raise InvariantViolation(
                f"peel along {word} did not end at the highest node"
            )
        params.append(tuple(entries))
    return params


def _apply_word_to_root(datum, word, root):
    """Act by the word's product on a root in simple-root coordinates."""
    img = tuple(root)
    for letter in reversed(word):
        img = _reflect_root(datum.cartan_matrix, letter, img)
    return img


def inversion_count(datum, word) -> int:
    """Number of positive roots the word's product sends negative."""
    word = validate_word(datum, word)
    count = 0
    for root in datum.positive_roots:
        img = _apply_word_to_root(datum, word, root)
        if any(c < 0 for c in img):
            count += 1
    return count


def adapted_word_by_roots(datum, w_word):
    """``w_word`` extended to one letter per positive root by ascents.

    Each step appends the smallest i whose simple root the product of the
    letters so far keeps positive: appending s_i then lengthens it.
    """
    letters = list(validate_word(datum, w_word))
    simples = [tuple(int(j == i) for j in range(datum.rank)) for i in range(datum.rank)]
    while len(letters) < datum.num_positive_roots:
        letters.append(next(i for i in range(1, datum.rank + 1)
                            if min(_apply_word_to_root(datum, letters, simples[i - 1])) >= 0))
    return tuple(letters)
