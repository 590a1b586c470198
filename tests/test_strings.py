from collections import Counter

import pytest

from stringcone import cartan, pathcrystal, strings
from stringcone.cartan import all_reduced_words, build_cartan, longest_word, weyl_group_words
from stringcone.characters import demazure_character, weyl_character, weyl_dim
from stringcone.errors import EnumerationCapError, InvariantViolation, RootSystemError, WordError
from stringcone.pathcrystal import (
    CrystalCache,
    CrystalGraph,
    demazure_crystal,
    enumerate_crystal,
)
from stringcone.strings import (
    demazure_strings,
    dominant_crystals,
    dominant_weights,
    string_image,
    string_weight,
    weighted_points,
)

from oracles import string_param


def entries(image):
    return set(image)


def test_a2_fundamental_images():
    datum = build_cartan("A", 2)
    assert entries(string_image(datum, (1, 0), (1, 2, 1))) == {
        (0, 0, 0), (1, 0, 0), (0, 1, 1)}
    assert entries(string_image(datum, (0, 1), (1, 2, 1))) == {
        (0, 0, 0), (0, 1, 0), (1, 1, 0)}
    # the other reduced word relabels the image
    assert entries(string_image(datum, (1, 0), (2, 1, 2))) == {
        (0, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_image_is_sorted_and_injective():
    datum = build_cartan("B", 2)
    image = string_image(datum, (1, 1), (2, 1, 2, 1))
    assert list(image) == sorted(image)
    assert len(entries(image)) == len(image) == weyl_dim(datum, (1, 1))


def test_string_param_of_highest_is_zero():
    datum = build_cartan("A", 2)
    graph = enumerate_crystal(datum, (2, 1))
    assert string_param(graph, graph.highest, (1, 2, 1)) == (0, 0, 0)


def test_string_weight_oracle():
    datum = build_cartan("A", 2)
    # lambda - alpha_2 - alpha_1 for the lowest vector of V(pi_1)
    assert string_weight(datum, (1, 0), (1, 2, 1), (0, 1, 1)) == (0, -1)
    assert string_weight(datum, (1, 0), (1, 2, 1), (0, 0, 0)) == (1, 0)
    # G2's Cartan matrix is not symmetric: alpha_1 = (2, -3), alpha_2 = (-1, 2)
    g2 = build_cartan("G", 2)
    assert string_weight(g2, (1, 1), (1, 2), (2, 1)) == (-2, 5)
    with pytest.raises(WordError):
        string_weight(datum, (1, 0), (1, 3), (0, 1))


def test_words_must_be_reduced_and_full_length():
    datum = build_cartan("A", 2)
    with pytest.raises(WordError):
        string_image(datum, (1, 0), (1, 2))
    with pytest.raises(WordError):
        string_image(datum, (1, 0), (1, 1, 1))


def test_dominant_weights_grid():
    assert dominant_weights(1, 2) == ((0,), (1,), (2,))
    assert len(dominant_weights(3, 2)) == 27
    assert dominant_weights(2, 0) == ((0, 0),)


def test_weighted_points_a1():
    datum = build_cartan("A", 1)
    images = weighted_points(datum, (1,), 1)
    # node order: the highest node first
    assert {lam: tuple(image) for lam, image in images.items()} == {
        (0,): ((0,),), (1,): ((0,), (1,))}
    assert images[(1,)].columns == [b"\x00\x01"] and images[(1,)].size == 1


def test_weighted_points_a2_level_one():
    datum = build_cartan("A", 2)
    images = weighted_points(datum, (1, 2, 1), 1)
    pts = [lam + psi for lam, image in images.items() for psi in image]
    assert len(pts) == 15  # 1 + 3 + 3 + 8
    assert len(set(pts)) == 15


@pytest.mark.parametrize("type_label", ["A", "B", "G"])
def test_weighted_points_come_out_in_weight_order(type_label):
    # the weights in lexicographic order; each image in node order, its
    # highest node's zero string first, and never sorted
    datum = build_cartan(type_label, 2)
    word = longest_word(datum)
    images = weighted_points(datum, word, 2)
    assert tuple(images) == dominant_weights(2, 2)
    for lam, image in images.items():
        strings = list(image)
        assert strings[0] == (0,) * len(word)
        assert sorted(strings) == list(string_image(datum, lam, word))
    assert list(images[(2, 2)]) != sorted(images[(2, 2)])


def test_weighted_points_cache_reuse():
    datum = build_cartan("A", 2)
    crystals = CrystalCache(datum)
    first = weighted_points(datum, (1, 2, 1), 1, crystals=crystals)
    assert set(crystals) == set(dominant_weights(2, 1))
    again = weighted_points(datum, (1, 2, 1), 1, crystals=crystals)
    assert first == again


def test_dominant_crystals_fill_the_cache_in_order():
    datum = build_cartan("B", 2)
    crystals = CrystalCache(datum)
    graphs = dominant_crystals(datum, 2, crystals=crystals)
    assert tuple(graphs) == dominant_weights(2, 2)
    assert all(crystals[lam] is graph for lam, graph in graphs.items())
    assert [g.size for g in graphs.values()] == [weyl_dim(datum, lam) for lam in graphs]


def test_weighted_points_builds_every_crystal_before_it_peels(monkeypatch):
    datum = build_cartan("A", 2)
    crystals = CrystalCache(datum)
    cached = []
    peel = strings._peel_nodes

    def recording(graph, nodes, word):
        cached.append(len(crystals))
        return peel(graph, nodes, word)

    monkeypatch.setattr(strings, "_peel_nodes", recording)
    weighted_points(datum, (1, 2, 1), 2, crystals=crystals)
    assert cached == [9] * 9


def test_dominant_crystals_stop_at_the_cap_before_any_crystal(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("crystal built")

    monkeypatch.setattr(pathcrystal, "_path_crystal", refuse)
    monkeypatch.setattr(pathcrystal, "_tensor_crystal", refuse)
    datum = build_cartan("A", 2)
    crystals = CrystalCache(datum, 50)
    with pytest.raises(EnumerationCapError, match=r"lambda=\(0, 9\) exceeded node cap 50$"):
        dominant_crystals(datum, 10**9, crystals=crystals)
    assert not crystals
    with pytest.raises(WordError):
        dominant_crystals(datum, -1, crystals=crystals)


def test_cache_for_another_datum_is_rejected():
    crystals = CrystalCache(build_cartan("B", 2))
    with pytest.raises(RootSystemError):
        weighted_points(build_cartan("A", 2), (1, 2, 1), 1, crystals=crystals)
    assert not crystals


def test_string_image_checks_the_word_once(monkeypatch):
    datum = build_cartan("A", 2)
    calls = []
    original = cartan.is_reduced_word

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cartan, "is_reduced_word", counting)
    image = string_image(datum, (1, 1), (1, 2, 1))
    assert len(image) == 8
    assert len(calls) == 1


def test_demazure_strings_a2():
    datum = build_cartan("A", 2)
    dem = demazure_strings(datum, (1, 0), (1,), (1, 2, 1))
    assert set(dem) == {(0, 0, 0), (1, 0, 0)}
    full = demazure_strings(datum, (1, 0), (1, 2, 1), (1, 2, 1))
    assert len(full) == 3


def test_demazure_strings_zero_tail_for_adapted_prefix():
    datum = build_cartan("B", 2)
    w0 = (2, 1, 2, 1)
    for cut in range(5):
        w = w0[:cut]
        for lam in dominant_weights(2, 1):
            for entries in demazure_strings(datum, lam, w, w0):
                assert not any(entries[cut:])


@pytest.mark.parametrize("label,rank,lam", [
    ("A", 3, (1, 0, 1)),
    ("A", 3, (0, 2, 1)),
    ("B", 2, (2, 1)),
    ("C", 2, (1, 2)),
    ("G", 2, (1, 1)),
    ("B", 3, (1, 0, 1)),
    ("C", 3, (0, 1, 1)),
])
def test_string_image_matches_node_by_node_peel(label, rank, lam):
    datum = build_cartan(label, rank)
    crystals = CrystalCache(datum)
    graph = crystals[lam]
    words = all_reduced_words(datum, longest_word(datum))
    for word in words[::max(1, len(words) // 5)]:
        expected = sorted(string_param(graph, node, word) for node in range(graph.size))
        assert list(string_image(datum, lam, word, crystals=crystals)) == expected, word


def test_demazure_strings_match_node_by_node_peel():
    datum = build_cartan("B", 3)
    crystals = CrystalCache(datum)
    lam = (1, 1, 0)
    graph = crystals[lam]
    for w0 in all_reduced_words(datum, longest_word(datum))[::10]:
        for w in weyl_group_words(datum)[::6]:
            nodes = demazure_crystal(graph, w)
            expected = sorted(string_param(graph, node, w0) for node in nodes)
            assert list(demazure_strings(datum, lam, w, w0, crystals=crystals)) == expected


@pytest.mark.parametrize("label,rank,top", [
    ("A", 2, 2), ("B", 2, 2), ("C", 2, 2), ("G", 2, 2), ("A", 3, 1),
])
def test_images_carry_the_weyl_character(label, rank, top):
    # characters, not counts: on every reduced word, each image's weights
    # with multiplicity are the character of V(lambda), which a peel that
    # keeps the image's size but assigns wrong strings would break
    datum = build_cartan(label, rank)
    crystals = CrystalCache(datum)
    for word in all_reduced_words(datum, longest_word(datum)):
        for lam, image in weighted_points(datum, word, top, crystals=crystals).items():
            weights = Counter(string_weight(datum, lam, word, psi) for psi in image)
            assert weights == weyl_character(datum, lam).as_dict(), (word, lam)


@pytest.mark.parametrize("label,rank,top", [
    ("A", 2, 2), ("B", 2, 2), ("C", 2, 2), ("G", 2, 2), ("A", 3, 1),
])
def test_demazure_images_carry_the_demazure_character(label, rank, top):
    # for every prefix w of every reduced word, the Demazure image's weights
    # with multiplicity are the Demazure character of w, from the operators
    # alone; its size is only the character's dimension
    datum = build_cartan(label, rank)
    crystals = CrystalCache(datum)
    for word in all_reduced_words(datum, longest_word(datum)):
        for w in (word[:k] for k in range(len(word) + 1)):
            for lam in dominant_weights(rank, top):
                image = demazure_strings(datum, lam, w, word, crystals=crystals)
                weights = Counter(string_weight(datum, lam, word, psi) for psi in image)
                assert weights == demazure_character(datum, lam, w).as_dict(), (word, w, lam)


def test_peel_that_misses_the_highest_node_raises():
    # two copies of B(0): node 1 has no raising edge but is not the highest
    datum = build_cartan("A", 1)
    graph = CrystalGraph(datum=datum, lam=(0,), f_edge=([-1, -1],),
                         e_edge=([-1, -1],), eps=([0, 0],), phi=([0, 0],),
                         weights=([0, 0],))
    crystals = CrystalCache(datum)
    crystals[(0,)] = graph
    with pytest.raises(InvariantViolation, match="did not end at the highest node"):
        string_image(datum, (0,), (1,), crystals=crystals)
    with pytest.raises(InvariantViolation, match="did not end at the highest node"):
        string_param(graph, 1, (1,))


def _braid_moves(datum, word, image):
    """Each word one braid move from ``word``, with ``image`` carried along.

    Simply laced types only.  A commutation move swaps the two entries, and
    a move from i j i to j i j sends (a, b, c) to
    (max(c, b - a), a + c, min(a, b - c)) (Berenstein–Zelevinsky 1996).
    """
    for pos in range(len(word) - 1):
        i, j = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        if datum.cartan_matrix[i - 1][j - 1] == 0:
            yield head + (j, i) + tail, [s[:pos] + (s[pos + 1], s[pos]) + s[pos + 2:]
                                         for s in image]
        elif tail[:1] == (i,):
            moved = []
            for s in image:
                a, b, c = s[pos:pos + 3]
                moved.append(s[:pos] + (max(c, b - a), a + c, min(a, b - c)) + s[pos + 3:])
            yield head + (j, i, j) + tail[1:], moved


def test_braid_moves_predict_every_a3_image_from_one_peel():
    # only longest_word is peeled; every other word's image is chained
    # along braid moves, and each move met again must agree with the first
    datum = build_cartan("A", 3)
    w0 = longest_word(datum)
    words = all_reduced_words(datum, w0)
    crystals = CrystalCache(datum)
    checked = 0
    for lam in dominant_weights(3, 2):
        predicted = {w0: string_image(datum, lam, w0, crystals=crystals)}
        frontier = [w0]
        while frontier:
            fresh = []
            for word in frontier:
                for moved, image in _braid_moves(datum, word, predicted[word]):
                    image = tuple(sorted(image))
                    if moved in predicted:
                        assert image == predicted[moved], (lam, word, moved)
                    else:
                        predicted[moved] = image
                        fresh.append(moved)
                    checked += 1
            frontier = fresh
        assert sorted(predicted) == list(words)
        for word, image in predicted.items():
            assert image == string_image(datum, lam, word, crystals=crystals), (lam, word)
    assert checked == 27 * 2 * 18  # every move between A3's 16 words, both ways


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3)])
def test_string_columns_hold_the_sorted_image(label, rank):
    # two words each: the columns' rows, sorted, are string_image's tuples,
    # and the columns are bytes, one per letter, one entry per node
    datum = build_cartan(label, rank)
    crystals = CrystalCache(datum)
    words = all_reduced_words(datum, longest_word(datum))
    for word in (words[0], words[-1]):
        for lam, image in weighted_points(datum, word, 2, crystals=crystals).items():
            assert len(image.columns) == len(word) and image.size == 1
            assert all(type(c) is bytes and len(c) == len(image) for c in image.columns)
            assert len(image) == crystals[lam].size
            expected = string_image(datum, lam, word, crystals=crystals)
            assert sorted(zip(*image.columns)) == list(expected), (word, lam)


def _merged(peel, node, onto):
    """``peel`` with node ``node``'s string made node ``onto``'s, where there is such a node."""
    def peel_nodes(graph, nodes, word):
        for column in peel(graph, nodes, word):
            if len(column) > node:
                column[node] = column[onto]
            yield column
    return peel_nodes


def test_string_columns_reject_two_equal_strings(monkeypatch):
    datum = build_cartan("B", 2)
    monkeypatch.setattr(strings, "_peel_nodes", _merged(strings._peel_nodes, 3, 2))
    with pytest.raises(InvariantViolation, match="not injective"):
        weighted_points(datum, longest_word(datum), 1)


def test_wide_string_columns_round_trip_and_stay_injective(monkeypatch):
    # A1 at 256: entries 0 ... 256 need two bytes per entry
    datum = build_cartan("A", 1)
    graph = enumerate_crystal(datum, (256,))
    image = strings._string_columns(graph, (1,))
    assert image.size == 2 and len(image) == 257
    assert image.columns == [b"".join(v.to_bytes(2, "little") for v in range(257))]
    assert list(image) == [(v,) for v in range(257)]
    assert list(image.strings([256, 3])) == [(256,), (3,)]
    assert image == strings.StringColumns.from_strings((v,) for v in range(257))
    # node 256's string (256,) made node 1's, (1,), collides in the wide encoding
    monkeypatch.setattr(strings, "_peel_nodes", _merged(strings._peel_nodes, 256, 1))
    with pytest.raises(InvariantViolation, match="not injective"):
        strings._string_columns(graph, (1,))


@pytest.mark.slow
def test_a2_wide_string_columns_hold_the_sorted_image():
    # B(0, 256) has 33 153 nodes, under the default cap; its largest entry
    # is 256, so every column takes two bytes per entry
    datum = build_cartan("A", 2)
    crystals = CrystalCache(datum)
    image = strings._string_columns(crystals[(0, 256)], (1, 2, 1))
    assert image.size == 2 and len(image) == 33153
    expected = string_image(datum, (0, 256), (1, 2, 1), crystals=crystals)
    assert max(map(max, expected)) == 256
    assert sorted(image) == list(expected)
