import pytest

from stringcone import cartan
from stringcone.cartan import all_reduced_words, build_cartan, longest_word, weyl_group_words
from stringcone.characters import weyl_dim
from stringcone.errors import InvariantViolation, RootSystemError, WordError
from stringcone.pathcrystal import (
    CrystalCache,
    CrystalGraph,
    demazure_crystal,
    enumerate_crystal,
)
from stringcone.strings import (
    demazure_strings,
    dominant_weights,
    string_image,
    string_param,
    string_weight,
    weighted_points,
)


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
    assert images == {(0,): ((0,),), (1,): ((0,), (1,))}


def test_weighted_points_a2_level_one():
    datum = build_cartan("A", 2)
    images = weighted_points(datum, (1, 2, 1), 1)
    pts = [lam + psi for lam, image in images.items() for psi in image]
    assert len(pts) == 15  # 1 + 3 + 3 + 8
    assert len(set(pts)) == 15


@pytest.mark.parametrize("type_label", ["A", "B", "G"])
def test_weighted_points_come_out_sorted(type_label):
    datum = build_cartan(type_label, 2)
    images = weighted_points(datum, longest_word(datum), 2)
    assert tuple(images) == dominant_weights(2, 2)
    pts = [lam + psi for lam, image in images.items() for psi in image]
    assert pts == sorted(pts)


def test_weighted_points_cache_reuse():
    datum = build_cartan("A", 2)
    crystals = CrystalCache(datum)
    first = weighted_points(datum, (1, 2, 1), 1, crystals=crystals)
    assert set(crystals) == set(dominant_weights(2, 1))
    again = weighted_points(datum, (1, 2, 1), 1, crystals=crystals)
    assert first == again


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
