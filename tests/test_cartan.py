import itertools

import pytest
from hypothesis import given, settings, strategies as st

from stringcone import cartan
from stringcone.cartan import (
    adapted_word,
    all_reduced_words,
    apply_word,
    build_cartan,
    is_dominant,
    is_reduced_word,
    longest_word,
    reflect_weight,
    rho,
    validate_word,
    weyl_group_words,
)
from stringcone.errors import EnumerationCapError, RootSystemError, WordError

from oracles import inversion_count

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("D", 4), ("G", 2)]

# number of positive roots per type
N_POSITIVE = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
              ("B", 2): 4, ("B", 3): 9, ("C", 2): 4, ("C", 3): 9,
              ("D", 4): 12, ("G", 2): 6}


def test_a2_matrix():
    datum = build_cartan("A", 2)
    assert datum.cartan_matrix == ((2, -1), (-1, 2))
    assert datum.symmetrizers == (1, 1)


def test_g2_matrix_and_symmetrizers():
    datum = build_cartan("G", 2)
    assert datum.cartan_matrix == ((2, -1), (-3, 2))
    # d_i a_ij = d_j a_ji forces d = (3, 1) for this orientation
    assert datum.symmetrizers == (3, 1)


def test_b3_c3_are_transposes():
    b = build_cartan("B", 3)
    c = build_cartan("C", 3)
    assert b.cartan_matrix[2][1] == -2 and b.cartan_matrix[1][2] == -1
    for i in range(3):
        for j in range(3):
            assert b.cartan_matrix[i][j] == c.cartan_matrix[j][i]
    assert b.symmetrizers == (2, 2, 1)
    assert c.symmetrizers == (1, 1, 2)


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_symmetrizability(label, rank):
    datum = build_cartan(label, rank)
    a, d = datum.cartan_matrix, datum.symmetrizers
    for i in range(rank):
        assert a[i][i] == 2
        for j in range(rank):
            assert d[i] * a[i][j] == d[j] * a[j][i]
            if i != j:
                assert a[i][j] <= 0


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_positive_root_counts(label, rank):
    datum = build_cartan(label, rank)
    assert datum.num_positive_roots == N_POSITIVE[(label, rank)]


def test_unsupported_type_rejected():
    with pytest.raises(RootSystemError):
        build_cartan("Z", 9)
    with pytest.raises(RootSystemError):
        build_cartan("A", 0)
    with pytest.raises(RootSystemError):
        build_cartan("D", 3)


def test_simple_root_is_matrix_column():
    datum = build_cartan("B", 2)
    # alpha_j in fundamental coordinates = column j of the matrix
    assert datum.simple_root(1) == (2, -2)
    assert datum.simple_root(2) == (-1, 2)


def test_reflect_weight():
    datum = build_cartan("A", 2)
    assert reflect_weight(datum, 1, (1, 0)) == (-1, 1)
    assert reflect_weight(datum, 1, (0, 1)) == (0, 1)
    assert rho(datum) == (1, 1)
    assert is_dominant((0, 2)) and not is_dominant((-1, 2))


def test_apply_word_rightmost_first():
    datum = build_cartan("A", 2)
    # word (1,2) means s1 after s2
    by_word = apply_word(datum, (1, 2), (1, 0))
    by_hand = reflect_weight(datum, 1, reflect_weight(datum, 2, (1, 0)))
    assert by_word == by_hand


def test_longest_words():
    assert longest_word(build_cartan("A", 1)) == (1,)
    assert longest_word(build_cartan("A", 2)) == (1, 2, 1)
    assert longest_word(build_cartan("B", 2)) == (2, 1, 2, 1)
    g2 = build_cartan("G", 2)
    assert len(longest_word(g2)) == 6


@pytest.mark.parametrize("label,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_longest_word_negates_rho(label, rank):
    datum = build_cartan(label, rank)
    w0 = longest_word(datum)
    assert apply_word(datum, w0, rho(datum)) == tuple(-c for c in rho(datum))


def test_inversions_and_reducedness():
    datum = build_cartan("A", 2)
    assert inversion_count(datum, (1, 2, 1)) == 3
    assert is_reduced_word(datum, (1, 2, 1))
    assert not is_reduced_word(datum, (1, 1))
    assert is_reduced_word(datum, ())


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3),
                                        ("B", 3), ("C", 3), ("A", 4), ("D", 4)])
def test_reduced_word_test_matches_inversion_count(label, rank):
    # every word of length at most 6: the rho test against the root count
    datum = build_cartan(label, rank)
    letters = range(1, rank + 1)
    for length in range(7):
        for word in itertools.product(letters, repeat=length):
            reduced = inversion_count(datum, word) == length
            assert is_reduced_word(datum, word) == reduced, word


def test_word_validation():
    datum = build_cartan("A", 2)
    with pytest.raises(WordError):
        validate_word(datum, (0,))
    with pytest.raises(WordError):
        validate_word(datum, (3,))
    assert validate_word(datum, [2, 1]) == (2, 1)


def test_all_reduced_words_counts():
    a2 = build_cartan("A", 2)
    assert all_reduced_words(a2, (1, 2, 1)) == ((1, 2, 1), (2, 1, 2))
    a3 = build_cartan("A", 3)
    assert len(all_reduced_words(a3, longest_word(a3))) == 16
    b2 = build_cartan("B", 2)
    assert len(all_reduced_words(b2, longest_word(b2))) == 2
    g2 = build_cartan("G", 2)
    assert len(all_reduced_words(g2, longest_word(g2))) == 2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("A", 2), ("A", 3), ("B", 2)]), st.data())
def test_braid_closure_preserves_element(case, data):
    datum = build_cartan(*case)
    w0 = longest_word(datum)
    words = all_reduced_words(datum, w0)
    word = data.draw(st.sampled_from(words))
    image = apply_word(datum, word, rho(datum))
    assert image == apply_word(datum, w0, rho(datum))
    assert is_reduced_word(datum, word)


def test_adapted_word_a2():
    datum = build_cartan("A", 2)
    assert adapted_word(datum, (1,)) == (1, 2, 1)
    assert adapted_word(datum, (2,))[:1] == (2,)


@pytest.mark.parametrize("label,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_adapted_word_prefix_property(label, rank):
    datum = build_cartan(label, rank)
    base = rho(datum)
    for w in weyl_group_words(datum):
        full = adapted_word(datum, w)
        assert len(full) == datum.num_positive_roots
        assert is_reduced_word(datum, full)
        prefix = full[: len(w)]
        assert apply_word(datum, prefix, base) == apply_word(datum, w, base)


def test_weyl_group_words_sizes_and_minimality():
    a2 = build_cartan("A", 2)
    words = weyl_group_words(a2)
    assert len(words) == 6
    assert words[0] == ()
    assert set(words) == {(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)}
    b2 = build_cartan("B", 2)
    assert len(weyl_group_words(b2)) == 8
    for w in weyl_group_words(b2):
        assert is_reduced_word(b2, w)


def test_word_enumerations_stop_at_the_word_cap(monkeypatch):
    # A3's longest element has 16 reduced words and its Weyl group 24 elements
    a3 = build_cartan("A", 3)
    w0 = longest_word(a3)
    monkeypatch.setattr(cartan, "DEFAULT_WORD_CAP", 16)
    assert len(all_reduced_words(a3, w0)) == 16
    with pytest.raises(EnumerationCapError, match="exceeded cap 16$"):
        weyl_group_words(a3)
    monkeypatch.setattr(cartan, "DEFAULT_WORD_CAP", 15)
    with pytest.raises(EnumerationCapError, match="exceeded cap 15$"):
        all_reduced_words(a3, w0)
    monkeypatch.setattr(cartan, "DEFAULT_WORD_CAP", 24)
    assert len(weyl_group_words(a3)) == 24
    # the cap is the module's alone
    with pytest.raises(TypeError):
        all_reduced_words(a3, w0, cap=100)
    with pytest.raises(TypeError):
        weyl_group_words(a3, cap=100)
