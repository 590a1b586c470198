"""Root-system combinatorics: Cartan data, weight reflections, reduced words.

Weights are tuples of integers in the fundamental-weight basis, roots are
tuples of integers in the simple-root basis, and Weyl words are tuples of
1-based simple-reflection indices.  The word ``(j1, ..., jm)`` denotes the
product ``s_j1 * s_j2 * ... * s_jm``, so when a word acts on a weight the
rightmost letter is applied first.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import EnumerationCapError, RootSystemError, WordError

Weight = tuple[int, ...]
RootVector = tuple[int, ...]
WeylWord = tuple[int, ...]

# Supported families and their rank windows.
_SUPPORTED_RANKS = {"A": (1, 4), "B": (2, 3), "C": (2, 3), "D": (4, 4), "G": (2, 2)}

DEFAULT_WORD_CAP = 50000


class CartanDatum(namedtuple("CartanDatum", "type_label rank cartan_matrix symmetrizers"
                                             " positive_roots")):
    """A finite root system in a fixed orientation.

    Entry ``cartan_matrix[i][j]`` pairs the j-th simple root against the
    i-th simple coroot; the symmetrizers then satisfy
    ``d[i] * a[i][j] == d[j] * a[j][i]``.  The matrix is a tuple of int
    rows, and ``positive_roots`` a tuple of root vectors.
    """

    __slots__ = ()

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def simple_root(self, i: int) -> Weight:
        """Fundamental-weight coordinates of the i-th simple root."""
        self.check_index(i)
        return tuple(self.cartan_matrix[j][i - 1] for j in range(self.rank))

    def check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise WordError(f"reflection index {i} out of range 1..{self.rank}")


def _chain_matrix(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _matrix_and_symmetrizers(type_label: str, rank: int):
    if type_label == "A":
        return _chain_matrix(rank), [1] * rank
    if type_label == "B":
        # Last simple root short.
        a = _chain_matrix(rank)
        a[rank - 1][rank - 2] = -2
        return a, [2] * (rank - 1) + [1]
    if type_label == "C":
        # Last simple root long.
        a = _chain_matrix(rank)
        a[rank - 2][rank - 1] = -2
        return a, [1] * (rank - 1) + [2]
    if type_label == "D":
        # Branch node at position 2: edges 1-2, 2-3, 2-4.
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i, j in ((0, 1), (1, 2), (1, 3)):
            a[i][j] = -1
            a[j][i] = -1
        return a, [1] * rank
    if type_label == "G":
        # First simple root long.
        return [[2, -1], [-3, 2]], [3, 1]
    raise RootSystemError(f"unsupported type {type_label!r}")


def _root_pairing(matrix, i: int, root) -> int:
    """Pairing of ``root`` (simple-root coordinates) with the i-th coroot."""
    row = matrix[i - 1]
    return sum(row[j] * root[j] for j in range(len(root)))


def _reflect_root(matrix, i: int, root) -> RootVector:
    c = _root_pairing(matrix, i, root)
    out = list(root)
    out[i - 1] -= c
    return tuple(out)


def _positive_roots(matrix, rank: int) -> tuple[RootVector, ...]:
    # Closure of the simple roots under simple reflections, keeping the
    # vectors with nonnegative coordinates.
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for beta in frontier:
            for i in range(1, rank + 1):
                cand = _reflect_root(matrix, i, beta)
                if cand not in known and all(c >= 0 for c in cand):
                    known.add(cand)
                    fresh.append(cand)
        frontier = fresh
    return tuple(sorted(known, key=lambda r: (sum(r), r)))


def build_cartan(type_label: str, rank: int) -> CartanDatum:
    """Construct the Cartan datum for one of the supported finite types."""
    if type_label not in _SUPPORTED_RANKS:
        raise RootSystemError(f"unsupported type {type_label!r}")
    lo, hi = _SUPPORTED_RANKS[type_label]
    if not lo <= rank <= hi:
        raise RootSystemError(
            f"type {type_label} supports ranks {lo}..{hi}, got {rank}"
        )
    matrix, symmetrizers = _matrix_and_symmetrizers(type_label, rank)
    cm = tuple(tuple(row) for row in matrix)
    for i in range(rank):
        for j in range(rank):
            if symmetrizers[i] * cm[i][j] != symmetrizers[j] * cm[j][i]:
                raise RootSystemError("symmetrizability check failed")
    return CartanDatum(
        type_label=type_label,
        rank=rank,
        cartan_matrix=cm,
        symmetrizers=tuple(symmetrizers),
        positive_roots=_positive_roots(cm, rank),
    )


def rho(datum: CartanDatum) -> Weight:
    """Half-sum of positive roots, i.e. all-ones in fundamental coordinates."""
    return (1,) * datum.rank


def is_dominant(weight) -> bool:
    return all(c >= 0 for c in weight)


def reflect_weight(datum: CartanDatum, i: int, weight) -> Weight:
    """Apply the simple reflection s_i to a weight in fundamental coordinates."""
    datum.check_index(i)
    c = weight[i - 1]
    alpha = datum.simple_root(i)
    return tuple(w - c * a for w, a in zip(weight, alpha))


def validate_word(datum: CartanDatum, word) -> WeylWord:
    word = tuple(word)
    for letter in word:
        datum.check_index(letter)
    return word


def apply_word(datum: CartanDatum, word, weight) -> Weight:
    """Act by the word's product on a weight, rightmost letter first."""
    word = validate_word(datum, word)
    mu = tuple(weight)
    for letter in reversed(word):
        mu = reflect_weight(datum, letter, mu)
    return mu


def _apply_word_to_root(datum: CartanDatum, word, root) -> RootVector:
    img = tuple(root)
    for letter in reversed(word):
        img = _reflect_root(datum.cartan_matrix, letter, img)
    return img


def is_reduced_word(datum: CartanDatum, word) -> bool:
    """Whether each letter, applied right to left, lengthens the product.

    l(s_i v) > l(v) exactly when <v rho, alpha_i^vee> > 0, which is the i-th
    fundamental coordinate of v rho; so the letters act on rho and the word
    is reduced when every letter meets a positive coordinate.
    """
    word = validate_word(datum, word)
    alphas = [datum.simple_root(i) for i in range(1, datum.rank + 1)]
    mu = rho(datum)
    for letter in reversed(word):
        c = mu[letter - 1]
        if c <= 0:
            return False
        mu = tuple(m - c * a for m, a in zip(mu, alphas[letter - 1]))
    return True


def check_reduced_word(datum: CartanDatum, word) -> WeylWord:
    """The word as a tuple; WordError unless it is reduced."""
    word = validate_word(datum, word)
    if not is_reduced_word(datum, word):
        raise WordError(f"word {word} is not reduced")
    return word


def check_longest_word(datum: CartanDatum, word) -> WeylWord:
    """The word as a tuple; WordError unless it is a reduced word of w0."""
    word = validate_word(datum, word)
    if len(word) != datum.num_positive_roots or not is_reduced_word(datum, word):
        raise WordError(f"word {word} is not a reduced word of the longest element")
    return word


def longest_word(datum: CartanDatum) -> WeylWord:
    """Canonical reduced word for the longest element.

    Walks the negative of rho toward dominance, always reflecting at the
    smallest descent; each step crosses exactly one wall, so the letters in
    reverse order form a reduced word of full length.
    """
    mu = tuple(-c for c in rho(datum))
    letters = []
    while any(c < 0 for c in mu):
        i = next(k + 1 for k, c in enumerate(mu) if c < 0)
        mu = reflect_weight(datum, i, mu)
        letters.append(i)
    word = tuple(reversed(letters))
    if len(word) != datum.num_positive_roots or not is_reduced_word(datum, word):
        raise RootSystemError("longest-word construction failed")
    return word


def _braid_orders(datum: CartanDatum):
    orders = {}
    table = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(1, datum.rank + 1):
        for j in range(i + 1, datum.rank + 1):
            product = datum.cartan_matrix[i - 1][j - 1] * datum.cartan_matrix[j - 1][i - 1]
            orders[(i, j)] = orders[(j, i)] = table[product]
    return orders


def all_reduced_words(datum: CartanDatum, word):
    """All reduced words of the word's element, by braid-move closure."""
    word = check_reduced_word(datum, word)
    orders = _braid_orders(datum)
    seen = {word}
    frontier = [word]
    while frontier:
        fresh = []
        for w in frontier:
            for pos in range(len(w)):
                for (i, j), m in orders.items():
                    if pos + m > len(w):
                        continue
                    pattern = tuple((i, j)[k % 2] for k in range(m))
                    if w[pos : pos + m] != pattern:
                        continue
                    swapped = tuple((j, i)[k % 2] for k in range(m))
                    cand = w[:pos] + swapped + w[pos + m :]
                    if cand not in seen:
                        if len(seen) >= DEFAULT_WORD_CAP:
                            raise EnumerationCapError(
                                f"reduced-word closure exceeded cap {DEFAULT_WORD_CAP}"
                            )
                        seen.add(cand)
                        fresh.append(cand)
        frontier = fresh
    return tuple(sorted(seen))


def adapted_word(datum: CartanDatum, w_word) -> WeylWord:
    """Extend a reduced word to a reduced longest word having it as prefix."""
    w_word = check_reduced_word(datum, w_word)
    total = datum.num_positive_roots
    letters = list(w_word)
    simples = [
        tuple(1 if j == i else 0 for j in range(datum.rank)) for i in range(datum.rank)
    ]
    while len(letters) < total:
        for i in range(1, datum.rank + 1):
            # Appending s_i lengthens the product exactly when the current
            # element keeps alpha_i positive.
            img = _apply_word_to_root(datum, tuple(letters), simples[i - 1])
            if all(c >= 0 for c in img):
                letters.append(i)
                break
        else:
            raise WordError("no ascent found; word cannot be extended")
    result = tuple(letters)
    if not is_reduced_word(datum, result):
        raise WordError("adapted-word construction failed")
    return result


def weyl_group_words(datum: CartanDatum):
    """One canonical (shortest, lexicographically first) word per element.

    Elements are keyed by their action on rho, which is faithful.  Layered
    breadth-first search by left multiplication; taking the minimum over
    ``(i,) + parent_word`` inside each layer makes every stored word the
    lexicographically smallest reduced word of its element.
    """
    start = rho(datum)
    seen = {start: ()}
    layer = {start: ()}
    while layer:
        candidates = {}
        for image, word in layer.items():
            for i in range(1, datum.rank + 1):
                nxt = reflect_weight(datum, i, image)
                if nxt in seen:
                    continue
                cand = (i,) + word
                if nxt not in candidates or cand < candidates[nxt]:
                    candidates[nxt] = cand
        if len(seen) + len(candidates) > DEFAULT_WORD_CAP:
            raise EnumerationCapError(f"Weyl group enumeration exceeded cap {DEFAULT_WORD_CAP}")
        seen.update(candidates)
        layer = candidates
    return tuple(sorted(seen.values(), key=lambda w: (len(w), w)))
