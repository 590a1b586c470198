"""Independent character oracles: Weyl dimensions and Demazure operators.

These routines never touch the crystal graphs, so they can cross-validate the
crystal enumeration and the string-side counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanDatum, Weight, check_reduced_word, is_dominant, longest_word
from .errors import WeightError


@dataclass(frozen=True)
class WeightPolynomial:
    """Finite integer combination of formal exponentials of weights.

    Terms are stored sorted by weight with zero coefficients dropped, so
    equality and hashing are canonical.
    """

    terms: tuple[tuple[Weight, int], ...]

    @staticmethod
    def from_dict(coeffs: dict) -> "WeightPolynomial":
        return WeightPolynomial(
            tuple(sorted((tuple(w), int(c)) for w, c in coeffs.items() if c))
        )

    def as_dict(self) -> dict:
        return dict(self.terms)

    def coefficient(self, weight) -> int:
        return self.as_dict().get(tuple(weight), 0)


def monomial(weight) -> WeightPolynomial:
    return WeightPolynomial(((tuple(weight), 1),))


def dimension_of(poly: WeightPolynomial) -> int:
    """Sum of coefficients, the dimension of the module a character encodes."""
    return sum(c for _, c in poly.terms)


def weyl_dim(datum: CartanDatum, lam) -> int:
    """Dimension of the irreducible module with dominant highest weight lam.

    Product over positive roots of the pairing of lam + rho against the
    coroot, divided by the same pairing for rho.  With roots written in
    simple-root coordinates k, both pairings are proportional to
    ``sum_i k_i * d_i * (mu_i)`` and the root-length normalizations cancel.
    """
    lam = tuple(lam)
    if len(lam) != datum.rank:
        raise WeightError(f"weight {lam} has wrong rank")
    if not is_dominant(lam):
        raise WeightError(f"weight {lam} is not dominant")
    d = datum.symmetrizers
    num = den = 1
    for root in datum.positive_roots:
        num *= sum(k * di * (li + 1) for k, di, li in zip(root, d, lam))
        den *= sum(k * di for k, di in zip(root, d))
    if num % den:
        raise WeightError("Weyl dimension did not come out integral")
    return num // den


def demazure_operator(datum: CartanDatum, i: int, poly: WeightPolynomial) -> WeightPolynomial:
    """Apply the i-th Demazure operator to a weight polynomial.

    On a single exponential with pairing m against the i-th coroot the
    operator produces the geometric string from the weight down to its
    reflection (m >= 0), zero (m == -1), or minus the string strictly
    between the weight and its reflection (m <= -2).
    """
    datum.check_index(i)
    alpha = datum.simple_root(i)
    out: dict = {}

    def add(weight, coeff):
        out[weight] = out.get(weight, 0) + coeff
    for weight, coeff in poly.terms:
        m = weight[i - 1]
        if m >= 0:
            for k in range(m + 1):
                add(tuple(w - k * a for w, a in zip(weight, alpha)), coeff)
        elif m <= -2:
            for k in range(1, -m):
                add(tuple(w + k * a for w, a in zip(weight, alpha)), -coeff)
    return WeightPolynomial.from_dict(out)


def demazure_character(datum: CartanDatum, lam, word) -> WeightPolynomial:
    """Character of the Demazure module for a reduced word.

    The word ``(j1, ..., jp)`` yields ``D_j1(...(D_jp(e^lam))...)``, the
    rightmost letter acting first.
    """
    word = check_reduced_word(datum, word)
    lam = tuple(lam)
    if not is_dominant(lam):
        raise WeightError(f"weight {lam} is not dominant")
    poly = monomial(lam)
    for letter in reversed(word):
        poly = demazure_operator(datum, letter, poly)
    return poly


def weyl_character(datum: CartanDatum, lam) -> WeightPolynomial:
    """Full character, the Demazure character at the longest element."""
    return demazure_character(datum, lam, longest_word(datum))
