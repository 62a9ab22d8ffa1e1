"""The A2 root system in epsilon-coordinates: inner products, the positive
roots in the convex order alpha2 < alpha1+alpha2 < alpha1, and the weight
assignment for the six cotangent generators.
"""

from __future__ import annotations

ALPHA1 = (1, -1, 0)
ALPHA2 = (0, 1, -1)
THETA = (1, 0, -1)  # alpha1 + alpha2

# positive roots in convex order induced by the reduced word s2 s1 s2
POSITIVE_ROOTS = (ALPHA2, THETA, ALPHA1)

# letter names of the cotangent alphabet, in rank order; every rule of the
# exterior algebra is strictly decreasing for this ranking
LETTERS = ("f_a2", "f_a12", "f_a1", "e_a2", "e_a12", "e_a1")
LETTER_ROOTS = (ALPHA2, THETA, ALPHA1, ALPHA2, THETA, ALPHA1)
LETTER_SIGNS = (-1, -1, -1, 1, 1, 1)  # f_gamma carries -gamma, e_gamma carries +gamma
# the star partner of each letter, by index: same root, opposite sign
_SIGNED_ROOTS = tuple(zip(LETTER_ROOTS, LETTER_SIGNS))
STAR = tuple(_SIGNED_ROOTS.index((root, -sign)) for root, sign in _SIGNED_ROOTS)


def add(v, w):
    return tuple(x + y for x, y in zip(v, w))


def inner_product(beta, gamma) -> int:
    """Euclidean pairing in epsilon-coordinates."""
    return sum(x * y for x, y in zip(beta, gamma))


def generator_weight(letter: str):
    """Root-lattice weight of a cotangent letter: e_gamma -> gamma, f_gamma -> -gamma."""
    try:
        idx = LETTERS.index(letter)
    except ValueError:
        raise ValueError("unknown letter %r" % letter) from None
    sign, root = LETTER_SIGNS[idx], LETTER_ROOTS[idx]
    return tuple(sign * x for x in root)


def word_weight(word):
    """Additive extension of generator_weight to words of letter indices."""
    total = (0, 0, 0)
    for index in word:
        total = add(total, generator_weight(LETTERS[index]))
    return total
