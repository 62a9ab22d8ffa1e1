"""The A2 root system in epsilon-coordinates: inner products, the positive
roots in the convex order alpha2 < alpha1+alpha2 < alpha1, and the names of
the six cotangent letters with their star partners.  The letters' weights are
read off the generator matrices in ``qpair``.
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
# the star partner of each letter, by index: e_gamma <-> f_gamma
STAR = tuple(LETTERS.index({"e": "f", "f": "e"}[name[0]] + name[1:]) for name in LETTERS)


def add(v, w):
    return tuple(x + y for x, y in zip(v, w))


def inner_product(beta, gamma) -> int:
    """Euclidean pairing in epsilon-coordinates."""
    return sum(x * y for x, y in zip(beta, gamma))
