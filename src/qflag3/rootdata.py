"""The A2 root system in epsilon-coordinates: inner products, the positive
roots in the convex order alpha2 < alpha1+alpha2 < alpha1, and the six
cotangent letters that the order ranks, with their star partners.  The
letters' weights are read off the generator matrices in ``qpair``.
"""

from __future__ import annotations

ALPHA1 = (1, -1, 0)
ALPHA2 = (0, 1, -1)
THETA = (1, 0, -1)  # alpha1 + alpha2

# positive roots in convex order induced by the reduced word s2 s1 s2
POSITIVE_ROOTS = (ALPHA2, THETA, ALPHA1)
ROOT_NAMES = {ALPHA1: "a1", ALPHA2: "a2", THETA: "a12"}

# the letter index of f_gamma and of e_gamma: the f letters in convex order,
# then the e letters; every rule of the exterior algebra is strictly
# decreasing for this ranking
F = {root: k for k, root in enumerate(POSITIVE_ROOTS)}
E = {root: k + len(POSITIVE_ROOTS) for k, root in enumerate(POSITIVE_ROOTS)}
LETTERS = tuple(kind + "_" + ROOT_NAMES[root]
                for kind in "fe" for root in POSITIVE_ROOTS)
# the star partner of each letter, by index: e_gamma <-> f_gamma
STAR = tuple((k + len(POSITIVE_ROOTS)) % len(LETTERS) for k in range(len(LETTERS)))


def add(v, w):
    return tuple(x + y for x, y in zip(v, w))


def inner_product(beta, gamma) -> int:
    """Euclidean pairing in epsilon-coordinates."""
    return sum(x * y for x, y in zip(beta, gamma))
