from qflag3 import qpair, rootdata
from qflag3.rootdata import ALPHA1, ALPHA2, THETA, inner_product


def test_inner_products_match_cartan_matrix():
    assert inner_product(ALPHA1, ALPHA1) == 2
    assert inner_product(ALPHA2, ALPHA2) == 2
    assert inner_product(ALPHA1, ALPHA2) == -1
    assert inner_product(ALPHA2, ALPHA1) == -1
    assert inner_product(THETA, THETA) == 2


def test_inner_product_symmetric():
    positive = rootdata.POSITIVE_ROOTS
    roots = positive + tuple(tuple(-x for x in root) for root in positive)
    for beta in roots:
        for gamma in roots:
            assert inner_product(beta, gamma) == inner_product(gamma, beta)


# P+-grading of the quantum coordinate generators by column: -w1, w1-w2, w2
COLUMN_WEIGHTS = ((-1, 0), (1, -1), (0, 1))


def _column_weight(poly):
    """Common fundamental-weight grading of all words (None if mixed)."""
    weights = set()
    for word in poly.terms:
        total = (0, 0)
        for letter in word:
            w = COLUMN_WEIGHTS[letter % 3]
            total = (total[0] + w[0], total[1] + w[1])
        weights.add(total)
    if len(weights) > 1:
        return None
    return weights.pop() if weights else (0, 0)


def test_column_weights_sum_to_zero_on_flag_generators():
    for poly in qpair.all_flag_generators().values():
        assert _column_weight(poly) == (0, 0)
    # and on products of flag generators
    z1 = qpair.flag_generator(1, 2, 1)
    z2 = qpair.flag_generator(2, 3, 2)
    assert _column_weight(z1 * z2) == (0, 0)

