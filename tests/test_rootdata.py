from qflag3 import qpair, rootdata
from qflag3.rootdata import ALPHA1, ALPHA2, E, F, STAR, THETA, inner_product


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



def test_star_is_a_fixed_point_free_involution_swapping_e_and_f():
    assert all(STAR[STAR[k]] == k != STAR[k] for k in range(6))
    for root in rootdata.POSITIVE_ROOTS:
        assert STAR[E[root]] == F[root]


def test_the_convex_order_ranks_the_letters():
    # the f letters in convex order, then the e letters
    assert sorted(F.values()) + sorted(E.values()) == list(range(6))
    assert max(F.values()) < min(E.values())
    for k, root in enumerate(rootdata.POSITIVE_ROOTS):
        assert F[root] == k
        assert rootdata.LETTERS[F[root]] == "f_" + rootdata.ROOT_NAMES[root]
        assert rootdata.LETTERS[E[root]] == "e_" + rootdata.ROOT_NAMES[root]
    assert rootdata.LETTERS == ("f_a2", "f_a12", "f_a1", "e_a2", "e_a12", "e_a1")


def test_the_cotangent_alphabet_is_the_letters():
    assert qpair.COTANGENT_ALPHABET.letters == rootdata.LETTERS
