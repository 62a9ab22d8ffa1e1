import itertools
import random

import pytest

from qflag3 import flagext, qpair, rootdata
from qflag3.ncpoly import NCPolynomial
from qflag3.qpair import (COTANGENT_ALPHABET, U_ALPHABET, _pair2_word,
                          _pair_word, all_flag_generators, antipode_word,
                          coset, cotangent, counit, flag_generator,
                          functional_table, functional_weights, omega,
                          omega_by_expansion, omega_render, plus_part,
                          right_act, u_monomial, u_weight)
from qflag3.scalar import Coefficient, ONE, ZERO

Q = Coefficient.q_power
NU = Coefficient.nu()


def one_word():
    return NCPolynomial.monomial(U_ALPHABET, ())


def pair(name, poly):
    """Dual pairing of the named functional against a u-polynomial."""
    total = ZERO
    for word, coeff in poly.terms.items():
        total = total + coeff * _pair_word(name, word)
    return total


def entries(matrix):
    return {(i + 1, j + 1): matrix[i][j]
            for i in range(3) for j in range(3) if not matrix[i][j].is_zero()}


def test_eval_matrices():
    table = functional_table()
    assert entries(table["F_a1"].eval) == {(1, 2): Q(-1)}
    assert entries(table["F_a2"].eval) == {(2, 3): Q(-1)}
    assert entries(table["F_a12"].eval) == {(1, 3): Q(-2)}
    assert entries(table["E_a1"].eval) == {(2, 1): ONE}
    assert entries(table["E_a12"].eval) == {(3, 1): ONE}
    assert entries(table["K1"].eval) == {(1, 1): Q(-1), (2, 2): Q(1), (3, 3): ONE}
    assert entries(table["K2"].eval) == {(1, 1): ONE, (2, 2): Q(-1), (3, 3): Q(1)}


def test_counits():
    table = functional_table()
    grouplike = {"eps", "K1", "K2", "K1K2"}
    for name, functional in table.items():
        assert functional.counit == (ONE if name in grouplike else ZERO)


def test_functional_weights():
    # one weight per member, read off its evaluation entries, and every
    # coproduct term adds up to it
    weights = functional_weights()
    assert weights == {
        "eps": (0, 0, 0), "K1": (0, 0, 0), "K2": (0, 0, 0), "K1K2": (0, 0, 0),
        "E_a1": (-1, 1, 0), "E_a2": (0, -1, 1), "E_a2K1": (0, -1, 1),
        "E_a12": (-1, 0, 1), "F_a1": (1, -1, 0), "F_a2": (0, 1, -1),
        "F_a2K1": (0, 1, -1), "F_a12": (1, 0, -1)}
    for name, functional in functional_table().items():
        for i, j in entries(functional.eval):
            assert u_weight(qpair.u_word((i, j))) == weights[name]
        for left, right, _ in functional.coproduct:
            assert rootdata.add(weights[left], weights[right]) == weights[name]


def test_functional_weights_reject_an_ungraded_table(monkeypatch):
    # a member whose entries disagree on the weight, and a coproduct term of
    # the wrong weight, each stop the build; E_a2 is in no other member's
    # coproduct, so only the entry check can catch its mixed entries
    table = dict(functional_table())
    e_a1, e_a2 = table["E_a1"], table["E_a2"]
    mixed = qpair._matadd(e_a2.eval, e_a1.eval)
    bad_entries = dict(table, E_a2=qpair.Functional(
        "E_a2", mixed, e_a2.coproduct, e_a2.counit))
    bad_term = dict(table, E_a1=qpair.Functional(
        "E_a1", e_a1.eval, (("E_a1", "K1", ONE), ("eps", "E_a2", ONE)), e_a1.counit))
    for broken in (bad_entries, bad_term):
        monkeypatch.setattr(qpair, "functional_table", lambda broken=broken: broken)
        with pytest.raises(AssertionError):
            functional_weights.__wrapped__()


def test_pair_word_vanishes_off_its_weight():
    # every member on every u-word of length <= 3
    weights = functional_weights()
    words = [word for k in range(4) for word in itertools.product(range(9), repeat=k)]
    assert len(words) == 820
    nonzero = 0
    for name, weight in weights.items():
        for word in words:
            value = _pair_word(name, word)
            if u_weight(word) != weight:
                assert value.is_zero(), (name, word)
            nonzero += not value.is_zero()
    assert nonzero > 0


def test_pair_examples():
    assert pair("F_a12", u_monomial((1, 3))) == Q(-2)
    assert pair("E_a1", u_monomial((2, 1), (1, 1))) == Q(-1)
    # the empty word pairs to the counit
    assert pair("eps", one_word()) == ONE
    assert pair("E_a1", one_word()).is_zero()


def test_coassociativity_on_random_words():
    # pairing against a product equals the coproduct expansion, exactly
    table = functional_table()
    rng = random.Random(3)
    letters = list(range(9))
    for _ in range(200):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        p1 = NCPolynomial.monomial(U_ALPHABET, w1)
        p2 = NCPolynomial.monomial(U_ALPHABET, w2)
        product = p1 * p2
        for name, functional in table.items():
            direct = pair(name, product)
            split = ZERO
            for left, right, scale in functional.coproduct:
                split = split + scale * pair(left, p1) * pair(right, p2)
            assert direct == split, (name, w1, w2)


def test_lemma_cosets():
    assert coset(u_monomial((2, 1))) == cotangent("e_a1")
    assert coset(u_monomial((3, 2))) == cotangent("e_a2")
    assert coset(u_monomial((3, 1))) == cotangent("e_a12")
    assert coset(u_monomial((1, 2), coeff=Q(1))) == cotangent("f_a1")
    assert coset(u_monomial((2, 3), coeff=Q(1))) == cotangent("f_a2")
    assert coset(u_monomial((1, 3), coeff=Q(2))) == cotangent("f_a12")
    assert coset(u_monomial((1, 1)) - one_word()).is_zero()


def test_antipode_word_structure():
    # S(u11) = u22 u33 - q u23 u32
    expected = u_monomial((2, 2), (3, 3)) + u_monomial((2, 3), (3, 2), coeff=-Q(1))
    assert antipode_word(1, 1) == expected
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            value = counit(antipode_word(i, j))
            assert value == (ONE if i == j else ZERO)


def test_antipode_axiom():
    # sum_a u_ia S(u_aj) = delta_ij, tested against every functional
    table = functional_table()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            total = NCPolynomial.zero(U_ALPHABET)
            for a in (1, 2, 3):
                total = total + u_monomial((i, a)) * antipode_word(a, j)
            for name, functional in table.items():
                expected = functional.counit if i == j else ZERO
                assert pair(name, total) == expected


def test_antipode_cosets():
    scalars = {(2, 1): ("e_a1", -Q(1)), (3, 2): ("e_a2", -Q(1)),
               (3, 1): ("e_a12", -Q(1)), (1, 2): ("f_a1", -Q(-2)),
               (2, 3): ("f_a2", -Q(-2)), (1, 3): ("f_a12", -Q(-5))}
    for (i, j), (letter, scalar) in scalars.items():
        assert coset(antipode_word(i, j)) == cotangent(letter).scale(scalar)


def test_flag_generator_cosets():
    cases = {
        (1, 2, 1): ("e_a1", Q(1)),
        (2, 3, 2): ("e_a2", -Q(1)),
        (1, 3, 1): ("e_a12", Q(1)),
        (2, 3, 1): ("e_a12", -Q(1)),
        (1, 1, 2): ("f_a1", -Q(-2)),
        (2, 2, 3): ("f_a2", Q(-2)),
        (1, 1, 3): ("f_a12", -Q(-5)),
        (2, 1, 3): ("f_a12", Q(-3)),
    }
    for key, (letter, scalar) in cases.items():
        assert coset(flag_generator(*key)) == cotangent(letter).scale(scalar)


@pytest.mark.parametrize("key", [(0, 1, 1), (3, 1, 1), (1, 0, 1), (1, 4, 1),
                                 (1, 1, 0), (1, 1, 4), (2, -1, 2), (2, 2, -3)])
def test_flag_generator_rejects_indices_out_of_range(key):
    with pytest.raises(ValueError, match="p must be 1 or 2, and a and b 1, 2 or 3"):
        flag_generator(*key)


def test_flag_generators_are_one_read_only_table():
    table = all_flag_generators()
    assert table is all_flag_generators()
    assert sorted(table) == [(p, a, b) for p in (1, 2) for a in (1, 2, 3)
                             for b in (1, 2, 3)]
    assert all(flag_generator(*key) is z for key, z in table.items())
    with pytest.raises(TypeError):
        table[1, 1, 1] = one_word()


def test_flag_generator_counits():
    # the counit contracts through the interior index: eps(z^p_ab) is 1 only
    # when both exterior indices match the defining column
    assert counit(flag_generator(1, 1, 1)) == ONE
    assert counit(flag_generator(2, 3, 3)) == ONE
    assert counit(flag_generator(1, 2, 2)).is_zero()
    assert counit(flag_generator(2, 3, 2)).is_zero()


def test_omega_requires_counit_zero():
    # for omega and for its independent check alike
    for route in (omega, omega_by_expansion):
        with pytest.raises(ValueError):
            route(flag_generator(1, 1, 1))
        assert route(NCPolynomial.zero(U_ALPHABET)).is_zero()


def test_omega_worked_generator():
    matrix = omega(plus_part(flag_generator(1, 2, 2)))
    assert omega_render(matrix) == ("-q^-1*f_a1(x)e_a1 + (q^-4 - q^-6)*e_a12(x)f_a12"
                                    " - q^-3*e_a1(x)f_a1")


def omega_samples():
    # every ideal generator and every counit-corrected flag generator
    samples = [poly for _, poly in flagext.ideal_generators()]
    samples += [plus_part(poly) for poly in all_flag_generators().values()]
    assert len(samples) == 156 + 18
    return samples


def test_omega_agrees_with_explicit_expansion():
    for poly in omega_samples():
        assert omega(poly) == omega_by_expansion(poly)


def test_omega_by_expansion_is_independent_and_leaves_no_cache(monkeypatch):
    # the check never reaches the product-functional pairing it checks, nor
    # coset or the weights that prune omega and coset, and adds no entry to
    # any pairing cache
    samples = omega_samples()
    expected = [omega(poly) for poly in samples]

    def forbidden(*args):
        raise AssertionError("omega_by_expansion reached the code it checks")

    for name in ("_pair2_word", "_steps2", "coset", "u_weight",
                 "functional_weights", "_dual_pairs_by_weight",
                 "_slot_dual_by_weight"):
        monkeypatch.setattr(qpair, name, forbidden)
    caches = (qpair._pair_cache, qpair._pair2_cache)
    sizes = [len(cache) for cache in caches]
    assert [omega_by_expansion(poly) for poly in samples] == expected
    assert [len(cache) for cache in caches] == sizes


def omega_over_index_tuples(poly):
    """omega by the explicit route: for every word and every index tuple,
    the coset of the left leg times the coset of the right leg."""
    total = NCPolynomial.zero(COTANGENT_ALPHABET)
    for word, coeff in poly.terms.items():
        for mids in itertools.product(range(3), repeat=len(word)):
            left = tuple(3 * (letter // 3) + a for letter, a in zip(word, mids))
            right = tuple(3 * a + letter % 3 for letter, a in zip(word, mids))
            total = total + (coset(NCPolynomial.monomial(U_ALPHABET, left)) *
                             coset(NCPolynomial.monomial(U_ALPHABET, right))).scale(coeff)
    return total


def test_omega_by_expansion_walks_every_index_tuple():
    # the walk against the old route, on the counit-corrected flag generators
    # and seeded counit-zero sums of words of length 1-5 with coefficients
    # from {+-1, +-q^k, nu}
    samples = [plus_part(poly) for poly in all_flag_generators().values()]
    rng = random.Random(29)
    scalars = [ONE, -ONE, Q(1), -Q(-2), Q(3), NU]
    for _ in range(60):
        poly = NCPolynomial.zero(U_ALPHABET)
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.randrange(9) for _ in range(rng.randint(1, 5)))
            poly = poly + NCPolynomial.monomial(U_ALPHABET, word, rng.choice(scalars))
        samples.append(plus_part(poly))
    assert len(samples) == 18 + 60
    nonzero = 0
    for poly in samples:
        expected = omega_over_index_tuples(poly)
        assert omega_by_expansion(poly) == expected, poly.render()
        nonzero += not expected.is_zero()
    assert nonzero >= 70


def test_product_pairing_is_the_coproduct_expansion():
    # for every ordered pair of family members, not only the 36 dual pairs
    # omega reaches, and every word of length <= 2: x*y paired with
    # u_(i1 j1)...u_(ik jk) is the sum over a of x(u_(i1 a1)...u_(ik ak))
    # times y(u_(a1 j1)...u_(ak jk)); and it is zero unless the word's weight
    # is wt(x) + wt(y)
    weights = functional_weights()
    words = [word for k in range(3) for word in itertools.product(range(9), repeat=k)]
    assert (len(weights) ** 2, len(words)) == (144, 91)
    for x, wx in weights.items():
        for y, wy in weights.items():
            for word in words:
                expected = ZERO
                for mids in itertools.product(range(3), repeat=len(word)):
                    left = tuple(3 * (letter // 3) + a for letter, a in zip(word, mids))
                    right = tuple(3 * a + letter % 3 for letter, a in zip(word, mids))
                    expected = expected + _pair_word(x, left) * _pair_word(y, right)
                value = _pair2_word(x, y, word)
                assert value == expected, (x, y, word)
                if u_weight(word) != rootdata.add(wx, wy):
                    assert value.is_zero(), (x, y, word)


def test_right_act_single_letters():
    e_a1 = cotangent("e_a1")
    f_a1 = cotangent("f_a1")
    f_a2 = cotangent("f_a2")
    assert right_act(e_a1, u_monomial((3, 2))) == \
        cotangent("e_a12").scale(NU)
    assert right_act(f_a1, u_monomial((2, 3))) == \
        cotangent("f_a12").scale(Q(-1) * NU)
    assert right_act(e_a1, u_monomial((1, 1))) == e_a1.scale(Q(-1))
    assert right_act(f_a2, u_monomial((1, 2))).is_zero()
    # all other off-diagonal actions vanish
    for letter in ("e_a2", "e_a12", "f_a2", "f_a12"):
        vec = cotangent(letter)
        for (i, j) in [(2, 1), (3, 1), (3, 2), (1, 2), (1, 3), (2, 3)]:
            assert right_act(vec, u_monomial((i, j))).is_zero()


def test_right_act_is_the_coset_module_action():
    # coset(x u_ij) == coset(x) . u_ij for every counit-zero x: the action is
    # read off the slot duals' coproducts, and this checks it against the
    # pairing itself, over the counit-corrected flag generators and seeded
    # counit-corrected words of length 1-3
    samples = [plus_part(poly) for poly in all_flag_generators().values()]
    rng = random.Random(8)
    for _ in range(60):
        word = tuple(rng.randrange(9) for _ in range(rng.randint(1, 3)))
        samples.append(plus_part(NCPolynomial.monomial(U_ALPHABET, word)))
    assert len(samples) == 18 + 60
    for x in samples:
        base = coset(x)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                u = u_monomial((i, j))
                assert coset(x * u) == right_act(base, u), (x.render(), i, j)


def test_right_act_by_antipoded_letters():
    # regression for the expansion of S(u_ij) through the module action
    e_a1 = cotangent("e_a1")
    f_a1 = cotangent("f_a1")
    assert right_act(e_a1, antipode_word(3, 2)) == \
        cotangent("e_a12").scale(-NU)
    assert right_act(f_a1, antipode_word(2, 3)) == \
        cotangent("f_a12").scale(-Q(-3) * NU)
    assert right_act(e_a1, antipode_word(1, 1)) == e_a1.scale(Q(1))


def test_right_act_preserves_weight_zero_grading():
    # acting by flag generators maps each letter line into the expected lines
    for key, z in all_flag_generators().items():
        for letter in COTANGENT_ALPHABET.letters:
            moved = right_act(cotangent(letter), z)
            for (target,) in moved.terms:
                # e-lines stay e, f stay f
                assert COTANGENT_ALPHABET.letters[target][0] == letter[0]


def test_right_act_deg2_witness():
    tensor = cotangent("f_a1", "e_a1")
    acted = right_act(tensor, u_monomial((1, 1), (3, 2), (2, 3)))
    assert acted == cotangent("f_a12", "e_a12", coeff=Q(-2) * NU * NU)


def test_right_act_deg2_identity_and_centrality():
    tensor = cotangent("f_a2", "e_a2")
    assert right_act(tensor, one_word()) == tensor
    for z in all_flag_generators().values():
        assert right_act(tensor, z) == tensor.scale(counit(z))


def test_right_act_follows_the_coproduct():
    # u_ij acts on v (x) w as sum_a (v . u_ia) (x) (w . u_aj), with (x) the
    # free-algebra product: on all 36 words of degree 2, and on all 216 of
    # degree 3 split as 1 + 2; the unit acts as the identity
    letters = COTANGENT_ALPHABET.letters
    tails = [cotangent(b) for b in letters] + \
        [cotangent(b, c) for b in letters for c in letters]
    for a in letters:
        head = cotangent(a)
        for tail in tails:
            tensor = head * tail
            assert right_act(tensor, one_word()) == tensor
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    split = NCPolynomial.zero(COTANGENT_ALPHABET)
                    for k in (1, 2, 3):
                        split = split + right_act(head, u_monomial((i, k))) * \
                            right_act(tail, u_monomial((k, j)))
                    assert right_act(tensor, u_monomial((i, j))) == split, \
                        (tensor.render(), i, j)


def test_omega_right_ideal_property_samples():
    # omega of generator * flag-generator products stays in the relation span
    from qflag3 import flagext, linalg
    algebra = flagext.build_relations()
    pivots = {}
    for vec in flagext.encoded_relation_vectors(algebra):
        linalg.insert_pivot(vec, pivots)
    gens = dict(flagext.ideal_generators())
    rng = random.Random(17)
    sample_gens = rng.sample(sorted(gens), 5)
    zs = sorted(all_flag_generators())
    for label in sample_gens:
        for key in rng.sample(zs, 3):
            product = gens[label] * all_flag_generators()[key]
            assert not linalg.reduce(omega(product).terms, pivots), (label, key)
