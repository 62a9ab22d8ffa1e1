import itertools
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qflag3 import flagext, geometry, qpair, rootdata
from qflag3.ncpoly import NCPolynomial
from qflag3.qpair import (COTANGENT_ALPHABET, GENERATORS, MEMBERS, U_ALPHABET, _pair2_word,
                          _pair_word, all_flag_generators, antipode_word, coset,
                          cotangent, counit, flag_generator, grade,
                          omega, omega_by_expansion, omega_render, pair, plus_part,
                          right_act, u_monomial, u_weight, u_word)
from qflag3.scalar import Coefficient, ONE, ZERO

Q = Coefficient.q_power
NU = Coefficient.nu()


def one_word():
    return NCPolynomial.monomial(U_ALPHABET, ())


def pair_poly(name, poly):
    """Pairing of the named member against a u-polynomial."""
    total = ZERO
    for word, coeff in poly.terms.items():
        total = total + coeff * pair(name, word)
    return total


def entries(name):
    """The nonzero pairings of a member with the single letters u_ij."""
    values = {(i, j): pair(name, u_word((i, j))) for i in (1, 2, 3) for j in (1, 2, 3)}
    return {key: value for key, value in values.items() if not value.is_zero()}


def generator_polynomial(*terms):
    """A polynomial in the generators, from (coefficient, word) terms with
    words such as "K1 F2 K1^-1", as a tuple of (state, coefficient)."""
    summed = {}
    for coeff, word in terms:
        factors = []
        for token in word.split():
            name, _, power = token.partition("^")
            factors.append(qpair._k_power(name, int(power or 1)) if name[0] == "K" else name)
        exp, state = qpair._normal_form(factors)
        summed[state] = summed.get(state, ZERO) + coeff * Q(exp)
    return tuple((state, c) for state, c in summed.items() if not c.is_zero())


def state_weight(state):
    # each E/F letter has the weight e_r - e_c of its one matrix entry (r, c)
    weight = (0, 0, 0)
    for letter in state[:-2]:
        (row, (col, _)), = GENERATORS[letter].items()
        weight = rootdata.add(weight, tuple((k == row) - (k == col) for k in (1, 2, 3)))
    return weight


def test_eval_matrices():
    assert entries("F_a1") == {(1, 2): Q(-1)}
    assert entries("F_a2") == {(2, 3): Q(-1)}
    assert entries("F_a12") == {(1, 3): Q(-2)}
    assert entries("E_a1") == {(2, 1): ONE}
    assert entries("E_a12") == {(3, 1): ONE}
    assert entries("K1") == {(1, 1): Q(-1), (2, 2): Q(1), (3, 3): ONE}
    assert entries("K2") == {(1, 1): ONE, (2, 2): Q(-1), (3, 3): Q(1)}


def test_counits():
    for name in MEMBERS:
        assert pair(name, ()) == (ONE if name in ("K1", "K2") else ZERO)


def test_functional_weights():
    # one weight per member, the sum over each state's E/F letters, and each
    # single letter it pairs with has that weight
    weights = {name: grade(name)[0] for name in MEMBERS}
    assert weights == {
        "K1": (0, 0, 0), "K2": (0, 0, 0), "E_a1": (-1, 1, 0), "E_a2": (0, -1, 1),
        "E_a12": (-1, 0, 1), "F_a1": (1, -1, 0), "F_a2": (0, 1, -1), "F_a12": (1, 0, -1)}
    for name in MEMBERS:
        for i, j in entries(name):
            assert u_weight(u_word((i, j))) == weights[name]
        for state, _ in qpair._member_states(name):
            assert state_weight(state) == weights[name]


def test_functional_weights_reject_a_member_of_mixed_weight(monkeypatch):
    # a member whose terms disagree on the weight stops the build
    monkeypatch.setitem(MEMBERS, "E_a2", ((ONE, "E2"), (ONE, "E1")))
    qpair._member_states.cache_clear()
    try:
        with pytest.raises(AssertionError, match="E_a2 has no single grade"):
            grade("E_a2")
    finally:
        qpair._member_states.cache_clear()


def test_functional_distances():
    # each member's distance is the E/F letter count m of each of its states
    distances = {name: grade(name)[1] for name in MEMBERS}
    assert distances == {"K1": 0, "K2": 0, "E_a1": 1, "E_a2": 1, "E_a12": 2,
                         "F_a1": 1, "F_a2": 1, "F_a12": 2}
    for name in MEMBERS:
        for state, _ in qpair._member_states(name):
            assert len(state) - 2 == distances[name]


def test_functional_distances_reject_a_member_of_mixed_distance(monkeypatch):
    # E1 and E1 F1 E1 share a weight but not a letter count
    monkeypatch.setitem(MEMBERS, "E_a1", ((ONE, "E1"), (ONE, "E1 F1 E1")))
    qpair._member_states.cache_clear()
    try:
        assert {state_weight(state) for state, _ in qpair._member_states("E_a1")} == {(-1, 1, 0)}
        with pytest.raises(AssertionError, match="E_a1 has no single grade"):
            grade("E_a1")
    finally:
        qpair._member_states.cache_clear()


def test_letter_weights():
    # f_gamma has weight gamma and e_gamma -gamma, for each positive root;
    # each letter has the weight of the u-letters whose coset lies on it
    weights = dict(zip(rootdata.LETTERS, qpair.letter_weights()))
    for suffix, root in (("a1", rootdata.ALPHA1), ("a2", rootdata.ALPHA2),
                         ("a12", rootdata.THETA)):
        assert weights["f_" + suffix] == root
        assert weights["e_" + suffix] == tuple(-x for x in root)
    assert weights["e_a1"] == u_weight(u_word((2, 1)))
    for letter in range(9):
        for (slot,) in coset(NCPolynomial.monomial(U_ALPHABET, (letter,))).terms:
            assert qpair.letter_weights()[slot] == u_weight((letter,))


def test_star_sends_each_letter_to_the_opposite_weight():
    weights = qpair.letter_weights()
    assert sorted(rootdata.STAR) == list(range(6))
    for k, partner in enumerate(rootdata.STAR):
        assert partner != k
        assert weights[partner] == tuple(-x for x in weights[k])


def test_cotangent_weight_is_additive():
    words = [word for k in range(3) for word in itertools.product(range(6), repeat=k)]
    for a in words:
        for b in words:
            assert qpair.cotangent_weight(a + b) == \
                rootdata.add(qpair.cotangent_weight(a), qpair.cotangent_weight(b))
    assert qpair.cotangent_weight(()) == (0, 0, 0)
    for form in geometry.COINVARIANT_2FORMS:
        assert qpair.cotangent_weight(COTANGENT_ALPHABET.word(*form)) == (0, 0, 0)


def test_states_are_in_normal_form():
    # K powers move right past each E/F letter by the Cartan matrix:
    # K_i E_j = q^(a_ij) E_j K_i and K_i F_j = q^(-a_ij) F_j K_i
    cartan = ((2, -1), (-1, 2))
    for i, j, n in itertools.product((1, 2), (1, 2), (1, -1)):
        k = (n, 0) if i == 1 else (0, n)
        for kind, sign in (("E", 1), ("F", -1)):
            letter = "%s%d" % (kind, j)
            assert generator_polynomial((ONE, "K%d^%d %s" % (i, n, letter))) == \
                (((letter, *k), Q(sign * n * cartan[i - 1][j - 1])),), (i, n, letter)
    assert generator_polynomial((ONE, "K2 E1 K1")) == ((("E1", 1, 1), Q(-1)),)
    assert generator_polynomial((ONE, "E2 K1^-1 E1")) == ((("E2", "E1", -1, 0), Q(-2)),)
    # equal states add up, and a sum that cancels is empty
    assert generator_polynomial((ONE, "K1 F1"), (-Q(-2), "F1 K1")) == ()


def test_pair_word_vanishes_off_its_weight(reachable_states):
    # every state the members reach, on every u-word of length <= 3
    words = [word for k in range(4) for word in itertools.product(range(9), repeat=k)]
    assert len(words) == 820
    nonzero = 0
    for state in reachable_states:
        weight = state_weight(state)
        for word in words:
            value = _pair_word(state, word)
            if u_weight(word) != weight:
                assert value.is_zero(), (state, word)
            nonzero += not value.is_zero()
    assert nonzero > 0


def on_basis(name, power, col):
    """name^power on the basis vector e_col of V, as (row, value) for
    value * e_row, or None for zero: a matrix sends e_c to the entries (r, c)
    of its column c, and a negative power divides by a diagonal entry."""
    value = ONE
    for _ in range(abs(power)):
        entries = [(row, entry) for row, (c, entry) in GENERATORS[name].items() if c == col]
        if not entries:
            return None
        (col, entry), = entries
        value = value * entry if power > 0 else value / entry
    return col, value


def on_tensor(factors, vector):
    """A product of one factor (name, power) per tensor slot on a vector of
    V^(x)k, a map basis tuple -> Coefficient."""
    out = {}
    for basis, coeff in vector.items():
        moved = [on_basis(name, power, col) for (name, power), col in zip(factors, basis)]
        if None not in moved:
            key = tuple(row for row, _ in moved)
            out[key] = out.get(key, ZERO) + prod((value for _, value in moved), start=coeff)
    return out


def reference_pairing(state, word):
    """The pairing of a state with u_(i1 j1)...u_(ik jk), as the (I, J) entry
    of the state's matrix on V^(x)k: the k-fold coproducts of K1^a K2^b and
    then of the E/F letters from the last, applied to e_J in Coefficient
    arithmetic.  Delta^(k)(X_i) is the sum over p of K_i^n in the slots
    before p, X_i in slot p and K_i^m after it, and Delta^(k)(K) = K^(x)k."""
    k = len(word)
    vector = {tuple(letter % 3 + 1 for letter in word): ONE}
    for name, power in zip(("K1", "K2"), state[-2:]):
        vector = on_tensor([(name, power)] * k, vector)
    for letter in reversed(state[:-2]):
        m, n = qpair.COPRODUCT_K_POWERS[letter[0]]
        k_name, summed = "K" + letter[1], {}
        for p in range(k):
            factors = [(k_name, n)] * p + [(letter, 1)] + [(k_name, m)] * (k - p - 1)
            for basis, value in on_tensor(factors, vector).items():
                summed[basis] = summed.get(basis, ZERO) + value
        vector = summed
    return vector.get(tuple(letter // 3 + 1 for letter in word), ZERO)


def test_pair_word_is_the_matrix_entry_on_the_tensor_power(reachable_states):
    # the q-exponent steps against the matrices themselves, on every state
    # the members reach and every u-word of length <= 3; as a property of the
    # pairing, a state pairs to zero with every word farther from the diagonal
    words = [word for k in range(4) for word in itertools.product(range(9), repeat=k)]
    assert (len(reachable_states), len(words)) == (15, 820)
    cut = 0
    for state in reachable_states:
        distance = sum(abs(row - col) for letter in state[:-2]
                       for row, (col, _) in GENERATORS[letter].items())
        for word in words:
            expected = reference_pairing(state, word)
            assert Coefficient(_pair_word(state, word)) == expected, (state, word)
            if qpair.u_distance(word) > distance:
                assert expected.is_zero(), (state, word)
                cut += 1
    assert cut > 0


@pytest.fixture
def fresh_engine():
    # a test that patches the generators or the members empties every cache
    # the patch reaches, before and after; it may call the clearing itself
    def clear():
        qpair._pair2_cache.clear()
        for cached in (qpair._entry, qpair._steps, qpair._member_states):
            cached.cache_clear()
    clear()
    yield clear
    clear()


def test_a_k_diagonal_entry_off_the_powers_of_q_is_rejected(fresh_engine, monkeypatch):
    monkeypatch.setitem(GENERATORS, "K1", {1: (1, Q(-1)), 2: (2, Q(1) + ONE), 3: (3, ONE)})
    with pytest.raises(ValueError, match=r"^the matrix entry q \+ 1 is not a power of q$"):
        pair("K1", u_word((2, 2)))


def test_a_member_coefficient_off_the_laurent_ring_is_rejected(fresh_engine, monkeypatch):
    # the states carry integer Laurent polynomials: 1/(1 + q) and 1/2 both
    # have a denominator other than 1
    for coeff in (ONE / (ONE + Q(1)), ONE / (ONE + ONE)):
        monkeypatch.setitem(MEMBERS, "E_a2", ((coeff, "E2"),))
        with pytest.raises(ValueError, match=r"^a coefficient of E_a2 is not in Z\[q, q\^-1\]$"):
            pair("E_a2", u_word((3, 2)))


def test_pair_examples():
    assert pair("F_a12", u_word((1, 3))) == Q(-2)
    assert pair("E_a1", u_word((2, 1), (1, 1))) == Q(-1)
    # the empty word pairs to the counit
    assert pair("K1", ()) == ONE
    assert pair("E_a1", ()).is_zero()


def coproduct(state):
    """Delta of a state as (left state, right state, coefficient) terms,
    expanded at once over the letters from the Drinfeld-Jimbo coproducts
    Delta(E_i) = E_i (x) K_i + 1 (x) E_i, Delta(F_i) = F_i (x) 1 + K_i^-1 (x) F_i
    and Delta(K) = K (x) K."""
    legs = {"E": (("{0}", "K{1}"), ("", "{0}")), "F": (("{0}", ""), ("K{1}^-1", "{0}"))}
    k_part = "K1^%d K2^%d" % state[-2:]
    terms = []
    for choice in itertools.product((0, 1), repeat=len(state) - 2):
        left, right = [], []
        for letter, which in zip(state[:-2], choice):
            for leg, spelled in zip((left, right), legs[letter[0]][which]):
                leg.append(spelled.format(letter, letter[1]))
        (ls, lc), = generator_polynomial((ONE, " ".join(left + [k_part])))
        (rs, rc), = generator_polynomial((ONE, " ".join(right + [k_part])))
        terms.append((ls, rs, lc * rc))
    return terms


def test_coassociativity_on_random_words(reachable_states):
    # pairing a state against a product equals its coproduct expansion,
    # exactly: the letter-by-letter transitions agree with the coproduct
    # taken over all letters at once
    rng = random.Random(3)
    letters = list(range(9))
    for _ in range(200):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        for state in reachable_states:
            split = ZERO
            for left, right, scale in coproduct(state):
                split = split + scale * Coefficient(_pair_word(left, w1) * _pair_word(right, w2))
            assert Coefficient(_pair_word(state, w1 + w2)) == split, (state, w1, w2)


def test_generators_satisfy_the_relations_of_u_q_sl3():
    # nu [E_i, F_j] = delta_ij (K_i - K_i^-1) and the four quantum Serre
    # relations pair to zero with every u-word of length <= 4
    relations = {}
    for i in (1, 2):
        for j in (1, 2):
            terms = [(NU, "E%d F%d" % (i, j)), (-NU, "F%d E%d" % (j, i))]
            if i == j:
                terms += [(-ONE, "K%d" % i), (ONE, "K%d^-1" % i)]
            relations["[E%d,F%d]" % (i, j)] = generator_polynomial(*terms)
    two = Q(1) + Q(-1)
    for kind in "EF":
        for i, j in ((1, 2), (2, 1)):
            a, b = kind + str(i), kind + str(j)
            relations["Serre %s %s" % (a, b)] = generator_polynomial(
                (ONE, "%s %s %s" % (a, a, b)), (-two, "%s %s %s" % (a, b, a)),
                (ONE, "%s %s %s" % (b, a, a)))
    assert len(relations) == 8
    words = [word for k in range(5) for word in itertools.product(range(9), repeat=k)]
    assert len(words) == 7381
    for name, relation in relations.items():
        for word in words:
            value = ZERO
            for state, coeff in relation:
                value = value + coeff * Coefficient(_pair_word(state, word))
            assert value.is_zero(), (name, word)


def frt_relations(q):
    """The 36 quadratic relations of O_q(SL_3) (Faddeev-Reshetikhin-Takhtajan
    1990), each a map u-word -> coefficient: for i < j and k < l,
    u_ik u_jk = q u_jk u_ik, u_ki u_kj = q u_kj u_ki, u_il u_jk = u_jk u_il and
    u_ik u_jl - u_jl u_ik = (q - q^-1) u_il u_jk."""
    u = qpair.u_index
    relations = []
    for i, j in itertools.combinations((1, 2, 3), 2):
        for k in (1, 2, 3):
            relations.append({(u(i, k), u(j, k)): ONE, (u(j, k), u(i, k)): -q})
            relations.append({(u(k, i), u(k, j)): ONE, (u(k, j), u(k, i)): -q})
        for k, l in itertools.combinations((1, 2, 3), 2):
            relations.append({(u(i, l), u(j, k)): ONE, (u(j, k), u(i, l)): -ONE})
            relations.append({(u(i, k), u(j, l)): ONE, (u(j, l), u(i, k)): -ONE,
                              (u(i, l), u(j, k)): ONE / q - q})
    assert len(relations) == 36
    return relations


def frt_violations(q, states):
    """(state, left context, relation, right context) where the pairing is
    not zero, over the states and at most one letter of context a side."""
    contexts = [()] + [(letter,) for letter in range(9)]
    for relation in frt_relations(q):
        for a in contexts:
            for b in contexts:
                for state in states:
                    value = ZERO
                    for word, coeff in relation.items():
                        value = value + coeff * Coefficient(_pair_word(state, a + word + b))
                    if not value.is_zero():
                        yield state, a, relation, b


def test_frt_relations_pair_to_zero(reachable_states):
    # the pairing is well defined on O_q(SL_3): its quadratic relations pair
    # to zero with every state in context, for this convention of q and not
    # for the one with q^-1
    assert next(frt_violations(Q(1), reachable_states), None) is None
    assert next(frt_violations(Q(-1), reachable_states), None) is not None


_u_words = st.lists(st.integers(0, 8), max_size=3).map(tuple)


@pytest.mark.parametrize("q, clean", [(Q(1), True), (Q(-1), False)], ids=["q", "q^-1"])
def test_frt_relations_pair_to_zero_in_random_contexts(reachable_states, q, clean):
    # every FRT relation, between left and right contexts of up to three
    # u-letters, pairs to zero with every state for the q convention; the
    # q^-1 convention is caught
    states = reachable_states

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              report_multiple_bugs=False)
    @given(st.sampled_from(frt_relations(q)), _u_words, _u_words)
    def pairs_to_zero(relation, a, b):
        for state in states:
            value = ZERO
            for word, coeff in relation.items():
                value = value + coeff * Coefficient(_pair_word(state, a + word + b))
            assert value.is_zero(), (state, a, relation, b)

    if clean:
        pairs_to_zero()
    else:
        with pytest.raises(AssertionError):
            pairs_to_zero()


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
    # sum_a u_ia S(u_aj) = delta_ij, tested against every member
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            total = NCPolynomial(U_ALPHABET)
            for a in (1, 2, 3):
                total = total + u_monomial((i, a)) * antipode_word(a, j)
            for name in MEMBERS:
                expected = pair(name, ()) if i == j else ZERO
                assert pair_poly(name, total) == expected


def test_antipode_axiom_pairs_to_the_counit(reachable_states, antipode_axiom_defects):
    # sum_k u_ik S(u_kj) and sum_k S(u_ik) u_kj both pair with every state
    # the slot duals reach to delta_ij times its counit
    assert len(reachable_states) * 9 * 2 == 270
    assert antipode_axiom_defects(reachable_states) == []


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
        assert route(NCPolynomial(U_ALPHABET)).is_zero()


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


def flag_products():
    """The 324 products of two flag generators, counit-corrected."""
    zs = all_flag_generators()
    return [plus_part(zs[a] * zs[b]) for a in sorted(zs) for b in sorted(zs)]


def test_omega_agrees_with_explicit_expansion_on_flag_products():
    # the products whose omega image the relations are derived from
    products = flag_products()
    assert len(products) == 324
    nonzero = 0
    for poly in products:
        value = omega(poly)
        assert value == omega_by_expansion(poly), poly.render()
        nonzero += not value.is_zero()
    assert nonzero > 0


def test_pairs_beyond_the_letter_count_vanish():
    # the distance grading that coset and omega skip by: a slot dual, or a
    # product x*y of two, pairs to zero with every word of distance above its
    # letter count, on every word of length <= 4 of its weight and every word
    # of the counit-corrected products
    short = {}
    for k in range(5):
        for word in itertools.product(range(9), repeat=k):
            short.setdefault(u_weight(word), []).append(word)
    product_words = {word for poly in flag_products() for word in poly.terms}
    skipped = {1: 0, 2: 0}
    for degree, pairing, count in ((1, pair, 6), (2, _pair2_word, 36)):
        duals = [(names, weight, distance) for weight, group in qpair.duals_by_weight(degree).items()
                 for _, names, distance in group]
        assert len(duals) == count
        for names, weight, distance in duals:
            for word in product_words.union(short.get(weight, ())):
                if distance < qpair.u_distance(word):
                    assert pairing(*names, word).is_zero(), (names, word)
                    skipped[degree] += 1
    assert all(skipped.values())


def test_coset_skips_no_nonzero_pairing():
    # coset against pairing every word with all six slot duals, unfiltered,
    # on the counit-corrected flag generators and their products
    samples = [plus_part(poly) for poly in all_flag_generators().values()] + flag_products()
    assert len(samples) == 18 + 324
    nonzero = 0
    for poly in samples:
        expected = NCPolynomial(COTANGENT_ALPHABET, {
            (slot,): sum((coeff * pair(dual, word) for word, coeff in poly.terms.items()), ZERO)
            for slot, dual in enumerate(qpair.SLOT_DUALS)})
        assert coset(poly) == expected, poly.render()
        nonzero += not expected.is_zero()
    assert nonzero > 0


def test_omega_by_expansion_is_independent_and_leaves_no_cache(monkeypatch):
    # the check never reaches the pairings it checks, nor the states of a
    # product of members, coset, or the grade and the map that prune omega
    # and coset, and adds no entry to any pairing cache: it shares only
    # _steps, _normal_form and the single-member _member_states with omega
    samples = omega_samples()
    expected = [omega(poly) for poly in samples]

    def forbidden(*args):
        raise AssertionError("omega_by_expansion reached the code it checks")

    for name in ("_pair2_word", "_pair_word", "pair", "coset",
                 "u_weight", "grade", "letter_weights", "cotangent_weight",
                 "duals_by_weight", "_letter_word", "_cotangent_map", "_count_paths"):
        monkeypatch.setattr(qpair, name, forbidden)
    member_states = qpair._member_states
    monkeypatch.setattr(qpair, "_member_states",
                        lambda *names: member_states(*names) if len(names) == 1 else forbidden())
    size = len(qpair._pair2_cache)
    assert [omega_by_expansion(poly) for poly in samples] == expected
    assert len(qpair._pair2_cache) == size


def test_omega_by_expansion_keeps_no_legs_between_calls(fresh_engine, monkeypatch):
    # two calls in a row, on generators whose words share their leg
    # prefixes, give what fresh calls give: after the first call K1 changes,
    # so a leg kept from it would give the second the bundled values
    samples = omega_samples()
    first, second = samples[0], samples[1]
    bundled = omega(second)
    assert omega_by_expansion(first) == omega(first)
    monkeypatch.setitem(GENERATORS, "K1", {1: (1, Q(1)), 2: (2, Q(-1)), 3: (3, ONE)})
    fresh_engine()
    expected = omega(second)
    assert expected != bundled
    assert omega_by_expansion(second) == expected


def omega_over_index_tuples(poly):
    """omega by the explicit route: for every word and every index tuple,
    the coset of the left leg times the coset of the right leg."""
    total = NCPolynomial(COTANGENT_ALPHABET)
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
        poly = NCPolynomial(U_ALPHABET)
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
    # is wt(x) + wt(y).  The grade of x*y, read off its own states, is the
    # sum of the factors' grades
    grades = {name: grade(name) for name in MEMBERS}
    words = [word for k in range(3) for word in itertools.product(range(9), repeat=k)]
    assert (len(grades) ** 2, len(words)) == (64, 91)
    for x, (wx, dx) in grades.items():
        for y, (wy, dy) in grades.items():
            assert grade(x, y) == (rootdata.add(wx, wy), dx + dy), (x, y)
            for word in words:
                expected = ZERO
                for mids in itertools.product(range(3), repeat=len(word)):
                    left = tuple(3 * (letter // 3) + a for letter, a in zip(word, mids))
                    right = tuple(3 * a + letter % 3 for letter, a in zip(word, mids))
                    expected = expected + pair(x, left) * pair(y, right)
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
    # read off the slot representatives and checked at build time on words of
    # length 1-2, and this checks it against the pairing itself, over the
    # counit-corrected flag generators and seeded counit-corrected words of
    # length 1-3
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
    assert acted == cotangent("f_a12", "e_a12").scale(Q(-2) * NU * NU)


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
                    split = NCPolynomial(COTANGENT_ALPHABET)
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
