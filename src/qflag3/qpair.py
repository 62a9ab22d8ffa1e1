"""Dual-pairing engine for the quantum coordinate algebra of SU_q(3).

Every pairing comes from the Drinfeld-Jimbo generators of U_q(sl_3)
(Jantzen, Lectures on Quantum Groups, ch. 4).  A generator pairs with u_rc
by the entry (r, c) of its matrix in the vector representation, a power of
q, and the coproducts Delta(E_i) = E_i (x) K_i + 1 (x) E_i, Delta(F_i) =
F_i (x) 1 + K_i^-1 (x) F_i and Delta(K) = K (x) K carry the pairing to words.
A member, a product of members and any polynomial in the generators is a sum
of states: generator words in normal form, the E/F letters followed by
K1^a K2^b, where K moves right past a letter X by the ratio of K's diagonal
entries at X's one matrix entry.  A state steps through a word's letters,
each step the single factor q^e, and ``_pair_word`` counts the paths that
end on a K power by the sum of their steps, so its values lie in
Z[q, q^-1] (LaurentPoly); a Coefficient is built only where member
coefficients meet them.  From it come the coset map onto V1, the two-fold
coproduct map omega and the right module action on V1^(x)k, whose tensors
are degree-k polynomials over the cotangent alphabet.

The pairing is graded, and this module is the one place that states the
grade, read off the generator matrices.  An E/F letter stands for u_rc, its
one matrix entry (r, c), so a state's E/F letters spell a u-word
(``_letter_word``), and a K power spells nothing.  ``grade`` gives a product
of members the weight (u_ij has weight e_i - e_j, ``u_weight``) and the
distance (|i - j|, ``u_distance``) of that word, and checks that all its
states agree.  A state pairs to zero with every word of another weight; each
letter's entry lies one step off the diagonal and moves one tensor slot by
it, so a state also pairs to zero with every word of distance above its
letter count.  A cotangent letter has the weight of its slot dual
(``letter_weights``), so e_a1, the coset of u21, has weight e2 - e1.
``coset`` and ``omega`` are the one map ``_cotangent_map`` of degree 1 and
2: it pairs each word only with the products of slot duals of its weight
whose distance reaches the word's (``duals_by_weight``).  The test runs once
per word and product, before any pairing: the recursion prunes nothing,
because a test at each of its nodes costs more than the dead paths it would
cut.  ``_pair2_cache`` memoises the pairings of products of two members, and
``_pair_word`` recomputes its values.
``omega_by_expansion`` checks omega independently: it walks each word's index
tuples, stepping the slot duals' single states, reads no grade and keeps
nothing between calls.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import prod
from types import MappingProxyType

from . import rootdata
from .ncpoly import Alphabet, NCPolynomial
from .scalar import Coefficient, LaurentPoly, ONE, ZERO

U_ALPHABET = Alphabet(tuple("u%d%d" % (i, j) for i in (1, 2, 3) for j in (1, 2, 3)))
_U_DISTANCES = tuple(abs(i - j) for i in (1, 2, 3) for j in (1, 2, 3))

# the cotangent alphabet, one letter per basis slot in the rank order of the
# exterior algebra: a degree-k polynomial in it is a tensor of V1^(x)k
COTANGENT_ALPHABET = Alphabet(rootdata.LETTERS)
# the dual functional of each slot: F_gamma for f_gamma, E_gamma for e_gamma
SLOT_DUALS = tuple(name[0].upper() + name[1:] for name in rootdata.LETTERS)


def u_index(i: int, j: int) -> int:
    return (i - 1) * 3 + (j - 1)


def u_word(*pairs):
    return tuple(u_index(i, j) for i, j in pairs)


def u_monomial(*pairs, coeff=ONE) -> NCPolynomial:
    return NCPolynomial.monomial(U_ALPHABET, u_word(*pairs), coeff)


def u_weight(word):
    """Weight of a u-word in epsilon-coordinates: the sum of e_i - e_j over
    its letters u_ij."""
    weight = [0, 0, 0]
    for letter in word:
        row, col = divmod(letter, 3)
        weight[row] += 1
        weight[col] -= 1
    return tuple(weight)


def u_distance(word):
    """Distance of a u-word from the diagonal: the sum of |i - j| over its letters u_ij."""
    return sum(map(_U_DISTANCES.__getitem__, word))


# -- the generators of U_q(sl_3) ------------------------------------------------

_Q = Coefficient.q_power
_L_ZERO, _L_ONE = LaurentPoly(), LaurentPoly({0: 1})

# Each generator's matrix in the vector representation, row -> (column,
# value): a row holds at most one nonzero entry, and the generator pairs with
# u_rc by the entry (r, c).  The K matrices are diagonal.
GENERATORS = {
    "E1": {2: (1, ONE)}, "E2": {3: (2, ONE)}, "F1": {1: (2, ONE)}, "F2": {2: (3, ONE)},
    "K1": {1: (1, _Q(-1)), 2: (2, _Q(1)), 3: (3, ONE)},
    "K2": {1: (1, ONE), 2: (2, _Q(-1)), 3: (3, _Q(1))},
}
# Delta(X_i) = X_i (x) K_i^m + K_i^n (x) X_i, with (m, n) by the kind of X
COPRODUCT_K_POWERS = {"E": (1, 0), "F": (0, -1)}

# The family, each member a polynomial in the generators as (coefficient,
# word) terms: the six slot duals, with Lusztig's root vectors
# E_a12 = E2 E1 - q^-1 E1 E2 and F_a12 = q^-1 K1 K2 (F1 F2 - q^-1 F2 F1),
# and the group-likes K1 and K2.
MEMBERS = {
    "K1": ((ONE, "K1"),), "K2": ((ONE, "K2"),),
    "E_a1": ((ONE, "E1"),), "E_a2": ((ONE, "E2"),),
    "E_a12": ((ONE, "E2 E1"), (-_Q(-1), "E1 E2")),
    "F_a1": ((ONE, "K1 F1"),), "F_a2": ((ONE, "K2 F2"),),
    "F_a12": ((_Q(-1), "K1 K2 F1 F2"), (-_Q(-2), "K1 K2 F2 F1")),
}


def _k_power(letter, power):
    """K_i^power for the letter X_i, as the factor (a, b) of K1^a K2^b."""
    return (power, 0) if letter[1] == "1" else (0, power)


def _q_exponent(value):
    """The exponent e of a matrix entry q^e; any other entry raises ValueError."""
    if value != Coefficient.q_power(exp := min(value.num.terms, default=0)):
        raise ValueError("the matrix entry %s is not a power of q" % value.render())
    return exp


@lru_cache(maxsize=None)
def _entry(factor, row):
    """The nonzero entry (column, e), meaning q^e, in the given row of a
    factor's matrix, or None: a letter's one entry, or the diagonal of K1^a K2^b."""
    if isinstance(factor, str):
        entry = GENERATORS[factor].get(row)
        return entry and (entry[0], _q_exponent(entry[1]))
    return row, sum(power * _q_exponent(GENERATORS[name][row][1])
                    for name, power in zip(("K1", "K2"), factor))


def _normal_form(factors):
    """A generator word as q^e times a state, (e, state): its E/F letters, then
    K1^a K2^b as (a, b).  K moves right past each E/F letter X after it by
    K X = (k_r / k_c) X K, for X's one matrix entry (r, c) and K's diagonal k."""
    letters, k, exp = [], (0, 0), 0
    for factor in factors:
        if isinstance(factor, str):
            if k != (0, 0):
                (row, (col, _)), = GENERATORS[factor].items()
                exp += _entry(k, row)[1] - _entry(k, col)[1]
            letters.append(factor)
        else:
            k = rootdata.add(k, factor)
    return exp, tuple(letters) + k


@lru_cache(maxsize=None)
def _member_states(*names):
    """The product of the named members as a sum of states, (state,
    LaurentPoly coefficient) with equal states added: the normal forms of the
    concatenated words of every choice of one term per member.  Every member
    coefficient must lie in Z[q, q^-1], that is, have denominator 1."""
    summed = {}
    for terms in product(*(MEMBERS[name] for name in names)):
        if any(c.den.terms != {0: 1} for c, _ in terms):
            raise ValueError("a coefficient of %s is not in Z[q, q^-1]" % " ".join(names))
        tokens = " ".join(word for _, word in terms).split()
        exp, state = _normal_form([_k_power(t, 1) if t[0] == "K" else t for t in tokens])
        value = prod((c.num for c, _ in terms), start=_L_ONE.shift(exp))
        summed[state] = summed.get(state, _L_ZERO) + value
    return tuple((state, c) for state, c in summed.items() if c.terms)


# -- grading -------------------------------------------------------------------


def _letter_word(state):
    """The u-word of a state's E/F letters: u_rc for each letter's one matrix entry (r, c).
    The coproduct puts a letter in one tensor slot and K powers, which are
    diagonal, in the others, so the letter moves one slot's index as u_rc does."""
    return u_word(*((row, col) for letter in state[:-2]
                    for row, (col, _) in GENERATORS[letter].items()))


def grade(*names):
    """The grade (weight, distance) of the product of the named members: the
    u_weight and u_distance of each state's letter word.  Raises
    AssertionError unless all states of the product have one grade."""
    found = {(u_weight(word), u_distance(word))
             for word in (_letter_word(state) for state, _ in _member_states(*names))}
    if len(found) != 1:
        raise AssertionError("%s has no single grade: %s" % (" ".join(names), sorted(found)))
    return found.pop()


@lru_cache(maxsize=None)
def letter_weights():
    """The weight of each cotangent letter, by index: that of its slot dual,
    which is the weight of the u-words whose coset lies on the letter.
    Raises AssertionError unless the six weights are distinct."""
    weights = tuple(grade(dual)[0] for dual in SLOT_DUALS)
    if len(set(weights)) != len(weights):
        raise AssertionError("two slot duals share a weight")
    return weights


def cotangent_weight(word):
    """Weight of a word of cotangent letter indices: the sum over its letters."""
    weights = letter_weights()
    return reduce(rootdata.add, (weights[k] for k in word), (0, 0, 0))


@lru_cache(maxsize=None)
def duals_by_weight(degree):
    """Weight -> (slots, names, distance) for every product of `degree` slot
    duals of that weight, in row-major order of the slots within each weight."""
    groups = {}
    for slots in product(range(len(SLOT_DUALS)), repeat=degree):
        names = tuple(SLOT_DUALS[slot] for slot in slots)
        weight, distance = grade(*names)
        groups.setdefault(weight, []).append((slots, names, distance))
    return {weight: tuple(group) for weight, group in groups.items()}


# -- pairing ------------------------------------------------------------------

_pair2_cache = {}


@lru_cache(maxsize=None)
def _steps(state, letter):
    """The (right state, e) terms, each the factor q^e, that pairing the state
    with the letter u_ij leaves on the rest of a word; right states may repeat.

    A K power goes to both legs.  Otherwise Delta(X s) = Delta(X) Delta(s)
    for the first letter X = X_i and the state s of the rest: Delta(X) puts
    X on the left leg and K_i^m on the right, or K_i^n on the left and X on
    the right, and the left legs of X and s multiply as matrices."""
    row, col = divmod(letter, 3)
    if len(state) == 2:
        return ((state, _entry(state, row + 1)[1]),) if row == col else ()
    first, rest = state[0], state[1:]
    m, n = COPRODUCT_K_POWERS[first[0]]
    terms = []
    for left, right in ((first, _k_power(first, m)), (_k_power(first, n), first)):
        entry = _entry(left, row + 1)
        if entry:
            middle, exp = entry
            for target, step in _steps(rest, u_index(middle, col + 1)):
                shift, moved = _normal_form([right, *target[:-2], target[-2:]])
                terms.append((moved, exp + step + shift))
    return tuple(terms)


def _pair_word(state, word) -> LaurentPoly:
    """Pairing of a state with a u-word: the sum of q^(e_1 + ... + e_k) over
    the paths of steps through the word's letters that end on a K power (the
    counit is 1 on a K power, 0 on an E/F letter).  Each step is the single
    factor q^e, so the paths are counted, {exponent: count}, and one
    LaurentPoly is built from the counts."""
    counts = {}
    _count_paths(state, word, 0, counts)
    return LaurentPoly(counts)


def _count_paths(state, word, exp, counts):
    """Add 1 at exp plus the path's steps for each path of the state through
    the word that ends on a K power."""
    if word:
        rest = word[1:]
        for right, step in _steps(state, word[0]):
            _count_paths(right, rest, exp + step, counts)
    elif len(state) == 2:
        counts[exp] = counts.get(exp, 0) + 1


def _pair_states(states, word) -> Coefficient:
    """Pairing of a sum of (state, LaurentPoly) terms against a u-word."""
    total = _L_ZERO
    for state, c in states:
        value = _pair_word(state, word)
        if value.terms:
            total = total + c * value
    return Coefficient(total) if total.terms else ZERO


def pair(name, word) -> Coefficient:
    """Pairing of the named member against a u-word."""
    return _pair_states(_member_states(name), word)


def _pair2_word(x, y, word) -> Coefficient:
    """Pairing of the product x*y against a u-word, through its states."""
    key = (x, y, word)
    value = _pair2_cache.get(key)
    if value is None:
        value = _pair2_cache[key] = _pair_states(_member_states(x, y), word)
    return value


# -- cotangent tensors ----------------------------------------------------------


def cotangent(*letters) -> NCPolynomial:
    """The basis tensor l_1 (x) ... (x) l_k of V1^(x)k."""
    return NCPolynomial.monomial(COTANGENT_ALPHABET, COTANGENT_ALPHABET.word(*letters))


def _cotangent_map(poly: NCPolynomial, degree: int, pairing) -> NCPolynomial:
    """The coset map of the given degree, a tensor of V1^(x)degree: its
    coefficient on the word of slots (s_1, ..., s_k) is the pairing of the
    product of their duals against the input, pairing(*names, word).  Each
    word is paired only with the products of its weight whose distance, their
    letter count, reaches its own; the others pair to zero with it."""
    groups = duals_by_weight(degree)
    terms = {}
    for word, coeff in poly.terms.items():
        distance = u_distance(word)
        for slots, names, reach in groups.get(u_weight(word), ()):
            if reach >= distance:
                value = pairing(*names, word)
                if not value.is_zero():
                    terms[slots] = terms.get(slots, ZERO) + coeff * value
    return NCPolynomial(COTANGENT_ALPHABET, terms)


def coset(poly: NCPolynomial) -> NCPolynomial:
    """Coset of a u-polynomial in the cotangent space, a degree-1 tensor: the
    component on each basis vector is the pairing with its dual functional.
    Constants die automatically since all six vanish on 1."""
    return _cotangent_map(poly, 1, pair)


def counit(poly: NCPolynomial) -> Coefficient:
    """Counit: the product of Kronecker deltas over a word's letters, 1 exactly at distance 0."""
    return sum((c for word, c in poly.terms.items() if not u_distance(word)), ZERO)


def plus_part(poly: NCPolynomial) -> NCPolynomial:
    """Counit correction y - eps(y) 1."""
    return poly - NCPolynomial.monomial(U_ALPHABET, (), counit(poly))


def omega(poly: NCPolynomial) -> NCPolynomial:
    """The degree-two coset map, a tensor of V1 (x) V1: its coefficient on
    the word (r, c) is the pairing of the product of the r-th and c-th dual
    functionals against the input (left tensor leg first)."""
    if not counit(poly).is_zero():
        raise ValueError("omega requires a counit-zero input; subtract eps(y) first")
    return _cotangent_map(poly, 2, _pair2_word)


def _advance(legs, path):
    """The leg through the u-letters of path, (slot, state) -> LaurentPoly, memoised in
    legs by path from the start at (): the leg at path[:-1] stepped through path[-1]."""
    if path not in legs:
        out = {}
        for (slot, state), value in _advance(legs, path[:-1]).items():
            for right, step in _steps(state, path[-1]):
                key, moved = (slot, right), value.shift(step) if step else value
                out[key] = out[key] + moved if key in out else moved
        legs[path] = {key: value for key, value in out.items() if value.terms}
    return legs[path]


def omega_by_expansion(poly: NCPolynomial) -> NCPolynomial:
    """Reference implementation of omega by explicit expansion of the matrix
    coproduct over all intermediate index tuples (for cross-checks).

    It pairs only through single states: u_(i1 j1)...u_(ik jk) splits into
    u_(i1 a1)...u_(ik ak) (x) u_(a1 j1)...u_(ak jk).  One depth-first walk
    per word chooses a_1, ..., a_k from left to right; each leg carries the
    states that the slot duals' states step to on its prefix, keyed by slot,
    until either leg has none left; the call memoises each leg by the letters
    it stepped through, as both start from one map.  At a full index tuple
    the K-power states give each slot's value (the counit is 1 on a K power,
    0 on an E/F letter), and the product of the legs' values is the (r, c) entry."""
    if not counit(poly).is_zero():
        raise ValueError("omega requires a counit-zero input")
    terms = {}
    legs = {(): {(slot, state): c for slot, dual in enumerate(SLOT_DUALS)
                 for state, c in _member_states(dual)}}

    def slot_values(path):
        values = {}
        for (slot, state), value in _advance(legs, path).items():
            if len(state) == 2:
                values[slot] = values.get(slot, _L_ZERO) + value
        return values

    def walk(word, coeff, left, right):
        if not word:
            rv = slot_values(right)
            for r, x in slot_values(left).items():
                for c, y in rv.items():
                    terms[r, c] = terms.get((r, c), ZERO) + coeff * Coefficient(x * y)
            return
        row, col = divmod(word[0], 3)
        for a in range(3):
            left_a, right_a = left + (3 * row + a,), right + (3 * a + col,)
            if _advance(legs, left_a) and _advance(legs, right_a):
                walk(word[1:], coeff, left_a, right_a)

    for word, coeff in poly.terms.items():
        walk(word, coeff, (), ())
    return NCPolynomial(COTANGENT_ALPHABET, terms)


def omega_render(tensor: NCPolynomial) -> str:
    """A tensor of V1 (x) V1, written with (x) between its legs."""
    return tensor.render().replace(".", "(x)")


# -- right module action ---------------------------------------------------------


@lru_cache(maxsize=None)
def _letter_action():
    """The sparse action of each of the nine letters on the cotangent basis,
    by letter index: a map source slot -> list of (target slot, Coefficient).

    Each slot dual pairs nonzero with one letter, the slot's representative
    u_s, by v_s; u_ij moves the slot to coset(u_s u_ij) / v_s.  Raises
    AssertionError unless every slot has a representative and coset(x u_ij)
    is the action on coset(x) for every letter u_ij and every
    counit-corrected word x of length one or two.
    """
    def coset_of(word):  # as slot -> Coefficient
        poly = coset(NCPolynomial.monomial(U_ALPHABET, word))
        return {slot: value for (slot,), value in poly.terms.items()}

    # a slot's representative is the one letter whose coset lies on it
    representatives = {slot: (letter, value) for letter in range(9)
                       for slot, value in coset_of((letter,)).items()}
    if len(representatives) != len(SLOT_DUALS):
        raise AssertionError("a slot dual pairs with no single letter")
    actions = tuple({source: [(target, value / v) for target, value in coset_of((rep, letter)).items()]
                     for source, (rep, v) in representatives.items()}
                    for letter in range(9))
    for word in (w for k in (1, 2) for w in product(range(9), repeat=k)):
        counit_one = not u_distance(word)
        base = coset_of(word)
        for letter, action in enumerate(actions):
            # x = w - eps(w): coset(x) = coset(w), coset(x u) = coset(w u) - eps(w) coset(u)
            expected = coset_of((letter,)) if counit_one else {}
            for source, coeff in base.items():
                for target, value in action[source]:
                    expected[target] = expected.get(target, ZERO) + coeff * value
            if coset_of(word + (letter,)) != {t: v for t, v in expected.items() if not v.is_zero()}:
                raise AssertionError("the coset of x %s for x = %s - eps is not the action on "
                                     "coset(x)" % (U_ALPHABET.letters[letter], U_ALPHABET.render_word(word)))
    return actions


def _act_word(word, i: int, j: int) -> dict:
    """u_ij on one basis word, as a map word -> Coefficient: the sum over a
    of (first slot).u_ia (x) (the rest).u_aj, and delta_ij on the empty word."""
    if not word:
        return {(): ONE} if i == j else {}
    out = {}
    for a in (1, 2, 3):
        moves = _letter_action()[u_index(i, a)].get(word[0])
        if not moves:
            continue
        tails = _act_word(word[1:], a, j)
        for target, scale in moves:
            for tail, value in tails.items():
                key = (target,) + tail
                out[key] = out.get(key, ZERO) + scale * value
    return out


def right_act(tensor: NCPolynomial, poly: NCPolynomial) -> NCPolynomial:
    """Right action of a u-polynomial on a tensor of any degree, letter by
    letter and extended linearly.  A letter u_ij acts on a word s_1...s_k
    through its k-fold coproduct: the sum over a_1..a_(k-1), with a_0 = i and
    a_k = j, of s_1.u_(a_0 a_1) (x) ... (x) s_k.u_(a_(k-1) a_k)."""
    total = {}
    for word, coeff in poly.terms.items():
        current = tensor.terms
        for letter in word:
            i, j = divmod(letter, 3)
            moved = {}
            for tword, tcoeff in current.items():
                for target, value in _act_word(tword, i + 1, j + 1).items():
                    moved[target] = moved.get(target, ZERO) + tcoeff * value
            current = {w: c for w, c in moved.items() if not c.is_zero()}
            if not current:
                break
        for w, c in current.items():
            total[w] = total.get(w, ZERO) + coeff * c
    return NCPolynomial(tensor.alphabet, total)


# -- antipode and flag generators --------------------------------------------------


def antipode_word(i: int, j: int) -> NCPolynomial:
    """Quadratic expansion of S(u_ij): (-q)^(i-j) (u_km u_ln - q u_kn u_lm),
    with {k, l} and {m, n} the complements of {j} and {i} in increasing order."""
    k, l = sorted({1, 2, 3} - {j})
    m, n = sorted({1, 2, 3} - {i})
    sign = Coefficient.from_rational((-1) ** abs(i - j)) * Coefficient.q_power(i - j)
    first = u_monomial((k, m), (l, n), coeff=sign)
    second = u_monomial((k, n), (l, m), coeff=sign * (-Coefficient.q_power(1)))
    return first + second


@lru_cache(maxsize=None)
def all_flag_generators():
    """The eighteen generators z^{alpha_p}_{ab} = u_(a,c) S(u_(c,b)), with
    c = 1 for p = 1 and c = 3 for p = 2, keyed (p, a, b): built on first use
    and shared read-only."""
    return MappingProxyType({
        (p, a, b): u_monomial((a, col)) * antipode_word(col, b)
        for p, col in ((1, 1), (2, 3)) for a in (1, 2, 3) for b in (1, 2, 3)})


def flag_generator(p: int, a: int, b: int) -> NCPolynomial:
    """The flag-algebra generator z^{alpha_p}_{ab} as a u-polynomial."""
    try:
        return all_flag_generators()[p, a, b]
    except KeyError:
        raise ValueError("no flag generator (p, a, b) = (%r, %r, %r): p must be "
                         "1 or 2, and a and b 1, 2 or 3" % (p, a, b)) from None
