"""Dual-pairing engine for the quantum coordinate algebra of SU_q(3).

A closed family of twelve functionals is represented by 3x3 evaluation
matrices on the generators u_ij together with finite coproduct expansions
inside the family.  From these we obtain pairings against words in the u_ij,
coset maps onto the six-dimensional cotangent space V1, the two-fold
coproduct map omega, and the right module action on tensors of V1, derived
from the coproducts of the six slot duals.  A tensor of V1^(x)k is a
degree-k polynomial over the cotangent alphabet.

The pairing is graded by weight.  The letter u_ij has weight e_i - e_j, a
word the sum of its letters' weights, and each member of the family the
weight of the positions of its nonzero evaluation entries (0 for the
group-likes).  ``functional_weights`` derives these and checks that every
coproduct term preserves them, so by induction on word length a member pairs
to zero with every word of another weight, and a product x*y with every word
whose weight is not wt(x) + wt(y).  ``omega`` tries only the dual pairs of
the word's weight, and ``coset`` only the one slot dual of that weight; the
pairing recursion below a matching call needs no test, since every call it
makes matches too.  Each pairing has one memo: ``_pair_cache`` for single
functionals, which ``coset`` reads too, and ``_pair2_cache`` for products.

The eighteen flag generators z^{alpha_p}_{ab} are built once, on first use,
into one read-only table that every caller shares.

``omega_by_expansion`` checks omega independently: it pairs only through
single functionals, in one depth-first walk per word over the intermediate
index tuples, from the right end of the word, and caches nothing per word.
It reads no weight, so it also checks that the pruning drops only zeros.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import rootdata
from .ncpoly import Alphabet, NCPolynomial
from .scalar import Coefficient, ONE, ZERO

U_ALPHABET = Alphabet(tuple("u%d%d" % (i, j) for i in (1, 2, 3) for j in (1, 2, 3)))

# the cotangent alphabet, one letter per basis slot in the rank order of the
# exterior algebra: a degree-k polynomial in it is a tensor of V1^(x)k
COTANGENT_ALPHABET = Alphabet(rootdata.LETTERS)
# the dual functional of each slot
SLOT_DUALS = ("F_a2", "F_a12", "F_a1", "E_a2", "E_a12", "E_a1")


def u_index(i: int, j: int) -> int:
    return (i - 1) * 3 + (j - 1)


def u_word(*pairs):
    return tuple(u_index(i, j) for i, j in pairs)


def u_monomial(*pairs, coeff=ONE) -> NCPolynomial:
    return NCPolynomial.monomial(U_ALPHABET, u_word(*pairs), coeff)


class Functional:
    """A member of the closed dual family: evaluation matrix plus coproduct."""

    __slots__ = ("name", "eval", "coproduct", "counit")

    def __init__(self, name, eval_matrix, coproduct, counit):
        self.name = name
        self.eval = eval_matrix          # 3x3 nested tuple of Coefficient
        self.coproduct = coproduct       # tuple of (left name, right name, scale)
        self.counit = counit


def _matmul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(3)), ZERO) for j in range(3))
        for i in range(3))


def _matscale(a, c):
    return tuple(tuple(entry * c for entry in row) for row in a)


def _matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def _single(i, j, value):
    return tuple(
        tuple(value if (r, c) == (i - 1, j - 1) else ZERO for c in range(3))
        for r in range(3))


def _diag(*values):
    return tuple(
        tuple(values[r] if r == c else ZERO for c in range(3)) for r in range(3))


@lru_cache(maxsize=None)
def functional_table():
    """The twelve-member closed family, with composites built by matrix products."""
    q = Coefficient.q_power
    nu = Coefficient.nu()

    # primitive pairing data for the generators of the enveloping algebra
    E1 = _single(2, 1, ONE)
    E2 = _single(3, 2, ONE)
    F1 = _single(1, 2, ONE)
    F2 = _single(2, 3, ONE)
    K1 = _diag(q(-1), q(1), ONE)
    K2 = _diag(ONE, q(-1), q(1))
    IDENT = _diag(ONE, ONE, ONE)

    K1K2 = _matmul(K1, K2)
    E_a12 = _matadd(_matmul(E2, E1), _matscale(_matmul(E1, E2), -q(-1)))
    F_a1 = _matmul(K1, F1)
    F_a2 = _matmul(K2, F2)
    bracket = _matadd(_matmul(F1, F2), _matscale(_matmul(F2, F1), -q(-1)))
    F_a12 = _matscale(_matmul(K1K2, bracket), q(-1))
    E_a2K1 = _matmul(E2, K1)
    F_a2K1 = _matmul(F_a2, K1)

    table = {}

    def define(name, matrix, coproduct, grouplike=False):
        table[name] = Functional(name, matrix, tuple(coproduct),
                                 ONE if grouplike else ZERO)

    define("eps", IDENT, [("eps", "eps", ONE)], grouplike=True)
    define("K1", K1, [("K1", "K1", ONE)], grouplike=True)
    define("K2", K2, [("K2", "K2", ONE)], grouplike=True)
    define("K1K2", K1K2, [("K1K2", "K1K2", ONE)], grouplike=True)
    define("E_a1", E1, [("E_a1", "K1", ONE), ("eps", "E_a1", ONE)])
    define("E_a2", E2, [("E_a2", "K2", ONE), ("eps", "E_a2", ONE)])
    define("E_a2K1", E_a2K1, [("E_a2K1", "K1K2", ONE), ("K1", "E_a2K1", ONE)])
    define("E_a12", E_a12, [("E_a12", "K1K2", ONE),
                            ("E_a1", "E_a2K1", q(-1) * nu),
                            ("eps", "E_a12", ONE)])
    define("F_a1", F_a1, [("F_a1", "K1", ONE), ("eps", "F_a1", ONE)])
    define("F_a2", F_a2, [("F_a2", "K2", ONE), ("eps", "F_a2", ONE)])
    define("F_a2K1", F_a2K1, [("F_a2K1", "K1K2", ONE), ("K1", "F_a2K1", ONE)])
    define("F_a12", F_a12, [("F_a12", "K1K2", ONE),
                            ("F_a1", "F_a2K1", nu),
                            ("eps", "F_a12", ONE)])
    return table


# -- weight grading -----------------------------------------------------------


def u_weight(word):
    """Weight of a u-word in epsilon-coordinates: the sum of e_i - e_j over
    its letters u_ij."""
    weight = [0, 0, 0]
    for letter in word:
        row, col = divmod(letter, 3)
        weight[row] += 1
        weight[col] -= 1
    return tuple(weight)


@lru_cache(maxsize=None)
def functional_weights():
    """The weight of each family member, read off its evaluation matrix: the
    entry (r, c) pairs with u_rc, of weight e_r - e_c.

    Raises AssertionError unless each member's nonzero entries agree on one
    weight, a member with nonzero counit has weight 0, and every coproduct
    term (left, right, scale) has wt(left) + wt(right) equal to the member's
    weight.  The counit check is the base case, and the other two are the
    step, of the induction on word length that makes a member vanish on
    words of any other weight.
    """
    table = functional_table()
    weights = {}
    for name, functional in table.items():
        found = {u_weight((3 * r + c,)) for r in range(3) for c in range(3)
                 if not functional.eval[r][c].is_zero()}
        if len(found) != 1:
            raise AssertionError("%s has no single weight: %s" % (name, sorted(found)))
        weights[name] = found.pop()
        if not functional.counit.is_zero() and any(weights[name]):
            raise AssertionError("%s has a nonzero counit off weight 0" % name)
    for name, functional in table.items():
        for left, right, _ in functional.coproduct:
            if rootdata.add(weights[left], weights[right]) != weights[name]:
                raise AssertionError("%s has a coproduct term %s (x) %s of another weight"
                                     % (name, left, right))
    return weights


# -- pairing ------------------------------------------------------------------

# A pairing against a word is read letter by letter: pairing a functional with
# u_ij w is the sum over its coproduct terms (left, right, scale) of
# scale * left(u_ij) * right(w).  The per-letter transitions below hold those
# sums with the evaluations already taken, so the recursion only walks them.

_pair_cache = {}
_pair2_cache = {}


@lru_cache(maxsize=None)
def _steps(name):
    """For each of the nine letters, the nonzero (right, factor) terms that
    pairing the named functional with that letter leaves on the rest."""
    table = functional_table()
    coproduct = table[name].coproduct
    return tuple(
        tuple((right, scale * table[left].eval[i][j])
              for left, right, scale in coproduct
              if not table[left].eval[i][j].is_zero())
        for i in range(3) for j in range(3))


@lru_cache(maxsize=None)
def _steps2(x, y):
    """For each of the nine letters, the nonzero ((rx, ry), factor) terms of
    the product functional x*y: its coproduct is the product of the two
    coproducts, and a left leg lx*ly evaluates by the matrix product."""
    table = functional_table()
    merged = [{} for _ in range(9)]
    for lx, rx, sx in table[x].coproduct:
        for ly, ry, sy in table[y].coproduct:
            matrix = _matmul(table[lx].eval, table[ly].eval)
            for letter, terms in enumerate(merged):
                entry = matrix[letter // 3][letter % 3]
                if not entry.is_zero():
                    terms[rx, ry] = terms.get((rx, ry), ZERO) + sx * sy * entry
    return tuple(tuple((target, factor) for target, factor in terms.items()
                       if not factor.is_zero())
                 for terms in merged)


def _pair_word(name, word) -> Coefficient:
    key = (name, word)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    if not word:
        value = functional_table()[name].counit
    else:
        rest = word[1:]
        value = ZERO
        for right, factor in _steps(name)[word[0]]:
            tail = _pair_word(right, rest)
            if not tail.is_zero():
                value = value + factor * tail
    _pair_cache[key] = value
    return value


def _pair2_word(x, y, word) -> Coefficient:
    """Pairing of the product functional x*y against a word.

    Equals the sum over all intermediate index tuples of the matrix coproduct
    of the word, paired with x on the left leg and y on the right leg.
    """
    key = (x, y, word)
    hit = _pair2_cache.get(key)
    if hit is not None:
        return hit
    if not word:
        table = functional_table()
        value = table[x].counit * table[y].counit
    else:
        rest = word[1:]
        value = ZERO
        for (rx, ry), factor in _steps2(x, y)[word[0]]:
            tail = _pair2_word(rx, ry, rest)
            if not tail.is_zero():
                value = value + factor * tail
    _pair2_cache[key] = value
    return value


# -- cotangent tensors ----------------------------------------------------------


def cotangent(*letters, coeff=ONE) -> NCPolynomial:
    """The basis tensor l_1 (x) ... (x) l_k of V1^(x)k, times coeff."""
    return NCPolynomial.monomial(
        COTANGENT_ALPHABET, COTANGENT_ALPHABET.word(*letters), coeff)


@lru_cache(maxsize=None)
def _slot_dual_by_weight():
    """Weight -> (slot, dual): the six slot duals have distinct weights."""
    weights = functional_weights()
    by_weight = {weights[dual]: (slot, dual) for slot, dual in enumerate(SLOT_DUALS)}
    if len(by_weight) != len(SLOT_DUALS):
        raise AssertionError("two slot duals share a weight")
    return by_weight


def coset(poly: NCPolynomial) -> NCPolynomial:
    """Coset of a u-polynomial in the cotangent space, a degree-1 tensor.

    The component on each basis vector is the pairing with its dual
    functional, so a word meets at most one slot: the one whose dual has the
    word's weight.  Constants die automatically since all six vanish on 1.
    """
    by_weight = _slot_dual_by_weight()
    terms = {}
    for word, coeff in poly.terms.items():
        match = by_weight.get(u_weight(word))
        if match is not None:
            slot, dual = match
            terms[(slot,)] = terms.get((slot,), ZERO) + coeff * _pair_word(dual, word)
    return NCPolynomial(COTANGENT_ALPHABET, terms)


def counit(poly: NCPolynomial) -> Coefficient:
    """Counit: the product of Kronecker deltas over each word's letters."""
    total = ZERO
    for word, coeff in poly.terms.items():
        if all(divmod(letter, 3)[0] == divmod(letter, 3)[1] for letter in word):
            total = total + coeff
    return total


def plus_part(poly: NCPolynomial) -> NCPolynomial:
    """Counit correction y - eps(y) 1."""
    return poly - NCPolynomial.monomial(U_ALPHABET, (), counit(poly))


@lru_cache(maxsize=None)
def _dual_pairs_by_weight():
    """Weight -> the dual pairs ((r, c), x, y) with wt(x) + wt(y) equal to
    it, in row-major order of (r, c) within each weight."""
    weights = functional_weights()
    groups = {}
    for r, x in enumerate(SLOT_DUALS):
        for c, y in enumerate(SLOT_DUALS):
            weight = rootdata.add(weights[x], weights[y])
            groups.setdefault(weight, []).append(((r, c), x, y))
    return {weight: tuple(pairs) for weight, pairs in groups.items()}


def omega(poly: NCPolynomial) -> NCPolynomial:
    """The degree-two coset map, a tensor of V1 (x) V1: its coefficient on
    the word (r, c) is the pairing of the product of the r-th and c-th dual
    functionals against the input (left tensor leg first).  Each word is
    paired only with the dual pairs of its weight."""
    if not counit(poly).is_zero():
        raise ValueError("omega requires a counit-zero input; subtract eps(y) first")
    groups = _dual_pairs_by_weight()
    terms = {}
    for word, coeff in poly.terms.items():
        for key, x, y in groups.get(u_weight(word), ()):
            value = _pair2_word(x, y, word)
            if not value.is_zero():
                terms[key] = terms.get(key, ZERO) + coeff * value
    return NCPolynomial(COTANGENT_ALPHABET, terms)


@lru_cache(maxsize=None)
def _steps_into(letter):
    """The single-functional transitions of one letter read backwards: a map
    right leg -> tuple of (functional, factor), so that X(u_letter w) is the
    sum of factor * right(w) over the entries that name X."""
    back = {}
    for name in functional_table():
        for right, factor in _steps(name)[letter]:
            back.setdefault(right, []).append((name, factor))
    return {right: tuple(terms) for right, terms in back.items()}


def _prepend(letter, suffix):
    """The nonzero pairings of the twelve functionals with u_letter w, from
    their pairings with w (a map functional name -> Coefficient)."""
    into = _steps_into(letter)
    out = {}
    for right, value in suffix.items():
        for name, factor in into.get(right, ()):
            out[name] = out.get(name, ZERO) + factor * value
    return {name: value for name, value in out.items() if not value.is_zero()}


def omega_by_expansion(poly: NCPolynomial) -> NCPolynomial:
    """Reference implementation of omega by explicit expansion of the matrix
    coproduct over all intermediate index tuples (for cross-checks).

    It pairs only through single functionals: u_(i1 j1)...u_(ik jk) splits
    into u_(i1 a1)...u_(ik ak) (x) u_(a1 j1)...u_(ak jk).  One depth-first
    walk per word chooses a_k, ..., a_1 from the right end and carries the
    pairings of every functional with the suffix of each leg; a branch stops
    once either leg pairs to zero with all of them.  At a full index tuple the
    slot duals' pairings with the two legs give the coefficient on (r, c)."""
    if not counit(poly).is_zero():
        raise ValueError("omega requires a counit-zero input")
    empty = {name: f.counit for name, f in functional_table().items()
             if not f.counit.is_zero()}
    terms = {}

    def walk(word, coeff, depth, left, right):
        if not depth:
            for r, x in enumerate(SLOT_DUALS):
                lv = left.get(x)
                if lv is None:
                    continue
                for c, y in enumerate(SLOT_DUALS):
                    rv = right.get(y)
                    if rv is not None:
                        terms[r, c] = terms.get((r, c), ZERO) + coeff * (lv * rv)
            return
        row, col = divmod(word[depth - 1], 3)
        for a in range(3):
            left_a = _prepend(3 * row + a, left)
            if left_a:
                right_a = _prepend(3 * a + col, right)
                if right_a:
                    walk(word, coeff, depth - 1, left_a, right_a)

    for word, coeff in poly.terms.items():
        walk(word, coeff, len(word), empty, empty)
    return NCPolynomial(COTANGENT_ALPHABET, terms)


def omega_render(tensor: NCPolynomial) -> str:
    """A tensor of V1 (x) V1, written with (x) between its legs."""
    return tensor.render().replace(".", "(x)")


# -- right module action ---------------------------------------------------------

@lru_cache(maxsize=None)
def _letter_action(i: int, j: int):
    """Sparse action of u_ij on the cotangent basis: a map source slot ->
    list of (target slot, Coefficient), read off the slot duals' coproducts.

    For x with eps(x) = 0, the coset of x u_ij has on slot t the value
    X_t(x u_ij): the sum over the coproduct terms (left, right, scale) of the
    dual X_t of scale * left(x) * right(u_ij).  A slot dual as left leg reads
    the coset of x on its slot; eps vanishes on x.
    """
    table = functional_table()
    action = {}
    for target, dual in enumerate(SLOT_DUALS):
        for left, right, scale in table[dual].coproduct:
            if left == "eps":
                continue
            if left not in SLOT_DUALS:
                raise AssertionError("%s has a left leg %s off the cotangent space"
                                     % (dual, left))
            value = scale * table[right].eval[i - 1][j - 1]
            if not value.is_zero():
                action.setdefault(SLOT_DUALS.index(left), []).append((target, value))
    return action


def _act_word(word, i: int, j: int) -> dict:
    """u_ij on one basis word, as a map word -> Coefficient: the sum over a
    of (first slot).u_ia (x) (the rest).u_aj, and delta_ij on the empty word."""
    if not word:
        return {(): ONE} if i == j else {}
    out = {}
    for a in (1, 2, 3):
        moves = _letter_action(i, a).get(word[0])
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
