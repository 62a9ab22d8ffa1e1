import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qflag3 import linalg
from qflag3.flagext import associated_graded, build_relations
from qflag3.scalar import _LP_ONE, Coefficient, LaurentPoly, ONE, ZERO

Q = Coefficient.q_power
NU = Coefficient.nu()


def _apply(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), ZERO) for row in matrix]


def test_solve_with_nontrivial_denominators(time_limit):
    matrix = [[Q(1), ONE / (Q(1) + ONE), ZERO],
              [NU, Q(2) - ONE, ONE / NU],
              [ZERO, Q(-1), Q(1) + Q(-1)]]
    rhs = [ONE, ZERO, ONE / (Q(2) + ONE)]
    with time_limit(2):
        x = linalg.solve(matrix, rhs)
    assert x is not None
    assert _apply(matrix, x) == rhs
    assert any(c.den != ONE.den for c in x)


def test_solve_returns_none_on_a_singular_matrix(time_limit):
    row = [Q(1), NU, ONE / (Q(1) + ONE)]
    matrix = [row, [c * NU for c in row], [ONE, ZERO, Q(3)]]
    with time_limit(2):
        assert linalg.solve(matrix, [ONE, ZERO, ZERO]) is None


def test_solve_rejects_a_non_square_system():
    # with n = 2, column 2 would share its key with the right-hand side
    with pytest.raises(ValueError):
        linalg.solve([[ONE, ZERO, ONE], [ZERO, ONE, ZERO]], [ONE, ONE])
    with pytest.raises(ValueError):
        linalg.solve([[ONE, ZERO], [ZERO, ONE]], [ONE, ONE, ONE])


def _degree_3_ideal_rows(system):
    """u*(lhs - rhs)*v for single letters u or v, keyed by word."""
    rows = []
    for rule in system.rules:
        relation = [(rule.lhs, ONE)] + [(w, -c) for w, c in rule.rhs.terms.items()]
        for letter in range(len(system.alphabet)):
            rows.append({(letter,) + w: c for w, c in relation})
            rows.append({w + (letter,): c for w, c in relation})
    return rows


def test_degree_3_ideal_rank_matches_the_oracle(time_limit):
    # 216 words minus the oracle's dimensions 16 (full) and 20 (graded)
    with time_limit(5):
        assert linalg.rank(_degree_3_ideal_rows(build_relations().system)) == 200
        assert linalg.rank(_degree_3_ideal_rows(associated_graded().system)) == 196


def _cleared(values):
    """A Laurent polynomial with Fraction term values as (integer polynomial,
    positive int d): its values times d, the lcm of their denominators."""
    lcm = math.lcm(*(value.denominator for value in values.values()))
    return LaurentPoly({exp: value * lcm for exp, value in values.items()}), lcm


def _over(num, den):
    """The Coefficient num / den of two cleared polynomials (p, a) and (r, b):
    (p/a) / (r/b) = (b*p) / (a*r)."""
    (p, a), (r, b) = num, den
    return Coefficient(p * LaurentPoly({0: b}), r * LaurentPoly({0: a}))


def _rational_function(rng):
    """p/r with 1-3 terms each, exponents in [-3, 3] and values n/d, |n| <= 12, d <= 3."""
    p, r = ({rng.randint(-3, 3): Fraction(rng.randint(-12, 12) or 1, rng.randint(1, 3))
             for _ in range(rng.randint(1, 3))} for _ in range(2))
    return _over(_cleared(p), _cleared(r))


def test_rank_of_general_rational_function_entries(time_limit):
    # three dense rows on columns 0-2 and three combinations a*c + b of them;
    # a Euclid gcd with unreduced rational remainders took about 30 s here
    rng = random.Random(32)
    rows = [{j: _rational_function(rng) for j in range(3)} for _ in range(3)]
    for _ in range(3):
        a, b, c = rng.choice(rows), rng.choice(rows), _rational_function(rng)
        rows.append({j: a[j] * c + b[j] for j in range(3)})
    with time_limit(5):
        assert linalg.rank(rows) == 3


# -- Coefficient is a field ----------------------------------------------------

# a Laurent polynomial with rational term values, as _cleared gives it
laurent = st.dictionaries(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=3).map(_cleared)
nonzero_laurent = laurent.filter(lambda p: not p[0].is_zero())
coefficients = st.builds(_over, laurent, nonzero_laurent)
nonzero = coefficients.filter(lambda c: not c.is_zero())

_SETTINGS = settings(max_examples=50, deadline=None)


@_SETTINGS
@given(coefficients, coefficients, coefficients)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a and a * ONE == a
    assert (a - a).is_zero() and a + (-a) == ZERO


@_SETTINGS
@given(coefficients, nonzero)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a
    assert b / b == ONE


@_SETTINGS
@given(laurent, nonzero_laurent, nonzero_laurent)
def test_equality_is_cross_multiplication(num, den, factor):
    a = _over(num, den)
    (p, a_den), (r, b_den), (f, f_den) = num, den, factor
    assert _over((p * f, a_den * f_den), (r * f, b_den * f_den)) == a


@_SETTINGS
@given(coefficients, coefficients)
def test_equality_agrees_with_cross_multiplication(a, b):
    assert (a == b) == (a.num * b.den == b.num * a.den)


@_SETTINGS
@given(nonzero_laurent, st.fractions(min_value=-5, max_value=5).filter(bool))
def test_canonical_denominator(den, value):
    c = _over(_cleared({0: value}), den)
    assume(set(c.den.terms) != {0})
    assert c.den.min_exp() == 0 and c.den.leading_coeff() > 0
    assert all(type(x) is int for x in c.den.terms.values())
    assert c == Coefficient.from_rational(Fraction(value)) / _over(den, _cleared({0: 1}))


# -- the elimination kernel ------------------------------------------------------


def _combination(a, b, c):
    combo = {j: a.get(j, ZERO) * c + b.get(j, ZERO) for j in set(a) | set(b)}
    return {j: value for j, value in combo.items() if not value.is_zero()}


@st.composite
def sparse_rows(draw):
    """Up to three sparse rows on columns 0-2, then up to two combinations of
    them, so that dependent rows are common."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, 2), nonzero, max_size=3),
                         max_size=3))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(_combination(a, b, draw(nonzero)))
    return rows


# fixed examples, each under a time limit: general Q(q) entries stress the gcd
_KERNEL_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)


@_KERNEL_SETTINGS
@given(sparse_rows())
def test_pivots_span_the_rows_in_tail_form(time_limit, rows):
    copies = [dict(row) for row in rows]
    pivots = {}
    with time_limit(5):
        inserted = sum(1 for row in rows if linalg.insert_pivot(row, pivots))
        assert inserted == len(pivots) == linalg.rank(rows) == linalg.rank(rows[::-1])
        assert all(j > lead for lead, tail in pivots.items() for j in tail)
        assert not any(linalg.reduce(row, pivots) for row in rows)
    assert rows == copies


def test_reduce_asks_the_lookup_only_on_a_miss():
    # lead 0 has a pivot; the lookup derives and stores the pivot at 1, so
    # the second reduction finds it in the set, and it has none at 2
    pivots, asked = {0: {1: ONE}}, []

    def lookup(lead):
        asked.append(lead)
        if lead != 1:
            return None
        tail = pivots[1] = {2: -ONE}
        return tail
    assert linalg.reduce({0: ONE}, {0: {1: ONE}}) == {1: ONE}
    assert linalg.reduce({0: ONE}, pivots, lookup) == {2: -ONE}
    assert asked == [1, 2]
    assert linalg.reduce({0: ONE, 1: ONE}, pivots, lookup) == {2: -(ONE + ONE)}
    assert asked == [1, 2, 2]


@_KERNEL_SETTINGS
@given(sparse_rows(), st.data())
def test_a_lookup_stands_in_for_the_pivots_it_derives(time_limit, rows, data):
    # with part of a pivot set held and the rest derived by a lookup, every
    # remainder is the one the whole set gives, with or without lookup=None
    pivots = {}
    with time_limit(5):
        for row in rows:
            linalg.insert_pivot(row, pivots)
        held = {lead: tail for lead, tail in pivots.items() if data.draw(st.booleans())}

        def lookup(lead):
            assert lead not in held
            return pivots.get(lead)
        for row in rows + [{j: ONE for j in range(3)}]:
            remainder = linalg.reduce(row, pivots)
            assert linalg.reduce(row, pivots, None) == remainder
            assert linalg.reduce(row, held, lookup) == remainder


@_KERNEL_SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.one_of(st.just(ZERO), nonzero), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(coefficients, min_size=n, max_size=n))))
def test_solve_solves_or_finds_a_rank_deficit(time_limit, system):
    matrix, rhs = system
    with time_limit(5):
        x = linalg.solve(matrix, rhs)
        if x is None:
            rows = [{j: c for j, c in enumerate(entries) if not c.is_zero()}
                    for entries in matrix]
            assert linalg.rank(rows) < len(matrix)
        else:
            assert _apply(matrix, x) == rhs


# -- the stored form of term values ----------------------------------------------
# Every term value is an int, of the numerator and of the denominator alike;
# + and * of two coefficients over 1 skip _canonicalize.

integer_laurent = st.dictionaries(
    st.integers(-3, 3),
    st.one_of(st.sampled_from([3, -3, 6, -6]), st.integers(-6, 6)),
    max_size=4).map(LaurentPoly)
nonzero_integer_laurent = integer_laurent.filter(lambda p: not p.is_zero())
integer_coefficients = st.builds(Coefficient, integer_laurent, nonzero_integer_laurent)


def _stored_exactly(*values):
    polys = []
    for value in values:
        polys.extend([value.num, value.den] if isinstance(value, Coefficient) else [value])
    return all(type(c) is int for poly in polys for c in poly.terms.values())


@_SETTINGS
@given(integer_laurent, integer_laurent)
def test_laurent_arithmetic_keeps_integral_values_int(p, r):
    zero = LaurentPoly()
    assert _stored_exactly(p + r, p - r, p * r, -p, LaurentPoly.gcd(p, zero),
                           LaurentPoly.gcd(zero, r), LaurentPoly.gcd(p, r))
    if not r.is_zero():
        assert _stored_exactly((p * r).divide_exact(r), LaurentPoly.gcd(p * r, r * r))


@_SETTINGS
@given(st.one_of(integer_coefficients, coefficients),
       st.one_of(integer_coefficients, nonzero))
def test_coefficient_arithmetic_keeps_the_stored_form(a, b):
    assert _stored_exactly(a + b, a - b, a * b, -a)
    if not b.is_zero():
        assert _stored_exactly(a / b, b / a if not a.is_zero() else b)


@_SETTINGS
@given(integer_laurent, integer_laurent)
def test_fast_path_equals_the_general_path(p, r):
    a, b = Coefficient(p), Coefficient(r)
    product, total = a * b, a + b
    assert product == Coefficient(a.num * b.num, a.den * b.den)
    assert total == Coefficient(a.num * b.den + b.num * a.den, a.den * b.den)
    for fast in (product, total):
        assert fast.den.terms == {0: 1} and fast.is_zero() == (not fast.num.terms)


units = st.builds(lambda sign, exp: Coefficient(LaurentPoly({exp: sign})),
                  st.sampled_from([1, -1]), st.integers(-4, 4))


@_SETTINGS
@given(st.one_of(coefficients, integer_coefficients, units), units)
def test_division_by_a_unit_equals_the_general_path(a, u):
    # dividing by +-q^k skips _canonicalize; the + and * fast paths need the
    # quotient's denominator to be the shared one whenever it is 1
    quotient = a / u
    assert quotient == Coefficient(a.num * u.den, a.den * u.num)
    assert _stored_exactly(quotient)
    if quotient.den.terms == {0: 1}:
        assert quotient.den is _LP_ONE
    assert u / u == ONE and (u / u).den is _LP_ONE


def test_primitive_divides_a_non_unit_content_exactly():
    def primitive(poly):
        return LaurentPoly.gcd(poly, LaurentPoly())

    assert primitive(LaurentPoly({0: 3, 1: 3})) == LaurentPoly({0: 1, 1: 1})
    assert primitive(LaurentPoly({0: 3, 1: 3})).terms == {0: 1, 1: 1}
    # a lead that is not the content stays: 1 + 3q is primitive over Z
    assert primitive(LaurentPoly({0: 1, 1: 3})).terms == {0: 1, 1: 3}
    assert primitive(LaurentPoly({0: -2, 1: -6})).terms == {0: 1, 1: 3}


def test_gcd_of_non_monic_integer_polynomials():
    g = LaurentPoly.gcd(LaurentPoly({0: 3, 1: 3}), LaurentPoly({0: 6, 1: 6}))
    assert g == LaurentPoly({0: 1, 1: 1})
    assert g.terms == {0: 1, 1: 1}
