from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from qflag3 import linalg
from qflag3.flagext import associated_graded, build_relations
from qflag3.scalar import Coefficient, LaurentPoly, ONE, ZERO

Q = Coefficient.q_power
NU = Coefficient.nu()


def _apply(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), ZERO) for row in matrix]


def test_solve_with_nontrivial_denominators():
    matrix = [[Q(1), ONE / (Q(1) + ONE), ZERO],
              [NU, Q(2) - ONE, ONE / NU],
              [ZERO, Q(-1), Q(1) + Q(-1)]]
    rhs = [ONE, ZERO, ONE / (Q(2) + ONE)]
    x = linalg.solve(matrix, rhs)
    assert x is not None
    assert _apply(matrix, x) == rhs
    assert any(c.den != ONE.den for c in x)


def test_solve_returns_none_on_a_singular_matrix():
    row = [Q(1), NU, ONE / (Q(1) + ONE)]
    matrix = [row, [c * NU for c in row], [ONE, ZERO, Q(3)]]
    assert linalg.solve(matrix, [ONE, ZERO, ZERO]) is None


def _degree_3_ideal_rows(system):
    """u*(lhs - rhs)*v for single letters u or v, keyed by word."""
    rows = []
    for rule in system.rules:
        relation = [(rule.lhs, ONE)] + [(w, -c) for w, c in rule.rhs.terms.items()]
        for letter in range(len(system.alphabet)):
            rows.append({(letter,) + w: c for w, c in relation})
            rows.append({w + (letter,): c for w, c in relation})
    return rows


def test_degree_3_ideal_rank_matches_the_oracle():
    # 216 words minus the oracle's dimensions 16 (full) and 20 (graded)
    assert linalg.rank(_degree_3_ideal_rows(build_relations().system)) == 200
    assert linalg.rank(_degree_3_ideal_rows(associated_graded().system)) == 196


# -- Coefficient is a field ----------------------------------------------------

laurent = st.dictionaries(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=3).map(LaurentPoly)
nonzero_laurent = laurent.filter(lambda p: not p.is_zero())
coefficients = st.builds(Coefficient, laurent, nonzero_laurent)
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
    a = Coefficient(num, den)
    assert Coefficient(num * factor, den * factor) == a


@_SETTINGS
@given(coefficients, coefficients)
def test_equality_agrees_with_cross_multiplication(a, b):
    assert (a == b) == (a.num * b.den == b.num * a.den)


@_SETTINGS
@given(nonzero_laurent, st.fractions(min_value=-5, max_value=5).filter(bool))
def test_canonical_denominator(den, value):
    c = Coefficient(LaurentPoly.const(value), den)
    assume(not c.den.is_const())
    assert c.den.min_exp() == 0 and c.den.leading_coeff() > 0
    assert all(x.denominator == 1 for x in c.den.terms.values())
    assert c == Coefficient.from_rational(Fraction(value)) / Coefficient(den)
