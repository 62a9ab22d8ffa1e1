"""Exact coefficient arithmetic: Laurent polynomials in q over the rationals
and their field of fractions Q(q), the one coefficient type of the package.

Everything here is exact; equality is decidable and all values are immutable
after construction.  A term value of a LaurentPoly is a Python int whenever it
is integral and a fractions.Fraction only when its denominator is greater than
1, so the common coefficients (+-q^k, +-q^k*nu) never touch Fraction.  Floats
are rejected, as term values and as q-exponents.  Term values are divided only
through Fraction, never int / int.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _term_value(value):
    """The stored form of an exact rational: an int when integral, else a
    Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("inexact coefficient %r: use an int or a Fraction" % (value,))
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class LaurentPoly:
    """A Laurent polynomial in q with rational coefficients.

    Stored as a map from integer q-exponent to a nonzero term value (an int,
    or a Fraction with denominator greater than 1); the zero polynomial has an
    empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                if type(exp) is not int:
                    raise TypeError("q-exponent %r is not an int" % (exp,))
                coeff = _term_value(coeff)
                if coeff:
                    clean[exp] = coeff
        self.terms = clean

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[self.max_exp()]

    def evaluate_at_one(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = terms.get(exp, 0) + coeff
            if new:
                terms[exp] = _term_value(new)
            else:
                terms.pop(exp, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = terms
        return result

    def __neg__(self):
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = {exp: -coeff for exp, coeff in self.terms.items()}
        return result

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = e1 + e2
                new = terms.get(exp, 0) + c1 * c2
                if new:
                    terms[exp] = _term_value(new)
                else:
                    terms.pop(exp, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = terms
        return result

    def scale(self, value) -> "LaurentPoly":
        value = _term_value(value)
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = ({e: _term_value(c * value) for e, c in self.terms.items()}
                        if value else {})
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = {e + k: c for e, c in self.terms.items()}
        return result

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- polynomial division and gcd ----------------------------------------

    @staticmethod
    def _divmod(a, b):
        """Quotient and remainder in Q[q] of a by a nonzero b, both first
        shifted to lowest exponent 0."""
        a, b = a.shift(-min(a.terms, default=0)), b.shift(-b.min_exp())
        top, lead, quot = b.max_exp(), b.leading_coeff(), {}
        while a.terms and a.max_exp() >= top:
            k, factor = a.max_exp() - top, Fraction(a.leading_coeff(), lead)
            quot[k] = factor
            a = a - b.scale(factor).shift(k)
        return LaurentPoly(quot), a

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises ValueError on inexact division."""
        if other.is_zero():
            raise ZeroDivisionError("division of Laurent polynomial by zero")
        if self.is_zero():
            return self
        quot, rem = LaurentPoly._divmod(self, other)
        if not rem.is_zero():
            raise ValueError("inexact Laurent polynomial division")
        return quot.shift(self.min_exp() - other.min_exp())

    @staticmethod
    def gcd(a: "LaurentPoly", b: "LaurentPoly") -> "LaurentPoly":
        """Monic gcd in Q[q] of the shifted polynomials (q-power units dropped),
        by a primitive remainder sequence: each remainder is divided by its
        content, so the rational coefficients do not swell."""
        while not b.is_zero():
            rem = LaurentPoly._divmod(a, b)[1]
            a, b = b, rem.scale(1 / _content(rem)) if rem.terms else rem
        return a.monic()

    def monic(self) -> "LaurentPoly":
        if self.is_zero():
            return self
        return self.scale(Fraction(1, self.leading_coeff())).shift(-self.min_exp())

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if exp == 0:
                body = str(mag)
            else:
                qpart = "q" if exp == 1 else "q^%d" % exp
                body = qpart if mag == 1 else "%s*%s" % (mag, qpart)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "LaurentPoly(%s)" % self.render()


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly({0: 1})


class Coefficient:
    """An element of Q(q): a Laurent-polynomial numerator over a denominator
    in Q[q].

    The denominator is canonical: lowest q-exponent 0, integer primitive with
    positive leading coefficient, and no common polynomial factor with the
    numerator.  Equality of canonical forms agrees with cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=_LP_ZERO, den=_LP_ONE):
        self.num, self.den = _canonicalize(num, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Coefficient":
        return ZERO

    @staticmethod
    def from_rational(value) -> "Coefficient":
        return Coefficient(LaurentPoly({0: value}))

    @staticmethod
    def q_power(exp: int) -> "Coefficient":
        return Coefficient(LaurentPoly({exp: 1}))

    @staticmethod
    def nu() -> "Coefficient":
        """q - q^-1."""
        return Coefficient(LaurentPoly({1: 1, -1: -1}))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.terms

    def evaluate_at_one(self) -> Fraction:
        """The exact rational value at q = 1; errors on a pole there."""
        den_at_one = self.den.evaluate_at_one()
        if den_at_one == 0:
            raise ZeroDivisionError("pole at q = 1")
        return self.num.evaluate_at_one() / den_at_one

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den is _LP_ONE and other.den is _LP_ONE:
            return _over_one(self.num + other.num)
        return Coefficient(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __neg__(self):
        result = Coefficient.__new__(Coefficient)
        result.num, result.den = -self.num, self.den
        return result

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return ZERO
        if self.den is _LP_ONE and other.den is _LP_ONE:
            return _over_one(self.num * other.num)
        return Coefficient(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division of coefficients by zero")
        if other.den is _LP_ONE and len(other.num.terms) == 1:
            (exp, value), = other.num.terms.items()
            if value == 1 or value == -1:
                # a unit +-q^k: scaling the numerator keeps the pair canonical
                result = Coefficient.__new__(Coefficient)
                result.num, result.den = self.num * LaurentPoly({-exp: value}), self.den
                return result
        return Coefficient(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        text = self.num.render()
        if self.den == _LP_ONE:
            return text
        num_text = "(%s)" % text if " " in text else text
        den_text = self.den.render()
        if len(self.den.terms) > 1:
            den_text = "(%s)" % den_text
        return "%s/%s" % (num_text, den_text)

    def __repr__(self):
        return "Coefficient(%s)" % self.render()


def _canonicalize(num, den):
    """Reduce to the canonical numerator/denominator pair."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    if den.terms == _LP_ONE.terms:  # the fast path of + and * relies on this
        return num, _LP_ONE
    # a one-term denominator c*q^k has no polynomial factor to cancel
    if len(den.terms) > 1:
        common = LaurentPoly.gcd(den, num)
        if not common.is_const():
            den = den.divide_exact(common)
            num = num.divide_exact(common)
    # move the q-power unit of the denominator into the numerator
    lo = den.min_exp()
    if lo:
        den = den.shift(-lo)
        num = num.shift(-lo)
    # integer-primitive denominator with positive leading coefficient
    scale = _content(den)
    if den.leading_coeff() < 0:
        scale = -scale
    if scale != 1:
        inv = 1 / scale
        den = den.scale(inv)
        num = num.scale(inv)
    if den == _LP_ONE:
        return num, _LP_ONE
    return num, den


def _over_one(num):
    """The coefficient num / 1, built without _canonicalize, which returns an
    equal pair for the denominator 1."""
    result = Coefficient.__new__(Coefficient)
    result.num, result.den = num, _LP_ONE
    return result


def _content(poly: LaurentPoly) -> Fraction:
    """Positive rational content: gcd of numerators over lcm of denominators."""
    values = poly.terms.values()
    return Fraction(math.gcd(*(c.numerator for c in values)),
                    math.lcm(*(c.denominator for c in values)))


ZERO = Coefficient()
ONE = Coefficient(_LP_ONE)
