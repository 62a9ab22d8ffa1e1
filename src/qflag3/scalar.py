"""Exact coefficient arithmetic: Laurent polynomials in q over the integers
and their field of fractions Q(q), the one coefficient type of the package.

Everything here is exact and immutable after construction.  Every term value
of a LaurentPoly is an int; a rational constant such as 1/2 lives in the
denominator of a Coefficient.  Division is integer arithmetic: exact long
division in Z[q], and a primitive pseudo-remainder sequence for the gcd
(Brown, J. ACM 1971; Knuth, TAOCP vol. 2, 4.6.1).  Sums and products cancel
only the factors that can be common (Henrici; Knuth, 4.5.1).  Only
Coefficient.evaluate_at_one builds a fractions.Fraction.
"""

from __future__ import annotations

import math


class LaurentPoly:
    """A Laurent polynomial in q with integer coefficients.

    Stored as a map from integer q-exponent to a nonzero int term value; the
    zero polynomial has an empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            if type(exp) is not int:
                raise TypeError("q-exponent %r is not an int" % (exp,))
            if type(coeff) is not int:
                # an int subclass or an integral Fraction; never a float
                if getattr(coeff, "denominator", None) != 1:
                    raise TypeError("term value %r is not an integer" % (coeff,))
                coeff = int(coeff)
            if coeff:
                clean[exp] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        return min(self.terms)

    def leading_coeff(self) -> int:
        return self.terms[max(self.terms)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = terms.get(exp, 0) + coeff
            if new:
                terms[exp] = new
            else:
                terms.pop(exp, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = terms
        return result

    def __neg__(self):
        return _divided(self, -1, 0)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = e1 + e2
                new = terms.get(exp, 0) + c1 * c2
                if new:
                    terms[exp] = new
                else:
                    terms.pop(exp, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = terms
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = {e + k: c for e, c in self.terms.items()}
        return result

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    # -- division and gcd in Z[q], on dense coefficient lists -----------------

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other in Z[q, q^-1], by long division from the
        top term; raises ValueError unless other divides self there."""
        if other.is_zero():
            raise ZeroDivisionError("division of Laurent polynomial by zero")
        if self.is_zero():
            return self
        rem, divisor = _dense(self), _dense(other)
        n, lead = len(divisor), divisor[-1]
        quot = [0] * max(len(rem) - n + 1, 0)
        for k in reversed(range(len(quot))):
            quot[k], inexact = divmod(rem[k + n - 1], lead)
            if inexact:
                break
            rem[k:k + n] = [c - quot[k] * d for c, d in zip(rem[k:k + n], divisor)]
        if not quot or any(rem):
            raise ValueError("inexact Laurent polynomial division")
        return LaurentPoly(dict(enumerate(quot, self.min_exp() - other.min_exp())))

    @staticmethod
    def gcd(a: "LaurentPoly", b: "LaurentPoly") -> "LaurentPoly":
        """The primitive gcd in Z[q] of the shifted polynomials (q-power units
        and integer contents dropped), zero only when both are zero.  A
        primitive pseudo-remainder sequence: each remainder is divided by its
        content, so the coefficients do not swell."""
        a, b = _primitive(_dense(a)), _primitive(_dense(b))
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return LaurentPoly(dict(enumerate(a)))

    # -- rendering -----------------------------------------------------------

    def render(self, divisor: int = 1) -> str:
        """The polynomial over the positive int divisor, each term value
        written as a reduced fraction."""
        text = ""
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            common = math.gcd(coeff, divisor)
            value = str(abs(coeff) // common)
            if common != divisor:
                value += "/%d" % (divisor // common)
            if exp:
                qpart = "q" if exp == 1 else "q^%d" % exp
                value = qpart if value == "1" else value + "*" + qpart
            sign = " - " if coeff < 0 else " + "
            text += (sign if text else sign.strip(" +")) + value
        return text or "0"

    def __repr__(self):
        return "LaurentPoly(%s)" % self.render()


def _divided(poly, scale, lo):
    """poly / (scale * q^lo), for an int scale that divides every term value."""
    result = LaurentPoly.__new__(LaurentPoly)
    result.terms = {e - lo: c // scale for e, c in poly.terms.items()}
    return result


def _dense(poly):
    """The coefficient list of poly / q^min_exp, lowest power first; [] for 0."""
    lo = min(poly.terms, default=0)
    values = [0] * (max(poly.terms, default=-1) - lo + 1)
    for exp, coeff in poly.terms.items():
        values[exp - lo] = coeff
    return values


def _primitive(values):
    """A coefficient list with a nonzero top, divided by its content signed
    to make the top positive, and without its zeros at the bottom."""
    if not values:
        return values
    content = math.gcd(*values) if values[-1] > 0 else -math.gcd(*values)
    lo = next(i for i, c in enumerate(values) if c)
    return [c // content for c in values[lo:]]


def _pseudo_remainder(a, b):
    """c*a - m*b for an int c != 0 and an m in Z[q], as a coefficient list
    shorter than b's with a nonzero top: while a is as long as b, its top is
    cancelled, after scaling a by b's top over the gcd of the two tops."""
    n, lead = len(b), b[-1]
    while len(a) >= n:
        common = math.gcd(a[-1], lead)
        factor, scale, k = a[-1] // common, lead // common, len(a) - n
        head = a[:k] if scale == 1 else [c * scale for c in a[:k]]
        a = head + [c * scale - factor * d for c, d in zip(a[k:-1], b)]
        while a and not a[-1]:
            a.pop()
    return a


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly({0: 1})


class Coefficient:
    """An element of Q(q): a numerator over a denominator in Z[q, q^-1].

    The pair is canonical: coprime in Z[q], integer contents included, with
    the denominator at lowest q-exponent 0, leading positive, and the shared
    _LP_ONE when it is 1.  A rational constant n/d is the pair (n, d).
    Equality of canonical forms agrees with cross-multiplication.
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
        """value.numerator / value.denominator: an int or a Fraction, no float."""
        return Coefficient(LaurentPoly({0: getattr(value, "numerator", value)}),
                           LaurentPoly({0: getattr(value, "denominator", 1)}))

    @staticmethod
    def q_power(exp: int) -> "Coefficient":
        return Coefficient(LaurentPoly({exp: 1}))

    @staticmethod
    def nu() -> "Coefficient":
        """q - q^-1."""
        return Coefficient(LaurentPoly({1: 1, -1: -1}))

    def is_zero(self) -> bool:
        return not self.num.terms

    def evaluate_at_one(self):
        """The exact rational value at q = 1, a fractions.Fraction; errors on a
        pole there."""
        from fractions import Fraction
        if not sum(self.den.terms.values()):
            raise ZeroDivisionError("pole at q = 1")
        return Fraction(sum(self.num.terms.values()), sum(self.den.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den is _LP_ONE and other.den is _LP_ONE:
            return _built((self.num + other.num, _LP_ONE))
        # a/(b*g) + c/(d*g) = (a*d + c*b)/(b*d*g): only a factor of g can cancel
        b, d, g = _cancelled(self.den, other.den)
        num, g, _ = _cancelled(self.num * d + other.num * b, g)
        return _built(_normalized(num, b * d * g))

    def __neg__(self):
        return _built((-self.num, self.den))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self is ONE or other is ONE:
            return other if self is ONE else self
        if self.is_zero() or other.is_zero():
            return ZERO
        if self.den is _LP_ONE and other.den is _LP_ONE:
            return _built((self.num * other.num, _LP_ONE))
        # each numerator can share a factor only with the other denominator
        a, d, _ = _cancelled(self.num, other.den)
        c, b, _ = _cancelled(other.num, self.den)
        return _built(_normalized(a * c, b * d))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division of coefficients by zero")
        (exp, value), *rest = other.num.terms.items()
        if other.den is _LP_ONE and not rest and (value == 1 or value == -1):
            # a unit +-q^k: scaling the numerator keeps the pair canonical
            return _built((self.num * LaurentPoly({-exp: value}), self.den))
        return self * _built((other.den, other.num))

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """num / den with the denominator's integer content divided into the
        numerator's term values, so that 1/2 * q renders as 1/2*q."""
        content = math.gcd(*self.den.terms.values())
        text = self.num.render(content)
        if len(self.den.terms) == 1:
            return text
        num_text = "(%s)" % text if " " in text else text
        return "%s/(%s)" % (num_text, _divided(self.den, content, 0).render())

    def __repr__(self):
        return "Coefficient(%s)" % self.render()


def _canonicalize(num, den):
    """Reduce to the canonical numerator/denominator pair."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if den.terms == _LP_ONE.terms:  # the fast path of + and * relies on this
        return num, _LP_ONE
    return _normalized(*_cancelled(num, den)[:2])


def _cancelled(a, b):
    """(a / g, b / g, g) for the primitive gcd g of a and b in Z[q]; g is 1,
    found without a gcd, when a or b is a single term c*q^k or zero."""
    if len(a.terms) > 1 and len(b.terms) > 1:
        common = LaurentPoly.gcd(a, b)
        if len(common.terms) > 1:
            return a.divide_exact(common), b.divide_exact(common), common
    return a, b, _LP_ONE


def _normalized(num, den):
    """The canonical pair of num / den, for num and den whose gcd in Z[q] is
    an integer: that integer and the q-power unit of den divided out, signed
    so that den leads positive."""
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    lo = den.min_exp()
    scale = math.gcd(*den.terms.values(), *num.terms.values())
    scale = scale if den.leading_coeff() > 0 else -scale
    if lo or scale != 1:
        den, num = _divided(den, scale, lo), _divided(num, scale, lo)
    return num, _LP_ONE if den == _LP_ONE else den


def _built(pair):
    """The coefficient of a canonical (num, den) pair, or of the inverse of
    one, built without _canonicalize; a denominator 1 must be _LP_ONE."""
    result = Coefficient.__new__(Coefficient)
    result.num, result.den = pair
    return result


ZERO = Coefficient()
ONE = Coefficient(_LP_ONE)
