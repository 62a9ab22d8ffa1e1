"""The quantum exterior algebra on the six cotangent generators: the 21
quadratic relations, their independent derivation through the two-fold coset
map, wedge arithmetic, the star map, the Frobenius pairing with its Nakayama
automorphism, the associated graded algebra, and the classical limit.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from . import linalg, qpair, rootdata
from .ncpoly import NCPolynomial, ReductionSystem, RewriteRule
from .report import VerificationReport
from .scalar import Coefficient, ONE, ZERO

_ROOT_SUFFIX = {rootdata.ALPHA1: "a1", rootdata.ALPHA2: "a2", rootdata.THETA: "a12"}


def _e(root):
    return qpair.COTANGENT_ALPHABET.rank("e_" + _ROOT_SUFFIX[root])


def _f(root):
    return qpair.COTANGENT_ALPHABET.rank("f_" + _ROOT_SUFFIX[root])


class ExteriorAlgebra:
    """A reduction system on the cotangent alphabet, with its top word and the
    reference product that the Frobenius integral normalises."""

    def __init__(self, name, system):
        self.name = name
        self.system = system
        self.alphabet = system.alphabet
        self.top_word = tuple(range(6))
        self.reference_word = (
            _e(rootdata.ALPHA1), _e(rootdata.ALPHA2), _e(rootdata.THETA),
            _f(rootdata.ALPHA1), _f(rootdata.ALPHA2), _f(rootdata.THETA))
        self._ref_coeff = None

    def monomial(self, word, coeff=ONE):
        return NCPolynomial.monomial(self.alphabet, word, coeff)

    def reference_coefficient(self) -> Coefficient:
        """Coefficient of the top normal word in the reduced reference product."""
        if self._ref_coeff is None:
            nf = self.system.normal_form(self.monomial(self.reference_word))
            if set(nf.terms) != {self.top_word}:
                raise AssertionError("reference product did not reduce to the top word")
            self._ref_coeff = nf.terms[self.top_word]
        return self._ref_coeff


def _relation_rules(with_nu_terms: bool):
    """The quadratic rules shared by the full and associated graded algebras.

    Three families: ee/ff swaps with square kills, ef swaps, and (only in the
    full algebra) the two nu-corrected rules for the simple-root pairs.
    """
    q = Coefficient.q_power
    nu = Coefficient.nu()
    rules = []

    def rule(lhs, rhs_terms):
        rhs = NCPolynomial(qpair.COTANGENT_ALPHABET, dict(rhs_terms))
        rules.append(RewriteRule(lhs, rhs))

    positive = rootdata.POSITIVE_ROOTS  # convex ascending: a2 < a12 < a1
    for bi, beta in enumerate(positive):
        for gamma in positive[bi:]:
            pairing = rootdata.inner_product(beta, gamma)
            if beta == gamma:
                # (1 + q^(g,g)) x^2 = 0 with (g,g) = 2, so the square dies
                rule((_e(gamma), _e(gamma)), {})
                rule((_f(gamma), _f(gamma)), {})
            else:
                rule((_e(gamma), _e(beta)),
                     {(_e(beta), _e(gamma)): -q(pairing)})
                rule((_f(gamma), _f(beta)),
                     {(_f(beta), _f(gamma)): -q(-pairing)})
    for gamma in positive:
        for beta in positive:
            pairing = rootdata.inner_product(beta, gamma)
            if beta == gamma and gamma != rootdata.THETA:
                correction = nu if gamma == rootdata.ALPHA2 else -nu
                terms = {(_f(beta), _e(gamma)): -q(pairing)}
                if with_nu_terms:
                    terms[(_f(rootdata.THETA), _e(rootdata.THETA))] = correction
                rule((_e(gamma), _f(beta)), terms)
            else:
                rule((_e(gamma), _f(beta)),
                     {(_f(beta), _e(gamma)): -q(pairing)})
    return rules


@lru_cache(maxsize=None)
def build_relations() -> ExteriorAlgebra:
    """The quantum exterior algebra with its full 21-rule reduction system."""
    return ExteriorAlgebra(
        "full", ReductionSystem(qpair.COTANGENT_ALPHABET, _relation_rules(True)))


@lru_cache(maxsize=None)
def associated_graded() -> ExteriorAlgebra:
    """The associated graded algebra of the filtration: the same rules with
    the nu corrections dropped, a fully skew-commutative system of dimension 64."""
    return ExteriorAlgebra(
        "graded", ReductionSystem(qpair.COTANGENT_ALPHABET, _relation_rules(False)))


# -- star map -----------------------------------------------------------------


def star(algebra: ExteriorAlgebra, poly: NCPolynomial) -> NCPolynomial:
    """Graded star: swap e and f letters, reverse words with the graded sign
    (-1)^(k(k-1)/2), keep q fixed, then reduce to normal form.  Distinct
    words have distinct images, so no two terms meet before the reduction."""
    image = {tuple(rootdata.STAR[i] for i in reversed(word)):
             -coeff if len(word) * (len(word) - 1) // 2 % 2 else coeff
             for word, coeff in poly.terms.items()}
    return algebra.system.normal_form(NCPolynomial(algebra.alphabet, image))


# -- Frobenius structure ---------------------------------------------------------


def integral(algebra: ExteriorAlgebra, poly: NCPolynomial) -> Coefficient:
    """The functional that kills degrees below six and sends the reference
    ordered product e_a1 e_a2 e_a12 f_a1 f_a2 f_a12 to one."""
    nf = algebra.system.normal_form(poly)
    top = nf.terms.get(algebra.top_word)
    if top is None:
        return ZERO
    return top / algebra.reference_coefficient()


def frobenius(algebra: ExteriorAlgebra, x: NCPolynomial, y: NCPolynomial) -> Coefficient:
    return integral(algebra, x * y)


def frobenius_matrix(algebra: ExteriorAlgebra, degree: int):
    """Pairing matrix of V^k x V^(6-k), rows and columns in basis order."""
    rows = algebra.system.irreducible_words(degree)
    cols = algebra.system.irreducible_words(6 - degree)
    matrix = [
        [integral(algebra, algebra.monomial(r + c)) for c in cols]
        for r in rows
    ]
    return rows, cols, matrix


def is_generalized_permutation(matrix) -> bool:
    """Exactly one nonzero entry in every row and every column."""
    if not matrix:
        return True
    row_counts = [sum(0 if x.is_zero() else 1 for x in row) for row in matrix]
    col_counts = [sum(0 if row[j].is_zero() else 1 for row in matrix)
                  for j in range(len(matrix[0]))]
    return all(c == 1 for c in row_counts) and all(c == 1 for c in col_counts)


def nakayama(algebra: ExteriorAlgebra, degree: int):
    """Solve B(y, sigma(x)) = B(x, y) on the degree-k basis.

    Frobenius nondegeneracy (checked, never patched) gives a unique solution;
    returns a map basis word -> NCPolynomial.
    """
    if not 0 <= degree <= 6:
        raise ValueError("degree out of range")
    _, cols, matrix = frobenius_matrix(algebra, 6 - degree)
    # matrix rows: basis y of degree 6-k; cols: basis z of degree k
    xs, _, pairings = frobenius_matrix(algebra, degree)
    solution = {}
    for x, rhs in zip(xs, pairings):  # rhs[i] = B(x, y_i)
        coeffs = linalg.solve(matrix, rhs)
        if coeffs is None:
            raise ArithmeticError(
                "Frobenius pairing matrix is singular in degree %d" % degree)
        solution[x] = NCPolynomial(
            algebra.alphabet, {cols[j]: c for j, c in enumerate(coeffs)})
    return solution


def nakayama_generator_table(algebra: ExteriorAlgebra):
    """Eigenvalues of the Nakayama automorphism on the six generators."""
    table = {}
    for word, image in nakayama(algebra, 1).items():
        letter = algebra.alphabet.letters[word[0]]
        if set(image.terms) != {word}:
            raise ArithmeticError("Nakayama image of %s is not diagonal: %s"
                                  % (letter, image.render()))
        table[letter] = image.terms[word]
    return table


def nakayama_table_text(algebra: ExteriorAlgebra) -> str:
    """Two-column text table of the Nakayama eigenvalues on the generators."""
    table = nakayama_generator_table(algebra)
    width = max(len(name) for name in algebra.alphabet.letters)
    return "\n".join("%s  %s" % (name.ljust(width), table[name].render())
                     for name in algebra.alphabet.letters)


def nakayama_is_algebra_morphism(algebra: ExteriorAlgebra) -> bool:
    """sigma scales each word by the product of its letters' eigenvalues, so
    it maps lhs - rhs of a rule to a multiple of itself exactly when every
    rhs word has the lhs word's eigenvalue.  Checked on the free-algebra
    words, so no reduction order enters."""
    table = nakayama_generator_table(algebra)
    scalars = [table[name] for name in algebra.alphabet.letters]

    def eigenvalue(word):
        return prod((scalars[letter] for letter in word), start=ONE)

    return all(eigenvalue(word) == eigenvalue(rule.lhs)
               for rule in algebra.system.rules for word in rule.rhs.terms)


# -- relations via the two-fold coset map -------------------------------------------

_B_TRIPLES = ((1, 2, 1), (1, 1, 2), (1, 3, 1), (1, 1, 3),
              (2, 3, 2), (2, 2, 3), (2, 3, 1), (2, 1, 3))


@lru_cache(maxsize=None)
def ideal_generators():
    """The generating set of the cotangent ideal, as (label, u-polynomial).

    Three families: linear generators (the flag generators whose cosets
    vanish, counit-corrected, plus the two combinations identifying the
    doubled long-root representatives), quadratic products of the remaining
    flag generators against counit-corrected flag generators, and the two
    nu-corrected products whose bare form has a residual long-root coset.

    Every element is validated to lie in the ideal: counit zero and all six
    tangent pairings vanishing.
    """
    z = qpair.all_flag_generators()
    plus = qpair.plus_part
    nu = Coefficient.nu()
    q = Coefficient.q_power

    gens = []
    for p in (1, 2):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if (p, a, b) not in _B_TRIPLES:
                    gens.append(("lin:z%d_%d%d+" % (p, a, b), plus(z[p, a, b])))
    gens.append(("lin:z1_31+z2_31", z[1, 3, 1] + z[2, 3, 1]))
    gens.append(("lin:q2*z1_13+z2_13", z[1, 1, 3].scale(q(2)) + z[2, 1, 3]))

    # the two products whose bare form is not in the ideal enter corrected
    corrected = {((1, 2, 1), (2, 3, 2)), ((1, 1, 2), (2, 2, 3))}
    for (i, k, l) in _B_TRIPLES:
        for p in (1, 2):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    if ((i, k, l), (p, a, b)) in corrected:
                        continue
                    gens.append(("quad:z%d_%d%d*z%d_%d%d+" % (i, k, l, p, a, b),
                                 z[i, k, l] * plus(z[p, a, b])))
    gens.append(("corr:z1_21*z2_32-nu*z2_31",
                 z[1, 2, 1] * z[2, 3, 2] - z[2, 3, 1].scale(nu)))
    gens.append(("corr:z1_12*z2_23-q*nu*z1_13",
                 z[1, 1, 2] * z[2, 2, 3] - z[1, 1, 3].scale(q(1) * nu)))

    for label, gen in gens:
        if not qpair.counit(gen).is_zero() or not qpair.coset(gen).is_zero():
            raise AssertionError("generator %s is not in the cotangent ideal" % label)
    return tuple(gens)


def encoded_relation_vectors(algebra: ExteriorAlgebra):
    """The 21 rule tensors lhs - rhs, as sparse rows keyed by word."""
    return [(algebra.monomial(rule.lhs) - rule.rhs).terms
            for rule in algebra.system.rules]


def derive_relations_via_omega(algebra: ExteriorAlgebra):
    """Compute omega over the ideal generators and compare spans.

    Returns (span dimension, encoded dimension, list of witnesses escaping the
    encoded span).  Equal 21/21 with no witnesses certifies span equality.
    """
    encoded_pivots = {}
    for vec in encoded_relation_vectors(algebra):
        linalg.insert_pivot(vec, encoded_pivots)
    derived_pivots = {}
    witnesses = []
    for label, gen in ideal_generators():
        vec = qpair.omega(gen).terms
        if not vec:
            continue
        if linalg.reduce(vec, encoded_pivots):
            witnesses.append(label)
        linalg.insert_pivot(vec, derived_pivots)
    return len(derived_pivots), len(encoded_pivots), witnesses


# -- classical limit ---------------------------------------------------------------


def classical_limit_check(algebra: ExteriorAlgebra) -> VerificationReport:
    """At q = 1 every swap rule has coefficient -1 on the transposed word and
    the nu corrections vanish; squares still die."""
    report = VerificationReport("classical")
    for rule in algebra.system.rules:
        name = algebra.alphabet.render_word(rule.lhs)
        transposed = (rule.lhs[1], rule.lhs[0])
        if not rule.rhs.terms:
            report.add("classical:%s" % name, "square relation at q = 1",
                       "0", "0", True)
            continue
        values = {word: coeff.evaluate_at_one() for word, coeff in rule.rhs.terms.items()}
        # the swap term must be present: a rule that lost it is not a swap
        ok = {w: v for w, v in values.items() if v != 0} == {transposed: -1}
        actual = ", ".join("%s: %s" % (algebra.alphabet.render_word(w), v)
                           for w, v in sorted(values.items()))
        report.add("classical:%s" % name,
                   "anticommutation at q = 1",
                   "%s: -1, others 0" % algebra.alphabet.render_word(transposed),
                   actual, ok)
    return report
