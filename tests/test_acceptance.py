"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints a single pass/fail line.

Criterion 11 checks the diamond-lemma count identity, which holds for any
quadratic rewrite system: in degrees 0-3 the quotient dimension is the number
of irreducible words minus the rank of the differences of the unresolved
overlaps, and the independent elimination oracle must agree with it.  For the
bundled data that is 20 - 4 = 16 in degree 3; for a confluent system it is
the plain word count.

Criteria 2 (confluence) and 4 (Nakayama) fail, and stay as they are.  The 21
rules are the whole omega-image of the cotangent ideal (re-derived without
the curated generator list in tests/test_flagext.py), yet the nu-corrected
alpha2 rule e_a2.f_a2 -> -q^2 f_a2.e_a2 + nu f_a12.e_a12 does not resolve
against the swaps that move f_a2 leftwards: on e_a2.f_a2.f_a2 one reduction
order gives (1 - q^2) nu f_a2.f_a12.e_a12 and the other 0.  So the algebra has
Hilbert series [1, 6, 15, 16, 9, 2, 0], not the flat one the two criteria
assume; in particular degree 6 is zero and there is no Frobenius pairing.
"""

from fractions import Fraction

from qflag3 import flagext, geometry, linalg, qpair
from qflag3.flagext import associated_graded, build_relations
from qflag3.ncpoly import quotient_dimension_by_elimination
from qflag3.scalar import Coefficient, ONE

Q = Coefficient.q_power
NU = Coefficient.nu()


def _criterion(number, label, passed, detail=""):
    line = "ACCEPTANCE %2d %-18s %s" % (number, label, "PASS" if passed else "FAIL")
    if detail and not passed:
        line += "  [%s]" % detail
    print(line)
    assert passed, "criterion %d (%s) %s" % (number, label, detail)


def test_criterion_01_dimensions():
    algebra = build_relations()
    series = algebra.system.hilbert_series(6)
    _criterion(1, "dimensions",
               series == [1, 6, 15, 20, 15, 6, 1] and sum(series) == 64,
               "hilbert %s" % series)


def test_criterion_02_confluence():
    algebra = build_relations()
    report = algebra.system.confluence_check()
    failures = [check.id for check in report.failures()]

    word = algebra.alphabet.word
    triple = word("e_a1", "e_a2", "f_a1")
    via_left, via_right = algebra.system.resolve_ambiguity(
        triple, algebra.system.rule_for(triple[:2]),
        algebra.system.rule_for(triple[1:]))
    expected = (algebra.monomial(word("f_a1", "e_a2", "e_a1"), -ONE)
                + algebra.monomial(word("f_a12", "e_a2", "e_a12"), -NU))
    worked_ok = via_left == expected and via_right == expected

    _criterion(2, "confluence",
               len(report.checks) == 56 and not failures and worked_ok,
               "unresolved overlaps: %s" % failures)


def test_criterion_03_relation_derivation():
    algebra = build_relations()
    derived, encoded, witnesses = flagext.derive_relations_via_omega(algebra)
    worked = qpair.omega_render(
        qpair.omega(qpair.plus_part(qpair.flag_generator(1, 2, 2))))
    expected = ("-q^-1*f_a1(x)e_a1 + (q^-4 - q^-6)*e_a12(x)f_a12"
                " - q^-3*e_a1(x)f_a1")
    _criterion(3, "relation-derivation",
               derived == encoded == 21 and not witnesses and worked == expected,
               "spans %d/%d, witnesses %s, omega %s"
               % (derived, encoded, witnesses, worked))


def test_criterion_04_nakayama():
    algebra = build_relations()
    table = flagext.nakayama_generator_table(algebra)
    expected = {"e_a1": -Q(2), "e_a2": -Q(2), "e_a12": -Q(4),
                "f_a1": -Q(-2), "f_a2": -Q(-2), "f_a12": -Q(-4)}
    eigen_ok = table == expected
    perm_fail = []
    invertible = True
    for degree in range(7):
        _, _, matrix = flagext.frobenius_matrix(algebra, degree)
        if not flagext.is_generalized_permutation(matrix):
            perm_fail.append(degree)
        rhs = [ONE] + [Coefficient.zero()] * (len(matrix) - 1)
        invertible = invertible and linalg.solve(matrix, rhs) is not None
    _criterion(4, "nakayama",
               eigen_ok and invertible and not perm_fail,
               "eigenvalues %s; permutation property fails in degrees %s"
               % ("ok" if eigen_ok else "WRONG", perm_fail))


def test_criterion_05_foacs_census():
    survivors = geometry.enumerate_foacs()
    present = (geometry.STRUCTURE_I in survivors
               and geometry.STRUCTURE_II in survivors)
    closed = all(s.opposite() in survivors for s in survivors)
    _criterion(5, "foacs-census",
               len(survivors) == 4 and present and closed,
               "%d survivors: %s" % (len(survivors),
                                     [s.render() for s in survivors]))


def test_criterion_06_bigrading():
    reports = [geometry.check_bigrading(geometry.STRUCTURE_I),
               geometry.check_bigrading(geometry.STRUCTURE_II)]
    _criterion(6, "bigrading", all(r.overall for r in reports),
               str([c.id for r in reports for c in r.failures()]))


def test_criterion_07_integrability():
    reports = [geometry.check_integrability(s) for s in geometry.enumerate_foacs()]
    named = geometry.integrability_data(
        geometry.Foacs(frozenset(("f_a2", "f_a12", "f_a1"))))
    _criterion(7, "integrability",
               all(r.overall for r in reports) and (2, 2, 3) in named,
               str([c.id for r in reports for c in r.failures()]))


def test_criterion_08_connections():
    dims = geometry.connection_space_dims()
    oracle = geometry.connection_space_dims_oracle()
    _criterion(8, "connections",
               dims == (12, 6, 21) and oracle == (12, 6),
               "dims %s oracle %s" % (dims, oracle))


def test_criterion_09_kahler_obstruction():
    algebra = build_relations()
    coinv_ok = len(geometry.coinvariant_forms(2)) == 3
    verdicts = geometry.centrality_verdicts()
    central_ok = verdicts == {"f_a1^e_a1": False, "f_a2^e_a2": True,
                              "f_a12^e_a12": True}
    witness = geometry.centrality_witness_value()
    witness_ok = witness == algebra.monomial(
        algebra.alphabet.word("f_a12", "e_a12"), Q(-2) * NU * NU)
    cube, divisible = geometry.kahler_cube()
    cube_ok = divisible and geometry.cube_at(cube, (0, 1, 1)).is_zero()
    verdict = geometry.no_covariant_kahler().overall
    _criterion(9, "kahler-obstruction",
               coinv_ok and central_ok and witness_ok and cube_ok and verdict,
               "coinv %s central %s witness %s cube %s verdict %s"
               % (coinv_ok, central_ok, witness.render(), cube_ok, verdict))


def test_criterion_10_classical_limit():
    report = flagext.classical_limit_check(build_relations())
    top = geometry.cube_at(geometry.kahler_cube()[0], (1, 1, 1))
    _criterion(10, "classical-limit",
               report.overall and top.evaluate_at_one() != 0,
               "rules %s, cube value %s"
               % ("ok" if report.overall else "broken", top.evaluate_at_one()))


def _diamond_dimension(system, degree):
    """Irreducible words of the degree minus the rank of the nonzero
    differences via_left - via_right over the overlaps of that length."""
    pivots = {}
    for triple, left, right in system.overlap_ambiguities():
        if len(triple) == degree:
            via_left, via_right = system.resolve_ambiguity(triple, left, right)
            difference = (via_left - via_right).terms
            if difference:
                linalg.insert_pivot(difference, pivots)
    return len(system.irreducible_words(degree)) - len(pivots)


def test_criterion_11_oracle_equivalence():
    mismatches = []
    for algebra in (build_relations(), associated_graded()):
        for degree in range(4):
            counted = _diamond_dimension(algebra.system, degree)
            eliminated = quotient_dimension_by_elimination(algebra.system, degree)
            if counted != eliminated:
                mismatches.append((algebra.name, degree, counted, eliminated))
    _criterion(11, "oracle-equivalence", not mismatches,
               "(algebra, degree, words - overlap rank, true dimension): %s"
               % mismatches)
