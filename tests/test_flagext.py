import pytest

from qflag3 import flagext, linalg, qpair, suites
from qflag3.flagext import (associated_graded, build_relations,
                            derive_relations_via_omega, frobenius_matrix,
                            integral,
                            is_generalized_permutation, nakayama,
                            nakayama_generator_table,
                            nakayama_is_algebra_morphism, star)
from qflag3.ncpoly import (NCPolynomial, ReductionSystem, RewriteRule,
                           quotient_dimension_by_elimination)
from qflag3.scalar import Coefficient, ONE, ZERO

Q = Coefficient.q_power
NU = Coefficient.nu()


def test_rule_count_and_families():
    algebra = build_relations()
    assert len(algebra.system.rules) == 21
    by_lhs = {rule.lhs: rule for rule in algebra.system.rules}
    word = algebra.alphabet.word
    # squares die
    for letter in algebra.alphabet.letters:
        assert by_lhs[word(letter, letter)].rhs.is_zero()
    # the long-root mixed pair is a pure swap
    rule = by_lhs[word("e_a12", "f_a12")]
    assert rule.rhs == algebra.monomial(word("f_a12", "e_a12"), -Q(2))
    # the two nu-corrected rules
    rule = by_lhs[word("e_a1", "f_a1")]
    assert rule.rhs == (algebra.monomial(word("f_a1", "e_a1"), -Q(2))
                        + algebra.monomial(word("f_a12", "e_a12"), -NU))
    rule = by_lhs[word("e_a2", "f_a2")]
    assert rule.rhs == (algebra.monomial(word("f_a2", "e_a2"), -Q(2))
                        + algebra.monomial(word("f_a12", "e_a12"), NU))


def test_rules_weight_homogeneous():
    algebra = build_relations()
    for rule in algebra.system.rules:
        lhs_weight = qpair.cotangent_weight(rule.lhs)
        for word in rule.rhs.terms:
            assert qpair.cotangent_weight(word) == lhs_weight


def test_worked_overlap_triple():
    algebra = build_relations()
    word = algebra.alphabet.word
    triple = word("e_a1", "e_a2", "f_a1")
    left = algebra.system.rule_for(triple[:2])
    right = algebra.system.rule_for(triple[1:])
    via_left, via_right = algebra.system.resolve_ambiguity(triple, left, right)
    expected = (algebra.monomial(word("f_a1", "e_a2", "e_a1"), -ONE)
                + algebra.monomial(word("f_a12", "e_a2", "e_a12"), -NU))
    assert via_left == expected
    assert via_right == expected


def test_confluence_failures_are_exactly_the_known_four():
    # the nu correction of the alpha2 pair is incompatible with the other
    # rules: these four overlaps witness the collapse in degree three
    algebra = build_relations()
    report = algebra.system.confluence_check()
    failing = sorted(check.id for check in report.failures())
    assert failing == [
        "overlap:e_a1.e_a2.f_a2",
        "overlap:e_a2.e_a2.f_a2",
        "overlap:e_a2.f_a1.f_a2",
        "overlap:e_a2.f_a2.f_a2",
    ]


def test_graded_system_is_confluent_and_classical_sized():
    graded = associated_graded()
    assert graded.system.confluence_check().overall
    assert graded.system.hilbert_series(6) == [1, 6, 15, 20, 15, 6, 1]
    # all rules bihomogeneous in total degree
    assert all(len(rule.lhs) == 2 and
               all(len(w) == 2 for w in rule.rhs.terms)
               for rule in graded.system.rules)


def test_derive_relations_via_omega():
    derived, encoded, witnesses = derive_relations_via_omega(build_relations())
    assert derived == 21
    assert encoded == 21
    assert witnesses == []


def test_relations_are_the_omega_image_of_the_whole_quadratic_kernel(time_limit):
    # a route that does not use ideal_generators(): the kernel of (counit,
    # coset) on the span of the 18 flag generators and their 324 products
    with time_limit(5):
        algebra = build_relations()
        zs = qpair.all_flag_generators()
        keys = sorted(zs)
        polys = [zs[k] for k in keys] + [zs[a] * zs[b] for a in keys for b in keys]
        span = {}
        for poly in polys:
            linalg.insert_pivot(poly.terms, span)
        assert len(span) == 342
        # eliminate the rows (counit, coset | omega) with the seven kernel columns
        # first: the pivots leading past them span omega of the kernel.  omega is
        # linear and vanishes on 1, so omega(plus_part(y)) extends it to any y.
        stacked = {}
        for poly in polys:
            row = {(0,) + w: c for w, c in qpair.coset(poly).terms.items()}
            if not qpair.counit(poly).is_zero():
                row[(0,)] = qpair.counit(poly)
            for w, c in qpair.omega(qpair.plus_part(poly)).terms.items():
                row[(1,) + w] = c
            linalg.insert_pivot(row, stacked)
        assert len(span) - sum(1 for lead in stacked if lead[0] == 0) == 335

        derived = {}
        for lead, tail in stacked.items():
            if lead[0] == 1:
                row = {lead: -ONE, **tail}
                linalg.insert_pivot({j[1:]: c for j, c in row.items()}, derived)
        encoded_vectors = flagext.encoded_relation_vectors(algebra)
        encoded = {}
        for vec in encoded_vectors:
            linalg.insert_pivot(vec, encoded)
        assert len(derived) == len(encoded) == 21
        assert not any(linalg.reduce(vec, derived) for vec in encoded_vectors)
        assert not any(linalg.reduce({lead: -ONE, **tail}, encoded)
                       for lead, tail in derived.items())

        # the span is closed under the right action, so with omega(x b) =
        # omega(x) . b for x in the kernel it also holds omega of the right ideal
        # that the kernel generates
        for vec in encoded_vectors:
            tensor = NCPolynomial(qpair.COTANGENT_ALPHABET, vec)
            for key in keys:
                moved = qpair.right_act(tensor, zs[key])
                assert not linalg.reduce(moved.terms, encoded), key


def test_ideal_generator_families():
    labels = [label for label, _ in flagext.ideal_generators()]
    assert sum(1 for l in labels if l.startswith("lin:")) == 12
    assert sum(1 for l in labels if l.startswith("quad:")) == 142
    assert sum(1 for l in labels if l.startswith("corr:")) == 2


def test_star_map():
    algebra = build_relations()
    word = algebra.alphabet.word
    e_a1 = algebra.monomial(word("e_a1"))
    assert star(algebra, e_a1) == algebra.monomial(word("f_a1"))
    # involution on degree one
    for letter in algebra.alphabet.letters:
        mono = algebra.monomial(word(letter))
        assert star(algebra, star(algebra, mono)) == mono
    assert star(algebra, algebra.monomial(word("f_a1", "e_a1"))) == \
        algebra.monomial(word("f_a1", "e_a1"), -ONE)


def test_star_is_graded_antimultiplicative():
    # (x ^ y)* = (-1)^(kl) y* ^ x*; with k = l = 1 the sign is -1
    algebra = build_relations()
    word = algebra.alphabet.word
    x = algebra.monomial(word("e_a1"))
    z = algebra.monomial(word("f_a2"))
    assert star(algebra, algebra.system.normal_form(x * z)) == \
        algebra.system.normal_form(
            star(algebra, z) * star(algebra, x)).scale(-ONE)
    # k = 1, l = 2 has sign +1 (away from the nu-corrected pairs)
    y = algebra.monomial(word("f_a1", "e_a2"))
    assert star(algebra, algebra.system.normal_form(x * y)) == \
        algebra.system.normal_form(star(algebra, y) * star(algebra, x))


def test_star_defect_on_nu_products_lies_in_collapsed_directions():
    # through a nu-corrected pair the two sides differ by a multiple of
    # f_a12.f_a1.e_a12, one of the degree-3 words the relation ideal kills
    algebra = build_relations()
    word = algebra.alphabet.word
    x = algebra.monomial(word("e_a1"))
    y = algebra.monomial(word("e_a2", "f_a2"))
    lhs = star(algebra, algebra.system.normal_form(x * y))
    rhs = algebra.system.normal_form(star(algebra, y) * star(algebra, x))
    defect = lhs - rhs
    assert set(defect.terms) == {word("f_a12", "f_a1", "e_a12")}


def test_integral():
    algebra = build_relations()
    word = algebra.alphabet.word
    reference = algebra.monomial(algebra.reference_word)
    assert integral(algebra, reference) == ONE
    # anything below degree six dies
    assert integral(algebra, algebra.monomial(word("f_a1", "e_a1"))).is_zero()
    # the normal-form top monomial integrates to the reciprocal coefficient
    top = algebra.monomial(algebra.top_word)
    assert integral(algebra, top) == ONE / algebra.reference_coefficient()
    assert algebra.reference_coefficient() == -Q(8)


def test_frobenius_worked_values():
    algebra = build_relations()
    word = algebra.alphabet.word
    x = algebra.monomial(word("e_a1", "e_a2", "e_a12", "f_a2", "f_a12"))
    y = algebra.monomial(word("f_a1"))
    assert integral(algebra, x * y) == ONE
    assert integral(algebra, y * x) == -Q(-2)
    assert integral(algebra, algebra.monomial(()) * x).is_zero()


def test_nakayama_generator_tables():
    expected = {"e_a1": -Q(2), "e_a2": -Q(2), "e_a12": -Q(4),
                "f_a1": -Q(-2), "f_a2": -Q(-2), "f_a12": -Q(-4)}
    for algebra in (build_relations(), associated_graded()):
        table = nakayama_generator_table(algebra)
        assert table == expected


def test_nakayama_fixes_the_unit():
    algebra = build_relations()
    image = nakayama(algebra, 0)[()]
    assert image == algebra.monomial(())


def test_nakayama_is_algebra_morphism_on_rules():
    assert nakayama_is_algebra_morphism(build_relations())
    assert nakayama_is_algebra_morphism(associated_graded())


def test_nakayama_morphism_check_sees_a_wrong_eigenvalue(monkeypatch):
    # with sigma(e_a1) scaled by q, the nu-term f_a12.e_a12 of the rule for
    # e_a1.f_a1 no longer has the eigenvalue of its lhs
    table = nakayama_generator_table(build_relations())
    table["e_a1"] = table["e_a1"] * Q(1)
    monkeypatch.setattr(flagext, "nakayama_generator_table", lambda algebra: table)
    assert not nakayama_is_algebra_morphism(build_relations())


def test_pairing_invertible_everywhere_but_permutation_only_outside_middle():
    algebra = build_relations()
    permutation_degrees = []
    for degree in range(7):
        _, _, matrix = frobenius_matrix(algebra, degree)
        rhs = [ONE] + [ZERO] * (len(matrix) - 1)
        assert linalg.solve(matrix, rhs) is not None
        if is_generalized_permutation(matrix):
            permutation_degrees.append(degree)
    # degrees 2..4 acquire extra nonzero pairings from the degree-3 collapse
    assert permutation_degrees == [0, 1, 5, 6]
    graded = associated_graded()
    for degree in range(7):
        _, _, matrix = frobenius_matrix(graded, degree)
        assert is_generalized_permutation(matrix)


def _lost_swap():
    """The relations with the swap term of e_a1.f_a1 dropped: its rhs keeps
    only nu*f_a12.e_a12, which vanishes at q = 1."""
    algebra = build_relations()
    word = algebra.alphabet.word
    lhs = word("e_a1", "f_a1")
    rules = [RewriteRule(lhs, algebra.monomial(word("f_a12", "e_a12"), NU))
             if rule.lhs == lhs else rule for rule in algebra.system.rules]
    return flagext.ExteriorAlgebra("lost-swap", ReductionSystem(algebra.alphabet, rules))


def test_classical_limit_report():
    for algebra, failing in ((build_relations(), []),
                             (_lost_swap(), ["classical:e_a1.f_a1"])):
        report = flagext.classical_limit_check(algebra)
        assert [check.id for check in report.failures()] == failing
        assert len(report.checks) == 21


def test_the_system_at_q_one_is_confluent_and_classical_sized():
    # at q = 1 the nu corrections vanish and all 56 overlaps resolve, so the
    # quotient is the classical exterior algebra; q-generically the oracle
    # finds 16 dimensions in degree 3, not 20
    at_one = flagext.system_at_one(build_relations())
    assert len(at_one.overlap_ambiguities()) == 56
    assert at_one.confluence_check().overall
    assert ([quotient_dimension_by_elimination(at_one, k) for k in range(8)]
            == [1, 6, 15, 20, 15, 6, 1, 0])
    assert quotient_dimension_by_elimination(build_relations().system, 3) == 16
    assert all(coeff == -ONE for rule in at_one.rules for coeff in rule.rhs.terms.values())


def test_the_dimension_check_at_q_one_reads_the_system_at_q_one(monkeypatch):
    # q-generically the quotient has 16 dimensions in degree 3, so the check
    # fails when it is handed the rules before evaluation at q = 1
    def check():
        report = suites.suite_classical()
        return next(c for c in report.checks if c.id == "dimensions-at-q1")

    assert check().passed and check().actual == "[1, 6, 15, 20, 15, 6, 1]"
    monkeypatch.setattr(flagext, "system_at_one", lambda algebra: algebra.system)
    assert not check().passed and check().actual.startswith("[1, 6, 15, 16,")
