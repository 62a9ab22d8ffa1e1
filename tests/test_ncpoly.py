import itertools
import random
import signal

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from qflag3 import linalg
from qflag3.flagext import _relation_rules, associated_graded, build_relations
from qflag3.ncpoly import (Alphabet, NCPolynomial, ReductionSystem, RewriteRule,
                           quotient_dimension_by_elimination)
from qflag3.scalar import Coefficient, LaurentPoly, ONE, ZERO

Q = Coefficient.q_power


def toy_alphabet():
    return Alphabet(("x", "y", "z"))


def rule(alphabet, lhs, rhs_terms):
    return RewriteRule(alphabet.word(*lhs),
                       NCPolynomial(alphabet, {alphabet.word(*w): c
                                               for w, c in rhs_terms.items()}))


def test_rule_must_decrease():
    a = toy_alphabet()
    with pytest.raises(ValueError):
        rule(a, ("x", "x"), {("x", "x"): -Q(2)})
    with pytest.raises(ValueError):
        rule(a, ("x", "y"), {("y", "z"): ONE})


def test_duplicate_lhs_rejected():
    a = toy_alphabet()
    r1 = rule(a, ("y", "x"), {("x", "y"): ONE})
    r2 = rule(a, ("y", "x"), {})
    with pytest.raises(ValueError):
        ReductionSystem(a, [r1, r2])


def test_normal_form_examples():
    algebra = build_relations()
    word = algebra.alphabet.word
    nf = algebra.system.normal_form

    result = nf(algebra.monomial(word("e_a1", "e_a2")))
    assert result == algebra.monomial(word("e_a2", "e_a1"), -Q(-1))

    assert nf(algebra.monomial(word("e_a1", "e_a1"))).is_zero()

    result = nf(algebra.monomial(word("e_a1", "f_a1")))
    expected = (algebra.monomial(word("f_a1", "e_a1"), -Q(2))
                + algebra.monomial(word("f_a12", "e_a12"), -Coefficient.nu()))
    assert result == expected


def test_multiply_examples():
    algebra = build_relations()
    word = algebra.alphabet.word
    f_a1 = algebra.monomial(word("f_a1"))
    e_a1 = algebra.monomial(word("e_a1"))
    assert algebra.system.normal_form(f_a1 * e_a1) == algebra.monomial(word("f_a1", "e_a1"))
    assert algebra.system.normal_form(e_a1 * e_a1).is_zero()

    e_a2 = algebra.monomial(word("e_a2"))
    f_a2 = algebra.monomial(word("f_a2"))
    expected = (algebra.monomial(word("f_a2", "e_a2"), -Q(2))
                + algebra.monomial(word("f_a12", "e_a12"), Coefficient.nu()))
    assert algebra.system.normal_form(e_a2 * f_a2) == expected


def test_normal_form_idempotent_and_linear():
    algebra = build_relations()
    rng = random.Random(5)
    letters = list(range(6))
    for _ in range(25):
        terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))):
                 Q(rng.randint(-2, 2)) for _ in range(3)}
        p = NCPolynomial(algebra.alphabet, terms)
        nf = algebra.system.normal_form
        assert nf(nf(p)) == nf(p)
        c = Q(rng.randint(-2, 2))
        assert nf(p.scale(c)) == nf(p).scale(c)


_ALGEBRA = build_relations()
_words = st.lists(st.integers(0, 5), min_size=2, max_size=8).map(tuple)
# mostly the coefficients the relations carry (+-q^k, nu), some with denominators
_coefficients = st.one_of(
    st.sampled_from([ONE, -ONE, Q(1), -Q(-2), Coefficient.nu()]),
    st.builds(
        Coefficient,
        st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(LaurentPoly),
        st.sampled_from([LaurentPoly({0: 1}), LaurentPoly({0: 2}), LaurentPoly({1: 1, -1: -1}),
                         LaurentPoly({0: 1, 1: 1})])))
_polys = st.dictionaries(_words, _coefficients, max_size=4).map(
    lambda terms: NCPolynomial(_ALGEBRA.alphabet, terms))


@settings(max_examples=40, deadline=None)
@given(_polys, _polys, _coefficients, _coefficients)
def test_normal_form_is_linear(p, r, a, b):
    nf = _ALGEBRA.system.normal_form
    assert nf(p.scale(a) + r.scale(b)) == nf(p).scale(a) + nf(r).scale(b)


@settings(max_examples=40, deadline=None)
@given(_polys)
def test_normal_form_is_idempotent(p):
    nf = _ALGEBRA.system.normal_form
    assert nf(nf(p)) == nf(p)


def test_confluent_product_association_independent():
    graded = associated_graded()
    rng = random.Random(9)
    for _ in range(15):
        polys = [NCPolynomial(graded.alphabet,
                              {tuple(rng.choice(range(6)) for _ in range(2)): ONE})
                 for _ in range(3)]
        a, b, c = polys
        nf = graded.system.normal_form
        assert nf(nf(a * b) * c) == nf(a * nf(b * c))


def test_overlap_ambiguities_trivial_cases():
    a = toy_alphabet()
    assert ReductionSystem(a, []).overlap_ambiguities() == []
    system = ReductionSystem(a, [rule(a, ("x", "x"), {})])
    ambiguities = system.overlap_ambiguities()
    assert len(ambiguities) == 1
    assert ambiguities[0][0] == a.word("x", "x", "x")


def test_flag_system_has_56_ambiguities():
    # weakly descending length-3 words over 6 ranked letters: C(8,3)
    algebra = build_relations()
    assert len(algebra.system.overlap_ambiguities()) == 56


def test_deliberately_nonconfluent_system_detected():
    a = toy_alphabet()
    system = ReductionSystem(a, [
        rule(a, ("z", "x"), {("x", "y"): ONE}),
        rule(a, ("x", "x"), {}),
    ])
    # z.x.x reduces to x.y.x on the left and to 0 on the right
    report = system.confluence_check()
    assert not report.overall
    assert [check.id for check in report.failures()] == ["overlap:z.x.x"]


def test_irreducible_words():
    algebra = build_relations()
    assert algebra.system.irreducible_words(0) == [()]
    assert len(algebra.system.irreducible_words(2)) == 15
    assert algebra.system.irreducible_words(7) == []
    # strictly ascending words, in lexicographic order
    words = algebra.system.irreducible_words(2)
    assert words == sorted(words)
    assert all(w[0] < w[1] for w in words)


def test_irreducible_words_stop_at_the_first_empty_degree(time_limit):
    # degree 7 is empty, so no higher degree costs a pass over its words
    with time_limit(1):
        assert build_relations().system.irreducible_words(10**9) == []


def test_hilbert_series():
    algebra = build_relations()
    assert algebra.system.hilbert_series(6) == [1, 6, 15, 20, 15, 6, 1]
    free = ReductionSystem(Alphabet(("x", "y")), [])
    assert free.hilbert_series(3) == [1, 2, 4, 8]
    assert associated_graded().system.hilbert_series(6) == [1, 6, 15, 20, 15, 6, 1]


def test_elimination_oracle_on_graded_system(time_limit):
    # the graded system is confluent, so its quotient has the irreducible-word
    # count in every degree: 1, 6, 15, 20, 15, 6, 1, then 0 from degree 7 on
    graded = associated_graded()
    for degree in range(8):
        with time_limit(5):
            dimension = quotient_dimension_by_elimination(graded.system, degree)
        assert dimension == len(graded.system.irreducible_words(degree))


def test_elimination_oracle_flags_the_full_system_collapse(time_limit):
    # the nu-corrected system genuinely collapses in degree 3: the ideal
    # kills four extra dimensions beyond the skew-commutative count
    algebra = build_relations()
    with time_limit(5):
        assert quotient_dimension_by_elimination(algebra.system, 2) == 15
        assert quotient_dimension_by_elimination(algebra.system, 3) == 16


def test_elimination_oracle_exact_series_after_the_collapse(time_limit):
    # ROADMAP item 2: the true quotient has dimensions 9, 2 and 0 in degrees
    # 4, 5 and 6, so every word of length 6 lies in the ideal, and so does
    # every word of length 7
    system = build_relations().system
    with time_limit(30):
        assert quotient_dimension_by_elimination(system, 4) == 9
        assert quotient_dimension_by_elimination(system, 5) == 2
        assert quotient_dimension_by_elimination(system, 6) == 0
        assert quotient_dimension_by_elimination(system, 7) == 0


def test_elimination_oracle_rejects_a_negative_degree():
    system = build_relations().system
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        quotient_dimension_by_elimination(system, -1)


def _smallest_column_dimension(system, degree):
    """The oracle's dimension with every row pivoted at its smallest column,
    taking the rows in the order they are built."""
    n = len(system.alphabet)
    all_words = [()]
    for _ in range(degree):
        all_words = [w + (letter,) for w in all_words for letter in range(n)]
    col = {w: i for i, w in enumerate(all_words)}
    rows = []
    for rewrite in system.rules:
        relation = [(rewrite.lhs, ONE)] + [(w, -c) for w, c in rewrite.rhs.terms.items()]
        for word in all_words:
            for start in range(degree - 1):
                if word[start:start + 2] == rewrite.lhs:
                    u, v = word[:start], word[start + 2:]
                    rows.append({col[u + w + v]: c for w, c in relation})
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = row[lead]
                pivots[lead] = {j: c / inv for j, c in row.items()}
                break
            factor = row[lead]
            for j, c in pivots[lead].items():
                value = row.get(j, ZERO) - factor * c
                if value.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = value
    return n ** degree - len(pivots)


_RULE_SETS = (_ALGEBRA.system.rules, associated_graded().system.rules)
_rule_subsets = st.builds(lambda rules, chosen: [rules[i] for i in sorted(chosen)],
                          st.sampled_from(_RULE_SETS), st.sets(st.integers(0, 20)))


def _perturbed(rules, pick, coeff):
    """The rules with one term coeff*w added to one rhs: the pick-th (modulo
    their number) of the pairs (rule, w) with w below the rule's lhs and
    not in its rhs."""
    spots = [(i, w) for i, rewrite in enumerate(rules)
             for w in itertools.product(range(6), repeat=2)
             if w < rewrite.lhs and w not in rewrite.rhs.terms]
    i, word = spots[pick % len(spots)]
    terms = dict(rules[i].rhs.terms)
    terms[word] = coeff
    return (rules[:i] + [RewriteRule(rules[i].lhs, NCPolynomial(_ALGEBRA.alphabet, terms))]
            + rules[i + 1:])


# rule subsets with one rhs perturbed, so that in about half of the drawn
# systems some overlaps resolve and others do not
_perturbed_subsets = st.builds(
    _perturbed, _rule_subsets.filter(lambda rules: any(r.lhs > (0, 0) for r in rules)),
    st.integers(0, 10**6), _coefficients.filter(lambda c: not c.is_zero()))
# rules with random coefficients: their overlaps give pivots that are not monic
_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
_random_rules = st.dictionaries(
    _pairs, st.dictionaries(_pairs, _coefficients, min_size=1, max_size=4),
    min_size=8, max_size=20).map(
    lambda spec: [RewriteRule(lhs, NCPolynomial(_ALGEBRA.alphabet,
                                                {w: c for w, c in rhs.items() if w < lhs}))
                  for lhs, rhs in spec.items()])


def _named_calls(time_limit, seconds, *calls):
    """The values of the calls, each a (function, system, degree), made in
    order under one time limit of the given seconds; when the limit fires,
    the TimeoutError names the call it fired in."""
    values, current = [], None
    try:
        with time_limit(seconds):
            for function, system, degree in calls:
                current = "%s(system, %d)" % (function.__name__, degree)
                values.append(function(system, degree))
    except TimeoutError as error:
        raise TimeoutError("%s, in %s" % (error, current)) from None
    return values


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
# no shrink phase: a random-rules example that times out fails at once
# instead of being shrunk through more examples that time out
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.one_of(_rule_subsets, _random_rules))
def test_elimination_oracle_does_not_depend_on_the_pivot_order(time_limit, rules):
    # any set of decreasing rules is a reduction system; the rank of its ideal
    # slice is the same whichever column each row is pivoted at
    system = ReductionSystem(_ALGEBRA.alphabet, rules)
    for degree in (2, 3):
        dimension, = _named_calls(time_limit, 2,
                                  (quotient_dimension_by_elimination, system, degree))
        assert dimension == _smallest_column_dimension(system, degree)


def _unpruned_dimension(system, degree):
    """6^k minus the rank of every raw row u*(lhs - rhs)*v, none skipped, with
    the columns numbered from the largest word down and the rows taken in
    ascending order of their leading word."""
    n = len(system.alphabet)
    words = list(itertools.product(range(n), repeat=degree))
    col = {w: i for i, w in enumerate(reversed(words))}
    rows = []
    for word in words:
        for start in range(degree - 1):
            rewrite = system.rule_for(word[start:start + 2])
            if rewrite is not None:
                u, v = word[:start], word[start + 2:]
                row = {col[word]: ONE}
                row.update((col[u + w + v], -c) for w, c in rewrite.rhs.terms.items())
                rows.append(row)
    return n ** degree - linalg.rank(rows)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@settings(max_examples=10, deadline=None)
@given(st.one_of(_rule_subsets, _perturbed_subsets))
@example(_RULE_SETS[0])
@example(_RULE_SETS[1])
def test_elimination_oracle_skips_only_spanned_rows(time_limit, rules):
    # the oracle builds degree k from the pivots of degree k - 1 and builds
    # a row u*(lhs - rhs) only for an irreducible prefix u and an overlap
    # that degree 3 left unresolved, so it never builds a row with a
    # reducible prefix or a nonempty suffix; the rank must still be that of
    # every row, also where a perturbed rhs mixes resolved and unresolved
    # overlaps
    system = ReductionSystem(_ALGEBRA.alphabet, rules)
    for degree in (4, 5):
        with time_limit(3):
            assert (quotient_dimension_by_elimination(system, degree)
                    == _unpruned_dimension(system, degree))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@settings(max_examples=5, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))  # no shrink, as above
@given(_random_rules)
def test_elimination_oracle_skips_only_spanned_rows_of_random_rules(time_limit, rules):
    # random coefficients make even the unpruned reference slow beyond degree 4
    system = ReductionSystem(_ALGEBRA.alphabet, rules)
    oracle, reference = _named_calls(time_limit, 3, (quotient_dimension_by_elimination, system, 4),
                                     (_unpruned_dimension, system, 4))
    assert oracle == reference


def test_elimination_oracle_has_the_rank_of_every_row_in_degree_6(time_limit):
    # the bundled system's quotient vanishes first in degree 6 and the graded
    # one is 1-dimensional there; the reference builds all 21 x 5 x 6^4 rows
    for rules in _RULE_SETS:
        system = ReductionSystem(_ALGEBRA.alphabet, rules)
        with time_limit(30):
            assert (quotient_dimension_by_elimination(system, 6)
                    == _unpruned_dimension(system, 6))


def _relabelled(word):
    """A word in the oracle's letters, x -> 5 - x, so that the largest word of
    a length is the least; the map is its own inverse."""
    return tuple(5 - letter for letter in word)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(_rule_subsets, st.permutations(range(6))),
    st.tuples(_random_rules, st.permutations(range(4)))).filter(
    lambda drawn: drawn[1] != sorted(drawn[1])))
def test_elimination_oracle_answers_in_any_order_as_a_cold_call(time_limit, drawn):
    # the system keeps the oracle's state between calls; asked in any order,
    # a lower degree after a higher one included, each answer is that of a
    # call on a fresh system (random coefficients up to degree 3 only, as
    # they make degree 4 slow)
    rules, order = drawn
    system = ReductionSystem(_ALGEBRA.alphabet, rules)
    with time_limit(10):
        for degree in order:
            cold = quotient_dimension_by_elimination(ReductionSystem(_ALGEBRA.alphabet, rules),
                                                     degree)
            assert quotient_dimension_by_elimination(system, degree) == cold


def test_elimination_oracle_keeps_only_made_pivots_up_to_degree_8(time_limit):
    # the kept state holds the pivots that reduction made in the top degree,
    # at irreducible words only, so never more than there are of them; both
    # systems have none of length 7, and degree 8 is as cheap as degree 7
    for rules in _RULE_SETS:
        system = ReductionSystem(_ALGEBRA.alphabet, rules)
        with time_limit(5):
            for degree in range(2, 9):
                quotient_dimension_by_elimination(system, degree)
                irreducible = {_relabelled(w) for w in system.irreducible_words(degree)}
                assert set(system._echelon.made) <= irreducible
            assert quotient_dimension_by_elimination(system, 8) == 0
        assert not system._echelon.made


def test_elimination_oracle_derives_rule_placements_as_raw_pivots(monkeypatch):
    # every pivot the oracle's lookup derives at a word is a placement
    # u*(lhs - rhs)*v of a rule, in tail form the rhs placed, and it derives
    # none at an irreducible word; the oracle extends one degree per call
    derived, linalg_reduce = [], linalg.reduce

    def reduce(row, pivots, lookup=None):
        def recorded(lead):
            tail = lookup(lead)
            derived.append((lead, tail))
            return tail
        return linalg_reduce(row, pivots, recorded)
    monkeypatch.setattr(linalg, "reduce", reduce)
    derived_in = []
    for index, rules in enumerate(_RULE_SETS):
        system = ReductionSystem(_ALGEBRA.alphabet, rules)
        for degree in range(2, 7):
            derived.clear()
            quotient_dimension_by_elimination(system, degree)
            for lead, tail in derived:
                word = _relabelled(lead)
                assert len(word) == degree and set(word) <= set(range(6))
                placements = [{_relabelled(word[:p] + v + word[p + 2:]): c
                               for v, c in system.rule_for(word[p:p + 2]).rhs.terms.items()}
                              for p in range(degree - 1) if system.rule_for(word[p:p + 2])]
                assert tail in placements if placements else tail is None
            if derived:
                derived_in.append((index, degree))
    # the bundled system derives raw pivots in degrees 3-6; the graded one
    # resolves every overlap and makes no pivot in degree 3, so it reduces
    # no row above degree 3
    assert derived_in == [(0, 3), (0, 4), (0, 5), (0, 6), (1, 3)]


def test_elimination_oracle_leaves_unresolved_the_overlaps_confluence_fails():
    # the oracle resolves an overlap by reducing its degree-3 row against its
    # own pivots, and the rewrite engine by comparing two normal forms; the
    # two agree: the bundled system leaves the 4 overlaps through e_a2.f_a2
    # unresolved, and its associated graded system none
    for rules, unresolved in ((_RULE_SETS[0], ["e_a1.e_a2.f_a2", "e_a2.e_a2.f_a2",
                                               "e_a2.f_a1.f_a2", "e_a2.f_a2.f_a2"]),
                              (_RULE_SETS[1], [])):
        system = ReductionSystem(_ALGEBRA.alphabet, rules)
        quotient_dimension_by_elimination(system, 3)
        overlaps = [triple for triple, _, _ in system.overlap_ambiguities()]
        assert len(overlaps) == 56
        assert sorted(_ALGEBRA.alphabet.render_word(triple) for triple in overlaps
                      if _relabelled(triple) not in system._echelon.resolved) == unresolved
        assert sorted(check.id.split(":")[1] for check in
                      system.confluence_check().failures()) == unresolved


def test_the_nu_term_on_e_a2_f_a2_alone_causes_every_overlap_failure(time_limit):
    # the full and graded rules share their order, so each nu-term can be put
    # in alone: the e_a2.f_a2 term alone leaves the bundled system's 4
    # overlaps unresolved with the same differences, nu^2 times -q,
    # -(q + q^-1) or -q^2; the e_a1.f_a1 term alone resolves all 56 overlaps
    full, graded = _relation_rules(True), _relation_rules(False)
    assert [rule.lhs for rule in full] == [rule.lhs for rule in graded]
    alphabet = _ALGEBRA.alphabet

    def alone(root):
        lhs = alphabet.word("e_" + root, "f_" + root)
        return ReductionSystem(alphabet, [with_nu if with_nu.lhs == lhs else without
                                          for with_nu, without in zip(full, graded)])

    def differences(system):
        out = {}
        for triple, left, right in system.overlap_ambiguities():
            via_left, via_right = system.resolve_ambiguity(triple, left, right)
            out[alphabet.render_word(triple)] = via_left - via_right
        return out

    bundled, a2, a1 = differences(_ALGEBRA.system), alone("a2"), alone("a1")
    assert len(bundled) == 56 and differences(a2) == bundled
    nu_squared = Coefficient.nu() * Coefficient.nu()
    assert {triple: difference.scale(ONE / nu_squared).render()
            for triple, difference in bundled.items() if not difference.is_zero()} == {
        "e_a1.e_a2.f_a2": "(-q - q^-1)*f_a12.e_a12.e_a1",
        "e_a2.e_a2.f_a2": "-q^2*f_a12.e_a2.e_a12",
        "e_a2.f_a1.f_a2": "(-q - q^-1)*f_a12.f_a1.e_a12",
        "e_a2.f_a2.f_a2": "-q*f_a2.f_a12.e_a12"}
    a1_differences = differences(a1)
    assert len(a1_differences) == 56
    assert all(difference.is_zero() for difference in a1_differences.values())
    for system, series in ((a2, [1, 6, 15, 16, 9, 2, 0, 0]), (a1, [1, 6, 15, 20, 15, 6, 1, 0])):
        with time_limit(5):
            assert [quotient_dimension_by_elimination(system, k) for k in range(8)] == series


def test_elimination_oracle_never_calls_the_rewrite_engine(monkeypatch, time_limit):
    # the oracle reads only the rules and the alphabet size, so its series
    # is the algebra's whatever the rewrite engine computes
    def engine(*args, **kwargs):
        raise AssertionError("the oracle called the rewrite engine")
    for name in ("_nf_word", "normal_form", "irreducible_words", "hilbert_series",
                 "overlap_ambiguities", "resolve_ambiguity", "confluence_check", "rule_for"):
        monkeypatch.setattr(ReductionSystem, name, engine)
    for rules, series in ((_RULE_SETS[0], [1, 6, 15, 16, 9, 2, 0, 0, 0]),
                          (_RULE_SETS[1], [1, 6, 15, 20, 15, 6, 1, 0, 0])):
        system = ReductionSystem(_ALGEBRA.alphabet, rules)
        with time_limit(5):
            assert [quotient_dimension_by_elimination(system, k) for k in range(9)] == series


def test_elimination_oracle_keeps_its_echelon_state_as_words(time_limit):
    # in degree 3 the bundled system makes its 4 pivots at the 4 words the
    # ideal kills; in every degree each kept pivot's tail has words of its
    # lead's length below its lead, the prefixes are the irreducible words
    # one letter shorter, and the resolved overlaps are degree-3 words
    render = _ALGEBRA.alphabet.render_word
    system = ReductionSystem(_ALGEBRA.alphabet, _RULE_SETS[0])
    quotient_dimension_by_elimination(system, 3)
    assert sorted(render(_relabelled(lead)) for lead in system._echelon.made) == [
        "f_a12.e_a12.e_a1", "f_a12.e_a2.e_a12", "f_a12.f_a1.e_a12", "f_a2.f_a12.e_a12"]
    for rules in _RULE_SETS:
        system = ReductionSystem(_ALGEBRA.alphabet, rules)
        with time_limit(5):
            for degree in range(2, 9):
                quotient_dimension_by_elimination(system, degree)
                state = system._echelon
                for lead, tail in state.made.items():
                    assert len(lead) == degree
                    assert all(len(w) == degree and _relabelled(w) < _relabelled(lead)
                               for w in tail)
                assert (sorted(_relabelled(u) for u in state.prefixes)
                        == system.irreducible_words(degree - 1))
                assert all(len(w) == 3 for w in state.resolved)


def _specialized_rank(system, qval):
    """Degree-3 relation rank with q evaluated at a rational, using plain
    Fraction arithmetic only (independent of the symbolic coefficient code)."""
    from fractions import Fraction

    def evaluate(coeff):
        numerator = sum((c * qval ** e for e, c in coeff.num.terms.items()),
                        Fraction(0))
        denominator = sum((c * qval ** e for e, c in coeff.den.terms.items()),
                          Fraction(0))
        return numerator / denominator

    columns = {}

    def column(word):
        return columns.setdefault(word, len(columns))

    rows = []
    for rewrite in system.rules:
        relation = [(rewrite.lhs, Fraction(1))] + \
            [(w, -evaluate(c)) for w, c in rewrite.rhs.terms.items()]
        for letter in range(6):
            rows.append({column((letter,) + w): c for w, c in relation})
            rows.append({column(w + (letter,)): c for w, c in relation})
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = row[lead]
                pivots[lead] = {j: c / inv for j, c in row.items()}
                rank += 1
                break
            factor = row[lead]
            for j, c in pivots[lead].items():
                value = row.get(j, Fraction(0)) - factor * c
                if value == 0:
                    row.pop(j, None)
                else:
                    row[j] = value
    return rank


def test_degree_3_collapse_confirmed_at_rational_specialization():
    from fractions import Fraction
    assert _specialized_rank(build_relations().system, Fraction(3, 2)) == 200
    assert _specialized_rank(associated_graded().system, Fraction(3, 2)) == 196


def test_rule_dump_format():
    algebra = build_relations()
    lines = algebra.system.dump_rules().splitlines()
    assert len(lines) == 21
    assert "e_a1.e_a2 -> -q^-1*e_a2.e_a1" in lines
    assert "f_a2.f_a2 -> 0" in lines
    assert ("e_a2.f_a2 -> -q^2*f_a2.e_a2 + (q - q^-1)*f_a12.e_a12" in lines)
