"""Mutation matrix: one-line edits to the bundled data, applied in process.

Each mutation must leave `suites.run_all()` complete (a fault in the data is
a failing check, not an escaped exception) and change the pass flag or the
actual value of at least one check against the recorded report.  Once the
mutation is undone and every cache emptied, a clean run must reproduce the
recorded report exactly, so no mutated value survives in a cache.
"""

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import qflag3
from qflag3 import flagext, qpair, rootdata, suites
from qflag3.ncpoly import NCPolynomial, RewriteRule
from qflag3.scalar import Coefficient, ONE

RECORDED_REPORT = Path(__file__).parent / "data" / "verify_all.json"
Q = Coefficient.q_power


def _modules():
    return [importlib.import_module("qflag3." + info.name)
            for info in pkgutil.iter_modules(qflag3.__path__)
            if info.name != "__main__"]


def _clear_caches():
    # every lru_cache and every module-level dict named *_cache
    for module in _modules():
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and name.endswith("_cache"):
                value.clear()


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


def _checks(reports):
    """(suite, check id) -> (pass, actual), for JSON objects of reports."""
    return {(report["suite"], check["id"]): (check["pass"], check["actual"])
            for report in reports for check in report["checks"]}


# -- the mutations: each patches one place and returns nothing ------------------


def e_a12_convention_c_q(monkeypatch):
    # E_a12 = E2 E1 - c E1 E2 with c = q instead of q^-1
    monkeypatch.setitem(qpair.MEMBERS, "E_a12", ((ONE, "E2 E1"), (-Q(1), "E1 E2")))


def f_a12_convention_d_q(monkeypatch):
    # F_a12 = q^-1 K1 K2 (F1 F2 - d F2 F1) with d = q instead of q^-1
    monkeypatch.setitem(qpair.MEMBERS, "F_a12",
                        ((Q(-1), "K1 K2 F1 F2"), (-ONE, "K1 K2 F2 F1")))


def opposite_e_coproduct(monkeypatch):
    # Delta(E_i) = E_i (x) 1 + K_i (x) E_i instead of E_i (x) K_i + 1 (x) E_i
    monkeypatch.setitem(qpair.COPRODUCT_K_POWERS, "E", (0, 1))


def antipode_q_term_sign(monkeypatch):
    original = qpair.antipode_word

    def mutated(i, j):
        # S(u_ij) = sign (u_km u_ln - q u_kn u_lm): the q term is the word
        # whose column index falls
        poly = original(i, j)
        return NCPolynomial(poly.alphabet,
                            {w: -c if w[0] % 3 > w[1] % 3 else c
                             for w, c in poly.terms.items()})

    monkeypatch.setattr(qpair, "antipode_word", mutated)


def k1_diagonal(monkeypatch):
    # K1 = diag(q, q^-1, 1) instead of diag(q^-1, q, 1)
    monkeypatch.setitem(qpair.GENERATORS, "K1", {1: (1, Q(1)), 2: (2, Q(-1)), 3: (3, ONE)})


def _edit_rules(monkeypatch, edit):
    """Rewrite the rhs of every rule that `edit(lhs, rhs)` maps to a new
    term dict; it returns None to keep the rule."""
    original = flagext._relation_rules

    def mutated(with_nu_terms):
        rules = []
        for rule in original(with_nu_terms):
            terms = edit(rule.lhs, rule.rhs)
            if terms is not None:
                rule = RewriteRule(rule.lhs, NCPolynomial(rule.rhs.alphabet, terms))
            rules.append(rule)
        return rules

    monkeypatch.setattr(flagext, "_relation_rules", mutated)


def rules_nu_sign(monkeypatch):
    # the correction of e_a2 f_a2 -> -q^2 f_a2 e_a2 + nu f_a12 e_a12
    lhs = qpair.COTANGENT_ALPHABET.word("e_a2", "f_a2")
    theta = qpair.COTANGENT_ALPHABET.word("f_a12", "e_a12")

    def edit(rule_lhs, rhs):
        if rule_lhs != lhs or theta not in rhs.terms:
            return None
        return {w: -c if w == theta else c for w, c in rhs.terms.items()}

    _edit_rules(monkeypatch, edit)


def ff_swap_exponent(monkeypatch):
    # f_g f_b -> -q^(-(b, g)) f_b f_g becomes -q^((b, g)) f_b f_g
    def edit(lhs, rhs):
        first, second = (rootdata.LETTERS[k] for k in lhs)
        if first == second or not (first.startswith("f_") and second.startswith("f_")):
            return None
        return {w: ONE / c for w, c in rhs.terms.items()}

    _edit_rules(monkeypatch, edit)


MUTATIONS = [
    e_a12_convention_c_q,
    f_a12_convention_d_q,
    opposite_e_coproduct,
    k1_diagonal,
    antipode_q_term_sign,
    rules_nu_sign,
    ff_swap_exponent,
]


@pytest.mark.parametrize("mutate", MUTATIONS)
def test_a_mutation_changes_a_check(mutate, clean_caches, time_limit):
    recorded = json.loads(RECORDED_REPORT.read_text(encoding="utf-8"))
    with pytest.MonkeyPatch.context() as patch, time_limit(10):
        mutate(patch)
        mutated = [report.to_json_obj() for report in suites.run_all()]
    _clear_caches()
    assert [report.to_json_obj() for report in suites.run_all()] == recorded
    expected = _checks(recorded)
    changed = [key for key, value in _checks(mutated).items()
               if expected.get(key) != value]
    assert changed, "no check saw the mutation"


def test_the_letter_action_check_sees_the_opposite_coproduct(clean_caches):
    # with the opposite coproduct of E the coset map is no module map: the
    # build of the letter action stops at x = u11 - 1, before any suite reads it
    with pytest.MonkeyPatch.context() as patch:
        opposite_e_coproduct(patch)
        with pytest.raises(AssertionError, match="x = u11 - eps is not the action"):
            qpair.right_act(qpair.cotangent("e_a1"), qpair.u_monomial((1, 1)))


def test_the_antipode_axiom_sees_the_q_term_sign(clean_caches, reachable_states,
                                                antipode_axiom_defects):
    # with the sign of the q term of S flipped, sum_k u_ik S(u_kj) no longer
    # pairs to the counit: the pairing sees the mutant without the ideal
    # generators' own check
    assert antipode_axiom_defects(reachable_states) == []
    with pytest.MonkeyPatch.context() as patch:
        antipode_q_term_sign(patch)
        assert antipode_axiom_defects(reachable_states) != []
