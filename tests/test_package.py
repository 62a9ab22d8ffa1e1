import argparse
import ast
import cProfile
import importlib.util
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

import qflag3

ROOT = Path(__file__).parent.parent
DEMOS = ("01_exterior_algebra", "02_pairing_engine", "03_geometry_and_kahler")


def test_every_exported_name_resolves():
    for name in qflag3.__all__:
        assert hasattr(qflag3, name), name


def test_every_public_function_has_a_caller_outside_the_tests():
    # a public function or method that only tests call is API without a
    # user.  A method counts as called where its name is an attribute (x.m),
    # a function where its name is a name or an attribute (f, module.f), so
    # a local variable that shares a method's name does not count.  Two stay
    # without a caller: star, for the *-structure tests and the suite that
    # is to check the *-structure, and Coefficient.zero, which
    # tests/test_acceptance.py calls and that file is not edited
    methods, functions = set(), set()
    for path in (ROOT / "src" / "qflag3").glob("*.py"):
        tree = ast.parse(path.read_text())
        in_class = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                (methods if id(node) in in_class else functions).add(node.name)
    attributes, names = set(), set()
    for folder in ("src/qflag3", "demos", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
    uncalled = (methods - attributes) | (functions - attributes - names)
    assert sorted(uncalled) == ["star", "zero"]


def test_the_module_memos_are_the_listed_ones(module_memos):
    # every lru_cache function and *_cache dict at module level, as
    # clean_caches finds them.  A memo costs code and a way for a patched
    # value to outlive its use, so a new entry here needs its own A/B
    # measurement in CHANGES.md: the workloads with and without it alone
    assert module_memos == [
        "flagext.associated_graded", "flagext.build_relations", "flagext.ideal_generators",
        "geometry._flag_omega", "geometry.centrality_verdicts", "geometry.enumerate_foacs",
        "qpair._entry", "qpair._largest_reach", "qpair._letter_action", "qpair._member_states",
        "qpair._pair2_cache", "qpair._steps", "qpair.all_flag_generators",
        "qpair.duals_by_weight", "qpair.letter_weights",
    ]


def test_the_cli_starts_without_the_rational_number_modules():
    # every term value is an int, so importing the CLI loads neither fractions
    # nor the decimal and numbers modules that fractions imports
    code = ("import sys, qflag3.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _load_benchmark_ops():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ops", ROOT / "perfbench" / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    return ops


def test_benchmark_counters_resolve():
    # perfbench/ops.py counts calls by function name and reads the size of
    # the product-pairing cache; a rename would drop the count silently, and
    # a product pairing that bypassed the cache would empty its hit ratio
    ops = _load_benchmark_ops()
    for metric, (module, attr) in ops.COUNTED.items():
        __import__(module)
        assert ops._lookup(module, attr) is not None, metric
    qpair = qflag3.qpair
    qpair._pair2_cache.clear()
    qpair.omega(qpair.plus_part(qpair.flag_generator(1, 2, 2)))
    assert qpair._pair2_cache


def test_benchmark_operations_give_the_known_answers(time_limit):
    # the three operations perfbench/run.py times, run in this process as
    # ops.py runs them, each checked against known_answers.json as run.py
    # checks it, so a change that breaks the benchmark's answers fails here
    ops = _load_benchmark_ops()
    known = json.loads((ROOT / "perfbench" / "known_answers.json").read_text())
    args = argparse.Namespace(max_degree=5, seed=1, crosscheck=40)
    with time_limit(60):
        results = {op: (ops.OPS[op](args, spans), spans)
                   for op, spans in (("verify", ops.Spans()), ("oracle", ops.Spans()),
                                     ("omega", ops.Spans()))}

    verify, spans = results["verify"]
    checks = {report["suite"] + "/" + check["id"]: check["pass"]
              for report in json.loads(verify["stdout"]) for check in report["checks"]}
    answer = known["verify-cli"]
    assert verify["exit"] == answer["exit_code"]
    assert len(checks) == answer["checks"] and sum(checks.values()) == answer["passed"]
    failing = sorted(name for name, passed in checks.items() if not passed)
    assert failing == sorted(answer["failing"])
    assert {"suites.%s_s" % name for name in qflag3.suites.SUITE_NAMES} <= set(spans)

    oracle, spans = results["oracle"]
    assert oracle == known["oracle-deg5"]
    assert {"ncpoly.oracle_deg%d_s" % k for k in range(2, 6)} <= set(spans)

    omega, spans = results["omega"]
    assert omega == known["omega-crosscheck"]
    assert "qpair.omega_by_expansion_s" in spans


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="comprehensions are inlined, so ops.py cannot count oracle rows")
def test_benchmark_oracle_counters_read_the_oracle():
    # perfbench/ops.py counts the oracle's rows and pivots by profiling its
    # row-building comprehension and the comprehension that divides by the
    # pivot.  Degree 2 has no row and degree 3 one per overlap a*b*c (the 56
    # weakly descending words).  Degree k > 3 has one per pivot made in
    # degree k-1 and letter, and one per overlap that degree 3 left
    # unresolved and irreducible (strictly ascending) word of length k-2
    # ending in a, C(rank a, k-3) of them: the 4 unresolved overlaps start
    # with e_a1 (rank 5) once and e_a2 (rank 3) three times, so 5 + 3 x 3 =
    # 14 in degree 4 and 10 + 3 x 3 = 19 in degree 5.  The made pivots are
    # irreducible words minus dimension: 20 - 16 = 4, 15 - 9 = 6 and
    # 6 - 2 = 4.  One degree at a time on one system, the increments are 56,
    # 4 x 6 + 14 = 38 and 6 x 6 + 19 = 55 rows, with 4, 6 and 4 pivots; a
    # cold call on a fresh system builds every degree up to its own, 56, 94
    # and 149 rows with 4, 10 and 14 pivots
    ops = _load_benchmark_ops()
    bundled = qflag3.flagext.build_relations().system

    def counts(system, degree):
        profiler = cProfile.Profile()
        profiler.runcall(qflag3.ncpoly.quotient_dimension_by_elimination, system, degree)
        return ops._oracle_rows(pstats.Stats(profiler).stats, qflag3.ncpoly.__file__)
    warm = qflag3.ncpoly.ReductionSystem(bundled.alphabet, bundled.rules)
    for degree, rows, made, cold_rows, cold_made in ((3, 56, 4, 56, 4), (4, 38, 6, 94, 10),
                                                     (5, 55, 4, 149, 14)):
        cold = qflag3.ncpoly.ReductionSystem(bundled.alphabet, bundled.rules)
        assert counts(cold, degree) == {"ncpoly.oracle_rows": cold_rows,
                                        "ncpoly.oracle_rank": cold_made}
        assert counts(warm, degree) == {"ncpoly.oracle_rows": rows, "ncpoly.oracle_rank": made}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    # each demo prints exactly its recorded output
    result = subprocess.run([sys.executable, str(ROOT / "demos" / (demo + ".py"))],
                            capture_output=True, env=dict(os.environ), timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    recorded = (Path(__file__).parent / "data" / ("demo_%s.txt" % demo)).read_bytes()
    assert result.stdout == recorded
