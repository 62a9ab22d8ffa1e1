import cProfile
import importlib.util
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


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="comprehensions are inlined, so ops.py cannot count oracle rows")
def test_benchmark_oracle_counters_read_the_oracle():
    # perfbench/ops.py counts the oracle's rows and pivots by profiling its
    # row-building comprehension and the comprehension that divides by the
    # pivot; the oracle builds degree 2 up to k, one row u*(lhs - rhs) per
    # rule and irreducible prefix u of length at most k - 2 (1, 6, 15 and
    # 20 prefixes of lengths 0 to 3), so 21 x 7 = 147, 21 x 22 = 462 and
    # 21 x 42 = 882 rows in degrees 3, 4 and 5; it divides only the pivots
    # that reduction makes, irreducible words minus dimension summed over
    # the degrees: 20 - 16 = 4 in degree 3, 15 - 9 = 6 in degree 4 and
    # 6 - 2 = 4 in degree 5, so 4, 10 and 14
    ops = _load_benchmark_ops()
    system = qflag3.flagext.build_relations().system
    for degree, rows, made in ((3, 147, 4), (4, 462, 10), (5, 882, 14)):
        profiler = cProfile.Profile()
        profiler.runcall(qflag3.ncpoly.quotient_dimension_by_elimination, system, degree)
        counts = ops._oracle_rows(pstats.Stats(profiler).stats, qflag3.ncpoly.__file__)
        assert counts == {"ncpoly.oracle_rows": rows, "ncpoly.oracle_rank": made}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    # each demo prints exactly its recorded output
    result = subprocess.run([sys.executable, str(ROOT / "demos" / (demo + ".py"))],
                            capture_output=True, env=dict(os.environ), timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    recorded = (Path(__file__).parent / "data" / ("demo_%s.txt" % demo)).read_bytes()
    assert result.stdout == recorded
