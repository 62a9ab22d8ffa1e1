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
    # pivot; degree 3 has 21 rules x 12 placements = 252 rows of rank 200;
    # from degree 4 on the oracle skips a placement disjoint from an earlier
    # one in its word, keeping 1,827 of 2,268 rows in degree 4 (rank
    # 6^4 - 9 = 1,287) and 11,098 of 18,144 in degree 5 (rank 6^5 - 2 =
    # 7,774), so every kept placement is built once and every pivot is
    # divided once
    ops = _load_benchmark_ops()
    system = qflag3.flagext.build_relations().system
    for degree, rows, rank in ((3, 252, 200), (4, 1827, 1287), (5, 11098, 7774)):
        profiler = cProfile.Profile()
        profiler.runcall(qflag3.ncpoly.quotient_dimension_by_elimination, system, degree)
        counts = ops._oracle_rows(pstats.Stats(profiler).stats, qflag3.ncpoly.__file__)
        assert counts == {"ncpoly.oracle_rows": rows, "ncpoly.oracle_rank": rank}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    # each demo prints exactly its recorded output
    result = subprocess.run([sys.executable, str(ROOT / "demos" / (demo + ".py"))],
                            capture_output=True, env=dict(os.environ), timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    recorded = (Path(__file__).parent / "data" / ("demo_%s.txt" % demo)).read_bytes()
    assert result.stdout == recorded
