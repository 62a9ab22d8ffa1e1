"""One benchmark operation, run in a fresh interpreter by ``run.py``.

    python perfbench/ops.py verify
    python perfbench/ops.py oracle --max-degree 5
    python perfbench/ops.py omega --seed 7 --crosscheck 40
    python perfbench/ops.py <op> ... --profile

Each operation imports qflag3 itself, so the import and every cache fill are
paid inside the operation, as a command-line run pays them.  It times its own
calls into the public functions of each module (spans, in seconds) and prints
one JSON object on its last line of standard output.  With ``--profile`` the
whole operation runs under cProfile and the object also carries the profile,
aggregated by source file, and exact call counts of named functions.

Nothing here changes qflag3: the operation only calls its functions, reads
the sizes of its module-level caches and profiles it from outside.
"""

from __future__ import annotations

import argparse
import cProfile
import fractions
import json
import pstats
import random
import sys
import time

# (module, attribute path) of each function whose calls are counted exactly.
# ``fractions`` is the standard-library module that ``scalar`` builds on.
COUNTED = {
    "scalar.canonicalize_calls": ("qflag3.scalar", "_canonicalize"),
    "scalar.gcd_calls": ("qflag3.scalar", "LaurentPoly.gcd"),
    "scalar.fraction_new_calls": ("fractions", "Fraction.__new__"),
    "qpair.pair2_word_calls": ("qflag3.qpair", "_pair2_word"),
    "qpair.pair_word_calls": ("qflag3.qpair", "_pair_word"),
    "ncpoly.nf_word_calls": ("qflag3.ncpoly", "ReductionSystem._nf_word"),
}

PROFILED_MODULES = ("scalar", "qpair", "ncpoly", "flagext", "geometry")


class Spans(dict):
    """Wall time of each timed call, by span name."""

    def time(self, name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self[name] = time.perf_counter() - start
        return result


def _import_cli(spans):
    def load():
        import qflag3.cli  # noqa: F401  (the package and its CLI module)
        return sys.modules["qflag3"]
    return spans.time("cli.import_s", load)


def op_verify(args, spans):
    """`qflag3 verify all --format json`, one suite call at a time."""
    qflag3 = _import_cli(spans)
    spans.time("flagext.build_relations_s", qflag3.flagext.build_relations)
    suites, report = qflag3.suites, qflag3.report
    reports = [spans.time("suites.%s_s" % name, suites.run_suite, name)
               for name in suites.SUITE_NAMES]
    rendered = spans.time("report.emit_s", report.emit, reports, "json")
    return {"exit": 0 if all(r.overall for r in reports) else 1,
            "stdout": rendered + "\n"}


def op_oracle(args, spans):
    """Exact quotient dimensions of the 21-rule system, degrees 2..max."""
    qflag3 = _import_cli(spans)
    algebra = spans.time("flagext.build_relations_s", qflag3.flagext.build_relations)
    oracle = qflag3.ncpoly.quotient_dimension_by_elimination
    degrees = list(range(2, args.max_degree + 1))
    dims = [spans.time("ncpoly.oracle_deg%d_s" % k, oracle, algebra.system, k)
            for k in degrees]
    return {"degrees": degrees, "dimensions": dims}


def crosscheck_subset(labels, rng, count):
    """``count`` generators, one drawn from each of ``count`` consecutive
    blocks of the label order, so every seed samples the three generator
    families (and their costs) in the same proportions."""
    bounds = [len(labels) * i // count for i in range(count + 1)]
    return [labels[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def op_omega(args, spans):
    """omega over every ideal generator in a seeded order, the span
    derivation, and the expansion route on a seeded subset."""
    qflag3 = _import_cli(spans)
    flagext, qpair = qflag3.flagext, qflag3.qpair
    algebra = spans.time("flagext.build_relations_s", flagext.build_relations)
    generators = dict(spans.time("flagext.ideal_generators_s", flagext.ideal_generators))
    rng = random.Random(args.seed)
    order = list(generators)
    rng.shuffle(order)
    omegas = spans.time("qpair.omega_cold_s",
                        lambda: {label: qpair.omega(generators[label]) for label in order})
    derived = spans.time("flagext.derive_relations_s",
                         flagext.derive_relations_via_omega, algebra)
    mismatches = []
    if args.crosscheck:
        subset = crosscheck_subset(list(generators), rng, args.crosscheck)
        mismatches = spans.time("qpair.omega_by_expansion_s", lambda: [
            label for label in subset
            if qpair.omega_by_expansion(generators[label]) != omegas[label]])
    return {"derived": list(derived), "mismatches": mismatches}


OPS = {"verify": op_verify, "oracle": op_oracle, "omega": op_omega}


def _lookup(module, path):
    obj = sys.modules.get(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return getattr(obj, "__code__", None)


def _oracle_rows(stats, ncpoly_file):
    """(rows built, pivot rows kept) by the elimination oracle.

    Its row-building comprehension runs once per row, more often than any
    other comprehension it calls; the comprehension that divides by the
    pivot runs once per pivot.  Both are absent where comprehensions are
    inlined (Python 3.12 and later) or the oracle is rewritten.
    """
    oracle = "quotient_dimension_by_elimination"
    if not any(func[0] == ncpoly_file and func[2] == oracle for func in stats):
        return {"ncpoly.oracle_rows": 0, "ncpoly.oracle_rank": 0}
    comps = {func: nc for func, (_, nc, _, _, callers) in stats.items()
             if func[0] == ncpoly_file and func[2] == "<dictcomp>"
             and any(c[2] == oracle for c in callers)}
    dividers = set()
    for func, (_, _, _, _, callers) in stats.items():
        if func[2] == "__truediv__":
            dividers.update(callers)
    pivots = [nc for func, nc in comps.items() if func in dividers]
    if not comps or len(pivots) != 1:
        return {}
    return {"ncpoly.oracle_rows": max(comps.values()), "ncpoly.oracle_rank": pivots[0]}


def summarize_profile(profiler):
    """Self time and calls per layer file, plus exact counts; a count whose
    function no longer exists is left out."""
    stats = pstats.Stats(profiler).stats
    files = {"fractions": fractions.__file__}
    for name in PROFILED_MODULES:
        module = sys.modules.get("qflag3." + name)
        if module is not None:
            files[name] = module.__file__
    layer_of = {path: layer for layer, path in files.items()}
    self_s = dict.fromkeys(files, 0.0)
    calls = dict.fromkeys(files, 0)
    for (path, _, _), (_, nc, tt, _, _) in stats.items():
        layer = layer_of.get(path)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
    counts = {}
    for metric, (module, attr) in COUNTED.items():
        code = _lookup(module, attr)
        if code is not None:
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            counts[metric] = stats[key][1] if key in stats else 0
    if "ncpoly" in files:
        counts.update(_oracle_rows(stats, files["ncpoly"]))
    qpair = sys.modules.get("qflag3.qpair")
    cache = getattr(qpair, "_pair2_cache", None)
    if cache is not None:
        counts["qpair.pair2_cache_entries"] = len(cache)
    return {"self_s": self_s, "calls": calls, "counts": counts}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", choices=sorted(OPS))
    parser.add_argument("--max-degree", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crosscheck", type=int, default=0,
                        help="number of generators to expand (omega only)")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    spans = Spans()
    run = OPS[args.op]
    if args.profile:
        profiler = cProfile.Profile()
        result = profiler.runcall(run, args, spans)
        result["profile"] = summarize_profile(profiler)
    else:
        result = run(args, spans)
    result["spans"] = spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
