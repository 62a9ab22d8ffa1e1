"""Benchmark of qflag3: cold, closed-loop runs of three workloads.

    python3 perfbench/run.py --workload verify-cli --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

One client runs operations one after another; each operation is a fresh
Python interpreter, because every command-line run pays for importing the
package and filling its module-level caches (pairing caches, normal-form
caches, the cached relation set), and a warm repeat in one process measures
almost nothing.  Workloads:

  verify-cli        `python -m qflag3 verify all --format json`, as users run it
  oracle-deg5       the exact quotient-dimension oracle in degrees 2..5
  omega-crosscheck  omega over all ideal generators in a seeded order, the span
                    derivation, and the expansion route on a seeded subset

Each run starts with one discarded warm-up operation, so bytecode is compiled
before anything is timed (oracle-deg5 warms up on degrees 2-3 only), then
measures for --seconds: a round starts only if it should end in time.  Every
operation's verdict is checked against known_answers.json, written by hand from
the README's "Verification status" and ROADMAP item 2; a wrong verdict, a
crash or a timeout counts as failed and is never retried or dropped.

--trace 0 prints the end-to-end metrics: setup_s, the median wall time of a
fresh interpreter until `import qflag3` and `flagext.build_relations()`
return (children of its own, one before each operation); the median
operation's wall time from spawn to verdict (verdict_s) and user+system CPU
time (cpu_s); and the median peak resident set of an operation (peak_rss_mb).
Times are scaled to a nominal host speed, which this process measures on the
children's CPU while each child runs: see README.md, "Host speed".  The
record line gives the quartiles of each timing, scaled and as measured.

--trace 1 prints the per-layer metrics: spans the operation times around its
own calls into each module, cProfile self time and calls per source file,
exact call counts, and the cost of profiling (trace_overhead).

Standard output holds one record line (environment, sample counts, failures,
the SHA-256 of the verify-cli report) and, last, the result line.
"""

from __future__ import annotations

import argparse
import fractions
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
OPS = str(BENCH / "ops.py")
KNOWN = json.loads((BENCH / "known_answers.json").read_text())

WORKLOADS = ("verify-cli", "oracle-deg5", "omega-crosscheck")
RUN_BUDGET_S = 170        # a run, warm-up included, ends within 180 s
MIN_SETUP_SAMPLES = 10
CROSSCHECK = 40           # generators expanded per omega-crosscheck operation
SETUP_CODE = "import qflag3.flagext; qflag3.flagext.build_relations()"
CLI = ["-m", "qflag3", "verify", "all", "--format", "json"]
PROBE_EVERY_S = 0.02      # while a child runs, probe the CPU this often
PROBES_AROUND = 3         # probes just before the spawn and just after the exit
PROBE_S = 0.001           # nominal probe time: see README.md, "Host speed"

END_TO_END = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SUITES = ("acs", "confluence", "connections", "integrability", "kahler",
          "nakayama", "relations")
SPANS = (["cli.import_s", "flagext.build_relations_s"]
         + ["suites.%s_s" % name for name in SUITES]
         + ["report.emit_s", "flagext.ideal_generators_s", "qpair.omega_cold_s",
            "flagext.derive_relations_s", "qpair.omega_by_expansion_s"]
         + ["ncpoly.oracle_deg%d_s" % k for k in range(2, 6)])
SELF_TIMES = {"scalar.self_s": "scalar", "scalar.fractions_self_s": "fractions",
              "qpair.self_s": "qpair", "ncpoly.self_s": "ncpoly",
              "flagext.self_s": "flagext", "geometry.self_s": "geometry"}
CALLS = ("scalar", "qpair", "ncpoly")
COUNTS = ("scalar.canonicalize_calls", "scalar.gcd_calls",
          "scalar.fraction_new_calls", "qpair.pair2_word_calls",
          "qpair.pair_word_calls", "ncpoly.nf_word_calls", "ncpoly.oracle_rows")
RATIOS = ("qpair.pair2_hit_ratio", "ncpoly.oracle_useful_ratio", "trace_overhead")

PER_LAYER = {**dict.fromkeys(SPANS, "s"), **dict.fromkeys(SELF_TIMES, "s"),
             **{"%s.calls" % m: "count" for m in CALLS},
             **dict.fromkeys(COUNTS, "count"), **dict.fromkeys(RATIOS, "ratio")}


class WrongAnswer(Exception):
    """An operation crashed, timed out or returned a verdict other than the
    known answer."""


class Child(NamedTuple):
    exit: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    probe_s: float       # mean CPU time of the probes taken around and during it

    @property
    def speed(self):
        """Nominal over measured probe time; it falls when the host slows."""
        return PROBE_S / self.probe_s


def _probe():
    """A fixed sliver of interpreter work that does not touch qflag3
    (fraction arithmetic and small-dict updates, the mix of qflag3's own inner
    loops); returns the CPU seconds it took, about PROBE_S."""
    cpu = time.process_time()
    table, total = {}, fractions.Fraction(0)
    for i in range(1, 200):
        total += fractions.Fraction(i % 97 + 1, i % 89 + 2)
        key = (i % 211, i % 7)
        table[key] = table.get(key, 0) + i
    return time.process_time() - cpu


def spawn(args, seed, deadline):
    """Run one fresh interpreter to completion; its wall time runs from the
    spawn until it has exited, and CPU time and peak RSS are its own.  While
    it runs, this process probes the host's speed on the same CPU."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # the hash seed orders sets inside qflag3, so it is an input too: fixing
    # it per seed makes the exact counts repeat
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        probes = [_probe() for _ in range(PROBES_AROUND)]
        deadline = max(deadline, time.monotonic() + 1.0)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    timeout = min(PROBE_EVERY_S, max(deadline - time.monotonic(), 0.0))
                    if select.select([pidfd], [], [], timeout)[0]:
                        timed_out = False
                        break
                    if time.monotonic() >= deadline:
                        timed_out = True
                        break
                    probes.append(_probe())
            finally:
                os.close(pidfd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        probes += [_probe() for _ in range(PROBES_AROUND)]
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, timed_out, statistics.fmean(probes))


# -- verdicts against the known-answer table ----------------------------------

def _failed(child):
    if child.timed_out:
        return "timed out"
    if child.exit != 0:
        lines = child.stderr.strip().splitlines() or ["no output"]
        return "exit %d: %s" % (child.exit, lines[-1])
    return None


def _result(child):
    reason = _failed(child)
    if reason:
        raise WrongAnswer(reason)
    try:
        return json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WrongAnswer("no result line") from None


def _check_report(exit_code, stdout):
    known = KNOWN["verify-cli"]
    if exit_code != known["exit_code"]:
        raise WrongAnswer("exit code %d, expected %d" % (exit_code, known["exit_code"]))
    try:
        checks = [(suite["suite"] + "/" + check["id"], check["pass"])
                  for suite in json.loads(stdout) for check in suite["checks"]]
    except (ValueError, TypeError, KeyError):
        raise WrongAnswer("report is not the JSON report") from None
    failing = sorted(name for name, passed in checks if not passed)
    if (len(checks), len(checks) - len(failing), failing) != \
            (known["checks"], known["passed"], sorted(known["failing"])):
        raise WrongAnswer("%d checks, %d pass, failing %s"
                          % (len(checks), len(checks) - len(failing), failing))
    return {"report_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def verdict_cli(child):
    if child.timed_out:
        raise WrongAnswer("timed out")
    return _check_report(child.exit, child.stdout)


def verdict_verify(child):
    result = _result(child)
    result.update(_check_report(result["exit"], result.pop("stdout")))
    return result


def verdict_oracle(child):
    result = _result(child)
    known = dict(zip(KNOWN["oracle-deg5"]["degrees"], KNOWN["oracle-deg5"]["dimensions"]))
    expected = [known[k] for k in result["degrees"]]
    if result["dimensions"] != expected:
        raise WrongAnswer("dimensions %s, expected %s" % (result["dimensions"], expected))
    return result


def verdict_omega(child):
    result = _result(child)
    known = KNOWN["omega-crosscheck"]
    if result["derived"] != known["derived"] or result["mismatches"] != known["mismatches"]:
        raise WrongAnswer("derived %s, omega routes differ on %s"
                          % (result["derived"], result["mismatches"]))
    return result


def verdict_setup(child):
    reason = _failed(child)
    if reason:
        raise WrongAnswer(reason)
    return {}


class Plan(NamedTuple):
    """What one workload runs, each child as (argv, verdict)."""
    op: tuple
    warmup: tuple        # compiles the bytecode the operation imports
    extras: list         # children timing spans the operation does not time
    profiled: tuple


def plan(workload, seed):
    small_oracle = ([OPS, "oracle", "--max-degree", "3"], verdict_oracle)
    if workload == "verify-cli":
        op = (CLI, verdict_cli)
        return Plan(op, op, [([OPS, "verify"], verdict_verify), small_oracle,
                             ([OPS, "omega", "--seed", str(seed)], verdict_omega)],
                    ([OPS, "verify", "--profile"], verdict_verify))
    if workload == "oracle-deg5":
        argv = [OPS, "oracle", "--max-degree", "5"]
        # degrees 2-3 import and compile the same code in 1/20 of the time
        return Plan((argv, verdict_oracle), small_oracle, [],
                    (argv + ["--profile"], verdict_oracle))
    argv = [OPS, "omega", "--seed", str(seed), "--crosscheck", str(CROSSCHECK)]
    return Plan((argv, verdict_omega), (argv, verdict_omega), [],
                (argv + ["--profile"], verdict_omega))


# -- one run -------------------------------------------------------------------

class Runner:
    """Spawns the children of one run and keeps its failure accounting."""

    def __init__(self, seed):
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures = []
        self.report_shas = []

    def run(self, argv, verdict):
        child = spawn(argv, self.seed, self.deadline)
        self.attempted += 1
        try:
            result = verdict(child)
            sha = result.get("report_sha256")
            if sha:
                self.report_shas.append(sha)
                if sha != self.report_shas[0]:
                    raise WrongAnswer("report differs from the first one")
        except WrongAnswer as exc:
            self.failures.append("%s: %s" % (" ".join(argv[1:3]), exc))
            result = {}
        return child, result


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def _rounds_left(start, rounds, seconds):
    """Whether one more round, as long as the mean one so far, still ends
    within the run's --seconds."""
    elapsed = time.perf_counter() - start
    return not rounds or elapsed * (rounds + 1) / rounds <= seconds


def measure_end_to_end(runner, workload, seconds):
    steps = plan(workload, runner.seed)
    op, verdict = steps.op
    runner.run(*steps.warmup)
    setups, ops = [], []
    start = time.perf_counter()
    while _rounds_left(start, len(ops), seconds):
        setups.append(runner.run(["-c", SETUP_CODE], verdict_setup)[0])
        ops.append(runner.run(op, verdict)[0])
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.run(["-c", SETUP_CODE], verdict_setup)[0])
    # times at the nominal host speed: see README.md, "Host speed"
    timings = {"setup_s": [c.wall_s * c.speed for c in setups],
               "verdict_s": [c.wall_s * c.speed for c in ops],
               "cpu_s": [c.cpu_s * c.speed for c in ops]}
    metrics = {name: _median(values) for name, values in timings.items()}
    metrics["peak_rss_mb"] = _median([c.rss_mb for c in ops])
    samples = {"setup_s": len(setups), "verdict_s": len(ops),
               "cpu_s": len(ops), "peak_rss_mb": len(ops)}
    measured = {"setup_s": [c.wall_s for c in setups],
                "verdict_s": [c.wall_s for c in ops],
                "cpu_s": [c.cpu_s for c in ops],
                "speed": [c.speed for c in setups + ops]}
    return metrics, samples, {
        "quartiles": {name: _quartiles(v) for name, v in timings.items()},
        "measured_quartiles": {name: _quartiles(v) for name, v in measured.items()}}


def measure_per_layer(runner, workload, seconds):
    steps = plan(workload, runner.seed)
    op, verdict = steps.op
    runner.run(*steps.warmup)
    untraced, traced, spans, profiles = [], [], [], []
    start = time.perf_counter()
    while _rounds_left(start, len(traced), seconds):
        child, result = runner.run(op, verdict)
        untraced.append(child.wall_s)
        round_spans = dict(result.get("spans", {}))
        for argv, extra_verdict in steps.extras:
            for name, value in runner.run(argv, extra_verdict)[1].get("spans", {}).items():
                round_spans.setdefault(name, value)
        spans.append(round_spans)
        child, result = runner.run(*steps.profiled)
        traced.append(child.wall_s)
        if "profile" in result:
            profiles.append(result["profile"])

    metrics = {name: _median([s[name] for s in spans if name in s]) for name in SPANS}
    for name, layer in SELF_TIMES.items():
        metrics[name] = _median([p["self_s"].get(layer, 0.0) for p in profiles])
    first = profiles[0] if profiles else {"calls": {}, "counts": {}}
    counts = first["counts"]
    for module in CALLS:
        metrics["%s.calls" % module] = first["calls"].get(module, 0)
    for name in COUNTS:
        if name in counts:
            metrics[name] = counts[name]
    calls, entries = counts.get("qpair.pair2_word_calls"), counts.get("qpair.pair2_cache_entries")
    if calls is not None and entries is not None:
        metrics["qpair.pair2_hit_ratio"] = 1 - entries / calls if calls else 0.0
    rows, rank = counts.get("ncpoly.oracle_rows"), counts.get("ncpoly.oracle_rank")
    if rows is not None and rank is not None:
        metrics["ncpoly.oracle_useful_ratio"] = rank / rows if rows else 0.0
    metrics["trace_overhead"] = _median(traced) / _median(untraced)
    samples = {"rounds": len(spans), "profiles": len(profiles)}
    extra = {"counts_repeat": all((p["calls"], p["counts"]) == (first["calls"], counts)
                                  for p in profiles)}
    return metrics, samples, extra


# -- record and result ---------------------------------------------------------

def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(workload, seed, seconds, trace):
    """One run; returns (record, result) as JSON-ready dicts."""
    WORK.mkdir(exist_ok=True)
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "loadavg_before": os.getloadavg(),
           "git_commit": _git_commit()}
    # every child and every probe on one CPU, so the probes measure the CPU
    # the child runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(seed)
    measure = measure_per_layer if trace else measure_end_to_end
    metrics, samples, extra = measure(runner, workload, seconds)
    env["loadavg_after"] = os.getloadavg()
    units = PER_LAYER if trace else END_TO_END
    failed = len(runner.failures)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "samples": samples,
              "failed_ops": failed / runner.attempted,
              "failures": runner.failures[:10],
              "report_sha256": runner.report_shas[0] if runner.report_shas else None,
              **extra}
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return record, result


def smoke():
    """Run each workload once per mode and check what it reports against
    BENCHMARK.json and the known answers."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            record, result = run(workload, 1, 0, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if not result["correct"] or result["failed"]:
                problems.append("failed operations: %s" % record["failures"])
            if got != expected:
                problems.append("metrics or units differ: %s"
                                % sorted(set(got.items()) ^ set(expected.items())))
            if trace and not result["metrics"]["trace_overhead"]["value"] > 1:
                problems.append("trace_overhead missing or below 1")
            if problems:
                raise SystemExit("smoke failed on %s trace=%d: %s"
                                 % (workload, trace, "; ".join(problems)))
            print("smoke ok: %s trace=%d" % (workload, trace), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once in both modes and check the output")
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so the running child is
    # killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "qflag3" / "__init__.py").is_file():
        parser.exit(2, "run.py: no qflag3 sources under %s\n" % (ROOT / "src"))
    if args.smoke:
        smoke()
        return
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    record, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
