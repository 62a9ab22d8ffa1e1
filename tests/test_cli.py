import argparse
import errno
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qflag3 import cli, suites
from qflag3.report import VerificationReport

CMD = [sys.executable, "-m", "qflag3"]
RECORDED_REPORT = Path(__file__).parent / "data" / "verify_all.json"
README = Path(__file__).parent.parent / "README.md"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=env, timeout=300)


def test_usage_error_exit_code():
    assert run_cli("verify", "bogus").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("derive", "omega", "--generator", "z3_11").returncode == 2
    # classical is a suite of its own, and relations always dumps the rules
    assert run_cli("verify", "all", "--q-at-one").returncode == 2
    assert run_cli("relations", "--dump").returncode == 2


def test_own_usage_errors_are_one_prefixed_line():
    for args in (("derive", "omega", "--generator", "z3_11"),
                 ("derive", "coset", "--generator", "z1_41"),
                 ("derive", "omega", "--generator", "x1_11"),
                 ("basis", "--degree", "-1"),
                 ("verify", "bogus"), ("basis",), ("basis", "--degree", "abc"),
                 ("relations", "--bogus"), ()):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stdout == "", args
        assert len(result.stderr.splitlines()) == 1, args
        assert result.stderr.startswith("qflag3: "), args


@pytest.mark.parametrize("args", [("verify", "all", "--format", "json"),
                                  ("relations",)])
def test_closed_stdout_is_an_io_error(args):
    # a large report fails inside print, a short one at the final flush
    proc = subprocess.Popen(CMD + list(args), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 2
    assert stderr == "qflag3: cannot write the report: standard output is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("args", [("verify", "kahler"), ("relations",)])
def test_a_full_stdout_is_an_io_error(args):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(CMD + list(args), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == "qflag3: cannot write the report: %s\n" % os.strerror(errno.ENOSPC)


def test_passing_suite_exits_zero():
    result = run_cli("verify", "kahler", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["suite"] == "kahler"
    assert payload["overall"] is True
    assert {"id", "citation", "expected", "actual", "pass"} == \
        set(payload["checks"][0])


def test_failing_suite_exits_one():
    # the confluence suite faithfully reports the four unresolvable overlaps
    result = run_cli("verify", "confluence", "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["overall"] is False
    failing = [c["id"] for c in payload["checks"] if not c["pass"]]
    assert "overlap:e_a2.e_a2.f_a2" in failing


def test_failing_check_exits_one(monkeypatch):
    def failing_kahler():
        report = VerificationReport("kahler")
        report.add("central-subspace-dim", "Lemma 6.4", "2", "3")
        return report

    monkeypatch.setitem(suites._BUILDERS, "kahler", failing_kahler)
    assert cli.main(["verify", "kahler"]) == 1


def test_a_fault_in_a_suite_is_one_failing_check(monkeypatch, capsys):
    # a failed build-time assertion or an arithmetic fault aborts only its own
    # suite, which reports it as one failing check; every other suite still runs
    def failed_assertion():
        raise AssertionError("generator lin:z1_11+ is not in the ideal\nsecond line")

    def division_by_zero():
        return 1 // 0

    monkeypatch.setitem(suites._BUILDERS, "kahler", failed_assertion)
    monkeypatch.setitem(suites._BUILDERS, "acs", division_by_zero)
    assert cli.main(["verify", "all", "--format", "json"]) == 1
    payload = {r["suite"]: r for r in json.loads(capsys.readouterr().out)}
    assert list(payload) == list(suites.SUITE_NAMES)
    assert payload["kahler"]["checks"] == [{
        "id": "kahler:aborted", "citation": "-", "expected": "the suite completes",
        "actual": "AssertionError: generator lin:z1_11+ is not in the ideal",
        "pass": False}]
    assert payload["acs"]["checks"][0]["actual"] == \
        "ZeroDivisionError: integer division or modulo by zero"
    assert payload["acs"]["overall"] is False
    recorded = {r["suite"]: r for r in json.loads(RECORDED_REPORT.read_text(encoding="utf-8"))}
    for name in set(suites.SUITE_NAMES) - {"kahler", "acs"}:
        assert payload[name] == recorded[name]


@pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
def test_a_programming_error_in_a_suite_propagates(monkeypatch, error):
    def broken():
        raise error("broken builder")

    monkeypatch.setitem(suites._BUILDERS, "kahler", broken)
    with pytest.raises(error):
        suites.run_suite("kahler")


def test_verdicts_ignore_the_environment():
    # a variable that once inverted verdicts for exit-code testing is now inert
    result = run_cli("verify", "all", "--format", "json",
                     env_extra={"QFLAG3_FORCE_FAIL": "*"})
    assert result.stdout == RECORDED_REPORT.read_text(encoding="utf-8")


def test_deterministic_output():
    first = run_cli("verify", "connections", "--format", "json")
    second = run_cli("verify", "connections", "--format", "json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    result = run_cli("verify", "connections", "--format", "json",
                     "--out", str(target))
    assert result.returncode == 0
    assert json.loads(target.read_text())["suite"] == "connections"


def test_unwritable_out_file_is_an_io_error():
    result = run_cli("verify", "connections", "--out",
                     os.path.join(os.devnull, "report.json"))
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("qflag3: cannot write ")
    assert "Traceback" not in result.stderr


def test_basis_listing():
    result = run_cli("basis", "--degree", "2")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 15
    assert lines[0] == "f_a2.f_a12"
    result = run_cli("basis", "--degree", "0")
    assert result.stdout.strip() == "1"


def test_relations_dump():
    result = run_cli("relations")
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 21
    assert "e_a1.e_a2 -> -q^-1*e_a2.e_a1" in lines
    graded = run_cli("relations", "--graded")
    assert "e_a2.f_a2 -> -q^2*f_a2.e_a2" in graded.stdout.splitlines()


def test_derive_subcommands():
    omega = run_cli("derive", "omega", "--generator", "z1_22")
    assert omega.stdout.strip() == ("-q^-1*f_a1(x)e_a1 + (q^-4 - q^-6)"
                                    "*e_a12(x)f_a12 - q^-3*e_a1(x)f_a1")
    cos = run_cli("derive", "coset", "--generator", "z2_32")
    assert cos.stdout.strip() == "-q*e_a2"


def test_verify_classical_runs_the_classical_suite():
    result = run_cli("verify", "classical", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["suite"] == "classical"
    assert payload["overall"] is True


def test_verify_all_reports_every_suite():
    result = run_cli("verify", "all", "--format", "json")
    payload = json.loads(result.stdout)
    assert [r["suite"] for r in payload] == [
        "acs", "confluence", "connections", "integrability",
        "kahler", "nakayama", "relations"]
    # the suites that verify flatness of the relation data fail honestly
    assert result.returncode == 1
    by_suite = {r["suite"]: r["overall"] for r in payload}
    assert by_suite["acs"] and by_suite["connections"]
    assert by_suite["integrability"] and by_suite["kahler"]
    assert not by_suite["confluence"]


def test_verify_all_json_matches_recorded_report():
    result = run_cli("verify", "all", "--format", "json")
    assert result.stdout == RECORDED_REPORT.read_text(encoding="utf-8")


def test_recorded_report_matches_the_benchmark_known_answers():
    # the benchmark refuses a report whose check count, pass count or failing
    # ids differ from its hand-written known answers: a change to the report
    # must change those answers with it
    known_answers = Path(__file__).parent.parent / "perfbench" / "known_answers.json"
    known = json.loads(known_answers.read_text(encoding="utf-8"))["verify-cli"]
    checks = [(suite["suite"] + "/" + check["id"], check["pass"])
              for suite in json.loads(RECORDED_REPORT.read_text(encoding="utf-8"))
              for check in suite["checks"]]
    failing = sorted(name for name, passed in checks if not passed)
    assert (len(checks), len(checks) - len(failing), failing) == (
        known["checks"], known["passed"], sorted(known["failing"]))


@pytest.mark.parametrize("name, args, code", [
    ("verify_all", ("verify", "all"), 1),
    ("verify_classical_json", ("verify", "classical", "--format", "json"), 0),
    ("relations_dump", ("relations",), 0),
    ("relations_dump_graded", ("relations", "--graded"), 0),
    ("derive_omega_z1_22", ("derive", "omega", "--generator", "z1_22"), 0),
    ("derive_coset_z2_32", ("derive", "coset", "--generator", "z2_32"), 0),
])
def test_cli_output_matches_recording(name, args, code):
    result = run_cli(*args)
    recorded = RECORDED_REPORT.parent / ("cli_%s.txt" % name)
    assert result.stdout == recorded.read_text(encoding="utf-8")
    assert result.returncode == code


def _readme_commands():
    """The argument lists of the qflag3 lines in README's "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("qflag3 ")]


def test_the_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    for argv in commands:
        cli._build_parser().parse_args(argv)


def test_the_readme_shows_every_subcommand_and_option():
    commands = _readme_commands()
    subparsers, = [action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for name, subparser in subparsers.choices.items():
        lines = [argv for argv in commands if argv[0] == name]
        assert lines, name
        shown = {word for argv in lines for word in argv}
        for action in subparser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert option in shown, (name, option)
