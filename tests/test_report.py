import json
import subprocess
import sys

from qflag3.report import VerificationReport, emit


def test_empty_suite_json():
    report = VerificationReport("demo")
    assert json.loads(report.render_json()) == {
        "suite": "demo", "checks": [], "overall": True}


def test_check_fields_and_overall():
    report = VerificationReport("demo")
    report.add("first", "Thm 0.0", "1", "1")
    report.add("second", "Thm 0.1", "2", "3")
    report.claim("holds", "Thm 0.2", "it holds", True, "witness")
    report.claim("fails", "Thm 0.3", "it holds", False, "witness")
    # a claim passes by its boolean, even when its witness reads like the statement
    report.claim("fails-alike", "Thm 0.4", "it holds", False, "it holds")
    obj = report.to_json_obj()
    assert [c["id"] for c in obj["checks"]] == [
        "first", "second", "holds", "fails", "fails-alike"]
    assert obj["checks"][0] == {"id": "first", "citation": "Thm 0.0",
                                "expected": "1", "actual": "1", "pass": True}
    assert [(c["expected"], c["actual"], c["pass"]) for c in obj["checks"][1:]] == [
        ("2", "3", False), ("it holds", "it holds", True),
        ("it holds", "witness", False), ("it holds", "it holds", False)]
    assert obj["overall"] is False
    assert [c.id for c in report.failures()] == ["second", "fails", "fails-alike"]


def test_explicit_pass_flag():
    report = VerificationReport("demo")
    report.add("loose", "none", "roughly one", "1.0", passed=True)
    assert report.overall


def test_text_rendering():
    report = VerificationReport("demo")
    report.add("alpha", "Thm 0.0", "yes", "yes")
    text = report.render_text()
    assert text.splitlines()[0] == "suite demo: pass"
    assert "alpha" in text and "pass" in text


def test_emit_multiple():
    first = VerificationReport("a")
    second = VerificationReport("b")
    second.add("x", "", "1", "2")
    payload = json.loads(emit([first, second], "json"))
    assert [r["suite"] for r in payload] == ["a", "b"]
    text = emit([first, second], "text")
    assert "suite a: pass" in text and "suite b: FAIL" in text


def test_reports_print_by_suite_and_checks():
    first = VerificationReport("demo")
    first.add("alpha", "Thm 0.0", "1", "1")
    assert repr(first) == ("VerificationReport(suite='demo', checks=[Check(id='alpha', "
                           "citation='Thm 0.0', expected='1', actual='1', passed=True)])")


def test_building_the_relations_loads_neither_dataclasses_nor_json():
    # a cold start pays for neither: the JSON renderers import json when called
    code = ("import qflag3.flagext, sys; qflag3.flagext.build_relations(); "
            "print(sorted({'dataclasses', 'json'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[]"
