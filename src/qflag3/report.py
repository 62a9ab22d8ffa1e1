"""Structured pass/fail records for the verification suites.

Two kinds of check: a value check (`add`) passes when the predicted and the
computed value render alike, unless given its verdict; a claim (`claim`)
states a fact once and passes by whether it holds, showing a witness as its
actual text when it does not.
"""

from __future__ import annotations

from collections import namedtuple

Check = namedtuple("Check", "id citation expected actual passed")


class VerificationReport:
    """The checks of one suite, in the order they were added."""

    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    def __repr__(self):
        return "VerificationReport(suite=%r, checks=%r)" % (self.suite, self.checks)

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def add(self, id, citation, expected, actual, passed=None):
        expected, actual = str(expected), str(actual)
        if passed is None:
            passed = expected == actual
        self.checks.append(Check(id, citation, expected, actual, bool(passed)))

    def claim(self, id, citation, statement, holds, otherwise):
        """Record that `statement` holds, or `otherwise` as the actual text."""
        self.add(id, citation, statement, statement if holds else otherwise, holds)

    def failures(self):
        return [check for check in self.checks if not check.passed]

    def to_json_obj(self):
        return {
            "suite": self.suite,
            "checks": [
                {
                    "id": check.id,
                    "citation": check.citation,
                    "expected": check.expected,
                    "actual": check.actual,
                    "pass": check.passed,
                }
                for check in self.checks
            ],
            "overall": self.overall,
        }

    def render_json(self) -> str:
        import json
        return json.dumps(self.to_json_obj(), indent=2)

    def render_text(self) -> str:
        rows = [("check", "status", "expected", "actual")]
        for check in self.checks:
            rows.append((check.id, "pass" if check.passed else "FAIL",
                         check.expected, check.actual))
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        lines = ["suite %s: %s" % (self.suite, "pass" if self.overall else "FAIL")]
        for row in rows:
            lines.append("  %s  %s  %s  %s" % (
                row[0].ljust(widths[0]), row[1].ljust(widths[1]),
                row[2].ljust(widths[2]), row[3]))
        return "\n".join(lines)


def emit(reports, fmt: str) -> str:
    """Deterministic rendering of one or more reports."""
    reports = list(reports)
    if fmt == "json":
        import json
        if len(reports) == 1:
            return reports[0].render_json()
        return json.dumps([r.to_json_obj() for r in reports], indent=2)
    if fmt == "text":
        return "\n\n".join(r.render_text() for r in reports)
    raise ValueError("unknown format %r" % fmt)
