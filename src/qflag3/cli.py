"""Command-line frontend: run named verification suites, print bases and
relation dumps, and derive coset data for individual flag generators.

Exit codes: 0 when every selected check passes, 1 when a check fails, 2 on
usage errors and when the report cannot be written (to ``--out`` or to
standard output).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import flagext, qpair, report, suites


class _Parser(argparse.ArgumentParser):
    """A usage error is one line, ``qflag3: <message>``, and exit status 2;
    the subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, "qflag3: %s\n" % message)


def _build_parser():
    parser = _Parser(
        prog="qflag3",
        description="exact verification suites for the quantum exterior "
                    "algebra of the full quantum flag manifold of SU_q(3)")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=("all",) + tuple(suites._BUILDERS))
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", metavar="PATH",
                        help="also write the report to this file")

    basis = sub.add_parser("basis", help="print the monomial basis of a degree")
    basis.add_argument("--degree", type=int, required=True)
    basis.add_argument("--graded", action="store_true",
                       help="use the associated graded system")

    relations = sub.add_parser("relations", help="dump the rewrite rules")
    relations.add_argument("--graded", action="store_true")

    derive = sub.add_parser("derive", help="apply the coset maps to a generator")
    derive.add_argument("map", choices=("omega", "coset"))
    derive.add_argument("--generator", required=True, metavar="NAME",
                        help="flag generator, e.g. z1_22 or z2_31")
    return parser


def _parse_generator(name: str):
    """The generator z<p>_<a><b> by name; flag_generator checks the ranges."""
    match = re.fullmatch(r"z(\d)_(\d)(\d)", name)
    if match is None:
        raise ValueError("generator must look like z<p>_<a><b>, for example z1_22")
    return qpair.flag_generator(*map(int, match.groups()))


def _cmd_verify(args) -> int:
    reports = suites.run_all() if args.suite == "all" else [suites.run_suite(args.suite)]
    rendered = report.emit(reports, args.format)
    print(rendered)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print("qflag3: cannot write %s: %s" % (args.out, exc.strerror or exc),
                  file=sys.stderr)
            return 2
    return 0 if all(r.overall for r in reports) else 1


def _cmd_basis(args) -> int:
    algebra = flagext.associated_graded() if args.graded else flagext.build_relations()
    if args.degree < 0:
        print("qflag3: degree must be nonnegative", file=sys.stderr)
        return 2
    for word in algebra.system.irreducible_words(args.degree):
        print(algebra.alphabet.render_word(word))
    return 0


def _cmd_relations(args) -> int:
    algebra = flagext.associated_graded() if args.graded else flagext.build_relations()
    print(algebra.system.dump_rules())
    return 0


def _cmd_derive(args) -> int:
    try:
        generator = qpair.plus_part(_parse_generator(args.generator))
    except ValueError as exc:
        print("qflag3: %s" % exc, file=sys.stderr)
        return 2
    if args.map == "coset":
        print(qpair.coset(generator).render())
    else:
        print(qpair.omega_render(qpair.omega(generator)))
    return 0


_COMMANDS = {"verify": _cmd_verify, "basis": _cmd_basis,
             "relations": _cmd_relations, "derive": _cmd_derive}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except OSError as exc:
        # the reader went away or the device is full: send the rest of the
        # output, and the flush at exit, to the null device so that nothing
        # raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = ("standard output is closed" if isinstance(exc, BrokenPipeError)
                  else exc.strerror or exc)
        print("qflag3: cannot write the report: %s" % reason, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
