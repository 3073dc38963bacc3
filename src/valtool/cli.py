"""Command-line front end: run or check scenario files."""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .genseq import validate_sequence
from .scenario import RunFlags, ScenarioError, parse_scenario, run_scenario


def _depth(text):
    """A nonnegative int; anything else is argparse's usage error."""
    if text.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError("not a nonnegative integer: %r" % text)


@cache  # one parser per process; parsing leaves it as it was
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="valtool",
        description="Exact valuation-theory computations from scenario files")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario's command list")
    run.add_argument("file")
    run.add_argument("--depth", type=_depth, default=4)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--format", choices=("text", "csv", "dot"),
                     default="text")

    check = sub.add_parser("check", help="parse and validate only")
    check.add_argument("file")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print("cannot read %s: %s" % (args.file, err), file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
    except ScenarioError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2

    if args.command == "check":
        ok = True
        for name in sorted(scenario.valuations):
            rep = validate_sequence(scenario.valuations[name])
            print("valuation %s: %s" % (name, "ok" if rep.ok else "INVALID"))
            for line in rep.lines():
                print("  " + line)
            ok = ok and rep.ok
        return 0 if ok else 2

    try:
        report = run_scenario(scenario, RunFlags(args.depth, args.seed))
    except ScenarioError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return 2 if any(s.skipped for s in report.sections) else int(not report.ok)


if __name__ == "__main__":
    sys.exit(main())
