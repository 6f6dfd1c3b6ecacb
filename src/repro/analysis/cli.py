"""Command-line interface: ``python -m repro.analysis [paths...]``.

With no paths, checks the installed ``repro`` package.  Exit codes:
0 clean, 1 findings / unused allows / parse errors, 2 usage errors.
"""

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import repro
from repro.analysis.engine import Analyzer, Report
from repro.analysis.rules import ALL_RULES, get_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static invariant checker for the Overshadow "
                    "reproduction (import boundary, determinism, cycle "
                    "accounting, exception discipline, secret flow, "
                    "probe indirection, cloak-state lattice).",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyse (default: the "
                             "repro package)")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all); inline allows are judged "
                             "only for the rules that ran")
    parser.add_argument("--list-rules", action="store_true",
                        help="list available rules and exit")
    return parser


def _select_rules(spec: Optional[str]):
    if not spec:
        return get_rules()
    return get_rules([s for s in spec.split(",") if s.strip()])


def _print_human(report: Report, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    for error in report.parse_errors:
        print(f"parse error: {error}", file=out)
    known = {rule.rule_id for rule in ALL_RULES}
    for path, line, rule_id in report.unused_suppressions:
        why = "matched no finding" if rule_id in known else "names no rule"
        print(f"unused suppression {path}:{line}: allow for {rule_id} "
              f"{why}; remove it or fix the rule id", file=out)
    status = "clean" if report.clean else "FAILED"
    print(
        f"repro.analysis: {status} — {report.files_checked} files, "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed",
        file=out,
    )


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.name}: {rule.summary}", file=out)
        return 0

    try:
        rules = _select_rules(args.rules)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=out)
        return 2

    paths = ([Path(p) for p in args.paths] if args.paths
             else [Path(repro.__file__).parent])
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): "
              f"{', '.join(str(p) for p in missing)}", file=out)
        return 2

    report = Analyzer(rules).run(paths, root=Path.cwd())
    _print_human(report, out)
    return 0 if report.clean else 1
