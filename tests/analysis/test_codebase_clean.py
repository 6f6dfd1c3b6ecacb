"""The driving test: ``src/repro`` satisfies every invariant, always.

This is what makes the analyzer part of tier-1: any future change
that crosses the import boundary, reads the wall clock, swallows a
violation, or writes cloak state outside the lattice fails ``pytest``
right here.  Skipping the cycle ledger and leaking a secret are caught
on real runs instead (``tests/integration/test_cost_conservation.py``
and ``tests/integration/test_key_canaries.py``).
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.engine import Analyzer
from repro.analysis.rules import ALL_RULES, get_rules

import repro

SRC_REPRO = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_REPRO.parent.parent


def _run_real_tree():
    return Analyzer(get_rules()).run([SRC_REPRO], root=REPO_ROOT)


def test_codebase_is_clean():
    report = _run_real_tree()
    details = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"invariant violations:\n{details}"
    assert report.parse_errors == []
    assert report.unused_suppressions == [], (
        "inline allows that silence nothing must be removed: "
        + ", ".join(f"{path}:{line} {rule}"
                    for path, line, rule in report.unused_suppressions))
    # Sanity: the run actually covered the tree.
    assert report.files_checked >= 90


def test_all_registered_rules_ran():
    assert sorted(r.rule_id for r in ALL_RULES) == [
        "DET001", "ERR001", "OBS001", "PERF002", "STATE001", "SUP001",
        "TB001",
    ]


@pytest.mark.parametrize("injection,expected_rule", [
    ("from repro.core.crypto import PageCipher\n", "TB001"),
    ("import time\n_T = time.time()\n", "DET001"),
])
def test_injected_violation_is_caught(tmp_path, injection, expected_rule):
    """The acceptance check, mechanised: copy the real guest kernel,
    inject a forbidden line, and watch the right rule catch it."""
    target = tmp_path / "repro" / "guestos" / "kernel.py"
    target.parent.mkdir(parents=True)
    shutil.copy(SRC_REPRO / "guestos" / "kernel.py", target)
    target.write_text(injection + target.read_text(encoding="utf-8"),
                      encoding="utf-8")
    report = Analyzer(get_rules()).run([tmp_path], root=tmp_path)
    assert any(f.rule == expected_rule for f in report.findings), (
        f"{expected_rule} did not fire on the injected violation")


def test_injected_parent_package_import_in_core_is_caught(tmp_path):
    """``import repro.guestos`` names no allowed ABI module: copied into
    a real core module it is a TB001 finding, not a pass through the
    ``guestos.uapi`` row."""
    target = tmp_path / "repro" / "core" / "vmm.py"
    target.parent.mkdir(parents=True)
    shutil.copy(SRC_REPRO / "core" / "vmm.py", target)
    target.write_text("import repro.guestos\n"
                      + target.read_text(encoding="utf-8"), encoding="utf-8")
    report = Analyzer(get_rules(["TB001"])).run([tmp_path], root=tmp_path)
    assert [(f.rule, f.line) for f in report.findings] == [("TB001", 1)]
