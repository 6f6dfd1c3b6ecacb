"""The driving test: ``src/repro`` satisfies every invariant, always.

This is what makes the analyzer part of tier-1: any future PR that
imports TCB internals from untrusted code, reads the wall clock,
skips the cycle ledger, swallows a violation, leaks a key name, or
breaks layering fails ``pytest`` right here.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import Analyzer
from repro.analysis.rules import ALL_RULES, get_rules

import repro

SRC_REPRO = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_REPRO.parent.parent


def _run_real_tree():
    config = AnalysisConfig.load(REPO_ROOT)
    baseline = Baseline.load(config.resolved_baseline())
    return Analyzer(get_rules()).run([SRC_REPRO], baseline=baseline,
                                     root=REPO_ROOT)


def test_codebase_is_clean():
    report = _run_real_tree()
    details = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"invariant violations:\n{details}"
    assert report.parse_errors == []
    assert report.stale_baseline == [], (
        "baseline entries whose findings were fixed must be removed: "
        + ", ".join(e.fingerprint for e in report.stale_baseline))
    # Sanity: the run actually covered the tree.
    assert report.files_checked >= 90


def test_all_registered_rules_ran():
    assert sorted(r.rule_id for r in ALL_RULES) == [
        "API001", "CYC001", "DET001", "ERR001", "MMU001", "OBS001",
        "PERF001", "PERF002", "SEC001", "SEC002", "SEC003", "STATE001",
        "SUP001", "TB001",
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


def test_shipped_baseline_is_empty_or_justified():
    """Every shipped baseline entry must carry a real reason; today the
    baseline is empty — the codebase satisfies the rules outright."""
    config = AnalysisConfig.load(REPO_ROOT)
    baseline = Baseline.load(config.resolved_baseline())
    for entry in baseline.entries:
        assert entry.reason.strip(), entry.fingerprint
