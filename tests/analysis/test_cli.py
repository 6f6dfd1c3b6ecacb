"""CLI behaviour: exit codes, rule selection, removed options."""

import io
import subprocess
import sys

import pytest

from repro.analysis.cli import main

DIRTY = """\
import time
t = time.time()
"""


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def make_dirty(tmp_path):
    pkg = tmp_path / "repro" / "hw"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text(DIRTY)
    return tmp_path


def test_clean_tree_exits_zero(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "ok.py").write_text("x = 1\n")
    code, text = run_cli([str(tmp_path)])
    assert code == 0
    assert "clean" in text


def test_findings_exit_one(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root)])
    assert code == 1
    assert "DET001" in text
    assert "FAILED" in text


def test_missing_path_exits_two(tmp_path):
    code, text = run_cli([str(tmp_path / "nowhere")])
    assert code == 2
    assert "no such path" in text


def test_unknown_rule_exits_two_and_names_it(tmp_path):
    code, text = run_cli([str(tmp_path), "--rules", "NOPE999"])
    assert code == 2
    assert "NOPE999" in text
    assert "STATE001" in text  # the known ids are listed for correction


def test_unknown_rule_reported_among_valid_ones(tmp_path):
    code, text = run_cli([str(tmp_path), "--rules", "TB001,NOPE999,ERR001"])
    assert code == 2
    assert "NOPE999" in text


def test_rules_filter(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--rules", "TB001"])
    assert code == 0  # DET001 not selected, so the clock read passes


def test_list_rules(tmp_path):
    code, text = run_cli(["--list-rules"])
    assert code == 0
    for rule_id in ("TB001", "DET001", "ERR001", "OBS001", "STATE001"):
        assert rule_id in text
    for rule_id in ("API001", "SEC001", "PERF001", "CYC001", "SEC002",
                    "SEC003"):
        assert rule_id not in text


@pytest.mark.parametrize("argv", [
    ["--json"], ["--format", "json"], ["--changed-only"],
    ["--since", "HEAD"], ["--baseline", "bl.json"], ["--no-baseline"],
    ["--write-baseline", "reason"], ["--migrate-baseline"],
    ["--unused-suppressions"],
])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_default_path_is_the_repro_package():
    """No paths: the installed package is checked."""
    code, text = run_cli(["--rules", "SUP001"])
    assert code == 0
    assert "clean" in text
    assert " 0 files" not in text


def test_module_entry_point_runs():
    """`python -m repro.analysis --list-rules` is wired up."""
    import os
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "TB001" in proc.stdout
