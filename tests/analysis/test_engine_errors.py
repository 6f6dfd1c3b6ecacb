"""Engine resilience: unparsable files fail the run without aborting it."""

import io

from repro.analysis.cli import main
from repro.analysis.rules import get_rules

BROKEN = "def oops(:\n"
DIRTY = "import time\nt = time.time()\n"


def test_parse_error_reported_once_and_others_still_checked(tree):
    tree.write("repro/hw/broken.py", BROKEN)
    tree.write("repro/hw/clock.py", DIRTY)
    tree.write("repro/hw/ok.py", "x = 1\n")
    report = tree.run(get_rules())

    assert len(report.parse_errors) == 1
    assert "broken.py" in report.parse_errors[0]
    # The broken file is skipped, not fatal: the other two were checked
    # and the clock read was still caught.
    assert report.files_checked == 2
    assert [f.rule for f in report.findings] == ["DET001"]
    assert not report.clean


def test_parse_error_exits_one_even_with_no_findings(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "broken.py").write_text(BROKEN)
    (tmp_path / "repro" / "ok.py").write_text("x = 1\n")
    out = io.StringIO()
    code = main([str(tmp_path)], out=out)
    assert code == 1
    text = out.getvalue()
    assert "parse error" in text
    assert "FAILED" in text

