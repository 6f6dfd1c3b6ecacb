"""Inline ``# repro: allow(...)`` mechanics."""

from repro.analysis.engine import ModuleInfo, _parse_suppressions
from repro.analysis.rules import get_rules


def run_all(tree):
    return tree.run(get_rules())


def test_same_line_allow_with_reason_suppresses(tree):
    tree.write("repro/hw/clock.py", """\
        import time
        t = time.time()  # repro: allow(DET001) — demo exception
        """)
    report = run_all(tree)
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "DET001"


def test_comment_line_above_suppresses_next_code_line(tree):
    tree.write("repro/hw/clock2.py", """\
        import time
        # repro: allow(DET001) — justified here, and the comment wraps
        # across more than one line before the statement.

        t = time.time()
        """)
    report = run_all(tree)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_wrapped_comment_block_skips_blank_lines_to_next_code(tree):
    """The allow may open a multi-line justification block separated
    from the statement by further comments *and* blank lines."""
    tree.write("repro/core/clocky.py", """\
        import time

        # repro: allow(DET001) — profiling hook reviewed with the
        # benchmark owners; the value read here never reaches a
        # result, kept as the worked example for the docs.

        # (unrelated comment between the block and the code)
        def stamp():
            return time.time()
        """)
    report = run_all(tree)
    # The allow binds to the next *code* line (the def), not the clock
    # read one line further down — the read is still reported.
    assert any(f.rule == "DET001" for f in report.findings)

    tree.write("repro/core/clocky2.py", """\
        import time

        def stamp():
            # repro: allow(DET001) — profiling hook, wrapped
            # justification spanning several comment lines before the
            # statement it covers.

            return time.time()
        """)
    report = run_all(tree)
    reads2 = [f for f in report.suppressed if "clocky2" in f.path]
    assert len(reads2) == 1


def test_allow_without_reason_is_inert(tree):
    tree.write("repro/hw/clock3.py", """\
        import time
        t = time.time()  # repro: allow(DET001)
        """)
    report = run_all(tree)
    # The reason-less allow suppresses nothing, so DET001 still fires —
    # and SUP001 flags the inert comment itself.
    assert sorted(f.rule for f in report.findings) == ["DET001", "SUP001"]


def test_allow_only_covers_named_rule(tree):
    tree.write("repro/hw/clock4.py", """\
        import time
        from repro.guestos.kernel import Kernel  # repro: allow(DET001) — wrong id
        t = time.time()
        """)
    report = run_all(tree)
    rules = {f.rule for f in report.findings}
    assert rules == {"TB001", "DET001"}


def test_allow_accepts_multiple_rule_ids(tree):
    tree.write("repro/hw/combo.py", """\
        import time
        from repro.guestos.kernel import K  # repro: allow(DET001, TB001) — combo demo
        t = time.time()  # repro: allow(DET001) — second site
        """)
    report = run_all(tree)
    assert report.findings == []
    assert len(report.suppressed) == 2


def test_parse_suppressions_table():
    lines = [
        "x = 1  # repro: allow(TB001) — reason",
        "# repro: allow(ERR001) : colon separator works",
        "y = 2",
    ]
    table, sources = _parse_suppressions(lines)
    assert table[1] == {"TB001"}
    assert "ERR001" in table[2]  # the comment line itself
    assert "ERR001" in table[3]  # ...and the code line below
    assert [s.origin_line for s in sources] == [1, 2]
    assert sources[1].targets == {2, 3}


def test_bracket_spelling_suppresses(tree):
    """``allow[RULE]`` square brackets are equivalent to parentheses."""
    tree.write("repro/hw/clock5.py", """\
        import time
        t = time.time()  # repro: allow[DET001] — bracket spelling
        """)
    report = run_all(tree)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_unused_suppression_is_collected(tree):
    """An allow that silences nothing is reported by every run whose
    rule set includes its rule, and fails the CLI with no flag."""
    import io

    from repro.analysis.cli import main

    tree.write("repro/hw/fine.py", """\
        # repro: allow(DET001) — nothing here actually violates DET001
        x = 1
        """)
    for rules in (get_rules(), get_rules(["DET001"])):
        report = tree.run(rules)
        assert [(line, rule) for _p, line, rule
                in report.unused_suppressions] == [(1, "DET001")]
        assert not report.clean
    # DET001 did not run, so its allow cannot be judged.
    report = tree.run(get_rules(["TB001"]))
    assert report.unused_suppressions == []
    assert report.clean

    out = io.StringIO()
    assert main([str(tree.root)], out=out) == 1
    assert "unused suppression" in out.getvalue()


def test_real_tree_suppressions_are_justified():
    """Every inline allow in src/repro carries a reason (inert allows
    would silently stop suppressing)."""
    import re
    from pathlib import Path

    bare = re.compile(r"#\s*repro:\s*allow\([^)]*\)\s*$")
    offenders = []
    for path in Path("src/repro").rglob("*.py"):
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if bare.search(line):
                offenders.append(f"{path}:{lineno}")
    assert offenders == []


def test_allow_for_an_unknown_rule_is_collected(tree):
    """An allow naming a rule id that no registered rule has (a deleted
    rule, a typo) is judged whenever every rule runs, and fails the
    CLI."""
    import io

    from repro.analysis.cli import main

    tree.write("repro/hw/cpu.py", """\
        # repro: allow(CYC001) — the rule this named has been deleted
        x = 1
        """)
    report = tree.run(get_rules())
    assert [(line, rule) for _p, line, rule
            in report.unused_suppressions] == [(1, "CYC001")]
    assert not report.clean
    # A partial rule set cannot tell a deleted rule from one that
    # did not run.
    assert tree.run(get_rules(["DET001"])).unused_suppressions == []

    out = io.StringIO()
    assert main([str(tree.root)], out=out) == 1
    assert "allow for CYC001 names no rule" in out.getvalue()
