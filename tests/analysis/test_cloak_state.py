"""STATE001: cloak state is written only inside ``repro.core.metadata``.

Includes the mutation test: insert an illegal transition into a copy
of the real transition engine and watch the rule catch the direct
write.  Which edges are legal is checked at run time by
``PageMetadata.transition`` (tests/core/test_metadata.py).
"""

import shutil
from pathlib import Path

import repro
from repro.analysis.rules.cloak_state import CloakStateRule

from tests.analysis.conftest import check

SRC_REPRO = Path(repro.__file__).resolve().parent


def test_illegal_transition_in_trusted_module_fires(tree):
    """Mutation test: a real copy of cloak.py with a direct
    ENCRYPTED -> PLAINTEXT_DIRTY write added must trip STATE001."""
    target = tree.root / "repro" / "core" / "cloak.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(SRC_REPRO / "core" / "cloak.py", target)
    target.write_text(
        target.read_text(encoding="utf-8") + (
            "\n\ndef _skip_decrypt(md):\n"
            "    if md.state is CloakState.ENCRYPTED:\n"
            "        md.state = CloakState.PLAINTEXT_DIRTY\n"),
        encoding="utf-8")
    report = tree.run([CloakStateRule()])
    assert [(f.rule, f.line) for f in report.findings] == [
        ("STATE001", len(target.read_text(encoding="utf-8").splitlines()))]


def test_real_cloak_engine_is_clean(tree):
    target = tree.root / "repro" / "core" / "cloak.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(SRC_REPRO / "core" / "cloak.py", target)
    report = tree.run([CloakStateRule()])
    assert [f.render() for f in report.findings] == []


def test_legal_guarded_transition_passes(tree):
    """A legal edge written through the checked method is clean."""
    mod = tree.module("repro/core/cloak.py", """\
        from repro.core.metadata import CloakState

        def ok(md):
            if md.state is CloakState.PLAINTEXT_DIRTY:
                md.transition(CloakState.ENCRYPTED)
        """)
    assert check(CloakStateRule(), mod) == []


def test_state_write_outside_tcb_fires(tree):
    mod = tree.module("repro/guestos/evil.py", """\
        from repro.core.metadata import CloakState

        def leak(md):
            md.state = CloakState.PLAINTEXT_CLEAN
        """)
    findings = check(CloakStateRule(), mod)
    assert len(findings) == 1
    assert "repro.guestos.evil" in findings[0].message


def test_constructor_then_illegal_write_fires(tree):
    """FRESH -> PLAINTEXT_CLEAN written directly in a core module
    other than metadata (here spelled through the module) is a finding:
    only transition() may write."""
    mod = tree.module("repro/core/vmm.py", """\
        from repro.core import metadata
        from repro.core.metadata import PageMetadata

        def adopt():
            md = PageMetadata(1, 2, 3)
            md.state = metadata.CloakState.PLAINTEXT_CLEAN
        """)
    findings = check(CloakStateRule(), mod)
    assert len(findings) == 1
    assert "PageMetadata.transition" in findings[0].message


def test_metadata_module_may_write_state(tree):
    mod = tree.module("repro/core/metadata.py", """\
        class PageMetadata:
            def __init__(self):
                self.state = CloakState.FRESH
        """)
    assert check(CloakStateRule(), mod) == []
