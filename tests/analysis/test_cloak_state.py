"""STATE001: cloak state is written only inside ``repro.core.metadata``.

Includes the mutation test: insert an illegal transition into a copy
of the real transition engine and watch the check catch the direct
write.  Which edges are legal is checked at run time by
``PageMetadata.transition`` (tests/core/test_metadata.py).
"""

from tests.analysis.invariants import SRC, check


def state(module, source=None):
    return check("STATE001", module, source)


def test_illegal_transition_in_trusted_module_fires():
    """Mutation test: the real cloak.py with a direct
    ENCRYPTED -> PLAINTEXT_DIRTY write added must trip STATE001."""
    source = (SRC / "core" / "cloak.py").read_text(encoding="utf-8") + (
        "\n\ndef _skip_decrypt(md):\n"
        "    if md.state is CloakState.ENCRYPTED:\n"
        "        md.state = CloakState.PLAINTEXT_DIRTY\n")
    assert [line for line, _ in state("repro.core.cloak", source)] == [
        len(source.splitlines())]


def test_real_cloak_engine_is_clean():
    assert state("repro.core.cloak") == []


def test_legal_guarded_transition_passes():
    """A legal edge written through the checked method is clean."""
    assert state("repro.core.cloak", """\
        from repro.core.metadata import CloakState

        def ok(md):
            if md.state is CloakState.PLAINTEXT_DIRTY:
                md.transition(CloakState.ENCRYPTED)
        """) == []


def test_state_write_outside_tcb_fires():
    findings = state("repro.guestos.evil", """\
        from repro.core.metadata import CloakState

        def leak(md):
            md.state = CloakState.PLAINTEXT_CLEAN
        """)
    assert len(findings) == 1
    assert "repro.guestos.evil" in findings[0][1]


def test_constructor_then_illegal_write_fires():
    """FRESH -> PLAINTEXT_CLEAN written directly in a core module
    other than metadata (here spelled through the module) is a finding:
    only transition() may write."""
    findings = state("repro.core.vmm", """\
        from repro.core import metadata
        from repro.core.metadata import PageMetadata

        def adopt():
            md = PageMetadata(1, 2, 3)
            md.state = metadata.CloakState.PLAINTEXT_CLEAN
        """)
    assert len(findings) == 1
    assert "PageMetadata.transition" in findings[0][1]


def test_metadata_module_may_write_state():
    assert state("repro.core.metadata", """\
        class PageMetadata:
            def __init__(self):
                self.state = CloakState.FRESH
        """) == []
