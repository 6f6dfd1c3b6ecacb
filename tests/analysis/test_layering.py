"""API001: hardware knows nothing; the TCB sees only the guest ABI."""

from repro.analysis.rules.layering import LayeringRule

from tests.analysis.conftest import check

RULE = LayeringRule()


def test_hw_importing_guestos_is_flagged(tree):
    mod = tree.module("repro/hw/backdoor.py", """\
        from repro.guestos.kernel import Kernel
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert findings[0].rule == "API001"
    assert "repro.hw" in findings[0].message


def test_hw_importing_core_is_flagged(tree):
    mod = tree.module("repro/hw/upward.py", """\
        from repro.core.vmm import VMM
        """)
    assert len(check(RULE, mod)) == 1


def test_hw_importing_hw_is_clean(tree):
    mod = tree.module("repro/hw/fine.py", """\
        from repro.hw.phys import PhysicalMemory
        from repro.hw.params import PAGE_SIZE
        import struct
        """)
    assert check(RULE, mod) == []


def test_core_may_import_guest_abi_modules(tree):
    mod = tree.module("repro/core/shim/fine.py", """\
        from repro.guestos import layout, uapi
        from repro.guestos.uapi import Syscall
        from repro.hw.cycles import CycleAccount
        """)
    assert check(RULE, mod) == []


def test_core_importing_guestos_internals_is_flagged(tree):
    mod = tree.module("repro/core/peek.py", """\
        from repro.guestos.kernel import Kernel
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "repro.guestos.kernel" in findings[0].message


def test_guestos_importing_apps_is_flagged(tree):
    mod = tree.module("repro/guestos/loader2.py", """\
        from repro.apps.registry import lookup
        """)
    assert len(check(RULE, mod)) == 1


def test_serve_importing_core_is_flagged(tree):
    mod = tree.module("repro/serve/cheat.py", """\
        from repro.core.cloak import CloakState
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert findings[0].rule == "API001"
    assert "repro.serve" in findings[0].message


def test_serve_importing_guestos_internals_is_flagged(tree):
    mod = tree.module("repro/serve/peek.py", """\
        from repro.guestos.kernel import Kernel
        """)
    assert len(check(RULE, mod)) == 1


def test_serve_importing_hw_is_flagged(tree):
    # Snapshots reach serve through Machine.boot, never directly.
    mod = tree.module("repro/serve/snap.py", """\
        from repro.hw.snapshot import SnapshotState
        """)
    assert len(check(RULE, mod)) == 1


def test_serve_allowed_imports_are_clean(tree):
    mod = tree.module("repro/serve/fine.py", """\
        from repro.apps.webserver import WebServer
        from repro.machine import BootConfig, Machine
        from repro.obs.metrics import MetricsRegistry
        from repro.guestos.uapi import O_RDONLY
        from repro.serve.ring import HashRing
        import hashlib
        """)
    assert check(RULE, mod) == []


def test_multi_name_import_yields_one_finding(tree):
    mod = tree.module("repro/hw/multi.py", """\
        from repro.guestos.kernel import Kernel, KernelConfig, Thread
        """)
    assert len(check(RULE, mod)) == 1
