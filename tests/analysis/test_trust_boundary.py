"""TB001: the import boundary — untrusted code never imports the TCB,
hardware knows nothing, the TCB sees only the guest ABI."""

from repro.analysis.rules import get_rules
from repro.analysis.rules.import_boundary import ImportBoundaryRule

from tests.analysis.conftest import check

RULE = ImportBoundaryRule()


# -- untrusted packages: guestos, attacks, apps ------------------------------

def test_guestos_importing_crypto_is_flagged(tree):
    mod = tree.module("repro/guestos/evil.py", """\
        from repro.core.crypto import PageCipher
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert findings[0].rule == "TB001"
    assert "repro.core.crypto" in findings[0].message
    # One bad import is one finding across the whole rule set.
    assert [f.rule for f in tree.run(get_rules()).findings] == ["TB001"]


def test_each_protected_internal_is_flagged(tree):
    for target in ("crypto", "metadata", "cloak", "domains"):
        mod = tree.module(f"repro/apps/evil_{target}.py", f"""\
            import repro.core.{target}
            """)
        findings = check(RULE, mod)
        assert len(findings) == 1, target
        assert f"repro.core.{target}" in findings[0].message


def test_plain_core_import_in_guestos_is_flagged(tree):
    mod = tree.module("repro/guestos/sneaky.py", """\
        from repro.core import vmm
        """)
    assert len(check(RULE, mod)) == 1


def test_attacks_may_import_core_errors(tree):
    mod = tree.module("repro/attacks/probe.py", """\
        from repro.core.errors import FreshnessViolation, IntegrityViolation
        """)
    assert check(RULE, mod) == []


def test_guestos_may_not_import_core_errors(tree):
    """The kernel sees violations as faults, never as imports."""
    mod = tree.module("repro/guestos/handler.py", """\
        from repro.core.errors import IntegrityViolation
        """)
    assert len(check(RULE, mod)) == 1


def test_trusted_packages_are_out_of_scope(tree):
    mod = tree.module("repro/bench/harness.py", """\
        from repro.core.crypto import PageCipher
        from repro.core.cloak import CloakEngine
        """)
    assert check(RULE, mod) == []


def test_hw_and_stdlib_imports_are_clean(tree):
    mod = tree.module("repro/guestos/kernel2.py", """\
        import hashlib
        from repro.hw.phys import PhysicalMemory
        from repro.guestos.uapi import Syscall
        """)
    assert check(RULE, mod) == []


def test_relative_import_of_sibling_is_clean(tree):
    mod = tree.module("repro/guestos/sys_x.py", """\
        from . import layout
        """)
    assert check(RULE, mod) == []


def test_untrusted_rows_admit_the_machine_and_guest_packages(tree):
    attack = tree.module("repro/attacks/drive.py", """\
        from repro.apps.secrets import SECRET
        from repro.guestos.process import Process
        from repro.hw.mmu import MODE_KERNEL
        from repro.machine import Machine
        """)
    app = tree.module("repro/apps/prog.py", """\
        from repro.guestos import uapi
        from repro.hw.params import PAGE_SIZE
        from repro.machine import Machine
        """)
    assert check(RULE, attack) == []
    assert check(RULE, app) == []


def test_apps_importing_harness_or_obs_is_flagged(tree):
    for line in ("from repro.bench.runner import fresh_machine",
                 "from repro.obs import bus",
                 "from repro.attacks.base import Attack"):
        mod = tree.module("repro/apps/reach.py", line + "\n")
        assert len(check(RULE, mod)) == 1, line


def test_one_finding_per_statement(tree):
    mod = tree.module("repro/apps/multi.py", """\
        from repro.core.crypto import PageCipher, derive_key, keystream
        """)
    assert len(check(RULE, mod)) == 1


# -- parent-package imports judge the package, not a submodule of it ---------

def test_bare_guestos_import_in_core_is_flagged(tree):
    mod = tree.module("repro/core/peek2.py", """\
        import repro.guestos
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "'repro.guestos'" in findings[0].message


def test_guestos_from_repro_in_core_is_flagged(tree):
    mod = tree.module("repro/core/peek3.py", """\
        from repro import guestos
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "'repro.guestos'" in findings[0].message


def test_bare_core_import_in_apps_is_flagged(tree):
    mod = tree.module("repro/apps/peek.py", """\
        import repro.core
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "'repro.core'" in findings[0].message


# -- the trusted side: hw, core, guestos, serve layering ---------------------

def test_hw_importing_guestos_is_flagged(tree):
    mod = tree.module("repro/hw/backdoor.py", """\
        from repro.guestos.kernel import Kernel
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert findings[0].rule == "TB001"
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
    assert findings[0].rule == "TB001"
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
