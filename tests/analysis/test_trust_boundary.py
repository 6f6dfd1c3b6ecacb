"""TB001: the import boundary — untrusted code never imports the TCB,
hardware knows nothing, the TCB sees only the guest ABI."""

from tests.analysis.invariants import RULES, check


def tb(module, source):
    return check("TB001", module, source)


# -- untrusted packages: guestos, attacks, apps ------------------------------

def test_guestos_importing_crypto_is_flagged():
    source = "from repro.core.crypto import PageCipher\nCIPHER = PageCipher\n"
    findings = tb("repro.guestos.evil", source)
    assert len(findings) == 1
    assert "repro.core.crypto" in findings[0][1]
    # One bad import is one finding across the whole rule set.
    assert [rule for rule in RULES
            if check(rule, "repro.guestos.evil", source)] == ["TB001"]


def test_each_protected_internal_is_flagged():
    for target in ("crypto", "metadata", "cloak", "domains"):
        findings = tb(f"repro.apps.evil_{target}",
                      f"import repro.core.{target}\n")
        assert len(findings) == 1, target
        assert f"repro.core.{target}" in findings[0][1]


def test_plain_core_import_in_guestos_is_flagged():
    assert len(tb("repro.guestos.sneaky", "from repro.core import vmm\n")) == 1


def test_attacks_may_import_core_errors():
    assert tb("repro.attacks.probe", """\
        from repro.core.errors import FreshnessViolation, IntegrityViolation
        """) == []


def test_guestos_may_not_import_core_errors():
    """The kernel sees violations as faults, never as imports."""
    assert len(tb("repro.guestos.handler",
                  "from repro.core.errors import IntegrityViolation\n")) == 1


def test_trusted_packages_are_out_of_scope():
    assert tb("repro.bench.harness", """\
        from repro.core.crypto import PageCipher
        from repro.core.cloak import CloakEngine
        """) == []


def test_hw_and_stdlib_imports_are_clean():
    assert tb("repro.guestos.kernel2", """\
        import hashlib
        from repro.hw.phys import PhysicalMemory
        from repro.guestos.uapi import Syscall
        """) == []


def test_relative_import_of_sibling_is_clean():
    assert tb("repro.guestos.sys_x", "from . import layout\n") == []


def test_untrusted_rows_admit_the_machine_and_guest_packages():
    assert tb("repro.attacks.drive", """\
        from repro.apps.secrets import SECRET
        from repro.guestos.process import Process
        from repro.hw.mmu import MODE_KERNEL
        from repro.machine import Machine
        """) == []
    assert tb("repro.apps.prog", """\
        from repro.guestos import uapi
        from repro.hw.params import PAGE_SIZE
        from repro.machine import Machine
        """) == []


def test_apps_importing_harness_or_obs_is_flagged():
    for line in ("from repro.bench.runner import fresh_machine",
                 "from repro.obs import bus",
                 "from repro.attacks.base import Attack"):
        assert len(tb("repro.apps.reach", line + "\n")) == 1, line


def test_one_finding_per_statement():
    assert len(tb("repro.apps.multi", """\
        from repro.core.crypto import PageCipher, derive_key, keystream
        """)) == 1


# -- parent-package imports judge the package, not a submodule of it ---------

def test_bare_guestos_import_in_core_is_flagged():
    findings = tb("repro.core.peek2", "import repro.guestos\n")
    assert len(findings) == 1
    assert "'repro.guestos'" in findings[0][1]


def test_guestos_from_repro_in_core_is_flagged():
    findings = tb("repro.core.peek3", "from repro import guestos\n")
    assert len(findings) == 1
    assert "'repro.guestos'" in findings[0][1]


def test_bare_core_import_in_apps_is_flagged():
    findings = tb("repro.apps.peek", "import repro.core\n")
    assert len(findings) == 1
    assert "'repro.core'" in findings[0][1]


# -- the trusted side: hw, core, guestos, serve layering ---------------------

def test_hw_importing_guestos_is_flagged():
    findings = tb("repro.hw.backdoor",
                  "from repro.guestos.kernel import Kernel\n")
    assert len(findings) == 1
    assert "repro.hw" in findings[0][1]


def test_hw_importing_core_is_flagged():
    assert len(tb("repro.hw.upward", "from repro.core.vmm import VMM\n")) == 1


def test_hw_importing_hw_is_clean():
    assert tb("repro.hw.fine", """\
        from repro.hw.phys import PhysicalMemory
        from repro.hw.params import PAGE_SIZE
        import struct
        """) == []


def test_core_may_import_guest_abi_modules():
    assert tb("repro.core.shim.fine", """\
        from repro.guestos import layout, uapi
        from repro.guestos.uapi import Syscall
        from repro.hw.cycles import CycleAccount
        """) == []


def test_core_importing_guestos_internals_is_flagged():
    findings = tb("repro.core.peek", "from repro.guestos.kernel import Kernel\n")
    assert len(findings) == 1
    assert "repro.guestos.kernel" in findings[0][1]


def test_guestos_importing_apps_is_flagged():
    assert len(tb("repro.guestos.loader2",
                  "from repro.apps.registry import lookup\n")) == 1


def test_serve_importing_core_is_flagged():
    findings = tb("repro.serve.cheat", "from repro.core.cloak import CloakState\n")
    assert len(findings) == 1
    assert "repro.serve" in findings[0][1]


def test_serve_importing_guestos_internals_is_flagged():
    assert len(tb("repro.serve.peek",
                  "from repro.guestos.kernel import Kernel\n")) == 1


def test_serve_importing_hw_is_flagged():
    # Snapshots reach serve through Machine.boot, never directly.
    assert len(tb("repro.serve.snap",
                  "from repro.hw.snapshot import SnapshotState\n")) == 1


def test_serve_allowed_imports_are_clean():
    assert tb("repro.serve.fine", """\
        from repro.apps.webserver import WebServer
        from repro.machine import BootConfig, Machine
        from repro.obs.metrics import MetricsRegistry
        from repro.guestos.uapi import O_RDONLY
        from repro.serve.ring import HashRing
        import hashlib
        """) == []


def test_multi_name_import_yields_one_finding():
    assert len(tb("repro.hw.multi", """\
        from repro.guestos.kernel import Kernel, KernelConfig, Thread
        """)) == 1


# -- the shim's row: the program model, and nothing else from repro.apps -----

def test_shim_may_import_the_program_model():
    for module in ("repro.core.shim.shim", "repro.core.shim.__init__"):
        assert tb(module, """\
            from repro.apps.program import BaseRuntime, Program, _Frame
            from repro.apps import program
            import repro.apps.program
            """) == [], module


def test_shim_may_not_import_other_apps():
    for line in ("from repro.apps.kvstore import KVStore",
                 "from repro.apps import kvstore",
                 "import repro.apps"):
        findings = tb("repro.core.shim.shim", line + "\n")
        assert len(findings) == 1, line
        assert "repro.core.shim may import only" in findings[0][1]


def test_core_may_not_import_the_program_model():
    findings = tb("repro.core.vmm",
                  "from repro.apps.program import BaseRuntime\n")
    assert len(findings) == 1
    assert "repro.core may import only" in findings[0][1]
