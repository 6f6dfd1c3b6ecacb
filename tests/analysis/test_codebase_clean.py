"""The driving test: ``src/repro`` satisfies every invariant, always.

Any change that crosses the import boundary, reads the wall clock,
swallows a violation, freezes a probe binding, writes cloak state
outside the lattice or leaves an import unused fails ``pytest`` right
here.  Skipping the cycle ledger and leaking a secret are caught on
real runs instead (``tests/integration/test_cost_conservation.py`` and
``tests/integration/test_key_canaries.py``).
"""

import pytest

from tests.analysis.invariants import RULES, SRC, check, real_tree


#: Per rule, a module that must trip it: a check that finds nothing
#: there is dead, and its clean run over the tree would prove nothing.
CANARIES = {
    "TB001": ("repro.guestos.x", "from repro.core import vmm\nvmm.VMM()"),
    "DET001": ("repro.hw.x", "import time\ntime.time()"),
    "ERR001": ("repro.core.x", "try:\n    pass\nexcept Exception:\n    pass"),
    "OBS001": ("repro.hw.x", "from repro.obs import bus\nbus.attach(0, 0)"),
    "STATE001": ("repro.guestos.x", "md.state = CloakState.FRESH"),
    "IMP001": ("repro.x", "import zlib"),
}


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_codebase_is_clean(rule_id):
    assert check(rule_id, *CANARIES[rule_id]), f"{rule_id} misses its canary"
    report = [f"{path}:{line}: {rule_id} {message}"
              for module, (path, tree) in real_tree().items()
              for line, message in RULES[rule_id](tree, module)]
    assert report == [], "invariant violations:\n" + "\n".join(report)


def test_all_registered_rules_ran():
    assert sorted(RULES) == sorted(CANARIES) == [
        "DET001", "ERR001", "IMP001", "OBS001", "STATE001", "TB001"]
    # Sanity: the walk covers the whole tree.
    assert len(real_tree()) >= 100


@pytest.mark.parametrize("injection,expected_rule", [
    ("from repro.core.crypto import PageCipher\n", "TB001"),
    ("import time\n_T = time.time()\n", "DET001"),
])
def test_injected_violation_is_caught(injection, expected_rule):
    """The acceptance check, mechanised: the real guest kernel with one
    forbidden line injected, and the right check catches it."""
    source = injection + (SRC / "guestos" / "kernel.py").read_text(
        encoding="utf-8")
    assert check(expected_rule, "repro.guestos.kernel", source), (
        f"{expected_rule} did not fire on the injected violation")


def test_injected_parent_package_import_in_core_is_caught():
    """``import repro.guestos`` names no allowed ABI module: injected
    into the real core/vmm.py it is a TB001 finding, not a pass through
    the ``guestos.uapi`` row."""
    source = "import repro.guestos\n" + (SRC / "core" / "vmm.py").read_text(
        encoding="utf-8")
    assert [line for line, _ in check("TB001", "repro.core.vmm", source)] \
        == [1]
