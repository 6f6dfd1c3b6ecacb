"""The allowed-import matrix: the trust boundary, as one table.

DESIGN.md's threat model in data form.  ``repro.guestos``,
``repro.attacks`` and ``repro.apps`` are *inside* the attacker's reach;
``repro.core`` is the trusted computing base.  Untrusted code may only
reach the TCB through the architectural interfaces (hypercalls and MMU
traps, both of which it reaches via the simulated hardware), so as a
rule it imports **nothing** from ``repro.core``.  The few deliberate
exceptions are listed here, each with its justification, and nowhere
else — changing the trust boundary means editing this file, which is
exactly the review trigger we want.
"""

from typing import Dict, FrozenSet, Tuple

#: Packages the threat model treats as attacker-controlled.
UNTRUSTED_PACKAGES: Tuple[str, ...] = (
    "repro.guestos",
    "repro.attacks",
    "repro.apps",
)

#: TCB internals whose import from untrusted code voids the security
#: argument outright (keys, page metadata, cloaking state, domains).
#: Named individually so TB001 messages can say *what* leaked.
PROTECTED_CORE: Tuple[str, ...] = (
    "repro.core.crypto",
    "repro.core.metadata",
    "repro.core.cloak",
    "repro.core.domains",
)

#: untrusted package -> repro.core modules it may import.  Everything
#: not listed is forbidden to that package.
TRUST_MATRIX: Dict[str, FrozenSet[str]] = {
    # The guest kernel sees only the simulated hardware; even error
    # types reach it as architectural faults, never as imports.
    "repro.guestos": frozenset(),
    # The attack suite asserts that violations are *detected*; the
    # exception types are the detection interface, not key material.
    "repro.attacks": frozenset({"repro.core.errors"}),
    # Applications are pure guest userspace.
    "repro.apps": frozenset(),
}

#: Layering contract for the trusted side (API001): package prefix ->
#: repro-internal prefixes it may import.  ``repro.hw`` is the bottom
#: of the world and imports only itself; ``repro.core`` sits on the
#: hardware and may additionally see exactly two guestos modules —
#: ``uapi`` (the syscall/hypercall ABI the shim must speak) and
#: ``layout`` (the address-space constants that ABI is defined over).
#: Both are guest-*visible* contracts, not kernel internals.
#:
#: ``repro.obs.bus`` is the one cross-cutting exception: the probe bus
#: is an instrumentation sink with no behavioural surface (probes are
#: no-ops unless a sink attaches, and sinks may only observe), so every
#: layer may import it — and *only* it; the rest of ``repro.obs`` is
#: off limits to instrumented code (OBS001 enforces the details).
LAYER_MATRIX: Dict[str, Tuple[str, ...]] = {
    "repro.hw": ("repro.hw", "repro.obs.bus"),
    "repro.core": (
        "repro.core",
        "repro.hw",
        "repro.guestos.uapi",
        "repro.guestos.layout",
        "repro.obs.bus",
    ),
    "repro.guestos": ("repro.guestos", "repro.hw", "repro.obs.bus"),
    # The serving harness sits *above* the simulated world: it drives
    # whole machines (repro.machine, which also owns boot snapshots),
    # speaks the guest ABI to generate client programs, and observes
    # via repro.obs — but it must never reach into the TCB
    # (repro.core) or the guest kernel's internals: a load generator
    # that imports cloaking state could "measure" numbers no black-box
    # client can see.
    "repro.serve": (
        "repro.serve",
        "repro.apps",
        "repro.machine",
        "repro.obs",
        "repro.guestos.uapi",
    ),
}


def owning_package(module: str, packages) -> str:
    """The entry of ``packages`` that ``module`` lives under, or ''."""
    for pkg in packages:
        if module == pkg or module.startswith(pkg + "."):
            return pkg
    return ""


def import_targets(imported_module: str, imported_name) -> Tuple[str, ...]:
    """Candidate dotted targets of one import statement.

    ``from repro.core import crypto`` must count as an import of
    ``repro.core.crypto``, so for ``from``-imports both the base module
    and ``base.name`` are candidates.
    """
    if imported_name is None or imported_name == "*":
        return (imported_module,)
    return (imported_module, f"{imported_module}.{imported_name}")
