"""TB001: the import boundary, as one table.

DESIGN.md's threat model in data form.  ``repro.guestos``,
``repro.attacks`` and ``repro.apps`` are inside the attacker's reach;
``repro.core`` is the trusted computing base, and ``repro.hw`` is the
simulated hardware beneath both.  Untrusted code reaches the TCB only
through architectural interfaces (hypercalls and MMU traps, reached via
the simulated hardware), so it imports nothing from ``repro.core``;
the hardware knows nothing about the software built on it.

:data:`BOUNDARY` maps each governed package to the ``repro.*``
prefixes it may import; everything else under ``repro`` is forbidden
to it.  Changing the boundary means editing this table, which is
exactly the review trigger we want.

The rule judges the *imported object*: ``from repro import guestos``
and ``import repro.guestos`` both import ``repro.guestos``, which is
allowed only where ``repro.guestos`` itself is, never because a
submodule of it (``uapi``) is.
"""

from typing import Dict, Iterable, Tuple

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.rules.base import Rule

#: governed package -> ``repro.*`` prefixes it may import.
#:
#: ``repro.obs.bus`` is the one cross-cutting entry: the probe bus is
#: an instrumentation sink with no behavioural surface (probes are
#: no-ops unless a sink attaches, and sinks may only observe), so the
#: instrumented layers may import it, and only it, from ``repro.obs``
#: (OBS001 enforces the details).
BOUNDARY: Dict[str, Tuple[str, ...]] = {
    # The bottom of the world: hardware behaviour must not depend on
    # the software it is supposed to be neutral toward.
    "repro.hw": ("repro.hw", "repro.obs.bus"),
    # The TCB sits on the hardware and sees exactly the guest-*visible*
    # contracts the shim must speak: the syscall/hypercall ABI
    # (``uapi``) and the address-space constants it is defined over
    # (``layout``) — never kernel internals.
    "repro.core": (
        "repro.core",
        "repro.hw",
        "repro.guestos.uapi",
        "repro.guestos.layout",
        "repro.obs.bus",
    ),
    # The guest kernel sees only the simulated hardware; even error
    # types reach it as architectural faults, never as imports.
    "repro.guestos": ("repro.guestos", "repro.hw", "repro.obs.bus"),
    # The attack suite drives whole machines against guest programs
    # and asserts that violations are *detected*: the exception types
    # are the detection interface, not key material.
    "repro.attacks": (
        "repro.attacks",
        "repro.apps",
        "repro.guestos",
        "repro.hw",
        "repro.machine",
        "repro.core.errors",
    ),
    # Applications are guest userspace.
    "repro.apps": ("repro.apps", "repro.guestos", "repro.hw",
                   "repro.machine"),
    # The serving harness sits *above* the simulated world: it drives
    # whole machines, speaks the guest ABI and observes via repro.obs,
    # but a load generator that imported cloaking state could
    # "measure" numbers no black-box client can see.
    "repro.serve": (
        "repro.serve",
        "repro.apps",
        "repro.machine",
        "repro.obs",
        "repro.guestos.uapi",
    ),
}


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


class ImportBoundaryRule(Rule):
    rule_id = "TB001"
    name = "import-boundary"
    summary = ("hw/core/guestos/attacks/apps/serve import only the repro "
               "packages their row of the boundary table allows; "
               "untrusted code never imports repro.core internals")

    def check(self, mod: ModuleInfo) -> Iterable[Finding]:
        layer = next((p for p in BOUNDARY if _under(mod.module, p)), None)
        if layer is None:
            return
        allowed = BOUNDARY[layer]
        reported = set()
        for imported_module, imported_name, node in mod.imports():
            # The imported object: ``from M import n`` imports M.n.
            target = (imported_module if imported_name in (None, "*")
                      else f"{imported_module}.{imported_name}")
            if not _under(target, "repro") or node.lineno in reported:
                continue
            if any(_under(target, a) for a in allowed):
                continue
            # ``from M import a, b`` out of a wholly forbidden module is
            # one violation: name M, once per statement.
            if imported_name is not None and not any(
                    _under(a, imported_module) for a in allowed):
                target = imported_module
            reported.add(node.lineno)
            yield self.finding(
                mod, node,
                f"'{mod.module}' must not import '{target}': {layer} may "
                f"import only {', '.join(allowed)} (see "
                "repro.analysis.rules.import_boundary.BOUNDARY)")
