"""OBS001: probe emission discipline on instrumented hot paths.

The probe bus is zero-cost-when-disabled only if instrumented code
reaches probes through **module-level indirection**: ``from repro.obs
import bus`` then ``bus.tlb_fill(...)``.  Attaching a sink rebinds the
probe globals inside :mod:`repro.obs.bus`; a frozen local binding
(``from repro.obs.bus import tlb_fill``) captures whichever callable
was installed at import time and silently stops (or never starts)
emitting.  Likewise, instrumented layers must not reach past the bus
into the rest of ``repro.obs`` (sinks, exporters, profilers — those
attach from the *outside*), and must not call bus control-plane
functions like ``attach``/``detach``: simulation code managing its own
observers would make tracing a behavioural input.

Scope: ``repro.hw`` and ``repro.core`` — the layers with
per-instruction and per-transition hot paths.  Tools, tests, benches
and the CLI attach sinks deliberately and are exempt.
"""

import ast

from repro.analysis.engine import ModuleInfo
from repro.analysis.rules.base import Rule, import_aliases, resolve_call_path
from repro.obs import bus as _bus

#: Packages whose probe usage this rule polices.
INSTRUMENTED_PREFIXES = ("repro.hw", "repro.core")

#: The only repro.obs module instrumented code may import.
BUS_MODULE = "repro.obs.bus"

#: Callables on the bus that instrumented code may invoke: the probes
#: themselves, plus the ACTIVE flag read in guards (not a call, but
#: listed for attribute-access symmetry).
_PROBE_ATTRS = frozenset(
    _bus.probe_attr(name) for name in _bus.PROBES
) | {"ACTIVE", "probe_attr", "component_of"}


def _in_scope(module: str) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in INSTRUMENTED_PREFIXES)


class ProbeIndirectionRule(Rule):
    rule_id = "OBS001"
    name = "probe-indirection"
    summary = ("instrumented layers (hw/, core/) emit probes only via "
               "'from repro.obs import bus' module indirection; no frozen "
               "probe bindings, no sink/exporter imports, no bus "
               "control-plane calls")

    def check(self, mod: ModuleInfo):
        if not _in_scope(mod.module):
            return
        for imported_module, imported_name, node in mod.imports():
            if imported_module == BUS_MODULE:
                # ``import repro.obs.bus`` keeps the module indirection
                # (attribute lookups stay live); only from-imports
                # freeze a probe binding.
                if imported_name is not None:
                    yield self.finding(
                        mod, node,
                        f"'from repro.obs.bus import {imported_name}' "
                        "freezes the probe binding; attach/detach rebinds "
                        "bus globals, so use 'from repro.obs import bus' "
                        "and call bus.<probe>(...)",
                    )
                continue
            if imported_module == "repro.obs":
                if imported_name not in (None, "bus"):
                    yield self.finding(
                        mod, node,
                        f"instrumented layer imports repro.obs.{imported_name}; "
                        "only the probe bus (repro.obs.bus) is allowed here — "
                        "sinks and exporters attach from outside the "
                        "simulation",
                    )
                continue
            if imported_module.startswith("repro.obs."):
                yield self.finding(
                    mod, node,
                    f"instrumented layer imports {imported_module}; only "
                    "the probe bus (repro.obs.bus) is allowed here",
                )
        aliases = import_aliases(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_path(node.func, aliases)
            if target is None or not target.startswith(BUS_MODULE + "."):
                continue
            attr = target[len(BUS_MODULE) + 1:]
            if attr not in _PROBE_ATTRS:
                yield self.finding(
                    mod, node,
                    f"hot-path code calls bus.{attr}(); instrumented "
                    "layers may only *emit* probes — sink management "
                    "(attach/detach) belongs to tools and tests",
                )
