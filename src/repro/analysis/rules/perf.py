"""PERF002: no fresh boots inside per-run loops.

Booting a machine (``Machine(...)`` / ``Machine.build(...)``) costs
far more host time than restoring one from a golden snapshot, and
the snapshot equivalence property test guarantees the restored
machine is cycle-identical.  The harness layers (``repro.bench``,
``repro.faults``, ``repro.gen``) repeat workloads by design, so a
fresh boot lexically inside a ``for``/``while`` body there almost
always re-pays boot cost once per iteration.  Describe the machine
as a ``BootConfig`` and call :meth:`repro.machine.Machine.boot`
instead: it boots each config once and restores it per call.

Deliberate fresh boots carry ``repro: allow(PERF002) — reason``
suppressions.
"""

import ast
from typing import Iterable

from repro.analysis.engine import ModuleInfo
from repro.analysis.rules.base import Rule, import_aliases, resolve_call_path

#: Harness packages that repeat workloads.
REPEAT_PREFIXES = ("repro.bench", "repro.faults", "repro.gen")

#: Call targets that boot a machine from scratch.
BOOT_CALLS = frozenset((
    "repro.machine.Machine",
    "repro.machine.Machine.build",
))


class FreshBootLoopRule(Rule):
    rule_id = "PERF002"
    name = "fresh-boot-in-loop"
    summary = ("harness per-run loops must get machines from "
               "Machine.boot (golden snapshot per BootConfig), not "
               "re-boot")

    def check(self, mod: ModuleInfo) -> Iterable:
        if not mod.module.startswith(REPEAT_PREFIXES):
            return
        aliases = import_aliases(mod.tree)
        for loop in ast.walk(mod.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for stmt in loop.body + loop.orelse:
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Call)
                            and resolve_call_path(node.func, aliases)
                            in BOOT_CALLS):
                        yield self.finding(
                            mod, node,
                            "fresh machine boot inside a per-run loop; "
                            "use Machine.boot(BootConfig(...)), which "
                            "boots once per config and restores per "
                            "iteration",
                        )
