"""PERF001/PERF002: host-speed discipline for the hot paths.

PERF001: no per-byte Python loops on the data path.

The hot paths (``repro.hw``, ``repro.core``) move page-sized buffers —
4 KiB per cloak operation, every memory access, every DMA transfer.  A
Python-level loop that touches those buffers one byte at a time costs
three to four orders of magnitude more host time than the equivalent
whole-buffer operation (``int.from_bytes``-XOR, slice assignment,
``bytes.join`` over block digests) while producing bit-identical
output.  This rule flags the canonical per-byte shapes so they cannot
creep back in after the vectorization pass:

* a comprehension or generator iterating ``zip(...)`` whose element
  expression XORs the unpacked items —
  ``bytes(a ^ b for a, b in zip(data, pad))``;
* a ``for`` loop over ``zip(...)`` whose body XORs the loop targets.

The rule is scoped to ``repro.hw`` and ``repro.core``: apps and tests
may loop however they like (their buffers are small and their clarity
matters more), and the analysis layer never touches page data.

Suppress a deliberate exception with a trailing comment of the form
``repro: allow(PERF001) — 16-byte tag`` on the offending line.

PERF002: no fresh boots inside per-run loops.

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
from typing import Iterable, Optional, Set

from repro.analysis.engine import ModuleInfo
from repro.analysis.rules.base import Rule, import_aliases, resolve_call_path

#: Package prefixes where page-sized buffers live.
HOT_PREFIXES = ("repro.hw", "repro.core")

#: Harness packages that repeat workloads (PERF002 scope).
REPEAT_PREFIXES = ("repro.bench", "repro.faults", "repro.gen")

#: Call targets that boot a machine from scratch.
BOOT_CALLS = frozenset((
    "repro.machine.Machine",
    "repro.machine.Machine.build",
))

#: Comprehension node types that share the (elt, generators) shape.
_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp)


def _is_zip_call(node: ast.AST, aliases) -> bool:
    if not isinstance(node, ast.Call):
        return False
    return resolve_call_path(node.func, aliases) == "zip"


def _target_names(target: ast.AST) -> Set[str]:
    """Names bound by a loop/comprehension target (``a, b`` -> {a, b})."""
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _xor_over(node: ast.AST, names: Set[str]) -> Optional[ast.AST]:
    """First BitXor whose operands involve ``names``, or None."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.BinOp)
                and isinstance(sub.op, ast.BitXor)
                and _target_names(sub) & names):
            return sub
    return None


class PerByteLoopRule(Rule):
    rule_id = "PERF001"
    name = "per-byte-loop"
    summary = ("hw/core hot paths must not XOR buffers byte-at-a-time; "
               "use whole-buffer int XOR (see repro.core.crypto.xor_bytes)")

    def check(self, mod: ModuleInfo) -> Iterable:
        if not mod.module.startswith(HOT_PREFIXES):
            return
        aliases = import_aliases(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, _COMPREHENSIONS):
                for gen in node.generators:
                    if not _is_zip_call(gen.iter, aliases):
                        continue
                    if _xor_over(node.elt, _target_names(gen.target)):
                        yield self.finding(
                            mod, node,
                            "per-byte XOR comprehension over zip(); XOR "
                            "whole buffers via int.from_bytes instead "
                            "(crypto.xor_bytes)",
                        )
                        break
            elif isinstance(node, ast.For):
                if not _is_zip_call(node.iter, aliases):
                    continue
                names = _target_names(node.target)
                for stmt in node.body:
                    if _xor_over(stmt, names):
                        yield self.finding(
                            mod, node,
                            "per-byte XOR loop over zip(); XOR whole "
                            "buffers via int.from_bytes instead "
                            "(crypto.xor_bytes)",
                        )
                        break


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
