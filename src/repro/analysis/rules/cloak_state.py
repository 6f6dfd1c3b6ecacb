"""STATE001 — cloak state is written only inside ``repro.core.metadata``.

Overshadow's safety argument rests on the per-page state machine
(FRESH / ENCRYPTED / PLAINTEXT_CLEAN / PLAINTEXT_DIRTY).  Its legal
edges are written down once, as ``TRANSITIONS`` next to ``CloakState``,
and ``PageMetadata.transition`` refuses every other edge at run time,
before it mutates anything.  That check only holds if nothing goes
round it, so this rule fences the writer: an assignment
``<obj>.state = ...`` whose value names ``CloakState`` is flagged
anywhere outside ``repro.core.metadata``.  Everyone else calls
``md.transition(CloakState.X)``.
"""

import ast
from typing import Iterable

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.rules.base import Rule

#: The one module that may assign ``.state`` directly: the constructor,
#: the fork clone and the checked ``transition`` method live there.
STATE_OWNER = "repro.core.metadata"


def _names_cloak_state(value: ast.AST) -> bool:
    return any((isinstance(sub, ast.Name) and sub.id == "CloakState")
               or (isinstance(sub, ast.Attribute)
                   and sub.attr == "CloakState")
               for sub in ast.walk(value))


class CloakStateRule(Rule):
    rule_id = "STATE001"
    name = "cloak-state-writer"
    summary = ("cloak state is assigned only inside repro.core.metadata; "
               "everyone else goes through PageMetadata.transition")

    def check(self, mod: ModuleInfo) -> Iterable[Finding]:
        if mod.module == STATE_OWNER or "CloakState" not in mod.source:
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            if node.value is None or not _names_cloak_state(node.value):
                continue
            if any(isinstance(t, ast.Attribute) and t.attr == "state"
                   for t in targets):
                yield self.finding(
                    mod, node,
                    f"cloak state assigned directly in {mod.module}; "
                    "call PageMetadata.transition so the lattice is "
                    f"checked (only {STATE_OWNER} writes `.state`)")
