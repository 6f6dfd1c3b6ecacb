"""Shared rule helpers."""

import ast
from typing import Dict, Optional

from repro.analysis.engine import Finding, ModuleInfo


class Rule:
    """Base class: id/metadata plus a Finding factory.

    ``check(mod)`` yields the findings for one module.  Every rule
    looks at one module at a time; invariants that span modules are
    checked on a real run instead (secret flow by
    ``tests/integration/test_key_canaries.py``, cost conservation by
    ``tests/integration/test_cost_conservation.py``).
    """

    rule_id = "XX000"
    name = "unnamed"
    summary = ""

    def check(self, mod: ModuleInfo):
        raise NotImplementedError

    def finding(self, mod: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=mod.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            context=mod.qualname_at(node),
        )


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted origin, for every import in the module.

    ``import os`` -> {"os": "os"}; ``import numpy as np`` ->
    {"np": "numpy"}; ``from time import time as t`` -> {"t": "time.time"}.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_path(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Fully-resolved dotted path of a call target, or None.

    The leading name is substituted through the module's import
    aliases, so ``t()`` after ``from time import time as t`` resolves
    to ``time.time``.
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin
