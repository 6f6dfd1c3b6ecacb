"""ERR001: no exception handler that could swallow a security verdict.

``IntegrityViolation`` / ``FreshnessViolation`` propagating out of the
VMM *is* the detection result — the attack suite and the integration
tests assert on it.  A bare ``except:`` or a broad
``except Exception:`` anywhere in ``src/repro`` can eat that verdict
and turn a detected attack into a silent pass, so both are banned
unless the handler visibly re-raises.  Additionally, any
security-verdict exception class (``*Violation``) defined outside
``repro.core.errors`` must derive from the canonical hierarchy there,
so ``except OvershadowError`` keeps meaning "every security error".
"""

import ast

from repro.analysis.engine import ModuleInfo
from repro.analysis.rules.base import Rule, import_aliases

BROAD = {"Exception", "BaseException"}

#: The module allowed to root the security-exception hierarchy.
ERRORS_MODULE = "repro.core.errors"


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True if the handler body contains a bare ``raise``."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


def _broad_names(type_node) -> list:
    names = []
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in BROAD:
            names.append(node.id)
    return names


class ExceptionDisciplineRule(Rule):
    rule_id = "ERR001"
    name = "exception-discipline"
    summary = ("no bare/broad except that could swallow security "
               "violations; *Violation classes derive from core.errors")

    def check(self, mod: ModuleInfo):
        yield from self._check_handlers(mod)
        if mod.module != ERRORS_MODULE:
            yield from self._check_hierarchy(mod)

    def _check_handlers(self, mod: ModuleInfo):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not _reraises(node):
                    yield self.finding(
                        mod, node,
                        "bare 'except:' swallows every exception, "
                        "including IntegrityViolation/FreshnessViolation; "
                        "catch the specific types (or re-raise)",
                    )
                continue
            for name in _broad_names(node.type):
                if not _reraises(node):
                    yield self.finding(
                        mod, node,
                        f"'except {name}' is broad enough to swallow "
                        "security violations; catch the specific types "
                        "(or re-raise)",
                    )

    def _check_hierarchy(self, mod: ModuleInfo):
        aliases = import_aliases(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Violation"):
                continue
            ok = False
            for base in node.bases:
                origin = None
                if isinstance(base, ast.Name):
                    origin = aliases.get(base.id, "")
                elif isinstance(base, ast.Attribute):
                    value = base.value
                    if isinstance(value, ast.Name):
                        origin_mod = aliases.get(value.id, value.id)
                        origin = f"{origin_mod}.{base.attr}"
                if origin and origin.startswith(ERRORS_MODULE + "."):
                    ok = True
                # A locally-defined *Violation parent suffices: the
                # root of that chain is itself checked by this rule.
                if isinstance(base, ast.Name) and base.id.endswith("Violation"):
                    ok = True
            if not ok:
                yield self.finding(
                    mod, node,
                    f"security exception '{node.name}' does not derive "
                    f"from the {ERRORS_MODULE} hierarchy, so blanket "
                    "'except OvershadowError' handlers will miss it",
                )
