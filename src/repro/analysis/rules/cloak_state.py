"""STATE001 — cloak-state transitions must follow the paper's lattice.

Overshadow §4: a cloaked page is always in exactly one of four states,
and only five edges between them are legal (plus self-loops, which are
idempotent re-assertions)::

             zero-fill
    FRESH ───────────────▶ PLAINTEXT_DIRTY
      │                        ▲    │
      │ bind/clone   dirty-    │    │ encrypt
      ▼              upgrade   │    ▼
    ENCRYPTED ─────────────▶ PLAINTEXT_CLEAN
      ▲        decrypt         │
      └────────────────────────┘
          encrypt / ct-restore

Any other write of ``<obj>.state = CloakState.X`` is a protocol bug:
it either exposes plaintext the guest could read (skipping encrypt) or
loses the dirty bit that forces re-encryption.  The check is
*path-sensitive*: :class:`AttrStateAnalysis` tracks the possible state
set of each object through branches (``if md.state is
CloakState.FRESH: ...``), so a write is only reported when the states
flowing into it are positively known and at least one of them makes
the transition illegal.  Objects whose state the function cannot know
(parameters, anything that escaped into a call) sit at ⊤ and are
trusted — the caller was checked at its own write sites.

A second, flow-insensitive check fences the protocol itself: *writing*
``.state`` with a ``CloakState`` member is the cloaking TCB's
privilege.  Outside the three trusted modules any such write is
flagged unconditionally.
"""

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.flow.dataflow import AttrStateAnalysis, StateLattice
from repro.analysis.rules.base import Rule

#: The four states, mirrored from ``repro.core.metadata.CloakState``
#: (test_cloak_state pins the mirror against the real enum).
STATES = ("FRESH", "ENCRYPTED", "PLAINTEXT_CLEAN", "PLAINTEXT_DIRTY")

#: Legal edges, *excluding* self-loops (always allowed).
ALLOWED: Dict[str, FrozenSet[str]] = {
    "FRESH": frozenset({"PLAINTEXT_DIRTY", "ENCRYPTED"}),
    "ENCRYPTED": frozenset({"PLAINTEXT_CLEAN"}),
    "PLAINTEXT_CLEAN": frozenset({"PLAINTEXT_DIRTY", "ENCRYPTED"}),
    "PLAINTEXT_DIRTY": frozenset({"ENCRYPTED"}),
}

#: Modules allowed to write ``.state`` at all.
TRUSTED_MODULES = frozenset({
    "repro.core.metadata",  # defines the enum and the constructor state
    "repro.core.cloak",     # the transition engine
    "repro.core.vmm",       # adoption/unbind edges driven by hypercalls
})

def _walk_own_scope(root: ast.AST):
    """Walk ``root`` without descending into nested function defs —
    those are visited as their own :class:`FunctionNode`\\ s."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


LATTICE = StateLattice(
    attr="state",
    enum_names={"CloakState"},
    values=STATES,
    constructors={"PageMetadata": "FRESH"},
)


class CloakStateRule(Rule):
    rule_id = "STATE001"
    name = "cloak-state-lattice"
    summary = ("cloak-state writes must follow the paper's transition "
               "lattice and stay inside the cloaking TCB")

    def check(self, mod: ModuleInfo, project) -> Iterable[Finding]:
        if "CloakState" not in mod.source:
            return
        trusted = mod.module in TRUSTED_MODULES
        for fn in project.callgraph.functions_in(mod,
                                                 include_module_scope=True):
            if not trusted:
                yield from self._check_untrusted(mod, fn)
                continue
            if fn.name == "__init__":
                continue  # constructors establish, not transition
            yield from self._check_transitions(mod, project, fn)

    # -- trusted modules: path-sensitive lattice conformance -------------------

    def _check_transitions(self, mod: ModuleInfo, project,
                           fn) -> Iterable[Finding]:
        if not self._writes_state(fn.node):
            return
        analysis = AttrStateAnalysis(project.cfg_for(fn), LATTICE)
        for transition in analysis.transitions:
            bad = sorted(
                s for s in transition.prior
                if s != transition.target
                and transition.target not in ALLOWED.get(s, frozenset()))
            if bad:
                yield self.finding(
                    mod, transition.node,
                    f"illegal cloak-state transition "
                    f"{'/'.join(bad)} -> {transition.target} on "
                    f"`{transition.key}` — the paper's lattice only allows "
                    + "; ".join(f"{s} -> {'/'.join(sorted(ALLOWED[s]))}"
                                for s in bad))

    @staticmethod
    def _writes_state(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr == "state"):
                        return True
        return False

    # -- everyone else: no state writes, period --------------------------------

    def _check_untrusted(self, mod: ModuleInfo, fn) -> Iterable[Finding]:
        for sub in _walk_own_scope(fn.node):
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            value = sub.value
            if value is None:
                continue
            if not self._mentions_member(value):
                continue
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "state"):
                    yield self.finding(
                        mod, sub,
                        "cloak state mutated outside the cloaking TCB "
                        f"(module {mod.module}); only "
                        + ", ".join(sorted(TRUSTED_MODULES))
                        + " may write `.state`")

    @staticmethod
    def _mentions_member(value: ast.AST) -> bool:
        for sub in ast.walk(value):
            member = LATTICE.member_of(sub)
            if member is not None:
                return True
        return False
