"""Abstract interpretation over :mod:`repro.analysis.flow.cfg` graphs.

Two layers, each usable on its own:

* :func:`solve_forward` — generic worklist fixpoint over a CFG,
  parameterized by init/transfer/join and an optional per-edge
  refinement hook that can also prune statically infeasible branches.
* :class:`AttrStateAnalysis` — a path-sensitive finite-lattice tracker
  for enum-valued attributes (``md.state``), the engine under
  STATE001.  It follows branch guards like ``if md.state is
  CloakState.FRESH:`` and predicate bindings like ``was_plaintext =
  md.state in (...)``, and havocs any object that escapes into a call.

Abstract values in :class:`AttrStateAnalysis` are *sets of possible
enum members*; the full set is ⊤ ("anything — trust the caller").
Soundness posture: joins go up, calls havoc, unknown receivers stay ⊤,
so the rule layered on top only reports transitions whose *source*
state it positively knows — no guessing, no false path explosions.
"""

import ast
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple)

from repro.analysis.rules.base import dotted_name

from .cfg import CFG, Edge

# ----------------------------------------------------------------------
# generic solvers
# ----------------------------------------------------------------------

#: Sentinel returned by an edge_refine hook for a branch that cannot
#: be taken (e.g. ``if md.state is FRESH`` when the set excludes FRESH).
INFEASIBLE = object()


def solve_forward(cfg: CFG, init, transfer, join,
                  edge_refine: Optional[Callable] = None) -> Dict[int, object]:
    """Forward fixpoint: returns the in-state of every reachable block.

    ``init``        state at the entry block.
    ``transfer(block_index, stmt, state) -> state``  (stmt may be None
                    for synthetic blocks; must not mutate its input).
    ``join(a, b) -> state``  least upper bound.
    ``edge_refine(state, src_stmt, label) -> state | INFEASIBLE``
                    applied to the *out*-state along each labeled edge.
    """
    in_states: Dict[int, object] = {cfg.entry: init}
    work: List[int] = [cfg.entry]
    while work:
        index = work.pop()
        block = cfg.blocks[index]
        out = transfer(index, block.stmt, in_states[index])
        for succ, label in block.succs:
            edge_state = out
            if edge_refine is not None and label is not None:
                edge_state = edge_refine(out, block.stmt, label)
                if edge_state is INFEASIBLE:
                    continue
            if succ not in in_states:
                in_states[succ] = edge_state
                work.append(succ)
            else:
                merged = join(in_states[succ], edge_state)
                if merged != in_states[succ]:
                    in_states[succ] = merged
                    work.append(succ)
    return in_states


# ----------------------------------------------------------------------
# path-sensitive attribute-state tracking
# ----------------------------------------------------------------------

class StateLattice:
    """Description of the tracked protocol for :class:`AttrStateAnalysis`.

    ``attr``          the attribute carrying the state (``"state"``).
    ``enum_names``    names the enum class goes by (``{"CloakState"}``).
    ``values``        the full member-name set (⊤).
    ``constructors``  class name -> member name its ``__init__`` sets,
                      so ``md = PageMetadata(...)`` starts precise.
    """

    def __init__(self, attr: str, enum_names: Set[str],
                 values: Sequence[str],
                 constructors: Optional[Dict[str, str]] = None):
        self.attr = attr
        self.enum_names = frozenset(enum_names)
        self.top = frozenset(values)
        self.constructors = dict(constructors or {})

    def member_of(self, node: ast.AST) -> Optional[str]:
        """``CloakState.FRESH`` -> ``"FRESH"`` (else None)."""
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in self.enum_names
                and node.attr in self.top):
            return node.attr
        return None


class Transition:
    """One observed ``<obj>.state = <member>`` write."""

    __slots__ = ("node", "key", "prior", "target")

    def __init__(self, node: ast.stmt, key: str,
                 prior: FrozenSet[str], target: str):
        self.node = node
        self.key = key
        self.prior = prior
        self.target = target


class _State:
    """Immutable-by-convention analysis state.

    ``attrs``  tracked-object key ("md", "self._meta") -> possible
               member set.  Key absent == ⊤ (untracked).
    ``preds``  local name -> (key, member set) for booleans bound from
               a membership test on that key's state.
    """

    __slots__ = ("attrs", "preds")

    def __init__(self, attrs: Dict[str, FrozenSet[str]],
                 preds: Dict[str, Tuple[str, FrozenSet[str]]]):
        self.attrs = attrs
        self.preds = preds

    def __eq__(self, other):
        return (isinstance(other, _State)
                and self.attrs == other.attrs and self.preds == other.preds)

    def __hash__(self):  # pragma: no cover - states are not dict keys
        return hash((frozenset(self.attrs.items()),
                     frozenset(self.preds.items())))

    def with_attr(self, key: str, members: FrozenSet[str]) -> "_State":
        attrs = dict(self.attrs)
        attrs[key] = members
        return _State(attrs, self.preds)

    def drop_attr(self, key: str) -> "_State":
        if key not in self.attrs:
            return self
        attrs = dict(self.attrs)
        del attrs[key]
        return _State(attrs, self.preds)

    def with_pred(self, name: str,
                  binding: Optional[Tuple[str, FrozenSet[str]]]) -> "_State":
        preds = dict(self.preds)
        if binding is None:
            preds.pop(name, None)
        else:
            preds[name] = binding
        return _State(self.attrs, preds)


class AttrStateAnalysis:
    """Run the tracker over one function; collect :class:`Transition`\\ s.

    The analysis is flow- and path-sensitive within the function and
    fully humble at its boundary: parameters enter at ⊤, any call that
    sees a tracked object havocs it, and only writes whose *prior* set
    is strictly below ⊤ are reported with a known source state.
    """

    def __init__(self, cfg: CFG, lattice: StateLattice):
        self.cfg = cfg
        self.lattice = lattice
        self.transitions: List[Transition] = []
        in_states = solve_forward(
            cfg, _State({}, {}), self._transfer, self._join,
            edge_refine=self._refine)
        # Reporting pass: re-apply transfers against the fixpoint
        # in-states so each write sees its final prior set.
        self._report = True
        for index, block in enumerate(cfg.blocks):
            if index in in_states and block.stmt is not None:
                self._transfer(index, block.stmt, in_states[index])

    _report = False

    # -- lattice ops -----------------------------------------------------------

    def _join(self, a: _State, b: _State) -> _State:
        attrs = {}
        for key in a.attrs.keys() & b.attrs.keys():
            attrs[key] = a.attrs[key] | b.attrs[key]
        preds = {name: binding for name, binding in a.preds.items()
                 if b.preds.get(name) == binding}
        return _State(attrs, preds)

    # -- transfer --------------------------------------------------------------

    def _transfer(self, index: int, stmt: Optional[ast.stmt],
                  state: _State) -> _State:
        if stmt is None:
            return state
        state = self._havoc_calls(stmt, state)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            return self._assign(stmt, stmt.targets[0], stmt.value, state)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return self._assign(stmt, stmt.target, stmt.value, state)
        if isinstance(stmt, ast.AugAssign):
            key = dotted_name(stmt.target)
            if key is not None:
                state = state.drop_attr(key)
            return state
        if isinstance(stmt, (ast.Delete,)):
            for target in stmt.targets:
                key = dotted_name(target)
                if key is not None:
                    state = state.drop_attr(key)
        return state

    def _assign(self, stmt: ast.stmt, target: ast.AST, value: ast.AST,
                state: _State) -> _State:
        lattice = self.lattice
        # <obj>.<attr> = ...
        if (isinstance(target, ast.Attribute)
                and target.attr == lattice.attr):
            key = dotted_name(target.value)
            if key is None:
                return state
            members = self._value_members(value, state)
            if members is None:
                return state.drop_attr(key)
            if (self._report and len(members) == 1
                    and key in state.attrs):
                prior = state.attrs[key]
                if prior != lattice.top:
                    self.transitions.append(Transition(
                        stmt, key, prior, next(iter(members))))
            return state.with_attr(key, members)
        # name = ...
        if isinstance(target, ast.Name):
            name = target.id
            state = state.with_pred(name, None)
            # Constructor with a known postcondition tracks the object.
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in lattice.constructors):
                return _State(
                    {**{k: v for k, v in state.attrs.items() if k != name},
                     name: frozenset({lattice.constructors[value.func.id]})},
                    state.preds)
            # Predicate binding: flag = md.state in (...)
            binding = self._membership_test(value, state)
            if binding is not None:
                return state.with_pred(name, binding)
            # Any other rebind of the name unmaps it.
            return state.drop_attr(name)
        # Tuple targets, subscripts: drop anything they might clobber.
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                state = state.drop_attr(node.id).with_pred(node.id, None)
        return state

    def _value_members(self, value: ast.AST,
                       state: _State) -> Optional[FrozenSet[str]]:
        member = self.lattice.member_of(value)
        if member is not None:
            return frozenset({member})
        if isinstance(value, ast.IfExp):
            left = self._value_members(value.body, state)
            right = self._value_members(value.orelse, state)
            if left is not None and right is not None:
                return left | right
        # <other>.state copies the source's set when tracked.
        if (isinstance(value, ast.Attribute)
                and value.attr == self.lattice.attr):
            key = dotted_name(value.value)
            if key is not None and key in state.attrs:
                return state.attrs[key]
        return None

    def _havoc_calls(self, stmt: ast.stmt, state: _State) -> _State:
        """Any tracked object reaching a call escapes to ⊤ — the callee
        may transition it arbitrarily."""
        tracked = state.attrs
        if not tracked:
            return state
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            exposed: Set[str] = set()
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                key = dotted_name(arg)
                if key is not None and key in tracked:
                    exposed.add(key)
            # Method call on the tracked object itself: md.foo().
            if isinstance(node.func, ast.Attribute):
                key = dotted_name(node.func.value)
                if key is not None:
                    for candidate in tracked:
                        if candidate == key or candidate.startswith(key + "."):
                            exposed.add(candidate)
            for key in exposed:
                state = state.drop_attr(key)
            tracked = state.attrs
            if not tracked:
                break
        return state

    # -- branch refinement -----------------------------------------------------

    def _membership_test(self, test: ast.AST, state: _State
                         ) -> Optional[Tuple[str, FrozenSet[str]]]:
        """(key, member set meaning "test is true"), or None."""
        lattice = self.lattice
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            # md.state is/== CloakState.X  |  md.state in (X, Y)
            if (isinstance(left, ast.Attribute)
                    and left.attr == lattice.attr):
                key = dotted_name(left.value)
                if key is None:
                    return None
                if isinstance(op, (ast.Is, ast.Eq)):
                    member = lattice.member_of(right)
                    if member is not None:
                        return key, frozenset({member})
                if isinstance(op, (ast.IsNot, ast.NotEq)):
                    member = lattice.member_of(right)
                    if member is not None:
                        return key, lattice.top - {member}
                if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                        right, (ast.Tuple, ast.List, ast.Set)):
                    members = set()
                    for element in right.elts:
                        member = lattice.member_of(element)
                        if member is None:
                            return None
                        members.add(member)
                    if isinstance(op, ast.In):
                        return key, frozenset(members)
                    return key, lattice.top - members
            return None
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self._membership_test(test.operand, state)
            if inner is not None:
                key, members = inner
                return key, lattice.top - members
            return None
        if isinstance(test, ast.Name) and test.id in state.preds:
            return state.preds[test.id]
        return None

    def _refine(self, state: _State, stmt: Optional[ast.stmt],
                label: Optional[str]):
        if stmt is None or label not in ("true", "false"):
            return state
        if isinstance(stmt, (ast.If, ast.While)):
            test = stmt.test
        else:
            return state
        return self._refine_test(state, test, label == "true")

    def _refine_test(self, state: _State, test: ast.AST, truth: bool):
        if isinstance(test, ast.BoolOp):
            # `a and b` true-branch: both hold.  False-branch of `or`:
            # all disjuncts false.  The other sides are unrefined.
            if isinstance(test.op, ast.And) and truth:
                for value in test.values:
                    state = self._refine_test(state, value, True)
                    if state is INFEASIBLE:
                        return INFEASIBLE
                return state
            if isinstance(test.op, ast.Or) and not truth:
                for value in test.values:
                    state = self._refine_test(state, value, False)
                    if state is INFEASIBLE:
                        return INFEASIBLE
                return state
            return state
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._refine_test(state, test.operand, not truth)
        binding = self._membership_test(test, state)
        if binding is None:
            return state
        key, members = binding
        if not truth:
            members = self.lattice.top - members
        known = state.attrs.get(key, self.lattice.top)
        refined = known & members
        if not refined:
            return INFEASIBLE
        return state.with_attr(key, refined)
