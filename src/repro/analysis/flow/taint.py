"""Interprocedural secret-flow (taint) analysis over the call graph.

Overshadow's guarantee is that key material and cloaked plaintext are
never *guest-visible*.  This pass checks it as dataflow: a value
*derived from* a secret must not reach a guest-visible sink, no matter
how many assignments, helpers, containers or f-strings it transits.

Sources
  * results of ``decrypt_page`` / ``decrypt`` / ``open_message`` /
    ``keystream`` / ``derive_key`` calls (classified by call-site name,
    which is what keeps the ``decrypt = encrypt`` alias honest);
  * reads of the key-material attributes ``_enc_key`` / ``_mac_key`` /
    ``_master``, wherever they occur;
  * secret-named parameters of functions in ``repro.core``.  A name
    is secret-named when any ``_``-separated segment is in
    :data:`SECRET_WORDS`, so ``enc_key`` and ``master`` are sources
    and ``keyboard`` is not;
  * reads of secret-named locals and attributes in ``repro.core``
    (``key = ...``, ``self._keystream``).  These carry the weaker
    :data:`NAMED` token, which only log sinks enforce: a name says a
    value must not be printed, not that every frame write of a
    structure called ``_plaintext_frames`` leaks plaintext.

Sanitizers (derived data becomes safe to expose)
  ``encrypt`` / ``encrypt_page`` / ``seal_message`` / ``page_mac`` /
  ``hash_image`` / ``macs_equal`` / ``verify_page``.

Sinks (guest-visible surfaces; enforced per package — ``SINK_POLICY``)
  * ``print`` / ``logging`` calls, and ``return`` from ``__repr__`` /
    ``__str__`` (the string every log line and traceback renders);
  * exception constructor arguments (messages propagate across the
    trust boundary when the violation is reported);
  * ``write_frame`` / ``PhysicalMemory.write`` of tainted data — a
    physical frame write outside the cloak engine's encrypt path;
  * ``return`` payloads of hypercall handlers (``_hc_*``);
  * ``write_block`` of tainted data (plaintext persisted unsealed).

The TCB (``repro.core``/``repro.hw``) is held to all five kinds.
``repro.guestos`` and ``repro.attacks`` hold secret-derived buffers
legitimately but may not re-expose them: log and persist sinks are
enforced there too.

Each function gets a *summary* — the sources and params whose taint
flows to the return value, and ``params_that_reach_sinks`` — so
taint follows calls in both directions: a helper's return value stays
hot, and passing a secret into a leaking callee is flagged at the call
site.  Summaries are computed to a fixpoint over the whole graph.

Known gap: a secret rendered into a string that a plain function
returns is not flagged there; it is flagged where that string reaches
a sink (the caller's ``print``, ``raise``, ...).
"""

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.callgraph import CallGraph, FunctionNode, FuncKey
from repro.analysis.rules.base import dotted_name

#: Taint token meaning "derived from an actual secret".
SECRET = -1
#: Taint token meaning "read from a secret-named local or attribute";
#: only log sinks enforce it.
NAMED = -2
#: Other tokens (>= 0) are parameter indices of the function under
#: analysis.
Token = int
Taint = FrozenSet[Token]

EMPTY: Taint = frozenset()
HOT: Taint = frozenset({SECRET})
NAMED_HOT: Taint = frozenset({NAMED})

#: Call-site names whose result is secret.
SOURCE_CALLS = {"decrypt_page", "decrypt", "open_message", "keystream",
                "derive_key"}

#: Call-site names whose result is safe regardless of argument taint.
SANITIZER_CALLS = {"encrypt", "encrypt_page", "seal_message", "page_mac",
                   "hash_image", "macs_equal", "verify_page"}

#: Builtins whose result reveals nothing about secret contents.
BENIGN_CALLS = {"len", "range", "isinstance", "min", "max", "enumerate",
                "bool", "callable", "hasattr", "id", "type"}

#: Attribute reads that *are* key material, wherever they occur.
SECRET_ATTRS = {"_enc_key", "_mac_key", "_master"}

#: Package whose secret-named names and attributes are taint sources.
SOURCE_NAME_PACKAGE = "repro.core"

#: Secret-named identifier segments.
SECRET_WORDS = {"key", "keys", "keystream", "secret", "secrets", "master",
                "plaintext", "passphrase", "password"}

#: Guest-readable output calls.
LOG_SINKS = {"print", "debug", "info", "warning", "error", "critical",
             "exception", "log"}

#: Methods whose return value is rendered into logs and tracebacks.
RENDER_METHODS = {"__repr__", "__str__"}

#: Physical-frame writes by terminal name / by resolved callee.
FRAME_SINK_NAMES = {"write_frame"}
FRAME_SINK_CALLEES = {("repro.hw.phys", "PhysicalMemory.write")}

#: Persistence sinks (SEC003).
PERSIST_SINK_NAMES = {"write_block"}

# Sink kinds.
KIND_LOG = "log"
KIND_RAISE = "raise"
KIND_FRAME = "frame"
KIND_HC_RETURN = "hypercall-return"
KIND_PERSIST = "persist"

ALL_KINDS = frozenset({KIND_LOG, KIND_RAISE, KIND_FRAME, KIND_HC_RETURN,
                       KIND_PERSIST})

#: Per-package sink policy: which sink kinds are enforced in which
#: package (longest prefix wins).  The TCB and the simulated hardware
#: are held to every sink.  ``repro.guestos`` and ``repro.attacks``
#: legitimately *hold* secret-derived bytes — a debugger attack keeps
#: the buffer it captured, the swap daemon moves ciphertext it cannot
#: read — but they may not *re-expose* them: no guest-readable output
#: and no unsealed persistence.  Exception messages, frame writes and
#: hypercall returns are internal mechanism there, not exposure.
SINK_POLICY: Dict[str, FrozenSet[str]] = {
    "repro.core": ALL_KINDS,
    "repro.hw": ALL_KINDS,
    "repro.guestos": frozenset({KIND_LOG, KIND_PERSIST}),
    "repro.attacks": frozenset({KIND_LOG, KIND_PERSIST}),
}


def _secret_named(identifier: str) -> bool:
    return any(seg in SECRET_WORDS for seg in identifier.lower().split("_"))


def sink_kinds_for(module_name: str) -> FrozenSet[str]:
    """The sink kinds enforced in ``module_name`` (longest prefix wins)."""
    best, kinds = -1, frozenset()  # type: int, FrozenSet[str]
    for prefix, policy in SINK_POLICY.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if len(prefix) > best:
                best, kinds = len(prefix), policy
    return kinds


class Summary:
    """What a caller needs to know about one function."""

    __slots__ = ("taints_return_from", "params_that_reach_sinks")

    def __init__(self) -> None:
        #: Tokens (sources and param indices) that flow to the return
        #: value.
        self.taints_return_from: Set[int] = set()
        #: Param index -> (sink kind, human description of the sink).
        self.params_that_reach_sinks: Dict[int, Tuple[str, str]] = {}

    def snapshot(self):
        return (frozenset(self.taints_return_from),
                frozenset(self.params_that_reach_sinks.items()))


class TaintFinding:
    """One secret flow into a sink, anchored to a source location."""

    __slots__ = ("module", "node", "kind", "message")

    def __init__(self, module: ModuleInfo, node: ast.AST, kind: str,
                 message: str):
        self.module = module
        self.node = node
        self.kind = kind
        self.message = message


class TaintAnalysis:
    """Summaries + findings for every function in a call graph."""

    #: Fixpoint guard; summaries are monotone so this is generous.
    MAX_ROUNDS = 12

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.summaries: Dict[FuncKey, Summary] = {
            key: Summary() for key in graph.functions
        }
        self._fixpoint()
        self.findings: List[TaintFinding] = self._report()

    # -- fixpoint ---------------------------------------------------------------

    def _fixpoint(self) -> None:
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for fn in self.graph.functions.values():
                before = self.summaries[fn.key].snapshot()
                _FunctionPass(self, fn).run()
                if self.summaries[fn.key].snapshot() != before:
                    changed = True
            if not changed:
                return

    def _report(self) -> List[TaintFinding]:
        findings: List[TaintFinding] = []
        for fn in self.graph.functions.values():
            if not sink_kinds_for(fn.key[0]):
                continue
            findings.extend(_FunctionPass(self, fn, collect=True).run())
        return findings

    def findings_for(self, mod: ModuleInfo,
                     kinds: Sequence[str]) -> List[TaintFinding]:
        wanted = set(kinds)
        return [f for f in self.findings
                if f.module is mod and f.kind in wanted]


class _FunctionPass:
    """One local transfer pass over a function body.

    Runs the statement walk twice: the first sweep warms the variable
    environment (so loops and forward references converge), the second
    updates the summary and, when ``collect`` is set, emits findings.
    """

    def __init__(self, analysis: TaintAnalysis, fn: FunctionNode,
                 collect: bool = False):
        self.analysis = analysis
        self.graph = analysis.graph
        self.fn = fn
        self.summary = analysis.summaries[fn.key]
        self.collect = collect
        self.findings: List[TaintFinding] = []
        self._emitted: Set[Tuple[int, str]] = set()
        self.env: Dict[str, Taint] = {}
        self._recording = False
        self._policy = sink_kinds_for(fn.key[0])
        module = fn.key[0]
        self._source_names = (module == SOURCE_NAME_PACKAGE or
                              module.startswith(SOURCE_NAME_PACKAGE + "."))
        for index, name in enumerate(fn.params):
            secret = self._source_names and _secret_named(name)
            self.env[name] = frozenset({index, SECRET} if secret else {index})

    # -- walk -------------------------------------------------------------------

    def run(self) -> List[TaintFinding]:
        body = self._body()
        self._recording = False
        for stmt in body:
            self._stmt(stmt)
        self._recording = True
        for stmt in body:
            self._stmt(stmt)
        return self.findings

    def _body(self) -> List[ast.stmt]:
        node = self.fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Module)):
            return list(node.body)
        return []

    # -- statements -------------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are their own graph nodes
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            extra = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = (
                    self.env.get(stmt.target.id, EMPTY) | extra)
            else:
                self._assign(stmt.target, extra, stmt.value, augment=True)
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        elif isinstance(stmt, ast.Raise):
            self._raise(stmt)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._eval(stmt.iter)
            self._assign(stmt.target, taint, stmt.iter)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint, item.context_expr)
            for sub in stmt.body:
                self._stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            for sub in stmt.orelse + stmt.finalbody:
                self._stmt(sub)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Import/Pass/Break/Continue/Global/Nonlocal: no dataflow.

    def _assign(self, target: ast.expr, taint: Taint,
                value: Optional[ast.expr], augment: bool = False) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = (self.env.get(target.id, EMPTY) | taint
                                   if augment else taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elems: List[Optional[ast.expr]] = [None] * len(target.elts)
            if isinstance(value, (ast.Tuple, ast.List)) and \
                    len(value.elts) == len(target.elts):
                elems = list(value.elts)
            for sub, sub_value in zip(target.elts, elems):
                sub_taint = self._eval(sub_value) if sub_value is not None \
                    else taint
                self._assign(sub, sub_taint, sub_value)
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                self.env[dotted] = (self.env.get(dotted, EMPTY) | taint
                                    if augment else taint)
        elif isinstance(target, ast.Subscript):
            # container[i] = tainted -> the container is tainted.
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id, EMPTY) | taint
            else:
                dotted = dotted_name(base)
                if dotted is not None:
                    self.env[dotted] = self.env.get(dotted, EMPTY) | taint
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, None)

    def _return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            return
        taint = self._eval(stmt.value)
        if not self._recording:
            return
        self.summary.taints_return_from |= taint
        if self.fn.name.startswith("_hc_") and KIND_HC_RETURN in self._policy:
            self._sink(stmt, taint, KIND_HC_RETURN,
                       "secret-derived value returned as a hypercall "
                       "payload")
        elif self.fn.name in RENDER_METHODS:
            self._sink(stmt, taint, KIND_LOG,
                       f"secret-derived value returned from "
                       f"'{self.fn.name}' — rendered into guest-readable "
                       "logs and tracebacks")

    def _raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            return
        exc = stmt.exc
        if isinstance(exc, ast.Call):
            taint = EMPTY
            for arg in list(exc.args) + [kw.value for kw in exc.keywords]:
                taint |= self._eval(arg)
            # Still classify the call itself (summaries, nested sinks).
            self._eval(exc)
        else:
            taint = self._eval(exc)
        if self._recording:
            self._sink(stmt, taint, KIND_RAISE,
                       "secret-derived value flows into an exception "
                       "message, which propagates across the trust "
                       "boundary when the violation is reported")

    # -- expressions ------------------------------------------------------------

    def _eval(self, expr: Optional[ast.expr]) -> Taint:
        if expr is None:
            return EMPTY
        if isinstance(expr, ast.Name):
            taint = self.env.get(expr.id, EMPTY)
            if self._source_names and _secret_named(expr.id):
                taint |= NAMED_HOT
            return taint
        if isinstance(expr, ast.Attribute):
            taint = self._eval(expr.value)
            if expr.attr in SECRET_ATTRS:
                taint |= HOT
            elif self._source_names and _secret_named(expr.attr):
                taint |= NAMED_HOT
            dotted = dotted_name(expr)
            if dotted is not None and dotted in self.env:
                taint |= self.env[dotted]
            return taint
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left) | self._eval(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.BoolOp):
            taint = EMPTY
            for value in expr.values:
                taint |= self._eval(value)
            return taint
        if isinstance(expr, ast.Compare):
            self._eval(expr.left)
            for comp in expr.comparators:
                self._eval(comp)
            return EMPTY  # a boolean reveals no secret *contents*
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return self._eval(expr.body) | self._eval(expr.orelse)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            taint = EMPTY
            for elt in expr.elts:
                taint |= self._eval(elt)
            return taint
        if isinstance(expr, ast.Dict):
            taint = EMPTY
            for key in expr.keys:
                if key is not None:
                    taint |= self._eval(key)
            for value in expr.values:
                taint |= self._eval(value)
            return taint
        if isinstance(expr, ast.Subscript):
            self._eval(expr.slice)
            return self._eval(expr.value)
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self._eval(part)
            return EMPTY
        if isinstance(expr, ast.JoinedStr):
            taint = EMPTY
            for value in expr.values:
                taint |= self._eval(value)
            return taint
        if isinstance(expr, ast.FormattedValue):
            return self._eval(expr.value)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension(expr)
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            self._eval(expr.value)
            return EMPTY  # values from outside the function are clean
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                self._eval(expr.value)
            return EMPTY
        if isinstance(expr, ast.NamedExpr):
            taint = self._eval(expr.value)
            self._assign(expr.target, taint, expr.value)
            return taint
        return EMPTY  # Constant, Lambda, ...

    def _comprehension(self, expr) -> Taint:
        for gen in expr.generators:
            iter_taint = self._eval(gen.iter)
            self._assign(gen.target, iter_taint, None)
            for cond in gen.ifs:
                self._eval(cond)
        if isinstance(expr, ast.DictComp):
            return self._eval(expr.key) | self._eval(expr.value)
        return self._eval(expr.elt)

    # -- calls -------------------------------------------------------------------

    def _call(self, call: ast.Call) -> Taint:
        site = self.fn.site_for(call)
        name = site.name if site is not None else None
        receiver = EMPTY
        if isinstance(call.func, ast.Attribute):
            receiver = self._eval(call.func.value)
        arg_taints = [self._eval(a) for a in call.args]
        kw_taints = [(kw.arg, self._eval(kw.value)) for kw in call.keywords]
        all_args = arg_taints + [t for _, t in kw_taints]

        if name is not None:
            self._check_sink_call(call, name, site, all_args)

        if name in SANITIZER_CALLS:
            return EMPTY
        if name in SOURCE_CALLS:
            return HOT
        if site is not None and site.callee is not None:
            return self._apply_summary(call, site, arg_taints, kw_taints)
        if name in BENIGN_CALLS:
            return EMPTY
        # Unresolved call: conservatively propagate argument (and, for
        # method calls, receiver) taint into the result.
        taint = receiver
        for t in all_args:
            taint |= t
        return taint

    def _apply_summary(self, call: ast.Call, site, arg_taints, kw_taints) -> Taint:
        callee = self.graph.functions[site.callee]
        summary = self.analysis.summaries[site.callee]
        result = {t for t in summary.taints_return_from if t < 0}

        def param_index(pos: Optional[int], kw: Optional[str]) -> Optional[int]:
            if kw is not None:
                return callee.params.index(kw) if kw in callee.params else None
            if site.is_constructor or (site.is_attr and callee.cls is not None):
                return callee.arg_to_param(pos)
            return pos

        pairs = [(i, None, t) for i, t in enumerate(arg_taints)]
        pairs += [(None, kw, t) for kw, t in kw_taints]
        for pos, kw, taint in pairs:
            if not taint:
                continue
            index = param_index(pos, kw)
            if index is None:
                continue
            if index in summary.taints_return_from:
                result |= taint
            reached = summary.params_that_reach_sinks.get(index)
            if reached is not None:
                kind, description = reached
                sources = frozenset(t for t in taint if t < 0)
                if sources and self._recording:
                    self._sink(call, sources, kind,
                               f"secret-derived value passed to "
                               f"'{callee.qualname}', where it reaches "
                               f"{description}")
                for token in taint:
                    if token >= 0 and self._recording:
                        self.summary.params_that_reach_sinks.setdefault(
                            token, (kind, f"{description} (via "
                                          f"'{callee.qualname}')"))
        return frozenset(result)

    def _check_sink_call(self, call: ast.Call, name: str, site,
                         all_args: List[Taint]) -> None:
        if not self._recording:
            return
        taint = EMPTY
        for t in all_args:
            taint |= t
        if name in LOG_SINKS:
            self._sink(call, taint, KIND_LOG,
                       f"secret-derived value reaches '{name}' — "
                       "guest-readable output")
        elif name in FRAME_SINK_NAMES or (
                site is not None and site.callee in FRAME_SINK_CALLEES):
            self._sink(call, taint, KIND_FRAME,
                       "secret-derived plaintext written to a "
                       "guest-visible physical frame outside the cloak "
                       "engine's encrypt path")
        elif name in PERSIST_SINK_NAMES:
            self._sink(call, taint, KIND_PERSIST,
                       f"secret-derived plaintext persisted via '{name}' "
                       "without seal_message/encrypt_page")

    def _sink(self, node: ast.AST, taint: Taint, kind: str,
              message: str) -> None:
        if not taint:
            return
        # Findings are filtered by the *anchoring* function's package
        # policy; summaries below stay unfiltered so callers in stricter
        # packages still see where their arguments end up.
        hot = SECRET in taint or (NAMED in taint and kind == KIND_LOG)
        if hot and self.collect and kind in self._policy:
            key = (id(node), kind)
            if key not in self._emitted:
                self._emitted.add(key)
                self.findings.append(
                    TaintFinding(self.fn.module, node, kind, message))
        if self._recording:
            for token in taint:
                if token >= 0:
                    self.summary.params_that_reach_sinks.setdefault(
                        token, (kind, _SINK_DESCRIPTIONS[kind]))


_SINK_DESCRIPTIONS = {
    KIND_LOG: "a guest-readable log/print sink",
    KIND_RAISE: "an exception message crossing the trust boundary",
    KIND_FRAME: "a guest-visible physical frame write",
    KIND_HC_RETURN: "a hypercall return payload",
    KIND_PERSIST: "an unsealed disk write",
}
