"""The structural invariants of ``src/repro``, as plain ``ast`` checks.

Each check is a generator function ``(tree, module) -> (line, message)``
over one parsed module; ``module`` is its dotted name
(``repro.core.vmm``, or ``repro.core.__init__`` for a package), which
is what the scoped checks key on.  :func:`real_tree` parses every file
under ``src/repro`` once; ``test_codebase_clean.py`` runs every check
in :data:`RULES` over it, and each rule's fixture test feeds it source
text through :func:`check`.  docs/ANALYSIS.md says why each invariant
matters.  Secret flow and cost conservation are not checks here: they
are checked on real runs (``tests/integration/test_key_canaries.py``
and ``tests/integration/test_cost_conservation.py``).
"""

import ast
import functools
import pathlib
import textwrap
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from repro.obs import bus

SRC = pathlib.Path(repro.__file__).resolve().parent

Findings = Iterator[Tuple[int, str]]


def module_name(path: pathlib.Path) -> str:
    """``src/repro/core/vmm.py`` -> ``repro.core.vmm``."""
    return ".".join(path.relative_to(SRC.parent).with_suffix("").parts)


@functools.lru_cache(maxsize=None)
def real_tree() -> Dict[str, Tuple[str, ast.Module]]:
    """Module name -> (repo-relative path, tree) for every file under
    ``src/repro``, parsed once per test session."""
    return {module_name(path): (path.relative_to(SRC.parents[1]).as_posix(),
                                ast.parse(path.read_bytes(), str(path)))
            for path in sorted(SRC.rglob("*.py"))}


def check(rule_id: str, module: str, source: Optional[str] = None
          ) -> List[Tuple[int, str]]:
    """One check's findings on ``source`` parsed as ``module`` (by
    default, on the real file of that module)."""
    tree = (real_tree()[module][1] if source is None
            else ast.parse(textwrap.dedent(source)))
    return list(RULES[rule_id](tree, module))


# -- shared helpers ------------------------------------------------------------

def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _imports(tree: ast.Module, module: str
             ) -> Iterator[Tuple[str, Optional[str], ast.stmt]]:
    """``(imported module, imported name, node)`` per import; the name
    is None for ``import m``.  Relative imports resolve against
    ``module``'s package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, node
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                package = module.split(".")[:-node.level]
                base = ".".join(package + [node.module] if node.module
                                else package)
            if base:
                for alias in node.names:
                    yield base, alias.name, node


def _aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every absolute import:
    ``from time import time as t`` -> {"t": "time.time"}."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = (alias.name if alias.asname
                                                 else head)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
    return aliases


def _call_path(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted call target with its head resolved through the imports
    (``t()`` after ``from time import time as t`` is ``time.time``)."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(aliases.get(func.id, func.id))
    return ".".join(reversed(parts))


def _calls(tree: ast.AST, aliases: Dict[str, str]
           ) -> Iterator[Tuple[ast.Call, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = _call_path(node.func, aliases)
            if path is not None:
                yield node, path


# -- TB001: the import boundary ------------------------------------------------

#: Governed package -> the ``repro.*`` prefixes it may import; the
#: longest matching row governs a module.  docs/ANALYSIS.md gives the
#: rationale of each row.
_CORE = ("repro.core", "repro.hw", "repro.guestos.uapi",
         "repro.guestos.layout", "repro.obs.bus")
BOUNDARY: Dict[str, Tuple[str, ...]] = {
    "repro.hw": ("repro.hw", "repro.obs.bus"),
    "repro.core": _CORE,
    # The shim runs inside the application's address space (paper
    # §3.3) and is linked against the program model: it imports the
    # runtime ABI, not application logic.
    "repro.core.shim": _CORE + ("repro.apps.program",),
    "repro.guestos": ("repro.guestos", "repro.hw", "repro.obs.bus"),
    "repro.attacks": ("repro.attacks", "repro.apps", "repro.guestos",
                      "repro.hw", "repro.machine", "repro.core.errors"),
    "repro.apps": ("repro.apps", "repro.guestos", "repro.hw",
                   "repro.machine"),
    "repro.serve": ("repro.serve", "repro.apps", "repro.machine",
                    "repro.obs", "repro.guestos.uapi"),
}


def import_boundary(tree: ast.Module, module: str) -> Findings:
    """Judge the imported object: ``from M import n`` imports ``M.n``,
    and a statement wholly outside the row is one finding naming M."""
    layer = max((p for p in BOUNDARY if _under(module, p)), key=len,
                default=None)
    if layer is None:
        return
    allowed = BOUNDARY[layer]
    reported = set()
    for imported, name, node in _imports(tree, module):
        target = imported if name in (None, "*") else f"{imported}.{name}"
        if (not _under(target, "repro") or node.lineno in reported
                or any(_under(target, a) for a in allowed)):
            continue
        if name is not None and not any(_under(a, imported) for a in allowed):
            target = imported
        reported.add(node.lineno)
        yield node.lineno, (f"'{module}' must not import '{target}': {layer} "
                            f"may import only {', '.join(allowed)}")


# -- DET001: no wall clock, no ambient entropy ---------------------------------

_BANNED_CALLS = {
    **dict.fromkeys(("time.time", "time.time_ns", "datetime.datetime.now",
                     "datetime.datetime.utcnow", "datetime.datetime.today",
                     "datetime.date.today"), "wall-clock read"),
    **dict.fromkeys(("time.monotonic", "time.monotonic_ns",
                     "time.perf_counter", "time.perf_counter_ns",
                     "time.process_time", "time.process_time_ns"),
                    "host-clock read"),
    **dict.fromkeys(("os.urandom", "os.getrandom", "uuid.uuid4",
                     "secrets.token_bytes", "secrets.token_hex",
                     "secrets.token_urlsafe", "secrets.randbits",
                     "secrets.choice", "random.SystemRandom"),
                    "ambient entropy"),
    "uuid.uuid1": "host-dependent identifier",
}

#: Functions of the module-level ``random`` singleton: shared state,
#: execution-order-dependent even when seeded.
_GLOBAL_RANDOM = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}


def determinism(tree: ast.Module, module: str) -> Findings:
    for node, path in _calls(tree, _aliases(tree)):
        if path in _BANNED_CALLS:
            yield node.lineno, (f"'{path}' is nondeterministic "
                                f"({_BANNED_CALLS[path]}); use virtual "
                                "cycles or a seeded PRF instead")
        elif path == "random.Random" and not (node.args or node.keywords):
            yield node.lineno, ("'random.Random()' without a seed draws "
                                "from OS entropy; pass an explicit seed")
        elif path.startswith("random.") and path[7:] in _GLOBAL_RANDOM:
            yield node.lineno, (f"'{path}' uses the shared module-level "
                                "PRNG; use a seeded random.Random(seed)")


# -- ERR001: no handler that could swallow a security verdict ------------------

_ERRORS_MODULE = "repro.core.errors"


def exception_discipline(tree: ast.Module, module: str) -> Findings:
    """Bare or broad handlers must re-raise on every path, which means
    a bare ``raise`` as the handler's last top-level statement (one
    under an ``if`` leaves the other branch swallowing);
    ``*Violation`` classes outside ``repro.core.errors`` derive from
    its hierarchy (or from a local ``*Violation``, itself checked)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or (
                isinstance(node.body[-1], ast.Raise)
                and node.body[-1].exc is None):
            continue
        if node.type is None:
            yield node.lineno, ("bare 'except:' swallows every exception, "
                                "including IntegrityViolation; catch the "
                                "specific types (or re-raise)")
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        for name in (t.id for t in types if isinstance(t, ast.Name)):
            if name in ("Exception", "BaseException"):
                yield node.lineno, (f"'except {name}' is broad enough to "
                                    "swallow security violations; catch "
                                    "the specific types (or re-raise)")
    if module == _ERRORS_MODULE:
        return
    aliases = _aliases(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef)
                and node.name.endswith("Violation")):
            continue
        if not any((isinstance(base, ast.Name)
                    and base.id.endswith("Violation"))
                   or (_call_path(base, aliases) or "").startswith(
                       _ERRORS_MODULE + ".")
                   for base in node.bases):
            yield node.lineno, (f"security exception '{node.name}' does not "
                                f"derive from the {_ERRORS_MODULE} "
                                "hierarchy, so 'except OvershadowError' "
                                "will miss it")


# -- OBS001: probes only through module indirection ----------------------------

_BUS = "repro.obs.bus"
_PROBE_ATTRS = frozenset(bus.probe_attr(name) for name in bus.PROBES) | {
    "ACTIVE", "probe_attr", "component_of"}


def probe_indirection(tree: ast.Module, module: str) -> Findings:
    """In ``repro.hw`` and ``repro.core``: no frozen probe binding, no
    ``repro.obs`` module but the bus, no bus control-plane call."""
    if not (_under(module, "repro.hw") or _under(module, "repro.core")):
        return
    for imported, name, node in _imports(tree, module):
        if imported == _BUS and name is not None:
            yield node.lineno, (f"'from repro.obs.bus import {name}' freezes "
                                "the probe binding; use 'from repro.obs "
                                "import bus' and call bus.<probe>(...)")
        elif imported == "repro.obs" and name not in (None, "bus"):
            yield node.lineno, (f"instrumented layer imports repro.obs.{name}"
                                "; only the probe bus is allowed here")
        elif imported.startswith("repro.obs.") and imported != _BUS:
            yield node.lineno, (f"instrumented layer imports {imported}; "
                                "only the probe bus is allowed here")
    for node, path in _calls(tree, _aliases(tree)):
        if path.startswith(_BUS + ".") and path[len(_BUS) + 1:] \
                not in _PROBE_ATTRS:
            yield node.lineno, (f"hot-path code calls bus."
                                f"{path[len(_BUS) + 1:]}(); instrumented "
                                "layers may only emit probes")


# -- STATE001: one writer of cloak state ---------------------------------------

_STATE_OWNER = "repro.core.metadata"


def cloak_state_writer(tree: ast.Module, module: str) -> Findings:
    """``<obj>.state = <expr naming CloakState>`` outside the metadata
    module goes round ``PageMetadata.transition``."""
    if module == _STATE_OWNER:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is None or not any(
                isinstance(t, ast.Attribute) and t.attr == "state"
                for t in targets):
            continue
        if any((isinstance(sub, ast.Name) and sub.id == "CloakState")
               or (isinstance(sub, ast.Attribute)
                   and sub.attr == "CloakState")
               for sub in ast.walk(node.value)):
            yield node.lineno, (f"cloak state assigned directly in {module}; "
                                "call PageMetadata.transition (only "
                                f"{_STATE_OWNER} writes `.state`)")


# -- IMP001: no unused module-level import -------------------------------------

def _module_level_imports(tree: ast.Module) -> Dict[str, int]:
    """Name bound -> line, for every module-level import, including
    those nested in module-level ``if``/``try`` blocks."""
    bound: Dict[str, int] = {}
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, block, ()))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
    return bound


def _names_read(tree: ast.Module) -> set:
    """Every ``Name``, plus names inside string annotations and the
    strings listed in a module-level ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        for sub in (s for a in annotations if a is not None
                    for s in ast.walk(a)):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= {n.id for n in ast.walk(ast.parse(sub.value,
                                                          mode="eval"))
                         if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(tree: ast.Module, module: str) -> Findings:
    """``__init__`` modules re-export, so they are skipped."""
    if module.endswith(".__init__"):
        return
    used = _names_read(tree)
    for name, line in sorted(_module_level_imports(tree).items(),
                             key=lambda item: item[1]):
        if name not in used:
            yield line, f"'{name}' is imported but never used"


RULES = {
    "TB001": import_boundary,
    "DET001": determinism,
    "ERR001": exception_discipline,
    "OBS001": probe_indirection,
    "STATE001": cloak_state_writer,
    "IMP001": unused_imports,
}
