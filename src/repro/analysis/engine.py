"""Rule engine: file discovery, AST parsing, suppressions, reporting.

The engine is rule-agnostic.  It turns every Python file under the
analysed paths into a :class:`ModuleInfo` (source, AST, dotted module
name, scope map, inline suppressions) and hands it to each registered
rule; rules yield :class:`Finding` objects.  A finding is silenced only by
an inline ``# repro: allow(RULE-ID) — reason`` on the offending line
(or alone on the line above it); the reason is mandatory, and an allow
that silences nothing fails the run.  The engine reads the rule
registry for one thing only: when every registered rule ran, an allow
naming any other id names no rule, and fails the run too.
"""

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Inline suppression syntax.  The reason is mandatory: a bare
#: ``allow(...)`` with no justification does not suppress anything.
#: Both ``allow(TB001)`` and ``allow[TB001]`` brackets are accepted.
SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow[\(\[]\s*([A-Z]{2,4}\d{3}(?:\s*,\s*[A-Z]{2,4}\d{3})*)"
    r"\s*[\)\]]\s*(?:[—–-]+|:)\s*(\S.*)?$"
)

#: A ``repro: allow`` comment with no bracketed rule ids at all — it
#: would suppress nothing today, but reads like a blanket waiver.
#: SUP001 flags these.
BLANKET_RE = re.compile(r"#\s*repro:\s*allow\b(?!\s*[\(\[])")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style path as given to the analyzer
    line: int
    col: int
    message: str
    context: str  # enclosing qualname, e.g. "CloakEngine._encrypt"

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.context}] {self.message}")


class ModuleInfo:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: Path, display_path: str, source: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.module = module_name_for(path)
        self.suppressions, self.suppression_sources = _parse_suppressions(
            self.lines)
        self._scope_of: Dict[int, str] = {}
        self._index_scopes()

    # -- scopes ---------------------------------------------------------------

    def _index_scopes(self) -> None:
        def visit(node: ast.AST, stack: Tuple[str, ...]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                stack = stack + (node.name,)
            for child in ast.iter_child_nodes(node):
                visit(child, stack)
            if hasattr(node, "lineno"):
                self._scope_of[id(node)] = ".".join(stack) or "<module>"

        visit(self.tree, ())

    def qualname_at(self, node: ast.AST) -> str:
        """Dotted name of the scope enclosing ``node`` (the scope
        *itself* for a def/class node)."""
        return self._scope_of.get(id(node), "<module>")

    # -- imports --------------------------------------------------------------

    def imports(self) -> Iterable[Tuple[str, Optional[str], ast.stmt]]:
        """Yield ``(imported_module, imported_name, node)`` triples.

        ``imported_name`` is None for plain ``import x``; relative
        imports are resolved against this module's package.
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None, node
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_relative(node)
                if base is None:
                    continue
                for alias in node.names:
                    yield base, alias.name, node

    def _resolve_relative(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        pkg_parts = self.module.split(".")
        # Strip the module's own name, then one package per extra dot.
        cut = node.level
        if len(pkg_parts) < cut:
            return None
        parts = pkg_parts[: len(pkg_parts) - cut]
        if node.module:
            parts.append(node.module)
        return ".".join(parts) if parts else None

    # -- suppressions ---------------------------------------------------------

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True iff an inline allow covers ``rule_id`` at ``line``.

        Matching also marks the covering suppression comment(s) as
        *used*, which feeds the unused-allow check.
        """
        if rule_id not in self.suppressions.get(line, set()):
            return False
        for sup in self.suppression_sources:
            if rule_id in sup.rules and line in sup.targets:
                sup.used.add(rule_id)
        return True

    def unused_suppressions(self, rule_ids: Optional[Set[str]]
                            ) -> Iterable[Tuple[int, str]]:
        """``(comment line, rule id)`` for each allow of a rule in
        ``rule_ids`` (every allow, if None) that matched no finding in
        the last run.  Allows for rules outside ``rule_ids`` did not
        run, so cannot be judged."""
        for sup in self.suppression_sources:
            judged = set(sup.rules)
            if rule_ids is not None:
                judged &= rule_ids
            for rule_id in sorted(judged - sup.used):
                yield sup.origin_line, rule_id


class Suppression:
    """One inline ``# repro: allow(...)`` comment, with usage tracking."""

    __slots__ = ("origin_line", "rules", "targets", "used")

    def __init__(self, origin_line: int, rules: Tuple[str, ...],
                 targets: Set[int]):
        self.origin_line = origin_line
        self.rules = rules
        self.targets = targets
        self.used: Set[str] = set()


def _parse_suppressions(lines: Sequence[str]
                        ) -> Tuple[Dict[int, Set[str]], List["Suppression"]]:
    """Map line number -> rule ids allowed there, plus per-comment
    :class:`Suppression` records for usage tracking.

    A suppression on a comment-only line applies to the first code line
    below it (skipping the rest of the comment block and blank lines),
    so the justification can be written as a wrapped comment above the
    offending statement.
    """
    table: Dict[int, Set[str]] = {}
    sources: List[Suppression] = []
    for lineno, text in enumerate(lines, start=1):
        match = SUPPRESS_RE.search(text)
        if not match or not match.group(2):
            continue  # no reason given -> the allow is inert
        rules = {r.strip() for r in match.group(1).split(",")}
        targets = {lineno}
        table.setdefault(lineno, set()).update(rules)
        if text.lstrip().startswith("#"):
            target = lineno + 1
            while target <= len(lines):
                stripped = lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
            table.setdefault(target, set()).update(rules)
            targets.add(target)
        sources.append(Suppression(lineno, tuple(sorted(rules)), targets))
    return table, sources


def module_name_for(path: Path) -> str:
    """Dotted module name, anchored at the last ``repro`` path part.

    Works both for the real tree (``src/repro/core/vmm.py`` ->
    ``repro.core.vmm``) and for synthetic fixture trees rooted anywhere
    (``/tmp/x/repro/guestos/evil.py`` -> ``repro.guestos.evil``).
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    anchors = [i for i, p in enumerate(parts) if p == "repro"]
    if anchors:
        parts = parts[anchors[-1]:]
    else:
        parts = parts[-1:]
    return ".".join(parts)


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: (display path, comment line, rule id) for allows of a rule that
    #: ran but matched no finding, or (when every rule ran) of an id
    #: that names no rule.
    unused_suppressions: List[Tuple[str, int, str]] = field(
        default_factory=list)

    @property
    def clean(self) -> bool:
        return (not self.findings and not self.parse_errors
                and not self.unused_suppressions)


class Analyzer:
    """Runs a set of rules over a set of paths."""

    def __init__(self, rules: Sequence[object]):
        self.rules = list(rules)

    def discover(self, paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
        return files

    def run(self, paths: Sequence[Path],
            root: Optional[Path] = None) -> Report:
        """Run every rule over every discovered file.

        Findings are displayed relative to ``root`` when they lie
        under it.
        """
        from repro.analysis.rules import ALL_RULES

        report = Report()
        rule_ids: Optional[Set[str]] = {rule.rule_id for rule in self.rules}
        if rule_ids >= {rule.rule_id for rule in ALL_RULES}:
            # Every registered rule ran, so an allow for any other id
            # names no rule at all: judge every allow.
            rule_ids = None
        for file_path in self.discover([Path(p) for p in paths]):
            display = _display_path(file_path, root)
            try:
                source = file_path.read_text(encoding="utf-8")
                mod = ModuleInfo(file_path, display, source)
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                report.parse_errors.append(f"{display}: {exc}")
                continue
            report.files_checked += 1
            for rule in self.rules:
                for finding in rule.check(mod):
                    if mod.is_suppressed(finding.rule, finding.line):
                        report.suppressed.append(finding)
                    else:
                        report.findings.append(finding)
            for line, rule_id in mod.unused_suppressions(rule_ids):
                report.unused_suppressions.append(
                    (mod.display_path, line, rule_id))
        report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        report.unused_suppressions.sort()
        return report


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()
