"""No module under ``src/repro`` imports a name it never uses.

A plain ``ast`` pass, not an analyser rule: every module-level
``import``/``from … import`` binding of a non-``__init__`` module must be
read somewhere in that module.  A name read only inside a string
annotation (``Optional["Machine"]``) or listed in ``__all__`` counts as
used.  ``__init__`` modules are skipped because they re-export.
"""

import ast
import pathlib
from typing import Dict, Iterator, List, Set

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Name bound -> line, for every module-level import statement
    (including those nested in module-level ``if``/``try`` blocks)."""
    bound: Dict[str, int] = {}
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, block, ()):
                    if isinstance(child, ast.ExceptHandler):
                        stack.extend(child.body)
                    else:
                        stack.append(child)
    return bound


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed)
                         if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str) -> List[str]:
    """``"name (line N)"`` for each module-level import never read."""
    tree = ast.parse(source)
    used = _names_read(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(_imported(tree).items(),
                                     key=lambda item: item[1])
            if name not in used]


def test_scanner_counts_string_annotations_and_all_as_use():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from typing import List, Optional\n"
        "from m import Exported, Machine, Unused\n"
        "__all__ = ['Exported']\n"
        "def f(x: Optional['Machine']) -> None:\n"
        "    os = 1\n"
        "    return os\n"
    )
    # ``os`` is read (the local shadows it, but a name pass cannot tell
    # and need not); ``osp``, ``List`` and ``Unused`` never are.
    assert unused_imports(source) == [
        "osp (line 2)", "List (line 3)", "Unused (line 4)"]


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 100
    found = [f"{path.relative_to(SRC.parent)}: {entry}"
             for path in modules
             for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == [], "unused imports:\n  " + "\n  ".join(found)
