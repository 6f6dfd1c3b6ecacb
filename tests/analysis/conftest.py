"""Shared helpers: build synthetic ``repro`` trees and run rules on them.

Fixture modules are written under ``tmp_path/repro/...`` so the
engine's module-name anchoring resolves them exactly like the real
tree (``repro.guestos.evil`` etc.), which is what the import-boundary
rule keys on.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import Analyzer, ModuleInfo


class FixtureTree:
    """A throwaway source tree rooted at ``root``."""

    def __init__(self, root: Path):
        self.root = root

    def write(self, relpath: str, source: str) -> Path:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def module(self, relpath: str, source: str) -> ModuleInfo:
        path = self.write(relpath, source)
        return ModuleInfo(path, relpath, path.read_text(encoding="utf-8"))

    def run(self, rules):
        return Analyzer(rules).run([self.root], root=self.root)


@pytest.fixture
def tree(tmp_path):
    return FixtureTree(tmp_path)


def check(rule, mod: ModuleInfo):
    """Run one rule over one module, honouring inline suppressions."""
    return [f for f in rule.check(mod)
            if not mod.is_suppressed(f.rule, f.line)]
