"""SUP001 — suppression comments must be scoped and justified.

Two shapes of inline allow comment defeat the audit trail the engine
depends on:

* **blanket** — an allow with a reason but no bracketed rule ids at
  all.  It suppresses nothing today (the engine requires ids), but it
  *reads* like a waiver and will mislead the next editor.
* **inert** — an allow with rule ids but no reason.  The engine
  deliberately ignores it, so the author believes a finding is
  suppressed when it is not.

Both get flagged where they stand.  Allows that parse but no longer
match any finding are a run-level property, reported by the engine
for every rule that ran (and, when every rule ran, for ids that name
no rule) rather than by a per-module rule.
"""

import re
from typing import Iterable

from repro.analysis.engine import BLANKET_RE, SUPPRESS_RE, Finding, ModuleInfo
from repro.analysis.rules.base import Rule

#: ``allow(IDS)`` with nothing after the bracket — ids but no reason.
_INERT_RE = re.compile(
    r"#\s*repro:\s*allow[\(\[]\s*[A-Z]{2,4}\d{3}"
    r"(?:\s*,\s*[A-Z]{2,4}\d{3})*\s*[\)\]]\s*$"
)


class _Anchor:
    """Line-addressable pseudo-node for Rule.finding()."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col_offset: int = 0):
        self.lineno = lineno
        self.col_offset = col_offset


class SuppressionHygieneRule(Rule):
    rule_id = "SUP001"
    name = "suppression-hygiene"
    summary = ("inline allows must name rule ids and carry a reason; "
               "blanket or reason-less allows are flagged")

    def check(self, mod: ModuleInfo) -> Iterable[Finding]:
        for lineno, text in enumerate(mod.lines, start=1):
            if "repro:" not in text:
                continue
            if BLANKET_RE.search(text):
                yield self.finding(
                    mod, _Anchor(lineno),
                    "blanket `repro: allow` comment without rule ids — name "
                    "the rule(s) in brackets with a reason so the waiver "
                    "is scoped and auditable")
                continue
            if SUPPRESS_RE.search(text):
                continue  # well-formed: ids + reason
            if _INERT_RE.search(text):
                yield self.finding(
                    mod, _Anchor(lineno),
                    "reason-less `# repro: allow(...)` suppresses nothing — "
                    "add a justification after a dash or colon, or delete "
                    "the comment")
