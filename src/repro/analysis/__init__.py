"""Static invariant checker for the Overshadow reproduction.

The security argument of this codebase is *structural*: untrusted guest
code may only reach cloaked resources through the MMU/hypercall
protocol, all performance numbers are deterministic virtual-cycle
counts, and every touch of a costed primitive must land on the
:class:`~repro.hw.cycles.CycleAccount` ledger.  None of that is
enforced by Python itself — a single stray import or ``time.time()``
call would quietly invalidate the reproduction.

This package makes those invariants checkable at lint time.  It is
deliberately self-contained (stdlib ``ast`` + ``pathlib`` only) so the
checker itself adds no dependencies and cannot be broken by the code it
checks.  See ``docs/ANALYSIS.md`` for the rule catalogue and
``python -m repro.analysis --help`` for the CLI.
"""

from repro.analysis.engine import Analyzer, Finding, ModuleInfo, Report
from repro.analysis.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "Analyzer",
    "Finding",
    "ModuleInfo",
    "Report",
    "get_rules",
]
