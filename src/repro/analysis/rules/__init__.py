"""Rule registry.

A rule is any object with a ``rule_id``, ``name``, ``summary`` and a
``check(mod) -> Iterable[Finding]`` method (see
:class:`repro.analysis.rules.base.Rule`).  Rules are stateless and see
one module at a time.  Adding a rule means writing the module,
instantiating it here, and giving it a fixture-backed positive and
negative test under ``tests/analysis/`` (see docs/ANALYSIS.md, "Adding
a rule").

Secret flow and cost conservation are not rules: they are checked on
real runs, by ``tests/integration/test_key_canaries.py`` and
``tests/integration/test_cost_conservation.py``.
"""

from typing import List, Sequence

from repro.analysis.rules.cloak_state import CloakStateRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.import_boundary import ImportBoundaryRule
from repro.analysis.rules.obs import ProbeIndirectionRule
from repro.analysis.rules.perf import FreshBootLoopRule
from repro.analysis.rules.suppression_hygiene import SuppressionHygieneRule

ALL_RULES = (
    ImportBoundaryRule(),
    DeterminismRule(),
    ExceptionDisciplineRule(),
    FreshBootLoopRule(),
    ProbeIndirectionRule(),
    CloakStateRule(),
    SuppressionHygieneRule(),
)


def get_rules(only: Sequence[str] = ()) -> List[object]:
    """All rules, or the subset named in ``only`` (by rule id)."""
    if not only:
        return list(ALL_RULES)
    wanted = {rule_id.strip().upper() for rule_id in only}
    known = {rule.rule_id for rule in ALL_RULES}
    unknown = wanted - known
    if unknown:
        raise KeyError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})")
    return [rule for rule in ALL_RULES if rule.rule_id in wanted]
