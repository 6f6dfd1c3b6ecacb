"""Rule registry.

A rule is any object with a ``rule_id``, ``name``, ``summary`` and a
``check(mod: ModuleInfo) -> Iterable[Finding]`` method.  Adding a rule
means writing the module, instantiating it here, and giving it a
fixture-backed positive and negative test under ``tests/analysis/``
(see docs/ANALYSIS.md, "Adding a rule").
"""

from typing import List, Sequence

from repro.analysis.rules.cloak_state import CloakStateRule
from repro.analysis.rules.cycle_accounting import CycleAccountingRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.layering import LayeringRule
from repro.analysis.rules.obs import ProbeIndirectionRule
from repro.analysis.rules.perf import FreshBootLoopRule, PerByteLoopRule
from repro.analysis.rules.secret_flow import SecretFlowRule, UnsealedPersistRule
from repro.analysis.rules.secrets import SecretHygieneRule
from repro.analysis.rules.suppression_hygiene import SuppressionHygieneRule
from repro.analysis.rules.tlb_coherence import TlbCoherenceRule
from repro.analysis.rules.trust_boundary import TrustBoundaryRule

ALL_RULES = (
    TrustBoundaryRule(),
    DeterminismRule(),
    CycleAccountingRule(),
    ExceptionDisciplineRule(),
    SecretHygieneRule(),
    SecretFlowRule(),
    UnsealedPersistRule(),
    LayeringRule(),
    PerByteLoopRule(),
    FreshBootLoopRule(),
    ProbeIndirectionRule(),
    CloakStateRule(),
    TlbCoherenceRule(),
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
