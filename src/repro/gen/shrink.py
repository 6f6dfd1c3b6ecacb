"""Greedy delta-debugging shrinker for failing generated programs.

A failure is replayable from its ``(seed, spec)`` pair, and the spec's
``drop`` set removes structural ops *before* the dependency-closing
sweep — so shrinking is a search over subsets of structural indices
that still reproduce the failure.  The search is classic chunked
ddmin: try removing halves, then quarters, ... down to single ops,
keeping any removal that preserves the original failure *kind*
(a divergence must stay a divergence; sliding into an unrelated
generator crash would shrink to the wrong bug).

The result is locally minimal — no single remaining structural op can
be dropped — and carries a paste-able replay token.
"""

from typing import Callable, List, Optional

from repro.faults.oracle import judge
from repro.gen.generator import app_spec_for
from repro.gen.spec import GenSpec
from repro.machine import Machine


class ShrinkResult:
    """A locally minimal reproducer for one failure."""

    __slots__ = ("seed", "spec", "kind", "detail", "ops_before", "ops_after",
                 "checks")

    def __init__(self, seed: int, spec: GenSpec, kind: str, detail: str,
                 ops_before: int, ops_after: int, checks: int):
        self.seed = seed
        #: The shrunk spec: the original with a maximal ``drop`` set.
        self.spec = spec
        self.kind = kind
        self.detail = detail
        #: Emitted op counts (after the dependency sweep), full vs shrunk.
        self.ops_before = ops_before
        self.ops_after = ops_after
        #: Predicate evaluations the search spent.
        self.checks = checks

    @property
    def replay(self) -> str:
        return f"{self.seed}:{self.spec.to_json()}"

    def __repr__(self) -> str:
        return (f"ShrinkResult({self.kind}, ops {self.ops_before}->"
                f"{self.ops_after}, checks={self.checks})")


def shrink(seed: int, spec: GenSpec,
           cloak_tweak: Optional[Callable[[Machine], None]] = None,
           max_checks: int = 160) -> ShrinkResult:
    """ddmin over the structural op indices of ``(seed, spec)``.

    The predicate is the oracle's judge on one native/cloaked pair
    (``cloak_tweak`` on the cloaked run), without the determinism rung.
    """

    def check(trial: GenSpec):
        app, plan = app_spec_for(seed, trial)
        kind, detail = judge(app, cloak_tweak=cloak_tweak)
        return kind, detail, plan

    kind, detail, plan = check(spec)
    if kind is None:
        raise ValueError(
            f"(seed={seed}, spec) does not fail; nothing to shrink")
    ops_before = len(plan.ops)

    alive: List[int] = sorted(
        set(range(plan.structural_count)) - set(spec.drop))
    checks = 1
    chunk = max(len(alive) // 2, 1)
    while True:
        index = 0
        while index < len(alive) and checks < max_checks:
            removed = alive[index:index + chunk]
            trial = spec.replace(
                drop=tuple(sorted(set(spec.drop) | set(removed))))
            trial_kind, trial_detail, trial_plan = check(trial)
            checks += 1
            if trial_kind == kind:
                spec, detail, plan = trial, trial_detail, trial_plan
                del alive[index:index + chunk]
            else:
                index += chunk
        if chunk == 1 or checks >= max_checks:
            break
        chunk = max(chunk // 2, 1)

    return ShrinkResult(seed, spec, kind, detail, ops_before, len(plan.ops),
                        checks)
