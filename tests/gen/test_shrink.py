"""Shrinker: ddmin over structural indices of a failing (seed, spec)."""

import pytest

from repro.faults.oracle import judge
from repro.gen.driver import parse_replay_token
from repro.gen.generator import app_spec_for, generate
from repro.gen.shrink import shrink
from repro.gen.spec import PRESETS, derive_seed

SEED = derive_seed(0, 0)
BAD = PRESETS["default"].replace(sabotage="time-print")


def verdict(seed, spec):
    """The shrinker's predicate: the judge on one native/cloaked pair."""
    app, __ = app_spec_for(seed, spec)
    return judge(app)


def test_healthy_spec_refuses_to_shrink():
    with pytest.raises(ValueError, match="does not fail"):
        shrink(SEED, PRESETS["default"])


class TestKnownBadDivergence:
    @pytest.fixture(scope="class")
    def result(self):
        return shrink(SEED, BAD)

    def test_failure_is_preserved_and_minimised(self, result):
        assert result.kind == "divergence"
        assert result.ops_after < result.ops_before
        assert result.ops_after <= 3

    def test_reproducer_replays_from_token_alone(self, result):
        seed, spec = parse_replay_token(result.replay)
        assert seed == SEED
        kind, detail = verdict(seed, spec)
        assert kind == "divergence", detail

    def test_shrunk_listing_keeps_the_culprit(self, result):
        kinds = [op.kind for op in generate(SEED, result.spec).ops]
        assert "sabotage_time" in kinds

    def test_local_minimality(self, result):
        """No single surviving structural op can still be dropped."""
        plan = generate(SEED, result.spec)
        alive = sorted(set(range(plan.structural_count))
                       - set(result.spec.drop))
        for index in alive:
            trial = result.spec.replace(
                drop=tuple(sorted(set(result.spec.drop) | {index})))
            kind, __ = verdict(SEED, trial)
            assert kind != "divergence", \
                f"dropping structural op {index} still diverges"
