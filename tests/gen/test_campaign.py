"""The tier-1 fuzz smoke campaign and its coverage gates.

64 generated programs run native-vs-cloaked under the oracle.  The
campaign must find nothing (the engine is believed correct), and its
coverage accounting must prove the population actually exercises the
surface: every syscall in the guest ABI, at least 12 of the 14 fault
injection sites, and a broad probe-bus footprint.
"""

import time
from collections import OrderedDict

import pytest

from repro.apps import program
from repro.core.hypercall import Hypercall
from repro.faults.oracle import judge
from repro.faults.plan import SITE_MAC_TRUNCATE
from repro.gen.driver import (parse_replay_token, replay_token, run_campaign,
                              run_slot)
from repro.gen import generator
from repro.gen.generator import OPS_PER_PLAN_OP, app_spec_for
from repro.gen.spec import PRESETS, derive_seed

SMOKE_SEED = 0
SMOKE_COUNT = 64


@pytest.fixture(scope="module")
def smoke_report():
    return run_campaign(campaign_seed=SMOKE_SEED, count=SMOKE_COUNT)


class TestSmokeCampaign:
    def test_zero_divergences(self, smoke_report):
        assert smoke_report.ok, [
            (s.slot, s.status, s.detail, s.replay)
            for s in smoke_report.failures()
        ]

    def test_covers_every_syscall(self, smoke_report):
        assert smoke_report.syscalls_missing() == []

    def test_covers_most_fault_sites(self, smoke_report):
        assert len(smoke_report.fault_sites) >= 12, \
            smoke_report.fault_sites_missing()

    def test_observability_rides_along(self, smoke_report):
        assert len(smoke_report.probes) >= 10, sorted(smoke_report.probes)

    def test_determinism_was_sampled(self, smoke_report):
        assert sum(1 for s in smoke_report.slots
                   if s.determinism_checked) == SMOKE_COUNT // 8

    def test_report_is_deterministic(self, smoke_report):
        replay = run_campaign(campaign_seed=SMOKE_SEED, count=6)
        head = {s.slot: s.to_dict() for s in smoke_report.slots[:6]}
        again = {s.slot: s.to_dict() for s in replay.slots}
        assert head == again
        assert replay.digest() == run_campaign(
            campaign_seed=SMOKE_SEED, count=6).digest()


class TestFaultRotation:
    def test_armed_slots_stay_contained(self):
        report = run_campaign(campaign_seed=3, count=7, fault_sites=True)
        assert report.ok, [(s.fault_site, s.fault_outcome, s.detail)
                           for s in report.failures()]
        for slot in report.slots:
            assert slot.fault_site is not None
            assert slot.fault_outcome in ("RECOVERED", "DETECTED")

    def test_deadlocked_armed_run_is_detected(self):
        """A truncated MAC kills a generated child (exit 139) while its
        parent still holds the pipe's write end, so every process
        blocks for good.  The run still ends in a verdict."""
        result = run_slot(1, derive_seed(0, 1), "default",
                          PRESETS["default"], fault_site=SITE_MAC_TRUNCATE,
                          shrink_failures=False)
        assert result.fault_outcome == "DETECTED"
        assert result.ok

    def test_campaign_with_a_deadlocking_slot_completes(self):
        report = run_campaign(0, 6, presets=("default",), fault_sites=True)
        assert len(report.slots) == 6
        assert report.ok, [(s.fault_site, s.fault_outcome, s.detail)
                           for s in report.failures()]


def _noop_page_recycle(machine):
    """Engine sabotage: re-introduce the heap-recycle protocol gap."""
    machine.vmm._dispatcher.replace(Hypercall.PAGE_RECYCLE,
                                    lambda vmm, caller, start_vpn, npages: 0)


class TestMutationIsCaught:
    """A seeded engine bug must be found, shrunk, and replayable."""

    def test_sabotaged_engine_fails_and_shrinks(self):
        report = run_campaign(campaign_seed=SMOKE_SEED, count=1,
                              cloak_tweak=_noop_page_recycle)
        assert not report.ok
        (failure,) = report.failures()
        assert failure.status == "violation"
        assert failure.shrunk is not None
        assert failure.shrunk.ops_after < failure.shrunk.ops_before
        # The reproducer is self-contained: parse it back and the
        # shrunk (seed, spec) still fails the same way under the
        # same sabotage, and is healthy without it.
        app, __ = app_spec_for(*parse_replay_token(failure.replay))
        kind, __ = judge(app, cloak_tweak=_noop_page_recycle)
        assert kind == "violation"
        kind, __ = judge(app)
        assert kind is None

    def test_generator_sabotage_reported_as_divergence(self):
        seed = derive_seed(SMOKE_SEED, 0)
        spec = PRESETS["default"].replace(sabotage="time-print")
        result = run_slot(0, seed, "default", spec, shrink_failures=False)
        assert result.status == "divergence"
        assert result.replay == replay_token(seed, spec)


class TestOpBudget:
    """A generated run ends in a verdict, a spinning one included."""

    def test_generated_spec_carries_a_plan_sized_budget(self):
        app, plan = app_spec_for(derive_seed(SMOKE_SEED, 0),
                                 PRESETS["default"])
        assert app.max_ops == OPS_PER_PLAN_OP * len(plan.ops)

    def test_spinning_slot_ends_as_a_verdict_quickly(self, monkeypatch):
        build = generator.build_program

        def spinning(plan):
            class Spinning(build(plan)):
                def main(self, ctx):
                    yield from super().main(ctx)
                    while True:
                        yield ctx.sched_yield()
            return Spinning

        monkeypatch.setattr(generator, "build_program", spinning)
        started = time.monotonic()
        result = run_slot(0, derive_seed(SMOKE_SEED, 0), "default",
                          PRESETS["default"], shrink_failures=False)
        assert time.monotonic() - started < 5.0
        assert result.status == "genfail"
        assert result.detail.startswith("native exit -1:")
        assert result.detail.endswith("GEN-OK\n")


class TestImageCache:
    """Every generated program is a class with an image of its own;
    the image memo stays bounded and eviction changes no result."""

    def test_cache_stays_within_its_bound_across_a_campaign(
            self, monkeypatch):
        assert program._IMAGE_CACHE_LIMIT >= 256
        assert len(program._IMAGE_CACHE) <= program._IMAGE_CACHE_LIMIT
        expected = run_campaign(campaign_seed=SMOKE_SEED, count=12).digest()
        monkeypatch.setattr(program, "_IMAGE_CACHE", OrderedDict())
        monkeypatch.setattr(program, "_IMAGE_CACHE_LIMIT", 4)
        report = run_campaign(campaign_seed=SMOKE_SEED, count=12)
        assert len(program._IMAGE_CACHE) == 4
        assert report.digest() == expected
