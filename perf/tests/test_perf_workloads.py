"""Small-count smoke tests of the in-process workloads: two passes of
the same workload must give the same digest, and profiling must not
move a simulated count."""

import io
from contextlib import ExitStack, redirect_stdout

import pytest

import child
import layers


def _ready(workload, seed=0):
    with redirect_stdout(io.StringIO()):
        workload.setup(seed)
    return workload


@pytest.mark.parametrize("make", [
    lambda: child.FuzzCampaign(count=3),
    lambda: child.ServeKV(runs=2, requests=40),
    lambda: child.MicroHot(iterations=2),
], ids=["fuzz-campaign", "serve-kv", "micro-hot"])
def test_two_passes_give_the_same_digest(make):
    workload = _ready(make())
    first, second = workload.run_pass(), workload.run_pass()
    assert first.failed == second.failed == 0
    assert first.attempted == second.attempted > 0
    assert first.digest == second.digest


def test_micro_hot_matches_its_pin_at_seed_zero_only():
    assert _ready(child.MicroHot(iterations=1)).run_pass().digest == \
        child.MicroHot.pin
    shuffled = _ready(child.MicroHot(iterations=2), seed=3)
    assert shuffled.order != _ready(child.MicroHot(iterations=1)).order
    assert shuffled.run_pass().digest == shuffled.run_pass().digest


def test_timed_passes_record_one_latency_per_unit():
    workload = _ready(child.MicroHot(iterations=1))
    result = child.time_passes(workload, budget=0.0)
    assert len(result["passes"]) == 1
    assert len(result["units"]) == result["passes"][0]["attempted"] == 18
    assert result["passes"][0]["cycles"] > 0


def test_profiling_moves_no_count():
    counted = child.traced_pass(_ready(child.MicroHot(iterations=1)),
                                profile=False)
    profiled = child.traced_pass(_ready(child.MicroHot(iterations=1)),
                                 profile=True)
    assert counted["counts"] == profiled["counts"]
    assert counted["counts"]["hw.snapshot.restores"] == 3
    assert profiled["layers"][layers.UNMAPPED] == 0
    assert sum(profiled["layers"].values()) == pytest.approx(
        profiled["profiled_s"])


def test_patches_are_undone():
    from repro.machine import Machine

    original = Machine.run
    with ExitStack() as stack:
        layers.Counters().install(stack, with_gc=True)
        assert Machine.run is not original
    assert Machine.run is original
