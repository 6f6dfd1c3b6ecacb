import json

import layers
import run
from child import WORKLOADS


def _pass(digest, attempted=10, failed=0):
    return {"digest": digest, "attempted": attempted, "failed": failed}


def test_a_pin_mismatch_fails_every_unit():
    pin = WORKLOADS["micro-hot"].pin
    attempted, failed, problems = run._check(
        "micro-hot", 0, [_pass("123"), _pass("123")])
    assert (attempted, failed) == (20, 20)
    assert any("pin mismatch" in p for p in problems)
    assert run._check("micro-hot", 0, [_pass(pin)] * 2) == (20, 0, [])


def test_pins_apply_at_seed_zero_and_repeats_must_agree_elsewhere():
    assert run._check("micro-hot", 7, [_pass("123")] * 2) == (20, 0, [])
    attempted, failed, problems = run._check(
        "micro-hot", 7, [_pass("123"), _pass("124")])
    assert failed == attempted == 20
    assert any("repeats disagree" in p for p in problems)


def test_a_seedless_workload_is_pinned_at_every_seed():
    _, failed, _ = run._check("paper-eval", 7, [_pass("123")])
    assert failed == 10


def test_failed_units_are_counted_one_by_one():
    pin = WORKLOADS["fuzz-campaign"].pin
    attempted, failed, problems = run._check(
        "fuzz-campaign", 0, [_pass(pin, 256, 3)])
    assert (attempted, failed) == (256, 3)
    assert problems


def test_benchmark_json_lists_what_the_benchmark_measures():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["per_layer"]]
    from repro.__main__ import DESCRIPTIONS
    expected = ([f"{layer}.self_s" for layer in layers.LAYERS]
                + list(layers.COUNTS)
                + ["gc.pause_s", "gc.collections", "trace.overhead_ratio"]
                + [f"bench.{key}_s" for key in DESCRIPTIONS])
    assert names == expected
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_contract_line_reports_every_metric_in_order():
    spec = run.load_spec()
    metrics = {m["name"]: 1.5 for m in spec["end_to_end"]}
    line = json.loads(run.contract_line(
        {"metrics": metrics, "problems": [], "attempted": 4, "failed": 0},
        spec["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(metrics)
    assert line["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    assert line["correct"] is True
