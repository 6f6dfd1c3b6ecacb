"""Cluster determinism, failure handling, and merge tests.

The headline guarantee: the merged report is **byte-identical** across
execution modes (inline vs forked workers), worker counts, and repeat
runs — including degraded runs with injected worker death.  Everything
here pins that, plus the failure model (a dead worker degrades the
answer, never hangs the run).
"""

import multiprocessing

import pytest

from repro.obs.metrics import merge_snapshots
from repro.serve import cluster
from repro.serve.cluster import (
    ClusterConfig,
    plan_shards,
    report_json,
    run_cluster,
)
from repro.serve.loadgen import LoadSpec, build_schedule


def _have_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(not _have_fork(),
                                reason="platform lacks fork")

SPEC = LoadSpec(app="webserver", requests=12, mean_gap=8_000,
                connections=3, keys=8, file_size=512, seed=2)


def _config(**overrides) -> ClusterConfig:
    settings = dict(spec=SPEC, shards=2, attach_metrics=False)
    settings.update(overrides)
    return ClusterConfig(**settings)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def test_plan_covers_every_shard_and_row():
    ring, per_shard = plan_shards(_config(shards=3))
    assert set(per_shard) == {0, 1, 2}
    rows = sorted(row for rows in per_shard.values() for row in rows)
    assert rows == sorted(build_schedule(SPEC))
    # Routing is by key via the ring, not round-robin.
    for shard, shard_rows in per_shard.items():
        for row in shard_rows:
            assert ring.lookup(row[3]) == shard


def test_config_validation():
    with pytest.raises(ValueError):
        _config(shards=0).validate()
    with pytest.raises(ValueError):
        _config(kill_shards=(9,)).validate()
    with pytest.raises(ValueError):
        _config(spec=LoadSpec(app="ftp")).validate()


# ---------------------------------------------------------------------------
# determinism across modes, worker counts, and repeats
# ---------------------------------------------------------------------------

def test_inline_run_is_repeatable():
    first = run_cluster(_config(inline=True))
    second = run_cluster(_config(inline=True))
    assert report_json(first) == report_json(second)


@needs_fork
def test_forked_matches_inline_byte_for_byte():
    inline = run_cluster(_config(inline=True))
    forked = run_cluster(_config(inline=False))
    assert report_json(inline) == report_json(forked)


@needs_fork
def test_worker_count_does_not_change_the_report():
    serial = run_cluster(_config(shards=3, workers=1))
    wide = run_cluster(_config(shards=3, workers=3))
    assert report_json(serial) == report_json(wide)


@needs_fork
def test_per_shard_cycle_hashes_pin_both_modes():
    inline = run_cluster(_config(inline=True))
    forked = run_cluster(_config(inline=False))
    hashes_inline = {shard: entry["cycle_hash"]
                     for shard, entry in inline["per_shard"].items()}
    hashes_forked = {shard: entry["cycle_hash"]
                     for shard, entry in forked["per_shard"].items()}
    assert hashes_inline == hashes_forked
    assert all(h != "empty" for h in hashes_inline.values())


def test_healthy_report_shape():
    report = run_cluster(_config(inline=True))
    assert report["schema"] == 1
    assert not report["degraded"]
    assert report["dead_shards"] == []
    assert report["rerouted_requests"] == 0
    assert report["rescue"] == {}
    cluster = report["cluster"]
    assert cluster["requests"] == SPEC.requests
    assert cluster["completed"] == SPEC.requests
    assert cluster["errors"] == 0
    # The bulk per-request arrays stay out of the public report.
    for entry in report["per_shard"].values():
        assert "latencies" not in entry


def test_metrics_merge_into_the_report():
    report = run_cluster(_config(inline=True, attach_metrics=True))
    merged = report["metrics"]
    assert merged["schema"] == 1
    assert merged["merged_from"] == 2
    assert merged["total_events"] > 0
    with pytest.raises(ValueError):
        merge_snapshots([{"schema": 2}])


# ---------------------------------------------------------------------------
# failure model: dead workers degrade, never hang
# ---------------------------------------------------------------------------

@needs_fork
def test_dead_worker_yields_completed_degraded_report():
    report = run_cluster(_config(shards=3, kill_shards=(1,)))
    assert report["degraded"]
    assert report["dead_shards"] == [1]
    assert report["rerouted_requests"] > 0
    assert "1" not in report["per_shard"]
    assert report["rescue"]  # survivors replayed the orphaned rows
    # Every scheduled request still completes, via re-routing.
    assert report["cluster"]["completed"] == SPEC.requests


@needs_fork
def test_degraded_report_matches_inline_injection():
    forked = run_cluster(_config(shards=3, kill_shards=(1,)))
    inline = run_cluster(_config(shards=3, kill_shards=(1,), inline=True))
    assert report_json(forked) == report_json(inline)


def test_all_shards_dead_still_completes():
    report = run_cluster(_config(shards=2, kill_shards=(0, 1), inline=True))
    assert report["degraded"]
    assert report["dead_shards"] == [0, 1]
    assert report["rescue"] == {}  # nobody left to rescue onto
    assert report["cluster"]["completed"] == 0
    assert report["cluster"]["capacity_per_shard"] == 0.0


@needs_fork
def test_malformed_worker_results_count_as_dead(monkeypatch):
    """A worker's queued result is trusted only if it is a complete
    ``run_shard`` dict for a shard of its own wave."""

    def lying_worker(result_queue, config, shard, rows):
        result = cluster.run_shard(config, shard, rows)
        if shard == 0:
            del result["cycles"]
            result_queue.put((shard, result))      # partial dict
        elif shard == 1:
            result_queue.put((shard, "all good"))  # not a dict
        elif shard == 2:
            result_queue.put((0, result))          # another wave's shard
        else:
            result_queue.put((shard, result))

    monkeypatch.setattr(cluster, "_worker_main", lying_worker)
    report = run_cluster(_config(shards=4, workers=2))
    assert report["degraded"]
    assert report["dead_shards"] == [0, 1, 2]
    assert sorted(report["per_shard"]) == ["3"]
    assert report["cluster"]["completed"] == SPEC.requests
    inline = run_cluster(_config(shards=4, kill_shards=(0, 1, 2),
                                 inline=True))
    assert report_json(report) == report_json(inline)
