"""Sharded cluster serving: N machines, one schedule, one report.

A *cluster run* routes one open-loop schedule
(:mod:`repro.serve.loadgen`) across N independent
:class:`repro.machine.Machine` shards with a consistent-hash ring
(:mod:`repro.serve.ring`), runs every shard, and merges the per-shard
results — samples, SLO accounting, and ``repro.obs`` metrics — into a
single deterministic cluster report.

Execution modes, byte-identical by construction:

* ``inline`` — every shard runs sequentially in the calling process;
* multiprocess — one **forked** worker per shard (bounded by
  ``workers`` concurrent processes), each booting its own shard
  through :meth:`repro.machine.Machine.boot`.

Byte-identity holds because each shard is a closed world: its machine,
sub-schedule, and virtual clock are independent of every other shard,
so per-shard results do not depend on scheduling, worker count, or
completion order; the merge sorts by shard id and sums commutative
integers.  Nothing in the report derives from the host (no wall clock,
no pids, no worker topology).

Failure model: a worker that dies (crash, kill, or the test harness's
``kill_shards`` injection) simply never reports.  The parent notices,
marks the shard dead, removes it from the ring, re-routes the dead
shard's requests to their new owners (a **rescue pass** on fresh
machines), and emits a completed report with ``degraded: true`` — a
dead worker degrades the answer, it never hangs the run.
"""

import json
import multiprocessing
import os
import queue as queue_mod
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.obs.metrics import merge_snapshots
from repro.serve.loadgen import (
    LoadSpec,
    Row,
    boot_server,
    build_schedule,
    drive_open_loop,
    percentile,
)
from repro.serve.ring import DEFAULT_VNODES, HashRing

#: Worker poll interval (seconds) while awaiting results.
_POLL = 0.05

#: Parent-side watchdog: give up on unresponsive workers after this
#: many wall seconds (counted in poll ticks, never read from a clock)
#: and mark their shards dead.
_WALL_BUDGET = 120.0

#: Every key :func:`run_shard` returns, with the type(s) its value has.
_RESULT_TYPES = {
    "app": str, "requests": int, "completed": int, "errors": int,
    "slo_misses": int, "deadline": int, "latency": dict, "latencies": list,
    "offered_per_mcycle": float, "achieved_per_mcycle": float,
    "cycles": int, "cycle_hash": str, "server_exit": (int, type(None)),
    "violations": int,
}


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run, fully determined by its fields."""

    spec: LoadSpec = field(default_factory=LoadSpec)
    shards: int = 4
    cloaked: bool = False
    vnodes: int = DEFAULT_VNODES
    #: Max concurrent worker processes (0 = one per shard).
    workers: int = 0
    #: Run every shard in this process (no forking).
    inline: bool = False
    #: Shards whose worker dies before serving (failure injection).
    kill_shards: Tuple[int, ...] = ()
    attach_metrics: bool = True

    def validate(self) -> None:
        self.spec.validate()
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        for shard in self.kill_shards:
            if not 0 <= shard < self.shards:
                raise ValueError(f"kill_shards entry {shard} out of range")


def plan_shards(config: ClusterConfig) -> Tuple[HashRing,
                                                Dict[int, List[Row]]]:
    """Route the schedule's rows to shards by key.

    Every shard appears in the result (possibly with no rows); each
    shard's sub-schedule keeps the global arrival offsets, so offered
    load per shard reflects the routing, not a renumbering.
    """
    ring = HashRing(range(config.shards), config.vnodes)
    per_shard: Dict[int, List[Row]] = {s: [] for s in range(config.shards)}
    for row in build_schedule(config.spec):
        per_shard[ring.lookup(row[3])].append(row)
    return ring, per_shard


# ---------------------------------------------------------------------------
# one shard
# ---------------------------------------------------------------------------

def run_shard(config: ClusterConfig, shard: int, rows: List[Row]) -> Dict:
    """Run one shard's sub-schedule on its own machine."""
    if not rows:
        return {
            "app": config.spec.app, "requests": 0, "completed": 0,
            "errors": 0, "slo_misses": 0, "deadline": config.spec.deadline,
            "latency": {"p50": 0, "p95": 0, "p99": 0, "p999": 0, "max": 0},
            "latencies": [], "offered_per_mcycle": 0.0,
            "achieved_per_mcycle": 0.0, "cycles": 0, "cycle_hash": "empty",
            "server_exit": 0, "violations": 0,
        }
    machine = boot_server(config.spec, config.cloaked)
    return drive_open_loop(machine, config.spec, rows,
                           cloaked=config.cloaked,
                           attach_metrics=config.attach_metrics)


# ---------------------------------------------------------------------------
# worker protocol
# ---------------------------------------------------------------------------

def _worker_main(result_queue, config: ClusterConfig, shard: int,
                 rows: List[Row]) -> None:
    if shard in config.kill_shards:
        # Failure injection: die the way a crashed worker dies — no
        # result, no cleanup, nonzero exit.  The parent must cope.
        os._exit(17)
    result_queue.put((shard, run_shard(config, shard, rows)))


def _accepted(item, wave: List[int], results: Dict[int, Dict]) -> bool:
    """Is a queued ``item`` the first result of a shard in ``wave``,
    shaped as :func:`run_shard` shapes it?  Anything else is dropped,
    so its shard counts as dead and is rerouted."""
    if not (isinstance(item, tuple) and len(item) == 2):
        return False
    shard, result = item
    if shard not in wave or shard in results or not isinstance(result, dict):
        return False
    if not isinstance(result.get("metrics", {}), dict):
        return False
    return all(key in result and isinstance(result[key], kinds)
               for key, kinds in _RESULT_TYPES.items())


def _run_forked(config: ClusterConfig,
                per_shard: Dict[int, List[Row]]) -> Dict[int, Dict]:
    """Run shards in forked workers; missing or malformed results mean
    dead shards."""
    ctx = multiprocessing.get_context("fork")
    results: Dict[int, Dict] = {}
    width = config.workers if config.workers > 0 else config.shards
    shard_ids = sorted(per_shard)
    budget_polls = int(_WALL_BUDGET / _POLL)
    for start in range(0, len(shard_ids), width):
        wave = shard_ids[start:start + width]
        # A fresh queue per wave: terminating a worker can leave the
        # queue's shared write lock held (the feeder thread dies
        # mid-handshake), which would silently swallow every later
        # wave's results.  A poisoned queue is discarded with its wave.
        result_queue = ctx.Queue()
        procs = {
            shard: ctx.Process(
                target=_worker_main,
                args=(result_queue, config, shard, per_shard[shard]),
            )
            for shard in wave
        }
        for proc in procs.values():
            proc.start()
        expected = len(procs)
        got = 0
        for _tick in range(budget_polls):
            if got == expected:
                break
            try:
                item = result_queue.get(timeout=_POLL)
            except queue_mod.Empty:
                if not any(p.is_alive() for p in procs.values()):
                    break
                continue
            if _accepted(item, wave, results):
                results[item[0]] = item[1]
                got += 1
        # Late stragglers: one last non-blocking drain (a worker may
        # have queued its result in the instant before we gave up).
        while True:
            try:
                item = result_queue.get_nowait()
            except queue_mod.Empty:
                break
            if _accepted(item, wave, results):
                results[item[0]] = item[1]
        for proc in procs.values():
            # Workers that delivered exit on their own — give them a
            # grace period so terminate() is reserved for the truly
            # hung (it is never safe for a worker mid-queue-flush).
            proc.join(timeout=4 * _POLL)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        result_queue.close()
        result_queue.join_thread()
    return results


def _run_inline(config: ClusterConfig,
                per_shard: Dict[int, List[Row]]) -> Dict[int, Dict]:
    results: Dict[int, Dict] = {}
    for shard in sorted(per_shard):
        if shard in config.kill_shards:
            continue  # same observable outcome as a dead worker
        results[shard] = run_shard(config, shard, per_shard[shard])
    return results


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def _public_entry(result: Dict) -> Dict:
    """A shard result as the report carries it (bulk arrays dropped)."""
    entry = {key: value for key, value in result.items()
             if key not in ("latencies", "metrics")}
    return entry


def merge_report(config: ClusterConfig, results: Dict[int, Dict],
                 rescue: Dict[int, Dict], dead: List[int],
                 rerouted: int) -> Dict:
    """The deterministic cluster-wide report.

    Input dict ordering does not matter: shards are emitted sorted,
    and every cluster-level figure is a sum or an order-insensitive
    percentile over the pooled samples.
    """
    spec = config.spec
    all_runs = list(results.values()) + list(rescue.values())
    latencies = sorted(lat for run in all_runs for lat in run["latencies"])
    requests = sum(run["requests"] for run in all_runs)
    completed = sum(run["completed"] for run in all_runs)
    achieved = round(sum(run["achieved_per_mcycle"] for run in all_runs), 4)
    live = config.shards - len(dead)
    report = {
        "schema": 1,
        "app": spec.app,
        "cloaked": config.cloaked,
        "arrival": spec.arrival,
        "seed": spec.seed,
        "shards": config.shards,
        "vnodes": config.vnodes,
        "degraded": bool(dead),
        "dead_shards": sorted(dead),
        "rerouted_requests": rerouted,
        "per_shard": {str(shard): _public_entry(results[shard])
                      for shard in sorted(results)},
        "rescue": {str(shard): _public_entry(rescue[shard])
                   for shard in sorted(rescue)},
        "cluster": {
            "requests": requests,
            "completed": completed,
            "errors": sum(run["errors"] for run in all_runs),
            "slo_misses": sum(run["slo_misses"] for run in all_runs),
            "latency": {
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
                "p999": percentile(latencies, 99.9),
                "max": latencies[-1] if latencies else 0,
            },
            "achieved_per_mcycle": achieved,
            "capacity_per_shard": round(achieved / max(1, live), 4),
        },
    }
    if config.attach_metrics:
        report["metrics"] = merge_snapshots(
            [run["metrics"] for run in all_runs if "metrics" in run])
    return report


def report_json(report: Dict) -> str:
    """Canonical serialization: the byte-identity surface."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_cluster(config: ClusterConfig) -> Dict:
    """Route, run, rescue, merge — the whole cluster lifecycle.

    Never hangs on worker death: shards without results are declared
    dead, their rows re-routed via the ring to surviving shards, and
    the report completes with degradation recorded.
    """
    config.validate()
    ring, per_shard = plan_shards(config)
    use_fork = not config.inline
    if use_fork:
        try:
            multiprocessing.get_context("fork")
        except ValueError:
            use_fork = False  # platform without fork: degrade to inline
    if use_fork:
        results = _run_forked(config, per_shard)
    else:
        results = _run_inline(config, per_shard)

    dead = sorted(set(per_shard) - set(results))
    rescue: Dict[int, Dict] = {}
    rerouted = 0
    if dead and len(dead) < config.shards:
        for shard in dead:
            ring.remove(shard)
        rerouted_rows: Dict[int, List[Row]] = {}
        for shard in dead:
            for row in per_shard[shard]:
                rerouted_rows.setdefault(ring.lookup(row[3]), []).append(row)
        rerouted = sum(len(rows) for rows in rerouted_rows.values())
        for owner in sorted(rerouted_rows):
            # The rescue pass runs in the parent: a fresh machine per
            # new owner replays the orphaned sub-schedule.  (Real
            # systems replay from a log; the simulated analogue is a
            # deterministic re-run on the surviving owner's twin.)
            rescue[owner] = run_shard(config, owner,
                                      sorted(rerouted_rows[owner]))
    return merge_report(config, results, rescue, dead, rerouted)
