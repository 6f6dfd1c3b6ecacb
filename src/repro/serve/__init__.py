"""``repro.serve``: open-loop load generation and sharded serving.

The paper's headline claim is that cloaking is cheap enough for real
server workloads; the closed-loop microbenchmarks in ``repro.bench``
famously understate the cost under load (coordinated omission: a
closed-loop client stops offering work while it waits, so queueing
delay never shows up in its numbers).  This package supplies the
production-style evaluation:

* :mod:`repro.serve.loadgen` — a seeded **open-loop** load generator
  on the virtual-cycle clock: arrivals follow a Poisson or bursty
  process fixed in advance, requests carry deadlines, and one client
  process multiplexes many logical connections into the guest
  webserver / kvstore over the existing FIFO channel ABI.
* :mod:`repro.serve.ring` — a consistent-hash ring (virtual nodes)
  routing keys across shards with minimal remapping on membership
  change.
* :mod:`repro.serve.cluster` — N :class:`repro.machine.Machine`
  shards across ``multiprocessing`` workers, each booted by
  :meth:`repro.machine.Machine.boot`, with
  per-shard ``repro.obs`` metrics merged into a single deterministic
  cluster-wide report.  A single-process ``inline`` mode produces a
  byte-identical report.

Layering: ``repro.serve`` sits *above* the simulated world — it may
import ``repro.apps``, ``repro.machine``, ``repro.obs`` and the guest
ABI (``repro.guestos.uapi``), and never ``repro.hw`` or ``repro.core``
internals (TB001 enforces this with the boundary table in
``tests/analysis/invariants.py``).
"""

from repro.serve.ring import HashRing
from repro.serve.loadgen import LoadSpec, build_schedule, run_open_loop
from repro.serve.cluster import ClusterConfig, run_cluster

__all__ = [
    "HashRing",
    "LoadSpec",
    "build_schedule",
    "run_open_loop",
    "ClusterConfig",
    "run_cluster",
]
