"""One workload process of the benchmark.

``perf/run.py`` starts this file once per measurement, one process at
a time; nothing here is meant to be run by hand::

    python perf/child.py WORKLOAD SEED MODE BUDGET

MODE is one of

* ``setup``   — set up, signal ready, exit (a set-up time sample);
* ``time``    — set up, then run timed passes while another pass is
  expected to end within BUDGET seconds (always at least one);
* ``count``   — set up, then one pass with the boundary counters and
  GC callbacks of :mod:`layers` installed;
* ``profile`` — the same pass under cProfile, rolled up by layer.

The process writes two JSON lines to its standard output:
``{"ready": true}`` when set-up is done (the parent times set-up from
spawn to this line) and then its result.  Whatever the simulator
prints goes to a buffer.

Each workload is a class with ``setup(seed)`` — imports, golden boots
and captures, and one warm-up unit — and ``run_pass()``, which returns
a :class:`PassResult`.  ``units`` names what one unit is; its host
latency is recorded by :class:`Recorder`.
"""

import cProfile
import hashlib
import io
import json
import os
import pstats
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, redirect_stdout
from typing import Dict, List, Optional

import layers

PERF_DIR = os.path.dirname(os.path.abspath(__file__))

#: Work between two host-speed probes, in host seconds.
PROBE_EVERY_S = 0.1

#: Probe duration that defines the reference host speed: timed
#: results are reported as if the probe had taken this long.
REFERENCE_PROBE_S = 0.005

#: Probes in the running median that sets each stretch's speed.
PROBE_WINDOW = 5

#: Probes run right after set-up, to rescale set-up time.
READY_PROBES = 9


class PassResult:
    """Outcome of one pass: a digest that repeats must reproduce, and
    how many units were attempted and failed their own checks."""

    __slots__ = ("digest", "attempted", "failed", "sections")

    def __init__(self, digest: str, attempted: int, failed: int,
                 sections: Optional[Dict[str, float]] = None):
        self.digest = digest
        self.attempted = attempted
        self.failed = failed
        self.sections = sections or {}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe() -> float:
    """Host seconds for a fixed pure-Python kernel, right now.

    A shared host's other tenants can slow every instruction, down to
    half speed, in phases of seconds to minutes, without the slowdown
    showing as steal or as lost CPU time.  Interleaved with the work,
    this kernel slows with it (it tracked the simulator better than
    object-heavy or cache-missing kernels did), so dividing by it
    removes most of the host's drift from the timings.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(60000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


class Recorder:
    """Host latency of each unit, the virtual cycles the machine loop
    advanced, and the host-speed probes taken between units.

    Work is cut into stretches of about :data:`PROBE_EVERY_S`, each
    closed by a probe; a stretch's speed factor is
    ``REFERENCE_PROBE_S`` over the median of the probes around it.
    """

    def __init__(self) -> None:
        #: (host seconds, index of the probe closing the unit's stretch)
        self.units: List[tuple] = []
        self.stretches: List[float] = []
        self.probes: List[float] = []
        self.cycles = 0
        self._mark = time.perf_counter()

    def start(self) -> None:
        """Begin a stretch now (time before this belongs to no pass)."""
        self._mark = time.perf_counter()

    def close_stretch(self) -> None:
        self.stretches.append(time.perf_counter() - self._mark)
        self.probes.append(probe())
        self._mark = time.perf_counter()

    def unit_done(self, seconds: float) -> None:
        self.units.append((seconds, len(self.probes)))
        if time.perf_counter() - self._mark >= PROBE_EVERY_S:
            self.close_stretch()

    def speed(self, index: int) -> float:
        index = min(index, len(self.probes) - 1)
        half = PROBE_WINDOW // 2
        window = self.probes[max(0, index - half):index + half + 1]
        return REFERENCE_PROBE_S / statistics.median(window)

    def timed(self, original):
        def unit(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.unit_done(time.perf_counter() - start)
        return unit

    def cycle_counting(self, original):
        def run(machine, *args, **kwargs):
            cycles0 = machine.cycles.total
            try:
                return original(machine, *args, **kwargs)
            finally:
                self.cycles += machine.cycles.total - cycles0
        return run


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class PaperEval:
    """``python -m repro``: all experiments, cold, stdout captured.

    Its inputs are fixed by the paper, so the seed changes nothing and
    the pin applies at every seed.  One pass per process, because a
    reproducer pays the cold boots on every run.
    """

    name = "paper-eval"
    units = "guest run (one Machine.run call)"
    passes_per_process = 1
    pin = "074556d658dec0470c523efca98b6650754514d49e38f24afe45567495c98743"
    pin_any_seed = True

    def setup(self, seed: int) -> None:
        import repro.__main__ as cli

        self.cli = cli
        listing = io.StringIO()
        with redirect_stdout(listing):  # imports every experiment
            cli.main(["--list"])
        self.keys = [line.split()[0] for line in listing.getvalue().splitlines()]

    def install(self, stack: ExitStack, recorder: Recorder) -> None:
        from repro.machine import Machine

        layers.patch(stack, Machine, "run", recorder.timed)

    def run_pass(self) -> PassResult:
        out = io.StringIO()
        sections = {}
        failed = 0
        with redirect_stdout(out):
            for key in self.keys:
                start = time.perf_counter()
                failed += self.cli.main([key]) != 0
                sections[key] = time.perf_counter() - start
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        return PassResult(digest, len(self.keys), failed, sections)


class FuzzCampaign:
    """``repro.gen.driver.run_campaign``: generated programs run native
    and cloaked under the oracle, with snapshot restores, audit fault
    plans, a probe sink and the post-run exposure scan."""

    name = "fuzz-campaign"
    units = "fuzz slot"
    passes_per_process = None
    pin = "ae2b3a8b6eea3b76565d4b7348aa99104d3cc404769f07c5653993dcd7543fa2"
    pin_any_seed = False

    def __init__(self, count: int = 256):
        self.count = count

    def setup(self, seed: int) -> None:
        from repro.gen import driver

        self.driver = driver
        self.seed = seed
        driver.run_campaign(campaign_seed=seed, count=1)

    def install(self, stack: ExitStack, recorder: Recorder) -> None:
        layers.patch(stack, self.driver, "run_slot", recorder.timed)

    def run_pass(self) -> PassResult:
        report = self.driver.run_campaign(campaign_seed=self.seed,
                                          count=self.count)
        return PassResult(report.digest(), self.count,
                          len(report.failures()))


class ServeKV:
    """Open-loop sealed kvstore traffic across a 4-shard cluster,
    inline (no forking); half the requests are PUTs."""

    name = "serve-kv"
    units = "shard run"
    passes_per_process = None
    pin = "ab005ea47856c2dfc633059c92e4fc70f98426a9f08cb46684c26afa89c6b87d"
    pin_any_seed = False
    shards = 4

    def __init__(self, runs: int = 50, requests: int = 400):
        self.runs = runs
        self.requests = requests

    def setup(self, seed: int) -> None:
        from repro.serve import cluster
        from repro.serve.loadgen import LoadSpec

        self.cluster = cluster
        self.configs = [
            cluster.ClusterConfig(
                spec=LoadSpec(app="kvstore", requests=self.requests,
                              mean_gap=8000, keys=64, put_pct=50,
                              seed=seed + i),
                shards=self.shards, cloaked=True, inline=True)
            for i in range(self.runs)]
        cluster.run_cluster(self.configs[0])

    def install(self, stack: ExitStack, recorder: Recorder) -> None:
        layers.patch(stack, self.cluster, "run_shard", recorder.timed)

    def run_pass(self) -> PassResult:
        digest = hashlib.sha256()
        failed = 0
        for config in self.configs:
            report = self.cluster.run_cluster(config)
            digest.update(self.cluster.report_json(report).encode())
            failed += len(report["dead_shards"])
            failed += sum(1 for shard in report["per_shard"].values()
                          if shard["errors"]
                          or shard["completed"] != shard["requests"])
        return PassResult(digest.hexdigest(), self.runs * self.shards, failed)


class MicroHot:
    """Warm interpreter loop: restore from snapshots captured once,
    then every cloaked micro-benchmark, 256 KiB of protected file I/O
    and ``forkstress 4 20000``.  The seed shuffles the micro-benchmark
    order; seed 0 keeps the suite order the pin was taken in."""

    name = "micro-hot"
    units = "program run"
    passes_per_process = None
    #: Virtual cycles per iteration: the mb-suite, fileio-protected and
    #: forkstress rows of BENCH_wallclock.json together.
    pin = "6961775"
    pin_any_seed = False

    FILE_ARGS = ("/secure/data.bin", "4096", str(256 * 1024))

    def __init__(self, iterations: int = 100):
        self.iterations = iterations

    def setup(self, seed: int) -> None:
        from repro.apps.microbench import MICRO_SUITE
        from repro.apps.registry import make_secure_dirs, register_all
        from repro.machine import Machine

        def capture(only):
            machine = Machine.build()
            make_secure_dirs(machine)
            register_all(machine, cloaked=True, only=only)
            return machine.snapshot()

        self.Machine = Machine
        self.order = [program.name for program in MICRO_SUITE]
        if seed:
            random.Random(seed).shuffle(self.order)
        self.suite = capture(None)
        self.files = capture(("filestreamer",))
        self.fork = capture(("forkstress",))
        self._recorder: Optional[Recorder] = None
        self.iteration()

    def install(self, stack: ExitStack, recorder: Recorder) -> None:
        self._recorder = recorder

    def _run(self, machine, name, argv):
        start = time.perf_counter()
        result = machine.run_program(name, argv)
        if self._recorder is not None:
            self._recorder.unit_done(time.perf_counter() - start)
        return result.cycles_total, result.exit_code != 0

    def iteration(self):
        runs = []
        machine = self.Machine.from_snapshot(self.suite)
        runs += [self._run(machine, name, ()) for name in self.order]
        machine = self.Machine.from_snapshot(self.files)
        runs += [self._run(machine, "filestreamer", (mode,) + self.FILE_ARGS)
                 for mode in ("write", "read")]
        machine = self.Machine.from_snapshot(self.fork)
        runs.append(self._run(machine, "forkstress", ("4", "20000")))
        return sum(c for c, _ in runs), sum(f for _, f in runs), len(runs)

    def run_pass(self) -> PassResult:
        totals = set()
        attempted = failed = 0
        for _ in range(self.iterations):
            cycles, bad, units = self.iteration()
            totals.add(cycles)
            attempted += units
            failed += bad
        digest = str(totals.pop()) if len(totals) == 1 else "drift"
        return PassResult(digest, attempted, failed)


WORKLOADS = {cls.name: cls for cls in (PaperEval, FuzzCampaign, ServeKV,
                                       MicroHot)}


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def _guarded_pass(workload) -> PassResult:
    """One pass; a pass that raises fails as a whole."""
    try:
        return workload.run_pass()
    except Exception:  # noqa: BLE001 - the benchmark reports and goes on
        traceback.print_exc()
        return PassResult("raised", 1, 1)


def _pass_record(result: PassResult, cycles: int) -> Dict:
    return {"cycles": cycles, "digest": result.digest,
            "attempted": result.attempted, "failed": result.failed,
            "sections": result.sections}


def time_passes(workload, budget: float) -> Dict:
    """Timed passes.  ``wall``, ``cpu`` and unit latencies are at the
    reference host speed; ``wall_raw`` and ``cpu_raw`` are as read."""
    from repro.machine import Machine

    recorder = Recorder()
    passes = []
    spans = []
    with ExitStack() as stack:
        layers.patch(stack, Machine, "run", recorder.cycle_counting)
        workload.install(stack, recorder)
        begin = time.perf_counter()
        while True:
            cycles0 = recorder.cycles
            first = len(recorder.stretches)
            cpu0 = time.process_time()
            recorder.start()
            result = _guarded_pass(workload)
            recorder.close_stretch()
            cpu = time.process_time() - cpu0
            spans.append((range(first, len(recorder.stretches)), cpu))
            passes.append(_pass_record(result, recorder.cycles - cycles0))
            if len(passes) == 1:
                # Some workloads keep growing caches pass after pass;
                # the first pass fixes the footprint however many
                # passes the host's speed lets into the budget.
                rss_mb = peak_rss_mb()
            if len(passes) == workload.passes_per_process:
                break
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) > budget:
                break
    for record, (stretches, cpu) in zip(passes, spans):
        raw = sum(recorder.stretches[i] for i in stretches)
        wall = sum(recorder.stretches[i] * recorder.speed(i)
                   for i in stretches)
        # Probes ran inside the CPU-time window; take them out.
        cpu_raw = cpu - sum(recorder.probes[i] for i in stretches)
        record.update(wall=wall, wall_raw=raw, cpu=cpu_raw * wall / raw,
                      cpu_raw=cpu_raw)
    units = [seconds * recorder.speed(index)
             for seconds, index in recorder.units]
    return {"passes": passes, "units": units, "rss_mb": rss_mb,
            "probe_median_s": statistics.median(recorder.probes)}


def traced_pass(workload, profile: bool) -> Dict:
    counters = layers.Counters()
    with ExitStack() as stack:
        counters.install(stack, with_gc=not profile)
        profiler = cProfile.Profile() if profile else None
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        result = _guarded_pass(workload)
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - start
    record = {"pass": dict(_pass_record(result, counters.cycles), wall=wall),
              "counts": counters.counts(),
              "gc_pause_s": counters.gc_pause_s,
              "gc_collections": counters.gc_collections}
    if profiler is not None:
        src_dir = os.path.dirname(os.path.dirname(
            sys.modules["repro"].__file__))
        profile_stats = pstats.Stats(profiler)
        record["profiled_s"] = profile_stats.total_tt
        record["layers"] = layers.rollup(
            profile_stats.stats, layers.file_classifier(src_dir, PERF_DIR))
    return record


def main(argv: List[str]) -> int:
    name, seed, mode, budget = argv[0], int(argv[1]), argv[2], float(argv[3])
    out = sys.stdout
    workload = WORKLOADS[name]()
    with redirect_stdout(io.StringIO()):
        workload.setup(seed)
        print(json.dumps({"ready": True}), file=out, flush=True)
        # The host speed set-up ran at, for rescaling set-up time.
        ready_probe_s = statistics.median(probe()
                                          for _ in range(READY_PROBES))
        if mode == "setup":
            result: Dict = {}
        elif mode == "time":
            result = time_passes(workload, budget)
        elif mode in ("count", "profile"):
            result = traced_pass(workload, profile=mode == "profile")
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    result["ready_probe_s"] = ready_probe_s
    result.setdefault("rss_mb", peak_rss_mb())
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
