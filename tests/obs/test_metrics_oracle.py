"""MetricsRegistry against its frozen pre-``bind`` reference.

Each scenario records a real probe stream with :class:`TraceRecorder`
while a live :class:`MetricsRegistry` is attached, then replays the
stream through :class:`ReferenceRegistry` (``on_event``, copied
verbatim from the registry before it kept raw per-probe tallies) and
through a fresh registry bound to the bus alone.  All three must
serialize byte-identically.
"""

import pytest

from repro.apps.microbench import MICRO_SUITE
from repro.bench.runner import fresh_machine, measure_program
from repro.machine import Machine
from repro.obs import bus
from repro.obs.export import TraceRecorder
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.serve import loadgen
from repro.serve.cluster import ClusterConfig, run_cluster
from repro.serve.loadgen import LoadSpec

from tests.obs.reference_metrics import ReferenceRegistry


def reference_of(events):
    reference = ReferenceRegistry()
    for name, cycle, args in events:
        reference.on_event(name, cycle, args)
    return reference


def replayed(events):
    """A fresh registry fed ``events`` through the bus, attached alone."""
    registry = MetricsRegistry()
    cycle = [0]
    bus.attach(registry, lambda: cycle[0])
    try:
        for name, stamp, args in events:
            cycle[0] = stamp
            getattr(bus, bus.probe_attr(name))(*args)
    finally:
        bus.detach(registry)
    return registry


def assert_matches_reference(live, events):
    reference = reference_of(events)
    assert live.to_json() == reference.to_json()
    assert replayed(events).to_json() == reference.to_json()
    assert live.counters == reference.counters
    assert live.total_events() == reference.total_events() == len(events)
    assert (live.first_cycle, live.last_cycle) == \
        (reference.first_cycle, reference.last_cycle)
    return reference


def recorded(machine, run):
    """Run ``run()`` with a recorder and a registry attached together."""
    recorder, registry = TraceRecorder(), MetricsRegistry()
    bus.attach(recorder, machine.cycles)
    bus.attach(registry, machine.cycles)
    try:
        run()
    finally:
        bus.detach(registry)
        bus.detach(recorder)
    return registry, recorder.events


def test_cloaked_micro_suite_and_file_io_fire_every_cloak_cost_probe():
    """MICRO_SUITE alone never restores cached ciphertext; reading a
    protected file back does."""
    machine = fresh_machine(cloaked=True)

    def run():
        for program_cls in MICRO_SUITE:
            measure_program(machine, program_cls.name, ())
        for mode in ("write", "read"):
            measure_program(machine, "filestreamer",
                            (mode, "/secure/f", "4096", "16384"))

    registry, events = recorded(machine, run)
    fired = {name for name, __, __a in events}
    assert {"cloak.zero_fill", "cloak.decrypt", "cloak.encrypt",
            "cloak.ct_restore"} <= fired
    reference = assert_matches_reference(registry, events)
    assert reference.snapshot()["components"]["cloak"]["cost_histogram"]


def test_snapshot_capture_and_restore():
    machine = fresh_machine(cloaked=True)
    measure_program(machine, "mb-readsec4k", ("2",))

    def run():
        Machine.from_snapshot(machine.snapshot())

    registry, events = recorded(machine, run)
    assert registry.counters == {"snapshot.capture": 1,
                                 "snapshot.restore": 1}
    assert_matches_reference(registry, events)


def test_one_registry_across_two_machines_keeps_first_and_last_event():
    """The span is the first and the last event ever, even when the
    second machine's clock runs behind the first's."""
    registry, recorder = MetricsRegistry(), TraceRecorder()
    for program, argv in (("mb-readsec4k", ("40",)), ("mb-getpid", ("1",))):
        machine = fresh_machine(cloaked=True)
        bus.attach(recorder, machine.cycles)
        bus.attach(registry, machine.cycles)
        try:
            measure_program(machine, program, argv)
        finally:
            bus.detach(registry)
            bus.detach(recorder)
    events = recorder.events
    cycles = [cycle for __, cycle, __a in events]
    # A min/max over the stream would give a different span.
    assert cycles[-1] < max(cycles)
    assert_matches_reference(registry, events)
    assert registry.snapshot()["span"] == [cycles[0], cycles[-1]]


class RecordingRegistry(MetricsRegistry):
    """The cluster's own registry, also feeding a TraceRecorder."""

    made = []

    def __init__(self):
        super().__init__()
        self.recorder = TraceRecorder()
        RecordingRegistry.made.append(self)

    def bind(self, name, clock):
        handler = super().bind(name, clock)
        record = self.recorder.bind(name, clock)

        def both(*args):
            record(*args)
            handler(*args)

        return both


def test_inline_cloaked_kvstore_cluster(monkeypatch):
    RecordingRegistry.made = []
    monkeypatch.setattr(loadgen, "MetricsRegistry", RecordingRegistry)
    spec = LoadSpec(app="kvstore", requests=48, mean_gap=8000, keys=16,
                    put_pct=50, seed=3)
    report = run_cluster(ClusterConfig(spec=spec, shards=4, cloaked=True,
                                       inline=True))
    assert report["cluster"]["completed"] == 48
    shards = RecordingRegistry.made
    assert len(shards) == 4
    references = [assert_matches_reference(shard, shard.recorder.events)
                  for shard in shards]
    for name in ("vmm.enter_user", "vmm.exit_user", "sync.acquire"):
        assert report["metrics"]["probes"][name] > 0
    assert report["metrics"] == merge_snapshots(
        [reference.snapshot() for reference in references])


@pytest.mark.parametrize("events", [
    [],
    [("cloak.encrypt", 0, (4, 0x10, 3, 0))],
    [("vmm.enter_user", 9, (1, 2)), ("vmm.exit_user", 9, (1, "x", 2)),
     ("tlb.hits", 12, (3, 1)), ("cloak.dirty_upgrade", 5, (2, 0x20))],
    [("vmm.enter_user", 12, (1, 2)), ("sched.slice", 7, (1,))],
    [("tlb.hits", 12, (3, 1)), ("cloak.encrypt", 3, (2, 0x20, 4, 700))],
])
def test_hand_made_edge_streams(events):
    """No events, a zero cost at cycle 0, and a last event whose clock
    stepped back, under each kind of handler (domain, plain, cost)."""
    live = replayed(events)
    assert_matches_reference(live, events)
