"""End-to-end determinism and zero-cost guarantees of observability.

Two properties anchor the subsystem:

* **determinism** — identical runs produce byte-identical JSONL
  traces and metric snapshots (the virtual-cycle clock is the only
  timestamp source);
* **neutrality** — attaching sinks changes no virtual-cycle figure:
  the mb-suite total recorded in the ledger golden must come out
  identical with and without a recorder attached.
"""

import json

from repro.apps.microbench import MICRO_SUITE
from repro.bench.runner import fresh_machine, measure_program
from repro.obs import bus
from repro.obs.export import (TraceRecorder, to_jsonl, to_chrome_trace,
                              validate_chrome_trace)
from repro.obs.metrics import MetricsRegistry
from tests.integration.test_ledger_golden import golden_mb_suite_cycles


def traced_run(program="mb-readsec4k", args=("4",)):
    machine = fresh_machine(cloaked=True)
    recorder = TraceRecorder()
    metrics = MetricsRegistry()
    bus.attach(recorder, machine.cycles)
    bus.attach(metrics, machine.cycles)
    try:
        measure_program(machine, program, args)
    finally:
        bus.detach(metrics)
        bus.detach(recorder)
    return machine, recorder, metrics


class TestTraceDeterminism:
    def test_repeated_runs_emit_byte_identical_jsonl(self):
        __, first, __m = traced_run()
        __, second, __m2 = traced_run()
        assert to_jsonl(first.events) == to_jsonl(second.events)

    def test_repeated_runs_emit_identical_metric_snapshots(self):
        __, __r, first = traced_run()
        __, __r2, second = traced_run()
        assert first.to_json() == second.to_json()

    def test_repeated_runs_emit_identical_chrome_traces(self):
        __, first, __m = traced_run()
        __, second, __m2 = traced_run()
        a = json.dumps(to_chrome_trace(first.events), sort_keys=True)
        b = json.dumps(to_chrome_trace(second.events), sort_keys=True)
        assert a == b

    def test_cloaked_run_covers_a_wide_probe_surface(self):
        __, recorder, __m = traced_run()
        distinct = {name for name, __c, __a in recorder.events}
        assert len(distinct) >= 8, sorted(distinct)
        obj = to_chrome_trace(recorder.events)
        assert validate_chrome_trace(obj) == []


def mb_suite_cycles(attach_sink: bool) -> int:
    """The mb-suite workload of ``cycle_hash``, optionally traced."""
    machine = fresh_machine(cloaked=True)
    recorder = TraceRecorder()
    if attach_sink:
        bus.attach(recorder, machine.cycles)
    try:
        return sum(measure_program(machine, cls.name, ()).cycles_total
                   for cls in MICRO_SUITE)
    finally:
        if attach_sink:
            bus.detach(recorder)


class TestSinkNeutrality:
    def test_attached_sink_moves_no_virtual_cycle(self):
        assert mb_suite_cycles(attach_sink=True) \
            == mb_suite_cycles(attach_sink=False)

    def test_traced_totals_match_committed_benchmark(self):
        assert mb_suite_cycles(attach_sink=True) == golden_mb_suite_cycles()
