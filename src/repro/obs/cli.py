"""``python -m repro trace`` — run a program with the probe bus on.

Usage::

    python -m repro trace <program> [args...] [--native|--cloaked]
                          [--out trace.json] [--jsonl trace.jsonl]
                          [--metrics] [--metrics-out metrics.json]
                          [--top N] [--quiet]

``<program>`` is any registered app (``python -m repro trace mb-read4k
--cloaked``); the pseudo-program ``microbench`` runs the entire
syscall microbenchmark suite on one machine.  ``--out`` writes Chrome
trace-event JSON (load it at https://ui.perfetto.dev — the timeline
unit is *virtual cycles*), ``--jsonl`` the line-per-event form, and
``--metrics``/``--metrics-out`` the counter/histogram snapshot.  The
flame summary and page-thrash report always print unless ``--quiet``.

Everything emitted is derived from the deterministic virtual-cycle
world, so repeated invocations produce byte-identical files.
"""

import argparse
import sys
from typing import List, Tuple


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace", allow_abbrev=False,
        description="Run a program with the probe bus on.")
    parser.add_argument("program", help="a registered app, or microbench "
                        "for the whole syscall microbenchmark suite")
    parser.add_argument("args", nargs="*", default=[],
                        help="the program's arguments")
    parser.add_argument("--native", dest="cloaked", action="store_false",
                        help="run uncloaked")
    parser.add_argument("--cloaked", dest="cloaked", action="store_true",
                        help="run cloaked (the default)")
    parser.add_argument("--out", metavar="PATH",
                        help="write Chrome trace-event JSON")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="write the line-per-event trace")
    parser.add_argument("--metrics", action="store_true",
                        help="print the counter/histogram snapshot")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the counter/histogram snapshot "
                             "(implies --metrics)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows of the page-thrash report (default 10)")
    parser.add_argument("--quiet", action="store_true",
                        help="skip the flame summary and thrash report")
    return parser


def _run_traced(program: str, args: Tuple[str, ...], cloaked: bool,
                want_metrics: bool):
    """Build a machine, attach sinks, run; returns the sink bundle."""
    from repro.bench.runner import fresh_machine
    from repro.obs import bus
    from repro.obs.export import TraceRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import CycleProfiler

    machine = fresh_machine(cloaked=cloaked)
    recorder = TraceRecorder()
    metrics = MetricsRegistry() if want_metrics else None
    profiler = CycleProfiler(machine.cycles)

    bus.attach(recorder, machine.cycles)
    if metrics is not None:
        bus.attach(metrics, machine.cycles)
    profiler.attach()
    exit_codes = []
    try:
        if program == "microbench":
            from repro.apps.microbench import MICRO_SUITE

            for program_cls in MICRO_SUITE:
                result = machine.run_program(program_cls.name, args)
                exit_codes.append((program_cls.name, result.exit_code))
        else:
            result = machine.run_program(program, args)
            exit_codes.append((program, result.exit_code))
    finally:
        profiler.detach()
        if metrics is not None:
            bus.detach(metrics)
        bus.detach(recorder)
    return machine, recorder, metrics, profiler, exit_codes


def main(argv: List[str]) -> int:
    args = _parser().parse_intermixed_args(argv)
    from repro.apps.registry import ALL_PROGRAMS

    # Checked before any machine boots, so an error raised inside the
    # run is never mistaken for a usage error.
    if args.program != "microbench" and args.program not in {
            program_cls.name for program_cls in ALL_PROGRAMS}:
        print(f"trace: unknown program {args.program!r}", file=sys.stderr)
        return 2
    machine, recorder, metrics, profiler, exit_codes = _run_traced(
        args.program, tuple(args.args), args.cloaked,
        args.metrics or args.metrics_out is not None)

    from repro.obs import export

    world = "cloaked" if args.cloaked else "native"
    distinct = len({name for name, __, __a in recorder.events})
    print(f"trace: {args.program} ({world}), {len(recorder.events)} events "
          f"across {distinct} probes, "
          f"{machine.cycles.total:,} virtual cycles")
    failed = [(name, code) for name, code in exit_codes if code != 0]
    for name, code in failed:
        print(f"trace: {name} exited {code}")

    if not args.quiet:
        print()
        print(profiler.render_flame())
        print()
        print(profiler.render_thrash(args.top))
        if metrics is not None:
            print()
            print(metrics.render())

    if args.out is not None:
        path = export.write_chrome_trace(recorder.events, args.out)
        print(f"wrote Chrome trace to {path} "
              "(open at https://ui.perfetto.dev; clock = virtual cycles)")
    if args.jsonl is not None:
        path = export.write_jsonl(recorder.events, args.jsonl)
        print(f"wrote JSONL trace to {path}")
    if metrics is not None and args.metrics_out is not None:
        from pathlib import Path

        Path(args.metrics_out).write_text(metrics.to_json(), encoding="utf-8")
        print(f"wrote metrics snapshot to {args.metrics_out}")
    return 1 if failed else 0
