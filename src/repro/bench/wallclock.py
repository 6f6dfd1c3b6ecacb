"""Virtual-cycle pin: ``python -m repro wallclock [--no-write]
[--check BENCH_wallclock.json] [--workloads a,b]``.

Runs a fixed basket of four workloads and pins each one's virtual-cycle
total, plus ``cycle_hash`` (a digest of all of them), in
``BENCH_wallclock.json``; only a full run without ``--check`` rewrites
it.  Host-side changes must leave the pin bit-identical; CI runs
``--check`` as a cycle-drift gate.  Host time is
``perf/run.py``'s job (docs/PERFORMANCE.md): nothing under
``src/repro`` reads a wall clock.
"""

import argparse
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.microbench import MICRO_SUITE
from repro.bench.runner import fresh_machine, measure_program

DEFAULT_OUT = "BENCH_wallclock.json"
SCHEMA = 2


def _wl_mb_suite() -> int:
    """Every syscall microbenchmark, cloaked, default iterations."""
    machine = fresh_machine(cloaked=True)
    return sum(measure_program(machine, program_cls.name, ()).cycles_total
               for program_cls in MICRO_SUITE)


def _wl_fileio_protected() -> int:
    """Protected-file streaming I/O: write then read 256 KiB through
    the cloaked mmap-emulation path (every page encrypts + decrypts)."""
    machine = fresh_machine(cloaked=True, programs=("filestreamer",))
    args = ("/secure/data.bin", "4096", str(256 * 1024))
    return sum(measure_program(machine, "filestreamer",
                               (mode,) + args).cycles_total
               for mode in ("write", "read"))


def _wl_forkstress() -> int:
    """Fork-heavy cloaked run: address-space copies drag every parent
    page through the encrypt path."""
    machine = fresh_machine(cloaked=True, programs=("forkstress",))
    return measure_program(machine, "forkstress",
                           ("4", "20000")).cycles_total


def _wl_faults_oracle() -> int:
    """Subset of the differential-conformance oracle: each program runs
    native and cloaked from one spec; console transparency is asserted
    exactly as the full oracle does."""
    from repro.faults.oracle import ORACLE_SPECS, run_once

    cycles = 0
    for name in ("shaloop", "filestreamer", "forkstress"):
        spec = ORACLE_SPECS[name]
        native = run_once(spec, cloaked=False)
        cloaked = run_once(spec, cloaked=True)
        if native.console != cloaked.console:
            raise AssertionError(f"cloaking not transparent for {name}: "
                                 f"{native.console!r} != {cloaked.console!r}")
        cycles += native.cycles + cloaked.cycles
    return cycles


WORKLOADS: Dict[str, Callable[[], int]] = {
    "mb-suite": _wl_mb_suite,
    "fileio-protected": _wl_fileio_protected,
    "forkstress": _wl_forkstress,
    "faults-oracle": _wl_faults_oracle,
}


def cycle_hash(cycles_by_workload: Dict[str, int]) -> str:
    """Digest of every workload's virtual-cycle total, the invariant a
    host-speed change must not move."""
    canonical = json.dumps(cycles_by_workload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run(only: Optional[Sequence[str]] = None) -> Dict:
    """Run the basket (or ``only``); returns the pin's report dict."""
    names = tuple(only) if only else tuple(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workload(s): {', '.join(unknown)} "
                       f"(available: {', '.join(WORKLOADS)})")
    cycles = {name: WORKLOADS[name]() for name in names}
    return {
        "schema": SCHEMA,
        "workloads": {name: {"cycles": total}
                      for name, total in cycles.items()},
        "cycle_hash": cycle_hash(cycles),
    }


def write_report(report: Dict, out: str = DEFAULT_OUT) -> Path:
    path = Path(out)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def check_against(report: Dict, committed_path: str) -> List[str]:
    """Problems (empty = consistent) between a fresh report and a
    committed one: each covered workload's cycles, plus ``cycle_hash``
    when both cover the same workloads."""
    try:
        committed = json.loads(Path(committed_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"cannot read committed benchmark {committed_path}: {exc}"]
    old = committed.get("workloads", {})
    problems: List[str] = []
    if (set(old) == set(report["workloads"])
            and committed.get("cycle_hash") != report["cycle_hash"]):
        problems.append(
            f"virtual-cycle hash drifted: committed "
            f"{committed.get('cycle_hash')} != fresh {report['cycle_hash']}")
    for name, entry in report["workloads"].items():
        before = old.get(name, {}).get("cycles", "(not committed)")
        if before != entry["cycles"]:
            problems.append(f"  {name}: cycles {before} -> {entry['cycles']}")
    return problems


def main(argv: List[str]) -> int:
    """``python -m repro wallclock`` entry point."""
    parser = argparse.ArgumentParser(prog="python -m repro wallclock",
                                     allow_abbrev=False)
    parser.add_argument("--no-write", action="store_true",
                        help=f"do not rewrite {DEFAULT_OUT}")
    parser.add_argument("--check", metavar="PATH",
                        help="fail on cycle drift against a committed pin")
    parser.add_argument("--workloads", metavar="A,B", default="",
                        help=f"subset of: {', '.join(WORKLOADS)}")
    args = parser.parse_args(argv)
    try:
        report = run([w.strip() for w in args.workloads.split(",")
                      if w.strip()])
    except KeyError as exc:
        print(exc.args[0])
        return 2
    for name, entry in report["workloads"].items():
        print(f"  {name:<18} cycles={entry['cycles']}")
    print(f"cycle hash: {report['cycle_hash']}")
    if args.check is None:
        if not args.no_write and len(report["workloads"]) == len(WORKLOADS):
            print(f"wrote {write_report(report)}")
    else:
        problems = check_against(report, args.check)
        for problem in problems:
            print(problem)
        if problems:
            print("wallclock check: FAILED")
            return 1
        print(f"wallclock check: cycles consistent with {args.check}")
    return 0
