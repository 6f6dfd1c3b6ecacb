"""Command-line entry point: regenerate the evaluation.

Usage::

    python -m repro                # run every experiment, print tables
    python -m repro r-f1 r-t2     # run selected experiments
    python -m repro --list        # show available experiments
    python -m repro faults        # differential conformance + fault matrix
    python -m repro trace mb-read4k --cloaked --out trace.json
                                  # probe-bus trace -> Perfetto-loadable JSON
    python -m repro fuzz           # seeded differential fuzzing campaign
    python -m repro fuzz --replay 'SEED:{spec-json}'
                                  # re-run one (seed, spec) reproducer
    python -m repro serve --shards 4
                                  # open-loop cluster serving -> merged
                                  # deterministic JSON report

Each subcommand takes ``--help``.
"""

import argparse
import sys
from typing import Callable, Dict


def _experiments() -> Dict[str, Callable]:
    from repro.bench import (
        ablation,
        sensitivity,
        exp_attacks,
        exp_channels,
        exp_cluster,
        exp_compute,
        exp_decomp,
        exp_faults,
        exp_fileio,
        exp_forkexec,
        exp_fuzz,
        exp_overhead,
        exp_pressure,
        exp_syscalls,
        exp_transitions,
        exp_webserver,
    )

    return {
        "r-t1": exp_transitions.run,
        "r-t2": exp_syscalls.run,
        "r-t3": exp_overhead.run,
        "r-t4": exp_attacks.run,
        "r-t5": exp_faults.run,
        "r-t6": exp_fuzz.run,
        "r-t7": exp_cluster.run,
        "r-f1": exp_compute.run,
        "r-f2": exp_fileio.run,
        "r-f3": exp_webserver.run,
        "r-f4": exp_forkexec.run,
        "r-f5": exp_pressure.run,
        "r-f6": exp_channels.run,
        "r-f7": exp_decomp.run,
        "r-a1": ablation.run_lazy_vs_eager,
        "r-a2": ablation.run_integrity_modes,
        "r-a3": ablation.run_shadow_policy,
        "r-a4": sensitivity.run,
    }


DESCRIPTIONS = {
    "r-t1": "cloaking state-transition cost matrix",
    "r-t2": "syscall microbenchmarks (native vs cloaked)",
    "r-t3": "VMM resource overhead + event counts",
    "r-t4": "security evaluation (attack outcome matrix)",
    "r-t5": "fault-injection recovery matrix (extension)",
    "r-t6": "differential fuzzing campaign over generated guests (extension)",
    "r-t7": "cluster serving: open-loop capacity scaling + tail overhead "
            "(extension)",
    "r-f1": "compute workloads, normalized runtime",
    "r-f2": "file-I/O bandwidth vs buffer size",
    "r-f3": "web-server throughput vs concurrency",
    "r-f4": "fork/exec-heavy workloads",
    "r-f5": "overhead vs memory pressure (extension)",
    "r-f6": "sealed-IPC throughput vs message size (extension)",
    "r-f7": "transition costs decomposed from probe-bus events (extension)",
    "r-a1": "ablation: lazy vs eager re-encryption",
    "r-a2": "ablation: protection modes",
    "r-a3": "ablation: multi-shadowing vs flush",
    "r-a4": "cost-model sensitivity analysis",
}


def _faults_main(argv) -> int:
    """``python -m repro faults``: the fault-injection oracle.

    Exits non-zero if any invariant fails.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro faults", allow_abbrev=False,
        description="Run the differential conformance sweep (every "
                    "registered app, native vs cloaked, double-run "
                    "determinism) and the fault-recovery matrix.")
    parser.add_argument("--seed", type=int, default=7, metavar="N",
                        help="reseed the matrix plans (default 7)")
    parser.add_argument("--matrix-only", action="store_true",
                        help="skip the (slower) conformance sweep")
    args = parser.parse_args(argv)

    from repro.faults import oracle

    failures = 0
    if not args.matrix_only:
        print("## differential conformance (native vs cloaked, "
              "double-run determinism)")
        results = oracle.run_conformance(verbose=True)
        bad = [name for name, kind, __ in results if kind is not None]
        failures += len(bad)
        print(f"conformance: {len(results)} programs, "
              f"{len(bad)} failures")

    print(f"\n## fault-recovery matrix (seed {args.seed})")
    from repro.bench import exp_faults

    rows = exp_faults.run(verbose=True, seed=args.seed)
    escaped = [r for r in rows
               if r.outcome not in oracle.CONTAINED_OUTCOMES]
    unfired = [r for r in rows if r.fires == 0]
    for row in escaped:
        print(f"NOT CONTAINED: {row.site} -> {row.outcome}  "
              f"replay: {row.replay}")
    for row in unfired:
        print(f"NEVER FIRED: {row.site}  replay: {row.replay}")
    failures += len(escaped) + len(unfired)
    print("fault matrix: "
          + ("all contained" if not (escaped or unfired) else "FAILED"))
    return 1 if failures else 0


def _fuzz_main(argv) -> int:
    """``python -m repro fuzz``: seeded differential fuzzing."""
    from repro.faults.oracle import judge
    from repro.gen import driver
    from repro.gen.generator import app_spec_for

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz", allow_abbrev=False,
        description="Run a campaign of generated self-checking guest "
                    "programs native-vs-cloaked under the oracle, or "
                    "re-run one reproducer.")
    parser.add_argument("--replay", type=driver.parse_replay_token,
                        metavar="SEED:SPEC",
                        help="re-run one reproducer exactly as printed by "
                             "a failing campaign ('SEED:{spec-json}')")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="campaign seed (default 0)")
    parser.add_argument("--count", type=int, default=64, metavar="N",
                        help="generated programs (default 64)")
    parser.add_argument("--fault-sites", action="store_true",
                        help="arm a rotating fault-injection site in every "
                             "program")
    parser.add_argument("--no-shrink", action="store_true",
                        help="do not shrink failing programs")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the campaign report JSON to PATH")
    args = parser.parse_args(argv)

    if args.replay is not None:
        seed, spec = args.replay
        app, plan = app_spec_for(seed, spec)
        print(f"replaying {plan.name}: seed={seed} preset={spec.preset} "
              f"ops={len(plan.ops)}")
        for line in plan.listing():
            print(f"  {line}")
        kind, detail = judge(app, determinism=True)
        if kind is None:
            print("replay: PASS (native and cloaked agree, hygiene clean, "
                  "same-seed re-run identical)")
            return 0
        print(f"replay: FAIL [{kind}] {detail}")
        return 1

    report = driver.run_campaign(
        campaign_seed=args.seed,
        count=args.count,
        fault_sites=args.fault_sites,
        shrink_failures=not args.no_shrink,
        verbose=True,
    )
    print(f"\nfuzz: {report.count} programs, "
          f"{len(report.failures())} failures, "
          f"syscalls missing {report.syscalls_missing() or 'none'}, "
          f"fault sites {len(report.fault_sites)}/14")
    print(f"report digest: {report.digest()}")
    if args.out is not None:
        with open(args.out, "w") as sink:
            sink.write(report.to_json())
        print(f"report written: {args.out}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    command = args[0].lower() if args else None

    if command == "faults":
        return _faults_main(args[1:])

    if command == "fuzz":
        return _fuzz_main(args[1:])

    if command == "serve":
        from repro.bench.exp_cluster import serve_main

        return serve_main(args[1:])

    if command == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(args[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro", allow_abbrev=False,
        description="Regenerate the evaluation: run every experiment (or "
                    "the ones named) and print its tables.  Subcommands: "
                    "faults, fuzz, serve, trace.")
    parser.add_argument("keys", nargs="*", type=str.lower, metavar="KEY",
                        help="experiment keys, case-insensitive "
                             "(default: all)")
    parser.add_argument("-l", "--list", action="store_true",
                        help="show available experiments")
    parsed = parser.parse_intermixed_args(args)

    experiments = _experiments()

    if parsed.list:
        for key in experiments:
            print(f"{key:6s} {DESCRIPTIONS[key]}")
        return 0

    unknown = [key for key in parsed.keys if key not in experiments]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(experiments)}", file=sys.stderr)
        return 2

    for key in parsed.keys or experiments:
        print(f"\n### {key.upper()}: {DESCRIPTIONS[key]}")
        experiments[key](verbose=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
