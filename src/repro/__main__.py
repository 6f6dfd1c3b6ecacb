"""Command-line entry point: regenerate the evaluation.

Usage::

    python -m repro                # run every experiment, print tables
    python -m repro r-f1 r-t2     # run selected experiments
    python -m repro --list        # show available experiments
    python -m repro faults        # differential conformance + fault matrix
    python -m repro wallclock     # virtual-cycle pin -> BENCH_wallclock.json
    python -m repro trace mb-read4k --cloaked --out trace.json
                                  # probe-bus trace -> Perfetto-loadable JSON
    python -m repro fuzz           # seeded differential fuzzing campaign
    python -m repro fuzz --replay 'SEED:{spec-json}'
                                  # re-run one (seed, spec) reproducer
    python -m repro serve --shards 4
                                  # open-loop cluster serving -> merged
                                  # deterministic JSON report
"""

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
        exp_fuzz,
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


def _faults_main(args) -> int:
    """``python -m repro faults``: the fault-injection oracle.

    Runs the differential conformance sweep (every registered app,
    native vs cloaked, double-run determinism) and the fault-recovery
    matrix; exits non-zero if any invariant fails.  ``--seed N``
    reseeds the matrix plans; ``--matrix-only`` skips the (slower)
    conformance sweep.
    """
    from repro.faults import oracle

    seed = 7
    if "--seed" in args:
        seed = int(args[args.index("--seed") + 1])

    failures = 0
    if "--matrix-only" not in args:
        print("## differential conformance (native vs cloaked, "
              "double-run determinism)")
        results = oracle.run_conformance(verbose=True)
        bad = [r for r in results if not r.ok]
        failures += len(bad)
        print(f"conformance: {len(results)} programs, "
              f"{len(bad)} failures")

    print(f"\n## fault-recovery matrix (seed {seed})")
    from repro.bench import exp_faults

    rows = exp_faults.run(verbose=True, seed=seed)
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


def _fuzz_main(args) -> int:
    """``python -m repro fuzz``: seeded differential fuzzing.

    Default: a campaign of generated self-checking guest programs run
    native-vs-cloaked under the oracle (``--seed``, ``--count``,
    ``--fault-sites``, ``--no-shrink``, ``--out report.json``).
    ``--replay 'SEED:{spec-json}'`` re-runs one reproducer exactly as
    printed by a failing campaign.  ``--write-golden [PATH]``
    regenerates the pinned listing digests consumed by
    tests/gen/test_golden.py.
    """
    from repro.gen import driver
    from repro.gen.generator import generate
    from repro.gen.shrink import check_failure

    def flag_value(name, default=None):
        if name in args:
            return args[args.index(name) + 1]
        return default

    if "--replay" in args:
        token = flag_value("--replay")
        seed, spec = driver.parse_replay_token(token)
        plan = generate(seed, spec)
        print(f"replaying {plan.name}: seed={seed} preset={spec.preset} "
              f"ops={len(plan.ops)}")
        for line in plan.listing():
            print(f"  {line}")
        kind, detail = check_failure(seed, spec)
        if kind is None:
            print("replay: PASS (native and cloaked agree, hygiene clean)")
            return 0
        print(f"replay: FAIL [{kind}] {detail}")
        return 1

    if "--write-golden" in args:
        from repro.gen.golden import write_golden

        index = args.index("--write-golden")
        path = None
        if index + 1 < len(args) and not args[index + 1].startswith("-"):
            path = args[index + 1]
        written = write_golden(path)
        print(f"golden listings written: {written}")
        return 0

    report = driver.run_campaign(
        campaign_seed=int(flag_value("--seed", 0)),
        count=int(flag_value("--count", 64)),
        fault_sites="--fault-sites" in args,
        shrink_failures="--no-shrink" not in args,
        verbose=True,
    )
    print(f"\nfuzz: {report.count} programs, "
          f"{len(report.failures())} failures, "
          f"syscalls missing {report.syscalls_missing() or 'none'}, "
          f"fault sites {len(report.fault_sites)}/14")
    print(f"report digest: {report.digest()}")
    out = flag_value("--out")
    if out is not None:
        with open(out, "w") as sink:
            sink.write(report.to_json())
        print(f"report written: {out}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)

    if args and args[0].lower() == "faults":
        return _faults_main([a.lower() for a in args[1:]])

    if args and args[0].lower() == "fuzz":
        return _fuzz_main(args[1:])

    if args and args[0].lower() == "serve":
        from repro.bench.exp_cluster import serve_main

        return serve_main(args[1:])

    if args and args[0].lower() == "wallclock":
        from repro.bench import wallclock

        return wallclock.main(args[1:])

    if args and args[0].lower() == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(args[1:])

    experiments = _experiments()

    if "--list" in args or "-l" in args:
        for key in experiments:
            print(f"{key:6s} {DESCRIPTIONS[key]}")
        return 0

    selected = [a.lower() for a in args if not a.startswith("-")]
    unknown = [key for key in selected if key not in experiments]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(experiments)}", file=sys.stderr)
        return 2

    for key in selected or experiments:
        print(f"\n### {key.upper()}: {DESCRIPTIONS[key]}")
        experiments[key](verbose=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
