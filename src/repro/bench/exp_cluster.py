"""R-T7: cluster serving — capacity scaling and tail-latency overhead.

The paper's performance story is told per machine; this experiment
asks the production question: when the protected webserver is sharded
across N machines behind a consistent-hash ring and driven by an
**open-loop** arrival schedule (:mod:`repro.serve`), how does capacity
per shard scale with N, and what does cloaking cost *at the tail*
(p95/p99), where queueing amplifies per-request overhead?

Expected shape: capacity per shard stays roughly flat in N (shards are
independent machines; the ring splits the key population, so each
shard sees ~1/N of the offered load), and the cloaked/native ratio
grows toward the tail — the constant-factor service-time overhead
shifts the whole queueing curve, so p99 pays more than p50.

Also the home of ``python -m repro serve`` (:func:`serve_main`), the
CLI over :func:`repro.serve.cluster.run_cluster`.
"""

import argparse
import sys
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.bench.tables import Series, Table
from repro.serve.cluster import ClusterConfig, report_json, run_cluster
from repro.serve.loadgen import APPS, ARRIVALS, LoadSpec

SHARD_COUNTS = (1, 2, 4)
#: Shard count at which the tail-latency table is reported.
TAIL_SHARDS = 4

#: Offered load scales with the cluster: ``requests`` grows and the
#: mean inter-arrival gap shrinks linearly in N, so every shard sees
#: the same offered rate at every cluster size — the scaling question
#: is then "does capacity per shard stay flat", not "what happens when
#: a fixed trickle is split N ways".
REQUESTS_PER_SHARD = 16
BASE_MEAN_GAP = 15_000

SPEC = LoadSpec(
    app="webserver",
    arrival="poisson",
    connections=4,
    deadline=240_000,
    keys=64,
    file_size=2048,
    seed=11,
)


def _cluster(shards: int, cloaked: bool) -> Dict:
    spec = replace(SPEC, requests=REQUESTS_PER_SHARD * shards,
                   mean_gap=max(1, BASE_MEAN_GAP // shards))
    # Inline mode: the multiprocess path is byte-identical by
    # construction (tests/serve pins it), so the benchmark takes the
    # cheap deterministic route.
    return run_cluster(ClusterConfig(spec=spec, shards=shards,
                                     cloaked=cloaked, inline=True,
                                     attach_metrics=False))


def run(verbose: bool = True) -> Dict:
    reports: Dict[str, Dict] = {}
    scaling = Series(
        "R-T7: cluster capacity per shard vs shard count "
        "(requests / Mcycle / shard, open-loop)",
        "shards",
        ["native", "cloaked", "ratio"],
    )
    for shards in SHARD_COUNTS:
        native = _cluster(shards, cloaked=False)
        cloaked = _cluster(shards, cloaked=True)
        reports[f"native:{shards}"] = native
        reports[f"cloaked:{shards}"] = cloaked
        cap_n = native["cluster"]["capacity_per_shard"]
        cap_c = cloaked["cluster"]["capacity_per_shard"]
        scaling.add_point(shards, cap_n, cap_c,
                          round(cap_n / cap_c, 3) if cap_c else 0.0)

    tail = Table(
        f"R-T7: cloaking overhead per latency percentile "
        f"({TAIL_SHARDS} shards, cycles)",
        ["percentile", "native", "cloaked", "ratio"],
    )
    lat_n = reports[f"native:{TAIL_SHARDS}"]["cluster"]["latency"]
    lat_c = reports[f"cloaked:{TAIL_SHARDS}"]["cluster"]["latency"]
    for quantile in ("p50", "p95", "p99", "p999"):
        ratio = (round(lat_c[quantile] / lat_n[quantile], 3)
                 if lat_n[quantile] else 0.0)
        tail.add_row(quantile, lat_n[quantile], lat_c[quantile], ratio)

    if verbose:
        scaling.show()
        tail.show()
        print("coordinated-omission note: latencies are measured from "
              "each request's *intended* arrival (open loop), so "
              "queueing behind a slow shard is in the percentiles — "
              "closed-loop numbers (R-F3) cannot show this.")
    return {"scaling": scaling, "tail": tail, "reports": reports}


# ---------------------------------------------------------------------------
# ``python -m repro serve``
# ---------------------------------------------------------------------------

def _shard_list(text: str) -> Tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


def serve_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve", allow_abbrev=False,
        description="Run one open-loop cluster serving experiment and print "
                    "the merged deterministic report as JSON (byte-identical "
                    "across --inline and multiprocess runs, worker counts, "
                    "and hosts).")
    parser.add_argument("--shards", type=int, default=4, metavar="N",
                        help="shard count (default 4)")
    parser.add_argument("--app", choices=APPS, default="webserver",
                        help="server application (default webserver)")
    parser.add_argument("--cloaked", action="store_true",
                        help="run the protected server under the VMM shim")
    parser.add_argument("--requests", type=int, default=64, metavar="N",
                        help="scheduled arrivals (default 64)")
    parser.add_argument("--mean-gap", type=int, default=12_000, metavar="N",
                        help="mean inter-arrival gap, cycles (default 12000)")
    parser.add_argument("--arrival", choices=ARRIVALS, default="poisson",
                        help="arrival process (default poisson)")
    parser.add_argument("--connections", type=int, default=4, metavar="N",
                        help="multiplexed logical connections (default 4)")
    parser.add_argument("--deadline", type=int, default=240_000, metavar="N",
                        help="per-request SLO deadline, cycles "
                             "(default 240000)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="schedule seed (default 0)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="max concurrent worker processes "
                             "(default: shards)")
    parser.add_argument("--inline", action="store_true",
                        help="run every shard in-process (no forking)")
    parser.add_argument("--kill", type=_shard_list, default=(), metavar="LIST",
                        help="comma-separated shards whose workers die "
                             "mid-run")
    parser.add_argument("--no-metrics", action="store_true",
                        help="skip the merged repro.obs metrics section")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the report JSON to PATH")
    parser.add_argument("--summary", action="store_true",
                        help="print a short human summary instead of the "
                             "JSON")
    args = parser.parse_args(argv)
    config = ClusterConfig(
        spec=LoadSpec(
            app=args.app,
            requests=args.requests,
            mean_gap=args.mean_gap,
            arrival=args.arrival,
            connections=args.connections,
            deadline=args.deadline,
            seed=args.seed,
        ),
        shards=args.shards,
        cloaked=args.cloaked,
        workers=args.workers,
        inline=args.inline,
        kill_shards=args.kill,
        attach_metrics=not args.no_metrics,
    )
    report = run_cluster(config)
    rendered = report_json(report)
    if args.out is not None:
        with open(args.out, "w") as sink:
            sink.write(rendered)
        print(f"report written: {args.out}", file=sys.stderr)
    if args.summary:
        cluster = report["cluster"]
        print(f"serve: {config.spec.app} shards={config.shards} "
              f"cloaked={config.cloaked} arrival={config.spec.arrival}")
        print(f"  completed {cluster['completed']}/{cluster['requests']} "
              f"errors {cluster['errors']} slo_misses "
              f"{cluster['slo_misses']}")
        print(f"  latency p50/p95/p99: {cluster['latency']['p50']} / "
              f"{cluster['latency']['p95']} / {cluster['latency']['p99']}")
        print(f"  capacity/shard: {cluster['capacity_per_shard']} "
              f"req/Mcycle")
        if report["degraded"]:
            print(f"  DEGRADED: dead shards {report['dead_shards']}, "
                  f"{report['rerouted_requests']} requests re-routed")
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    run()
