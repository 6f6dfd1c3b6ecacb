"""Host-time benchmark of the simulator: four workloads, end to end and
by layer.

Virtual cycles are the simulator's results and are pinned here as a
correctness check; what this measures is the host time it takes to
produce them.  Every measurement runs in a fresh single-threaded
``perf/child.py`` process, one process at a time.

    python perf/run.py                       # every workload, 3 runs each
    python perf/run.py --runs 5              # more runs per workload
    python perf/run.py --trace               # per-layer metrics, traced
    python perf/run.py --compare REF         # A/B against a git revision
    python perf/run.py --workload micro-hot --seed 0 --seconds 24 --trace 0
                                             # one run; last line is JSON

A run with ``--workload`` and no ``--runs`` is a single run: its last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Summary, trace and compare invocations
append their statistics to ``perf/history.jsonl``.  See
``perf/README.md`` for the workloads, metrics and layer map.
"""

import argparse
import datetime
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import stats
from child import REFERENCE_PROBE_S, WORKLOADS
from layers import LAYERS, UNMAPPED

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
CHILD = os.path.join(PERF_DIR, "child.py")
HISTORY = os.path.join(PERF_DIR, "history.jsonl")

#: Set-up-only processes per run, besides the timed ones; set-up time
#: is the median over all of them.
SETUP_SAMPLES = 7

#: A run, all its processes included, ends within this many seconds.
RUN_DEADLINE_S = 175.0


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class RunFailed(RuntimeError):
    """A workload process crashed, hung or said nothing."""


def _child(src: str, workload: str, seed: int, mode: str, budget: float,
           deadline: float) -> Tuple[float, Dict]:
    """Run one workload process; returns (set-up seconds, its result).

    Set-up time runs from spawn until the process reports ready.
    """
    env = dict(os.environ, PYTHONPATH=src,
               # Fixed string hashing: set and dict layouts, and with
               # them host time, do not vary from process to process.
               PYTHONHASHSEED="0")
    env.pop("REPRO_NO_SNAPSHOT", None)
    command = [sys.executable, CHILD, workload, str(seed), mode, repr(budget)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT)
    lines: List[bytes] = []
    ready_at = start
    pending = b""
    try:
        while len(lines) < 2:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RunFailed(f"{workload} {mode}: past the run deadline")
            if not select.select([proc.stdout], [], [], remaining)[0]:
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            pending += chunk
            while b"\n" in pending and len(lines) < 2:
                line, pending = pending.split(b"\n", 1)
                lines.append(line)
                if len(lines) == 1:
                    ready_at = time.perf_counter()
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} {mode}: did not exit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunFailed(f"{workload} {mode}: exit {proc.returncode}")
    return ready_at - start, json.loads(lines[1])


def _check(workload: str, seed: int, passes: List[Dict]) -> Tuple[int, int,
                                                                  List[str]]:
    """(attempted, failed, problems) over a run's passes.

    Every pass must reproduce the same digest; at seed 0 (at any seed
    for a workload without generated inputs) it must equal the pin.  A
    drift or pin mismatch fails every unit of the run.
    """
    cls = WORKLOADS[workload]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} units failed their checks")
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append(f"repeats disagree: {digests}")
        failed = attempted
    elif (seed == 0 or cls.pin_any_seed) and digests[0] != cls.pin:
        problems.append(f"pin mismatch: {digests[0]} != {cls.pin}")
        failed = attempted
    return attempted, failed, problems


def timed_run(src: str, workload: str, seed: int, seconds: float) -> Dict:
    """One run with tracing off: the end-to-end metrics.

    Times are at the reference host speed (see ``child.probe``);
    ``raw`` keeps them as read.
    """
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = []

    def spawn(mode: str, budget: float) -> Dict:
        setup, result = _child(src, workload, seed, mode, budget, deadline)
        setups.append((setup * REFERENCE_PROBE_S / result["ready_probe_s"],
                       setup))
        return result

    for _ in range(SETUP_SAMPLES):
        spawn("setup", 0.0)
    children = []
    timed = 0.0
    while True:
        result = spawn("time", seconds - timed)
        children.append(result)
        timed += sum(p["wall_raw"] for p in result["passes"])
        if WORKLOADS[workload].passes_per_process is None:
            break
        if timed + timed / len(children) > seconds:
            break
    passes = [p for c in children for p in c["passes"]]
    units = [u for c in children for u in c["units"]]
    attempted, failed, problems = _check(workload, seed, passes)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "sim_mcycles_per_s": statistics.median(
            p["cycles"] / 1e6 / p["wall"] for p in passes),
        "unit_p50_ms": stats.percentile(units, 50) * 1e3,
        "unit_p95_ms": stats.percentile(units, 95) * 1e3,
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
    }
    raw = {
        "setup_s": statistics.median(r for _, r in setups),
        "wall_s": statistics.median(p["wall_raw"] for p in passes),
        "cpu_s": statistics.median(p["cpu_raw"] for p in passes),
        "probe_ms": 1e3 * statistics.median(c["probe_median_s"]
                                            for c in children),
    }
    return {"metrics": metrics, "raw": raw, "attempted": attempted,
            "failed": failed, "problems": problems,
            "n": {"passes": len(passes), "units": len(units),
                  "setups": len(setups)}}


def traced_run(src: str, workload: str, seed: int) -> Dict:
    """One traced run: an untimed pass with counters and GC callbacks,
    then the same pass under cProfile, each in a fresh process."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    _, counted = _child(src, workload, seed, "count", 0.0, deadline)
    _, profiled = _child(src, workload, seed, "profile", 0.0, deadline)
    attempted, failed, problems = _check(
        workload, seed, [counted["pass"], profiled["pass"]])
    for name, value in counted["counts"].items():
        if profiled["counts"][name] != value:
            problems.append(f"profiling moved {name}: {value} -> "
                            f"{profiled['counts'][name]}")
    layer_s = profiled["layers"]
    accounted = sum(layer_s.values()) - layer_s[UNMAPPED]
    if accounted < 0.99 * profiled["profiled_s"]:
        problems.append(f"layers account for {accounted:.3f} of "
                        f"{profiled['profiled_s']:.3f} profiled seconds")
    if layer_s[UNMAPPED] > 0:
        problems.append(f"{UNMAPPED}.self_s is {layer_s[UNMAPPED]}")
    if problems:
        failed = attempted
    metrics = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
    metrics.update(counted["counts"])
    metrics["gc.pause_s"] = counted["gc_pause_s"]
    metrics["gc.collections"] = counted["gc_collections"]
    metrics["trace.overhead_ratio"] = (profiled["pass"]["wall"]
                                       / counted["pass"]["wall"])
    for key, seconds in counted["pass"]["sections"].items():
        metrics[f"bench.{key}_s"] = seconds
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}


def contract_line(run: Dict, specs: List[Dict]) -> str:
    """The single-run result: every listed metric, in listed order.

    Listed ``bench.*`` metrics a workload does not run are 0.
    """
    values = {}
    for spec in specs:
        name = spec["name"]
        if name not in run["metrics"] and not name.startswith("bench."):
            raise KeyError(f"metric {name} was not measured")
        values[name] = {"value": run["metrics"].get(name, 0.0),
                        "unit": spec["unit"]}
    return json.dumps({"correct": not run["problems"],
                       "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": values})


# ----------------------------------------------------------------------
# summaries, history, comparison
# ----------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def host_fingerprint() -> Dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_1m": os.getloadavg()[0]}


def append_history(entry: Dict) -> None:
    commit = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--", "src", "perf")
    record = {"date": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "commit": commit or "unknown", "dirty": bool(dirty),
              "host": host_fingerprint()}
    record.update(entry)
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def summarize_runs(workload: str, runs: List[Dict], specs: List[Dict],
                   header: str) -> Dict:
    """Print one workload's metrics over its runs; returns them."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"\n## {workload}: {header}; {WORKLOADS[workload].units} is the "
          f"unit")
    print(f"  {'metric':<26} {'unit':<9} {'median':>11} {'q1':>11} "
          f"{'q3':>11}  n")
    out = {}
    for spec in specs:
        values = [r["metrics"].get(spec["name"], 0.0) for r in runs]
        summary = stats.summarize(values)
        out[spec["name"]] = dict(summary, unit=spec["unit"])
        note = f"{summary['n']} runs"
        if spec["name"].startswith("unit_"):
            note += f" x {runs[0]['n']['units']} units"
        elif spec["name"] in ("wall_s", "cpu_s", "sim_mcycles_per_s"):
            note += f" x {runs[0]['n']['passes']} passes"
        print(f"  {spec['name']:<26} {spec['unit']:<9} "
              f"{_fmt(summary['median']):>11} {_fmt(summary['q1']):>11} "
              f"{_fmt(summary['q3']):>11}  {note}")
    print(f"  {'fail_ratio':<26} {'-':<9} {_fmt(failed / attempted):>11}"
          f"{'':>24}  {failed}/{attempted} units")
    if "raw" in runs[0]:
        raw = {key: stats.summarize([r["raw"][key] for r in runs])
               for key in runs[0]["raw"]}
        out["raw"] = raw
        print("  as read, before rescaling to the reference host speed: "
              + ", ".join(f"{key} {_fmt(value['median'])}"
                          for key, value in raw.items()))
    for problem in sorted({p for r in runs for p in r["problems"]}):
        print(f"  FAILED: {problem}")
    out["fail_ratio"] = {"value": failed / attempted, "failed": failed,
                         "attempted": attempted}
    return out


def compare(ref: str, workloads: List[str], seed: int, seconds: float,
            pairs: int, spec: Dict) -> Tuple[Dict, bool]:
    """Alternate runs of REF's simulator and the working tree's, with
    this benchmark code on both sides, and judge every metric."""
    if pairs < stats.MIN_PAIRS:
        raise SystemExit(f"--compare needs at least {stats.MIN_PAIRS} pairs")
    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    if sha is None:
        raise SystemExit(f"cannot resolve {ref!r} in {ROOT}")
    tree = tempfile.mkdtemp(prefix=".perf-compare-", dir=ROOT)
    if _git("worktree", "add", "--detach", tree, sha) is None:
        shutil.rmtree(tree, ignore_errors=True)
        raise SystemExit(f"git worktree add {sha} failed")
    sides = {"parent": os.path.join(tree, "src"),
             "change": os.path.join(ROOT, "src")}
    results: Dict = {}
    clean = True
    try:
        for workload in workloads:
            runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    run = timed_run(sides[side], workload, seed, seconds)
                    clean &= not run["problems"]
                    runs[side].append(run)
            print(f"\n## {workload}: {ref} ({sha[:10]}) vs working tree, "
                  f"{pairs} pairs, seed {seed}")
            print(f"  {'metric':<18} {'parent':>10} {'[q1, q3]':<22} "
                  f"{'change':>10} {'[q1, q3]':<22} {'wins':>5}  verdict")
            results[workload] = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                p = [r["metrics"][name] for r in runs["parent"]]
                c = [r["metrics"][name] for r in runs["change"]]
                verdict, wins = stats.verdict(p, c, metric["better"],
                                              metric["bound"])
                ps, cs = stats.summarize(p), stats.summarize(c)
                spread = [f"[{_fmt(s['q1'])}, {_fmt(s['q3'])}]"
                          for s in (ps, cs)]
                print(f"  {name:<18} {_fmt(ps['median']):>10} "
                      f"{spread[0]:<22} {_fmt(cs['median']):>10} "
                      f"{spread[1]:<22} {wins:>2}/{pairs:<2}  {verdict}")
                results[workload][name] = {"parent": ps, "change": cs,
                                           "wins": wins, "verdict": verdict}
            for side in ("parent", "change"):
                for problem in sorted({p for r in runs[side]
                                       for p in r["problems"]}):
                    print(f"  FAILED ({side}): {problem}")
    finally:
        _git("worktree", "remove", "--force", tree)
        shutil.rmtree(tree, ignore_errors=True)
    return {"kind": "compare", "ref": sha, "seed": seed, "seconds": seconds,
            "pairs": pairs, "workloads": results}, clean


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator (see "
                    "perf/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int,
                        help="runs per workload (default 3, traced 1; "
                             "with --compare, pairs, default 10)")
    parser.add_argument("--compare", metavar="REF")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    def measure(workload: str) -> Dict:
        if args.trace:
            return traced_run(src, workload, args.seed)
        return timed_run(src, workload, args.seed, args.seconds)

    if args.compare:
        entry, clean = compare(args.compare, workloads, args.seed,
                               args.seconds, args.runs or stats.MIN_PAIRS,
                               spec)
        append_history(entry)
        return 0 if clean else 1

    if args.workload and args.runs is None:
        try:
            run = measure(args.workload)
        except RunFailed as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 1
        for problem in run["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
        if "raw" in run:
            print(f"as read: {json.dumps(run['raw'])}", file=sys.stderr)
        print(contract_line(run, specs))
        return 0 if not run["problems"] else 1

    runs_per = args.runs or (1 if args.trace else 3)
    entry = {"kind": "trace" if args.trace else "summary", "seed": args.seed,
             "seconds": args.seconds, "runs": runs_per, "workloads": {}}
    clean = True
    for workload in workloads:
        runs = [measure(workload) for _ in range(runs_per)]
        clean &= not any(r["problems"] for r in runs)
        header = (f"seed {args.seed}, {runs_per} traced runs" if args.trace
                  else f"seed {args.seed}, {runs_per} runs of "
                       f"{args.seconds:g} s")
        entry["workloads"][workload] = summarize_runs(workload, runs, specs,
                                                      header)
    append_history(entry)
    print("\nall pins and checks passed" if clean else "\nFAILED")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
