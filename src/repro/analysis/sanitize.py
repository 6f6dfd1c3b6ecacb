"""``--sanitize-run``: dynamic cross-check of the static verdicts.

Static post-dominance and lattice tracking prove the *code* cannot
reach a bad state; this module proves the *machine* does not, on a
real workload, and that the two verdicts agree.  It replays
a benchmark workload with an obs-bus sink attached and asserts, event
by event:

* **cloak-protocol conformance** (the dynamic STATE001): every
  transition probe (``cloak.zero_fill``/``decrypt``/``encrypt``/
  ``ct_restore``/``dirty_upgrade``) must arrive while the page is in a
  state the transition is legal from.  Pages are tracked per
  (owner, vpn); first sight is UNKNOWN and accepted (the sink may
  attach mid-lifecycle); ``cloak.discard`` ends a lifecycle.
* **TLB/shadow coherence** (the dynamic MMU001): after a frame's cloak
  state changes while mappings to it exist, no new mapping may be
  installed (``vmm.shadow_fill``) until the VMM reports the frame's
  mappings dropped (``vmm.coherence``).  Un-flushed frames remaining
  at workload end are violations too.

Probes never charge cycles, so the replayed workload's virtual-cycle
total must be bit-identical to the committed ``BENCH_wallclock.json``
figure — the run fails if attaching the sanitizer moved a single
cycle.
"""

import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: Transition probe -> states it may legally arrive from.
EXPECT: Dict[str, frozenset] = {
    "cloak.zero_fill": frozenset({"FRESH"}),
    "cloak.decrypt": frozenset({"ENCRYPTED"}),
    "cloak.encrypt": frozenset({"PLAINTEXT_CLEAN", "PLAINTEXT_DIRTY"}),
    "cloak.ct_restore": frozenset({"PLAINTEXT_CLEAN"}),
    "cloak.dirty_upgrade": frozenset({"PLAINTEXT_CLEAN",
                                      "PLAINTEXT_DIRTY"}),
}

#: Transition probe -> state the page is in afterwards.
RESULT: Dict[str, str] = {
    "cloak.zero_fill": "PLAINTEXT_DIRTY",
    "cloak.decrypt": "PLAINTEXT_CLEAN",
    "cloak.encrypt": "ENCRYPTED",
    "cloak.ct_restore": "ENCRYPTED",
    "cloak.dirty_upgrade": "PLAINTEXT_DIRTY",
}


class TransitionChecker:
    """Per-(owner, vpn) replay of the cloak-state machine."""

    def __init__(self):
        self.states: Dict[Tuple[int, int], str] = {}
        self.violations: List[str] = []
        self.events = 0

    def on_transition(self, name: str, owner: int, vpn: int) -> None:
        self.events += 1
        key = (owner, vpn)
        prior = self.states.get(key)
        if prior is not None and prior not in EXPECT[name]:
            self.violations.append(
                f"{name} on page owner={owner} vpn={vpn:#x} arrived in "
                f"state {prior}; legal from "
                + "/".join(sorted(EXPECT[name])))
        self.states[key] = RESULT[name]

    def on_discard(self, owner: int, vpn: int) -> None:
        self.events += 1
        self.states.pop((owner, vpn), None)


class CoherenceChecker:
    """Frames whose cloak state changed must shed mappings before any
    new mapping is installed over them."""

    def __init__(self):
        #: gpfn -> mappings installed and not yet dropped
        self.mappings: Dict[int, Set[Tuple[int, int, int]]] = {}
        #: frames with a cloak change not yet followed by vmm.coherence
        self.pending: Set[int] = set()
        self.violations: List[str] = []
        self.events = 0

    def on_cloak_change(self, name: str, gpfn: int) -> None:
        self.events += 1
        if self.mappings.get(gpfn):
            self.pending.add(gpfn)

    def on_shadow_fill(self, asid: int, view: int, vpn: int,
                       gpfn: int) -> None:
        self.events += 1
        if gpfn in self.pending:
            self.violations.append(
                f"shadow fill (asid={asid} view={view} vpn={vpn:#x}) over "
                f"frame {gpfn} whose cloak state changed before its "
                "mappings were invalidated")
        self.mappings.setdefault(gpfn, set()).add((asid, view, vpn))

    def on_coherence(self, gpfn: int, dropped: int) -> None:
        self.events += 1
        self.pending.discard(gpfn)
        self.mappings.pop(gpfn, None)

    def on_tlb_invalidate(self, asid: int, vpn: int, dropped: int) -> None:
        # invlpg path: the guest edited a PTE; derived mappings of that
        # vpn are gone, so they can no longer go stale.
        self.events += 1
        for gpfn, maps in self.mappings.items():
            maps -= {m for m in maps
                     if m[2] == vpn and (asid == -1 or m[0] == asid)}

    def finish(self) -> None:
        for gpfn in sorted(self.pending):
            self.violations.append(
                f"workload ended with frame {gpfn} still un-flushed after "
                "a cloak-state change (mappings never invalidated)")


class SanitizerSink:
    """Obs-bus sink fanning events into the two checkers."""

    def __init__(self):
        self.transitions = TransitionChecker()
        self.coherence = CoherenceChecker()

    def on_event(self, name: str, cycle: int, args: tuple) -> None:
        if name in EXPECT:
            # args: (owner, vpn[, gpfn, cost]) per the PROBES catalog.
            self.transitions.on_transition(name, args[0], args[1])
            if len(args) >= 3:
                self.coherence.on_cloak_change(name, args[2])
        elif name == "cloak.discard":
            self.transitions.on_discard(args[0], args[1])
        elif name == "vmm.shadow_fill":
            self.coherence.on_shadow_fill(*args)
        elif name == "vmm.coherence":
            self.coherence.on_coherence(*args)
        elif name == "tlb.invalidate":
            self.coherence.on_tlb_invalidate(*args)

    @property
    def violations(self) -> List[str]:
        return self.transitions.violations + self.coherence.violations

    @property
    def events(self) -> int:
        return self.transitions.events + self.coherence.events


def replay_mb_suite(sink: SanitizerSink) -> int:
    """Run the mb-suite workload with ``sink`` attached; returns the
    summed virtual-cycle total (must match BENCH_wallclock.json)."""
    from repro.apps.microbench import MICRO_SUITE
    from repro.bench.runner import fresh_machine, measure_program
    from repro.obs import bus

    machine = fresh_machine(cloaked=True)
    bus.attach(sink, machine.cycles)
    try:
        cycles = 0
        for program_cls in MICRO_SUITE:
            result = measure_program(machine, program_cls.name, ())
            cycles += result.cycles_total
    finally:
        bus.detach(sink)
    sink.coherence.finish()
    return cycles


def committed_cycles(root: Path, workload: str) -> Optional[int]:
    path = root / "BENCH_wallclock.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    entry = report.get("workloads", {}).get(workload)
    return entry.get("cycles") if isinstance(entry, dict) else None


def sanitize_run(workload: str, out) -> int:
    """Entry point for ``python -m repro.analysis --sanitize-run``.

    Runs the static STATE001/MMU001 verdict
    and the dynamic replay, prints the differential comparison, and
    returns an exit code: 0 = both clean and cycles match, 1 = any
    disagreement/violation, 2 = usage error (unknown workload).
    """
    from repro.analysis.baseline import Baseline
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import Analyzer
    from repro.analysis.rules import get_rules

    if workload != "mb-suite":
        print(f"unknown sanitize workload: {workload} "
              "(available: mb-suite)", file=out)
        return 2

    static_rules = ["STATE001", "MMU001"]
    config = AnalysisConfig.load()
    baseline = Baseline.load(config.resolved_baseline())
    report = Analyzer(get_rules(static_rules)).run(
        config.resolved_paths(), baseline=baseline, root=config.root)
    static_clean = not report.findings
    print(f"static : {'/'.join(static_rules)} over "
          f"{report.files_checked} files -> "
          + ("clean" if static_clean
             else f"{len(report.findings)} finding(s)"), file=out)
    for finding in report.findings:
        print(f"  {finding.render()}", file=out)

    sink = SanitizerSink()
    cycles = replay_mb_suite(sink)
    dynamic_clean = not sink.violations
    print(f"dynamic: {workload} replay, {sink.events} events -> "
          + ("clean" if dynamic_clean
             else f"{len(sink.violations)} violation(s)"), file=out)
    for violation in sink.violations:
        print(f"  {violation}", file=out)
    expected = committed_cycles(config.root or Path.cwd(), workload)
    cycles_ok = expected is None or cycles == expected
    if expected is None:
        print(f"cycles : {cycles} (no committed BENCH_wallclock.json "
              "to compare)", file=out)
    elif cycles_ok:
        print(f"cycles : {cycles} == committed {expected} "
              "(sanitizer charged nothing)", file=out)
    else:
        print(f"cycles : {cycles} != committed {expected} — the "
              "sanitizer perturbed the run", file=out)

    agree = static_clean == dynamic_clean
    print("verdict: static and dynamic "
          + ("AGREE" if agree else "DISAGREE")
          + (" (both clean)" if agree and static_clean else ""), file=out)
    return 0 if (static_clean and dynamic_clean and cycles_ok) else 1
