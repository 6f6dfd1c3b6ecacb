"""Campaign driver: differential fuzzing at scale.

A campaign is a pure function of ``(campaign_seed, count, presets)``:
slot *i* derives its program seed with
:func:`repro.gen.spec.derive_seed`, generates a self-checking guest
program, and runs it through the oracle harness
(:mod:`repro.faults.oracle`):

* **native sanity** — the generated program must pass its own
  embedded checks natively (exit 0, ``GEN-OK``); anything else is a
  *generator* defect, reported as ``genfail`` rather than blamed on
  the cloaking engine;
* **transparency** — native and cloaked architectural state must
  agree byte-for-byte;
* **hygiene** — the cloaked run must finish with no violations and no
  kernel-visible secret marker;
* **determinism** (sampled every ``determinism_every`` slots) — a
  same-seed re-run of each configuration must be byte-identical down
  to the cycle counter;
* **fault containment** (opt-in) — a rotating injection site is armed
  for a third cloaked run, whose outcome must classify as
  ``RECOVERED`` or ``DETECTED``.

Every cloaked run carries an *audit* :class:`~repro.faults.plan.FaultPlan`
(all sites armed beyond reach) so the campaign can account which
fault sites each program walks past without perturbing a cycle, and a
probe-bus sink so observability coverage rides along for free.

Failures are shrunk (:mod:`repro.gen.shrink`) to a locally minimal
reproducer and reported with a paste-able
``python -m repro fuzz --replay`` token.
"""

import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.oracle import (AppSpec, CONTAINED_OUTCOMES, _diff_state,
                                 _pressure_params, classify, run_once)
from repro.faults.plan import INJECTION_POINTS, FaultArm, FaultPlan
from repro.gen.generator import build_program, generate
from repro.gen.shrink import FAILURE_KINDS, ShrinkResult, shrink
from repro.gen.spec import GenSpec, PRESETS, PRESET_ROTATION, derive_seed
from repro.guestos.uapi import Syscall
from repro.machine import Machine
from repro.obs import bus

#: Sites a short fault-rotation run is armed with: fire at every 3rd
#: opportunity so even site-sparse programs get a realistic burst.
FAULT_ROTATION = tuple(sorted(INJECTION_POINTS))


class _ProbeSink:
    """Minimal probe-bus sink: record which probe names ever fire."""

    __slots__ = ("names",)

    def __init__(self):
        self.names = set()

    def bind(self, name, clock):
        add = self.names.add
        return lambda *args: add(name)


def app_spec_for(seed: int, spec: GenSpec) -> Tuple[AppSpec, "OpPlan"]:
    """Materialize ``(seed, spec)`` into an oracle :class:`AppSpec`."""
    plan = generate(seed, spec)
    program = build_program(plan)
    app = AppSpec(
        name=plan.name, argv=(), files=plan.files, marker=plan.marker,
        params=_pressure_params if spec.pressure else None,
        program=program,
    )
    return app, plan


def _observed(app: AppSpec, cloaked: bool,
              plan: Optional[FaultPlan] = None,
              sink: Optional[_ProbeSink] = None,
              tweak: Optional[Callable[[Machine], None]] = None):
    """One oracle run with an optional probe sink attached for its
    duration (the bus requires one clock per attachment epoch)."""

    def hook(machine: Machine) -> None:
        if tweak is not None:
            tweak(machine)
        if sink is not None:
            bus.attach(sink, machine.cycles)

    try:
        return run_once(app, cloaked=cloaked, plan=plan, tweak=hook)
    finally:
        if sink is not None:
            bus.detach(sink)


class SlotResult:
    """What happened to one generated program in a campaign."""

    __slots__ = ("slot", "seed", "preset", "name", "ops", "status", "detail",
                 "determinism_checked", "fault_site", "fault_outcome",
                 "shrunk", "replay")

    def __init__(self, slot: int, seed: int, preset: str, name: str,
                 ops: int):
        self.slot = slot
        self.seed = seed
        self.preset = preset
        self.name = name
        self.ops = ops
        self.status = "ok"
        self.detail = ""
        self.determinism_checked = False
        self.fault_site: Optional[str] = None
        self.fault_outcome: Optional[str] = None
        self.shrunk: Optional[ShrinkResult] = None
        self.replay: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict:
        data = {
            "slot": self.slot, "seed": self.seed, "preset": self.preset,
            "name": self.name, "ops": self.ops, "status": self.status,
            "determinism_checked": self.determinism_checked,
        }
        if self.detail:
            data["detail"] = self.detail
        if self.fault_site is not None:
            data["fault_site"] = self.fault_site
            data["fault_outcome"] = self.fault_outcome
        if self.replay is not None:
            data["replay"] = self.replay
        if self.shrunk is not None:
            data["shrunk_ops"] = self.shrunk.ops_after
            data["shrink_checks"] = self.shrunk.checks
        return data


class CampaignReport:
    """Deterministic summary of one campaign (same seed ⇒ same JSON)."""

    __slots__ = ("campaign_seed", "count", "presets", "slots", "syscalls",
                 "fault_sites", "probes")

    def __init__(self, campaign_seed: int, count: int,
                 presets: Tuple[str, ...]):
        self.campaign_seed = campaign_seed
        self.count = count
        self.presets = presets
        self.slots: List[SlotResult] = []
        #: Union over the campaign: static syscall footprint of every
        #: generated program.
        self.syscalls = set()
        #: Fault sites with at least one opportunity in a cloaked run.
        self.fault_sites = set()
        #: Probe-bus event names observed.
        self.probes = set()

    def failures(self) -> List[SlotResult]:
        return [slot for slot in self.slots if not slot.ok]

    def syscalls_missing(self) -> List[str]:
        return sorted(sc.name for sc in Syscall
                      if sc.name not in self.syscalls)

    def fault_sites_missing(self) -> List[str]:
        return sorted(set(INJECTION_POINTS) - self.fault_sites)

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_dict(self) -> Dict:
        return {
            "campaign": {
                "seed": self.campaign_seed,
                "count": self.count,
                "presets": list(self.presets),
            },
            "coverage": {
                "syscalls": sorted(self.syscalls),
                "syscalls_missing": self.syscalls_missing(),
                "fault_sites": sorted(self.fault_sites),
                "fault_sites_missing": self.fault_sites_missing(),
                "probes": sorted(self.probes),
            },
            "programs": [slot.to_dict() for slot in self.slots],
            "failures": [slot.slot for slot in self.failures()],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def digest(self) -> str:
        """Content hash of the report — the determinism guard's anchor."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def replay_token(seed: int, spec: GenSpec) -> str:
    """The paste-able ``--replay`` argument: ``seed:spec-json``."""
    return f"{seed}:{spec.to_json()}"


def parse_replay_token(token: str) -> Tuple[int, GenSpec]:
    """Inverse of :func:`replay_token`."""
    seed_text, sep, spec_json = token.partition(":")
    if not sep:
        raise ValueError(f"bad replay token {token!r} (want seed:spec-json)")
    return int(seed_text), GenSpec.from_json(spec_json)


def run_slot(slot: int, seed: int, preset: str, spec: GenSpec,
             determinism: bool = False,
             fault_site: Optional[str] = None,
             shrink_failures: bool = True,
             cloak_tweak: Optional[Callable[[Machine], None]] = None,
             report: Optional[CampaignReport] = None) -> SlotResult:
    """Run one generated program through the full differential check."""
    app, plan = app_spec_for(seed, spec)
    result = SlotResult(slot, seed, preset, plan.name, len(plan.ops))
    sink = _ProbeSink()
    audit = FaultPlan.audit(seed)

    native = _observed(app, cloaked=False, sink=sink)
    cloaked = _observed(app, cloaked=True, plan=audit, sink=sink,
                        tweak=cloak_tweak)

    if report is not None:
        report.syscalls.update(plan.syscalls)
        report.fault_sites.update(
            site for site in INJECTION_POINTS
            if audit.opportunities(site) > 0)
        report.probes.update(sink.names)

    if native.exit_code != 0:
        result.status = "genfail"
        result.detail = (f"native exit {native.exit_code}: "
                         f"{native.console[-120:].decode(errors='replace')}")
    elif cloaked.exposed:
        result.status = "exposure"
        result.detail = "marker kernel-visible after cloaked run"
    elif cloaked.violations:
        result.status = "violation"
        result.detail = f"fault-free violations: {cloaked.violations}"
    elif native.state() != cloaked.state():
        result.status = "divergence"
        result.detail = _diff_state(native, cloaked)
    elif determinism:
        result.determinism_checked = True
        native2 = _observed(app, cloaked=False, sink=sink)
        cloaked2 = _observed(app, cloaked=True, plan=FaultPlan.audit(seed),
                             sink=sink, tweak=cloak_tweak)
        if not (native.identical(native2) and cloaked.identical(cloaked2)):
            result.status = "nondeterministic"
            result.detail = "same-seed re-run diverged"

    if result.ok and fault_site is not None:
        armed = FaultPlan(seed=seed,
                          arms=(FaultArm(fault_site, every=3),))
        faulty = _observed(app, cloaked=True, plan=armed)
        result.fault_site = fault_site
        result.fault_outcome = classify(cloaked, faulty)
        if result.fault_outcome not in CONTAINED_OUTCOMES:
            result.status = "fault-escape"
            result.detail = (f"{fault_site} -> {result.fault_outcome} "
                             f"(replay: {armed.replay_spec()})")

    if not result.ok:
        result.replay = replay_token(seed, spec)
        if shrink_failures and result.status in FAILURE_KINDS:
            result.shrunk = shrink(seed, spec, cloak_tweak=cloak_tweak)
            result.replay = result.shrunk.replay
    return result


def run_campaign(campaign_seed: int = 0, count: int = 64,
                 presets: Sequence[str] = PRESET_ROTATION,
                 determinism_every: int = 8,
                 fault_sites: bool = False,
                 shrink_failures: bool = True,
                 cloak_tweak: Optional[Callable[[Machine], None]] = None,
                 verbose: bool = False) -> CampaignReport:
    """Run a ``count``-program campaign; see the module docstring.

    ``cloak_tweak`` is forwarded to every cloaked run — the mutation
    tests use it to sabotage engine internals and assert the campaign
    catches the divergence.
    """
    report = CampaignReport(campaign_seed, count, tuple(presets))
    for slot in range(count):
        preset = presets[slot % len(presets)]
        spec = PRESETS[preset]
        seed = derive_seed(campaign_seed, slot)
        fault_site = (FAULT_ROTATION[slot % len(FAULT_ROTATION)]
                      if fault_sites else None)
        result = run_slot(
            slot, seed, preset, spec,
            determinism=determinism_every > 0
            and slot % determinism_every == 0,
            fault_site=fault_site, shrink_failures=shrink_failures,
            cloak_tweak=cloak_tweak, report=report,
        )
        report.slots.append(result)
        if verbose:
            status = result.status if result.ok else result.status.upper()
            extra = f"  {result.detail}" if result.detail else ""
            print(f"  fuzz[{slot:3d}] seed={seed:<20d} {preset:<9s} "
                  f"{result.name:<14s} ops={result.ops:<3d} {status}{extra}")
    return report
