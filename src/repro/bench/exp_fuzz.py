"""R-T6: differential fuzzing campaign (extension).

The transparency, determinism, and hygiene claims of R-T2..R-T5 are
only as strong as the workloads behind them — 41 hand-written
programs.  This experiment re-asserts the same invariants over a
*generated* population: a seeded campaign of self-checking guest
programs (:mod:`repro.gen`) spanning weighted mixes of file I/O,
mmap/brk, fork/exec trees, pipes, signal storms, and secret-marker
placement, each run native-vs-cloaked under the differential oracle
with a rotating fault-injection arm.

Headline claims:

* zero divergences — every generated program's architectural state is
  identical native and cloaked, with no violations and no marker
  exposure;
* full surface — the campaign's static footprint covers every syscall
  in the guest ABI, and its cloaked runs walk past every registered
  fault-injection site;
* containment — each rotating armed site classifies RECOVERED or
  DETECTED, never EXPOSED or CORRUPTED.
"""

from repro.bench.tables import Table
from repro.gen.driver import CampaignReport, run_campaign

CAMPAIGN_SEED = 0
CAMPAIGN_COUNT = 64


def run(verbose: bool = True, seed: int = CAMPAIGN_SEED,
        count: int = CAMPAIGN_COUNT,
        fault_sites: bool = True) -> CampaignReport:
    report = run_campaign(campaign_seed=seed, count=count,
                          fault_sites=fault_sites)
    if verbose:
        table = Table(
            f"R-T6: differential fuzzing campaign "
            f"(seed {seed}, {count} generated programs)",
            ["preset", "programs", "ops", "determinism runs", "fault arms",
             "contained", "failures"],
        )
        presets = sorted(set(slot.preset for slot in report.slots))
        for preset in presets:
            slots = [s for s in report.slots if s.preset == preset]
            armed = [s for s in slots if s.fault_site is not None]
            table.add_row(
                preset, len(slots), sum(s.ops for s in slots),
                sum(1 for s in slots if s.determinism_checked),
                len(armed),
                sum(1 for s in armed
                    if s.fault_outcome in ("RECOVERED", "DETECTED")),
                sum(1 for s in slots if not s.ok),
            )
        table.show()
        print(f"  syscall coverage: {len(report.syscalls)} reached, "
              f"missing {report.syscalls_missing() or 'none'}")
        print(f"  fault-site coverage: {len(report.fault_sites)}/14, "
              f"missing {report.fault_sites_missing() or 'none'}")
        print(f"  probe coverage: {len(report.probes)} event kinds")
        print(f"  report digest: {report.digest()}")
        for slot in report.failures():
            print(f"  FAILURE slot {slot.slot} [{slot.status}] "
                  f"{slot.detail}\n    replay: {slot.replay}")
    return report


def zero_divergences(report: CampaignReport) -> bool:
    """The headline claim: the generated population finds nothing."""
    return report.ok


if __name__ == "__main__":
    run()
