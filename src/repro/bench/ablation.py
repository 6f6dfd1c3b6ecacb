"""Ablations R-A1..R-A3: the design choices DESIGN.md calls out.

* R-A1 — lazy (fault-driven) vs eager re-encryption on every switch
  out of a cloaked context.  Eager pays full crypto per kernel entry;
  lazy pays only for pages the system actually touches.
* R-A2 — full cloaking vs integrity-only (MAC, no cipher): splits the
  crypto bill between privacy and integrity.
* R-A3 — tagged multi-shadowing vs a single shadow flushed on every
  view switch: the cost multi-shadowing exists to avoid.
"""

from typing import Dict, Tuple

from repro.bench.runner import fresh_machine, measure_program
from repro.bench.tables import Table
from repro.core.cloak import CloakConfig
from repro.core.multishadow import POLICY_FLUSH, POLICY_TAGGED
from repro.core.vmm import VMMConfig

#: Workloads chosen to stress each mechanism: pure compute, a
#: syscall loop (world switches), crypto-heavy paths (protected file
#: I/O and fork re-encryption), and context-switch pressure.
WORKLOADS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("matmul", ()),
    ("mb-getpid", ("30",)),
    ("seqwrite-secure", ()),
    ("seqread-secure", ()),
    ("mb-fork", ("6",)),
    ("mb-ctxsw", ("40",)),
)


_STREAM_ARGS = ("/secure/abl.bin", "4096", str(64 * 1024))


def _measure(config: VMMConfig) -> Dict[str, int]:
    cycles: Dict[str, int] = {}
    for name, argv in WORKLOADS:
        machine = fresh_machine(cloaked=True, vmm_config=config)
        if name == "seqwrite-secure":
            name_actual, argv = "filestreamer", ("write",) + _STREAM_ARGS
        elif name == "seqread-secure":
            # Seed the protected file (unmeasured preparatory run).
            measure_program(machine, "filestreamer",
                            ("write",) + _STREAM_ARGS)
            name_actual, argv = "filestreamer", ("read",) + _STREAM_ARGS
        else:
            name_actual = name
        cycles[name] = measure_program(machine, name_actual, argv).cycles_total
    return cycles


def run_lazy_vs_eager(verbose: bool = True) -> Dict[str, Dict[str, int]]:
    """R-A1."""
    lazy = _measure(VMMConfig(eager_reencrypt=False))
    eager = _measure(VMMConfig(eager_reencrypt=True))
    if verbose:
        table = Table("R-A1: lazy vs eager re-encryption (virtual cycles)",
                      ["workload", "lazy (paper)", "eager", "eager/lazy"])
        for name in lazy:
            table.add_row(name, lazy[name], eager[name],
                          f"{eager[name] / lazy[name]:.2f}x")
        table.show()
    return {"lazy": lazy, "eager": eager}


def run_integrity_modes(verbose: bool = True) -> Dict[str, Dict[str, int]]:
    """R-A2."""
    full = _measure(VMMConfig())
    mac_only = _measure(VMMConfig(cloak=CloakConfig(integrity_only=True)))
    no_clean = _measure(
        VMMConfig(cloak=CloakConfig(clean_page_optimization=False))
    )
    if verbose:
        table = Table(
            "R-A2: protection modes (virtual cycles)",
            ["workload", "full cloaking", "integrity-only",
             "full w/o clean-page opt"],
        )
        for name in full:
            table.add_row(name, full[name], mac_only[name], no_clean[name])
        table.show()
    return {"full": full, "integrity_only": mac_only,
            "no_clean_opt": no_clean}


def run_shadow_policy(verbose: bool = True) -> Dict[str, Dict[str, int]]:
    """R-A3."""
    tagged = _measure(VMMConfig(shadow_policy=POLICY_TAGGED))
    flush = _measure(VMMConfig(shadow_policy=POLICY_FLUSH))
    if verbose:
        table = Table(
            "R-A3: multi-shadowing vs flush-per-switch (virtual cycles)",
            ["workload", "tagged (multi-shadow)", "flush-per-switch",
             "flush/tagged"],
        )
        for name in tagged:
            table.add_row(name, tagged[name], flush[name],
                          f"{flush[name] / tagged[name]:.2f}x")
        table.show()
    return {"tagged": tagged, "flush": flush}


def run_all(verbose: bool = True) -> Dict[str, Dict]:
    return {
        "lazy_vs_eager": run_lazy_vs_eager(verbose),
        "integrity_modes": run_integrity_modes(verbose),
        "shadow_policy": run_shadow_policy(verbose),
    }


if __name__ == "__main__":
    run_all()
