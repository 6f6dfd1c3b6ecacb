"""R-A4: cost-model sensitivity analysis.

A simulation-based reproduction owes its readers an answer to "how
much do your conclusions depend on the numbers you picked?".  This
experiment re-runs representative workloads while scaling the crypto
costs (the least portable part of the model: software AES in 2008 vs
AES-NI vs future accelerators) and the world-switch costs (binary
translation vs hardware virtualization), and reports which qualitative
conclusions survive.

The conclusions under test:

* C1 — compute-bound overhead stays small;
* C2 — fork is the worst syscall by a wide margin;
* C3 — cloaked file streaming is crypto-bound;
* C4 — multi-shadowing beats flush-per-switch.
"""

from typing import Dict, Tuple

from repro.bench.runner import fresh_machine, measure_program
from repro.bench.tables import Table
from repro.core.multishadow import POLICY_FLUSH
from repro.core.vmm import VMMConfig
from repro.hw.params import MachineParams

#: (label, crypto multiplier, world-switch multiplier)
SCENARIOS: Tuple[Tuple[str, float, float], ...] = (
    ("2008 software crypto (baseline)", 1.0, 1.0),
    ("hw crypto (AES-NI-like, 1/8 cost)", 0.125, 1.0),
    ("slow crypto (4x cost)", 4.0, 1.0),
    ("cheap world switch (hw virt, 1/4)", 1.0, 0.25),
    ("hw crypto + cheap switch", 0.125, 0.25),
)


def _params(crypto_mult: float, switch_mult: float) -> MachineParams:
    base = MachineParams()
    costs = base.costs
    return base.with_costs(
        page_encrypt=max(1, int(costs.page_encrypt * crypto_mult)),
        page_decrypt=max(1, int(costs.page_decrypt * crypto_mult)),
        page_hash=max(1, int(costs.page_hash * crypto_mult)),
        ciphertext_restore=max(1, int(costs.ciphertext_restore * crypto_mult)),
        world_switch=max(1, int(costs.world_switch * switch_mult)),
        hypercall=max(1, int(costs.hypercall * switch_mult)),
        ctc_save=max(1, int(costs.ctc_save * switch_mult)),
        ctc_restore=max(1, int(costs.ctc_restore * switch_mult)),
    )


def _measure_scenario(params: MachineParams) -> Dict[str, float]:
    """Ratios of interest under one cost configuration."""
    out: Dict[str, float] = {}

    # C1: compute overhead (matmul cloaked/native).
    native = measure_program(fresh_machine(False, params=params), "matmul")
    cloaked = measure_program(fresh_machine(True, params=params), "matmul")
    out["compute overhead %"] = 100.0 * (
        cloaked.cycles_total - native.cycles_total) / native.cycles_total

    # C2: fork slowdown.
    native = measure_program(fresh_machine(False, params=params),
                             "mb-fork", ("6",))
    cloaked = measure_program(fresh_machine(True, params=params),
                              "mb-fork", ("6",))
    out["fork slowdown x"] = cloaked.cycles_total / native.cycles_total

    # C3: protected-file streaming slowdown vs plain streaming (cloaked).
    machine = fresh_machine(True, params=params, programs=("filestreamer",))
    plain = measure_program(machine, "filestreamer",
                            ("write", "/p.bin", "4096", "65536"))
    machine = fresh_machine(True, params=params, programs=("filestreamer",))
    secure = measure_program(machine, "filestreamer",
                             ("write", "/secure/p.bin", "4096", "65536"))
    out["protected-file cost x"] = secure.cycles_total / plain.cycles_total

    # C4: flush-policy penalty on a syscall loop.
    tagged = measure_program(
        fresh_machine(True, params=params), "mb-getpid", ("30",))
    flush = measure_program(
        fresh_machine(True, params=params,
                      vmm_config=VMMConfig(shadow_policy=POLICY_FLUSH)),
        "mb-getpid", ("30",))
    out["flush penalty x"] = flush.cycles_total / tagged.cycles_total
    return out


def run(verbose: bool = True) -> Dict[str, Dict[str, float]]:
    results = {}
    for label, crypto_mult, switch_mult in SCENARIOS:
        results[label] = _measure_scenario(_params(crypto_mult, switch_mult))

    if verbose:
        metrics = list(next(iter(results.values())))
        table = Table("R-A4: cost-model sensitivity", ["scenario"] + metrics)
        for label, values in results.items():
            table.add_row(label, *(f"{values[m]:.2f}" for m in metrics))
        table.show()
        print("Conclusions under test: C1 compute overhead small; "
              "C2 fork worst; C3 protected files crypto-bound; "
              "C4 multi-shadowing wins.")
    return results


if __name__ == "__main__":
    run()
