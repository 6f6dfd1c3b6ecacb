"""R-F4: fork/exec-heavy workload (the compile-farm figure).

Process creation is cloaked execution's worst case: the kernel's
address-space copy drags every parent page through the encrypt path,
and each exec pays a fresh domain bootstrap (identity check + image
adoption).  The table also breaks out where the cloaked cycles go.
"""

from typing import List, Tuple

from repro.bench.runner import compare_program, ratio
from repro.bench.tables import Table

JOB_COUNTS = (2, 4, 8)


def run(verbose: bool = True) -> List[Tuple[str, int, int, float, float]]:
    """Returns rows (workload, native, cloaked, slowdown, crypto %)."""
    rows = []
    for jobs in JOB_COUNTS:
        native, cloaked = compare_program("forkstress", (str(jobs), "20000"))
        crypto_share = 100.0 * cloaked.cycles_breakdown.get("crypto", 0) \
            / cloaked.cycles_total
        rows.append((f"forkstress x{jobs}", native.cycles_total,
                     cloaked.cycles_total,
                     ratio(native.cycles_total, cloaked.cycles_total),
                     crypto_share))
    for jobs in (2, 4):
        native, cloaked = compare_program("compilefarm", (str(jobs),))
        crypto_share = 100.0 * cloaked.cycles_breakdown.get("crypto", 0) \
            / cloaked.cycles_total
        rows.append((f"compilefarm x{jobs}", native.cycles_total,
                     cloaked.cycles_total,
                     ratio(native.cycles_total, cloaked.cycles_total),
                     crypto_share))

    if verbose:
        table = Table(
            "R-F4: fork/exec workloads (virtual cycles)",
            ["workload", "native", "cloaked", "slowdown", "crypto share"],
        )
        for name, n, c, r, share in rows:
            table.add_row(name, n, c, f"{r:.2f}x", f"{share:.0f}%")
        table.show()
    return rows


if __name__ == "__main__":
    run()
