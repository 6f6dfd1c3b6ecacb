"""R-T3: VMM resource overheads and cloaking event counts.

The paper's space/bookkeeping table: metadata bytes per protected
page, shadow-context footprint, and how many cloaking transitions each
workload class actually takes (the event counts explain the cycle
results of R-F1..R-F4).
"""

from typing import Dict, Tuple

from repro.bench.runner import fresh_machine, measure_program
from repro.bench.tables import Table
from repro.core.metadata import METADATA_BYTES_PER_PAGE

WORKLOADS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("matmul", ()),
    ("seqwrite-secure", ()),
    ("forkstress", ("3", "10000")),
    ("mb-getpid", ("30",)),
)

EVENT_KEYS = (
    ("cloak.zero_fills", "zero-fills"),
    ("cloak.decrypts", "decrypts"),
    ("cloak.encrypts", "encrypts"),
    ("cloak.ct_restores", "ct-restores"),
    ("vmm.cloaked_exits", "kernel entries"),
    ("vmm.hypercalls", "hypercalls"),
)


def run(verbose: bool = True) -> Dict[str, Dict[str, int]]:
    """Per-workload cloaking event counts + the static space numbers."""
    results: Dict[str, Dict[str, int]] = {}
    reports = {}
    for name, argv in WORKLOADS:
        machine = fresh_machine(cloaked=True)
        name_actual = name
        if name == "seqwrite-secure":
            name_actual = "filestreamer"
            argv = ("write", "/secure/ovh.bin", "4096", str(128 * 1024))
        result = measure_program(machine, name_actual, argv)
        results[name] = {label: result.stats.get(key, 0)
                         for key, label in EVENT_KEYS}
        reports[name] = machine.vmm.resource_report()

    if verbose:
        table = Table(
            "R-T3a: cloaking events per workload (cloaked runs)",
            ["workload"] + [label for __, label in EVENT_KEYS],
        )
        for name, counts in results.items():
            table.add_row(name, *(counts[label] for __, label in EVENT_KEYS))
        table.show()

        space = Table(
            "R-T3b: VMM space overhead",
            ["quantity", "value"],
        )
        space.add_row("metadata bytes / cloaked page", METADATA_BYTES_PER_PAGE)
        sample = reports["seqwrite-secure"]
        space.add_row("peak page metadata entries (seqwrite-secure)",
                      sample["page_metadata_peak_entries"])
        space.add_row("peak page metadata bytes (seqwrite-secure)",
                      sample["page_metadata_peak_bytes"])
        space.add_row("file metadata entries persisted (seqwrite-secure)",
                      sample["file_metadata_entries"])
        space.add_row("file metadata bytes persisted (seqwrite-secure)",
                      sample["file_metadata_bytes"])
        space.add_row("peak shadow entries (seqwrite-secure)",
                      sample["shadow_peak_entries"])
        space.show()
    results["_space"] = reports["seqwrite-secure"]
    return results


if __name__ == "__main__":
    run()
