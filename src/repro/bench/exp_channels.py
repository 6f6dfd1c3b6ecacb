"""R-F6 (extension): sealed-IPC throughput vs message size.

Three configurations stream the same payload through a FIFO between a
parent and its forked child:

* native, plain FIFO — the baseline pipe path;
* cloaked, plain FIFO — marshalling copies only (data crosses the
  kernel in plaintext: the unprotected-IPC hole the extension closes);
* cloaked, **sealed** FIFO — every message encrypted + MAC'd through
  the VMM before the kernel's pipe sees it.

Expected shape: sealing costs per-byte crypto, so its relative price
falls as messages grow (fixed per-record costs amortise) but never
reaches the unsealed paths; the unsealed cloaked path trails native by
the marshalling copy alone.
"""

from repro.bench.runner import fresh_machine, measure_program
from repro.bench.tables import Series

MESSAGE_SIZES = (256, 1024, 4096)
TOTAL_BYTES = 64 * 1024


def _throughput(cloaked: bool, fifo_path: str, message_size: int) -> float:
    machine = fresh_machine(cloaked=cloaked, programs=("chanpump",))
    result = measure_program(
        machine, "chanpump",
        (fifo_path, str(message_size), str(TOTAL_BYTES)),
    )
    assert f"pumped {TOTAL_BYTES} child=0" in result.text, result.text
    return TOTAL_BYTES / (result.cycles_total / 1000.0)


def run(verbose: bool = True) -> Series:
    series = Series(
        "R-F6 (ext): FIFO throughput vs message size (bytes per 1k cycles)",
        "message",
        ["native/plain", "cloaked/plain", "cloaked/sealed"],
    )
    for message_size in MESSAGE_SIZES:
        series.add_point(
            message_size,
            _throughput(False, "/chan", message_size),
            _throughput(True, "/chan", message_size),
            _throughput(True, "/secure/chan", message_size),
        )
    if verbose:
        series.show()
    return series


if __name__ == "__main__":
    run()
