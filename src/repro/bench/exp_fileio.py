"""R-F2: file-I/O bandwidth vs buffer size.

Three configurations per buffer size:

* native, unprotected file — the baseline kernel read/write path;
* cloaked, unprotected file — same path plus shim marshalling copies;
* cloaked, protected file — the memory-mapped emulation (no kernel
  data path at all after the window is built).

Expected shape (paper): marshalling costs one extra copy (overhead
shrinks as buffers grow and copies amortise syscall costs); the
emulated path beats the marshalled path for warm windows because
read/write become pure user-space copies.
"""

from repro.bench.runner import fresh_machine, measure_program
from repro.bench.tables import Series

BUFFER_SIZES = (1024, 4096, 16384, 65536)
TOTAL_BYTES = 256 * 1024


def _bandwidth(cloaked: bool, path: str, buffer_size: int) -> float:
    """Write then read TOTAL_BYTES (one dd-style binary, so both
    phases share one identity); returns bytes per kilocycle."""
    machine = fresh_machine(cloaked=cloaked, programs=("filestreamer",))
    args = (path, str(buffer_size), str(TOTAL_BYTES))
    write = measure_program(machine, "filestreamer", ("write",) + args)
    read = measure_program(machine, "filestreamer", ("read",) + args)
    expected = f"read {TOTAL_BYTES} "
    if expected not in read.text:
        raise RuntimeError(f"short read-back: {read.text!r}")
    total_cycles = write.cycles_total + read.cycles_total
    return 2 * TOTAL_BYTES / (total_cycles / 1000.0)


def run(verbose: bool = True) -> Series:
    series = Series(
        "R-F2: file I/O bandwidth vs buffer size (bytes per 1k cycles)",
        "buffer",
        ["native/plain", "cloaked/plain (marshalled)",
         "cloaked/protected (emulated)"],
    )
    for buffer_size in BUFFER_SIZES:
        series.add_point(
            buffer_size,
            _bandwidth(False, "/data.bin", buffer_size),
            _bandwidth(True, "/data.bin", buffer_size),
            _bandwidth(True, "/secure/data.bin", buffer_size),
        )
    if verbose:
        series.show()
    return series


if __name__ == "__main__":
    run()
