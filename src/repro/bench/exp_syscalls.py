"""R-T2: syscall microbenchmark latencies, native vs cloaked.

The lmbench-style table.  Per-iteration cost is whole-program cycles
divided by the iteration count, after subtracting the same program's
fixed startup (measured via a zero-extra-iteration calibration run of
the empty loop).  Expected shape (paper): the null call grows by a
small constant (world switches + CTC); buffer-carrying calls add
marshalling copies; fork/exec are the blowups.
"""

from typing import List, Tuple

from repro.apps.microbench import MICRO_SUITE
from repro.bench.runner import fresh_machine, measure_program, ratio
from repro.bench.tables import Table


def _per_iteration(name: str, iterations: int, cloaked: bool) -> float:
    machine = fresh_machine(cloaked=cloaked)
    full = measure_program(machine, name, (str(iterations),)).cycles_total
    # Calibration: the same program with a minimal iteration count.
    machine = fresh_machine(cloaked=cloaked)
    base = measure_program(machine, name, ("1",)).cycles_total
    return max(0.0, (full - base) / max(1, iterations - 1))


def run(verbose: bool = True, iterations: int = 40) -> List[Tuple[str, float, float, float]]:
    """Returns rows (benchmark, native cycles, cloaked cycles, ratio)."""
    rows = []
    for program_cls in MICRO_SUITE:
        # Respect each benchmark's own default when smaller (fork is
        # expensive enough at 8 iterations).
        count = min(iterations, program_cls.default_iterations)
        native = _per_iteration(program_cls.name, count, cloaked=False)
        cloaked = _per_iteration(program_cls.name, count, cloaked=True)
        rows.append((program_cls.name, native, cloaked,
                     ratio(native, cloaked)))

    if verbose:
        table = Table(
            "R-T2: syscall microbenchmarks (virtual cycles per operation)",
            ["benchmark", "native", "cloaked", "slowdown"],
        )
        for name, native, cloaked, slowdown in rows:
            table.add_row(name, native, cloaked, f"{slowdown:.2f}x")
        table.show()
    return rows


if __name__ == "__main__":
    run()
