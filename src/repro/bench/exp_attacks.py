"""R-T4: the security-evaluation outcome matrix.

Runs the full attack suite against native and cloaked victims; the
table is the reproduction of the paper's security argument, with the
syscall-lie row marking the acknowledged trust-boundary limit.
"""

from typing import Dict, Tuple

from repro.attacks import AttackOutcome, run_suite
from repro.bench.tables import Table


def run(verbose: bool = True) -> Dict[str, Tuple[str, str]]:
    """Returns {attack: (native outcome, cloaked outcome)}."""
    reports = run_suite()
    matrix: Dict[str, Dict[bool, str]] = {}
    for report in reports:
        matrix.setdefault(report.attack_name, {})[report.cloaked] = \
            report.outcome.value

    rows = {name: (by_mode.get(False, "-"), by_mode.get(True, "-"))
            for name, by_mode in matrix.items()}

    if verbose:
        table = Table("R-T4: attack outcome matrix",
                      ["attack", "native victim", "cloaked victim"])
        for name, (native, cloaked) in rows.items():
            table.add_row(name, native, cloaked)
        table.show()
    return rows


def cloaked_is_safe(rows: Dict[str, Tuple[str, str]]) -> bool:
    """The headline claim: no cloaked run ever LEAKED."""
    return all(cloaked != AttackOutcome.LEAKED.value
               for __, cloaked in rows.values())


if __name__ == "__main__":
    run()
