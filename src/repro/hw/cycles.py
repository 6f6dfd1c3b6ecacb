"""Deterministic virtual-time ledger.

All performance results in this reproduction are virtual-cycle counts
accumulated here.  Determinism matters: the same workload with the same
seed produces the same cycle totals on every run and every host, which
is what lets the benchmark harness make paper-style comparisons without
a hardware testbed.
"""

from typing import Dict, Iterator, Optional, Tuple


class CycleAccount:
    """Accumulates virtual cycles, broken down by category.

    Categories are free-form strings; the canonical set is
    :data:`repro.hw.params.CYCLE_CATEGORIES`.  A context-style marker
    API (:meth:`snapshot` / :meth:`since`) supports measuring intervals
    without resetting the ledger.
    """

    def __init__(self) -> None:
        #: Grand total of every category, written only by :meth:`charge`
        #: and :meth:`reset`.  A plain attribute, not a property, so hot
        #: readers (the machine loop's timeslice check, the probe bus
        #: clock) enter no Python frame.
        self.total = 0
        self._by_category: Dict[str, int] = {}

    def charge(self, category: str, cycles: int) -> None:
        """Add ``cycles`` to ``category`` (and the grand total)."""
        if cycles > 0:
            self.total += cycles
            cats = self._by_category
            if category in cats:
                cats[category] += cycles
            else:
                cats[category] = cycles
        elif cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")

    def get(self, category: str) -> int:
        return self._by_category.get(category, 0)

    def breakdown(self) -> Dict[str, int]:
        """A copy of the per-category totals."""
        return dict(self._by_category)

    def snapshot(self) -> Tuple[int, Dict[str, int]]:
        """Capture the current ledger state for later :meth:`since`."""
        return self.total, dict(self._by_category)

    def since(self, snap: Tuple[int, Dict[str, int]]) -> "CycleDelta":
        """Cycles accumulated since ``snap`` was taken."""
        base_total, base_cats = snap
        cats = {
            name: count - base_cats.get(name, 0)
            for name, count in self._by_category.items()
            if count != base_cats.get(name, 0)
        }
        return CycleDelta(self.total - base_total, cats)

    def reset(self) -> None:
        self.total = 0
        self._by_category.clear()

    def __repr__(self) -> str:
        return f"CycleAccount(total={self.total})"


class CycleDelta:
    """An interval of virtual time, with the same breakdown structure."""

    def __init__(self, total: int, by_category: Dict[str, int]):
        self.total = total
        self._by_category = by_category

    def get(self, category: str) -> int:
        return self._by_category.get(category, 0)

    def breakdown(self) -> Dict[str, int]:
        return dict(self._by_category)

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._by_category.items()))

    def fraction(self, category: str) -> float:
        """Share of this interval spent in ``category`` (0.0 if empty)."""
        if self.total == 0:
            return 0.0
        return self._by_category.get(category, 0) / self.total

    def __repr__(self) -> str:
        return f"CycleDelta(total={self.total})"


class StatCounters:
    """Named event counters (faults taken, pages encrypted, ...).

    Separate from :class:`CycleAccount` because events and time answer
    different questions; benchmark tables report both.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def bump(self, name: str, by: int = 1) -> None:
        counts = self._counts
        if name in counts:
            counts[name] += by
        else:
            counts[name] = by

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counts)

    def since(self, snap: Dict[str, int]) -> Dict[str, int]:
        return {
            name: count - snap.get(name, 0)
            for name, count in self._counts.items()
            if count != snap.get(name, 0)
        }

    def reset(self) -> None:
        self._counts.clear()
