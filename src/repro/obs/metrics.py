"""Metrics registry: counters and cycle histograms over probe events.

A :class:`MetricsRegistry` is a probe-bus sink whose per-probe
handlers record only raw tallies — event count, summed ``cost``, a
power-of-two histogram of that cost, and per-domain events and cycles
for probes that carry an owner or domain field.  :meth:`snapshot`
folds them into:

* per-probe event counters (``"cloak.encrypt": 12``);
* per-component counters and transition-cost totals, with the
  power-of-two cost histogram where the probes carry a ``cost`` (the
  cloak transitions);
* per-domain counters and cycle totals, answering "which protection
  domain paid".

Snapshots are deterministic JSON: keys sorted, integers only, no
wall-clock anywhere — two identical runs serialize byte-identically.
"""

import json
from typing import Callable, Dict, List, Tuple

from repro.obs import bus

#: Probe field treated as the event's virtual-cycle cost.
_COST_FIELD = "cost"
#: Probe fields treated as the owning protection domain.
_DOMAIN_FIELDS = ("owner", "domain")


def _field_indexes() -> Dict[str, Tuple[int, int]]:
    """probe name -> (cost index, domain index), -1 when absent."""
    table: Dict[str, Tuple[int, int]] = {}
    for name, fields in bus.PROBES.items():
        cost = fields.index(_COST_FIELD) if _COST_FIELD in fields else -1
        domain = -1
        for candidate in _DOMAIN_FIELDS:
            if candidate in fields:
                domain = fields.index(candidate)
                break
        table[name] = (cost, domain)
    return table


_INDEXES = _field_indexes()


class _Tally:
    """Raw per-probe tallies, kept across every binding of the probe."""

    __slots__ = ("events", "cycles", "buckets")

    def __init__(self) -> None:
        self.events = 0
        #: summed cost field.
        self.cycles = 0
        #: log2 bucket of the cost field -> events.
        self.buckets: Dict[int, int] = {}


class MetricsRegistry:
    """Probe-bus sink accumulating counters and cycle histograms."""

    def __init__(self) -> None:
        #: probe name -> raw tallies, created at first bind.
        self._tallies: Dict[str, _Tally] = {}
        #: [first, last] cycle of any event ever, -1 before the first.
        self._span: List[int] = [-1, -1]
        #: domain id -> events / summed cost cycles.
        self._domain_events: Dict[int, int] = {}
        self._domain_cycles: Dict[int, int] = {}

    # -- sink protocol -----------------------------------------------------

    def bind(self, name: str, clock: Callable[[], int]) -> Callable:
        # Handlers are closures (cell reads), not keyword defaults:
        # one probe firing is one call of exactly this code.
        tally = self._tallies.get(name)
        if tally is None:
            tally = self._tallies[name] = _Tally()
        cost_idx, domain_idx = _INDEXES.get(name, (-1, -1))
        span = self._span
        domain_events = self._domain_events
        domain_cycles = self._domain_cycles

        if cost_idx >= 0:
            buckets = tally.buckets

            def on_cost_probe(*args) -> None:
                cycle = clock()
                if span[0] < 0:
                    span[0] = cycle
                span[1] = cycle
                tally.events += 1
                cost = args[cost_idx]
                tally.cycles += cost
                bucket = int(cost).bit_length()  # 0 cost -> bucket 0
                buckets[bucket] = buckets.get(bucket, 0) + 1
                if domain_idx >= 0:
                    domain = args[domain_idx]
                    domain_events[domain] = domain_events.get(domain, 0) + 1
                    domain_cycles[domain] = \
                        domain_cycles.get(domain, 0) + cost

            return on_cost_probe

        if domain_idx >= 0:
            def on_domain_probe(*args) -> None:
                cycle = clock()
                if span[0] < 0:
                    span[0] = cycle
                span[1] = cycle
                tally.events += 1
                domain = args[domain_idx]
                domain_events[domain] = domain_events.get(domain, 0) + 1

            return on_domain_probe

        def on_probe(*args) -> None:
            cycle = clock()
            if span[0] < 0:
                span[0] = cycle
            span[1] = cycle
            tally.events += 1

        return on_probe

    # -- queries -----------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """probe name -> events seen, for every probe that fired."""
        return {name: tally.events
                for name, tally in sorted(self._tallies.items())
                if tally.events}

    @property
    def first_cycle(self) -> int:
        return self._span[0]

    @property
    def last_cycle(self) -> int:
        return self._span[1]

    def total_events(self) -> int:
        return sum(tally.events for tally in self._tallies.values())

    @property
    def cow_faults(self) -> int:
        """COW frame materialisations observed on restored machines."""
        return self.counters.get("snapshot.cow_fault", 0)

    def snapshot(self) -> Dict:
        """Plain-dict snapshot; deterministic given a deterministic run."""
        counters = self.counters
        components: Dict[str, Dict] = {}
        histograms: Dict[str, Dict[int, int]] = {}
        for name, count in counters.items():
            tally = self._tallies[name]
            component = bus.component_of(name)
            entry = components.setdefault(component,
                                          {"events": 0, "cycles": 0})
            entry["events"] += count
            entry["cycles"] += tally.cycles
            if tally.buckets:
                hist = histograms.setdefault(component, {})
                for bucket, events in tally.buckets.items():
                    hist[bucket] = hist.get(bucket, 0) + events
        for component, hist in histograms.items():
            # Bucket k covers costs in [2^(k-1), 2^k); rendered as
            # the inclusive upper bound so readers need no legend.
            components[component]["cost_histogram"] = {
                f"<{1 << bucket}": count
                for bucket, count in sorted(hist.items())
            }
        domains = {
            str(domain): {
                "events": self._domain_events[domain],
                "cycles": self._domain_cycles.get(domain, 0),
            }
            for domain in sorted(self._domain_events)
        }
        return {
            "schema": 1,
            "clock": "virtual-cycles",
            "span": list(self._span),
            "total_events": sum(counters.values()),
            "probes": counters,
            "components": {name: components[name]
                           for name in sorted(components)},
            "domains": domains,
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Compact text summary for CLI output."""
        snap = self.snapshot()
        lines = [f"metrics: {snap['total_events']} events across "
                 f"{len(snap['probes'])} probes"]
        for name, count in snap["probes"].items():
            lines.append(f"  {name:<20} {count:>10}")
        if snap["domains"]:
            lines.append("per-domain transition cycles:")
            for domain, entry in snap["domains"].items():
                lines.append(f"  domain {domain:<4} events {entry['events']:>8}"
                             f"  cycles {entry['cycles']:>12}")
        return "\n".join(lines)


def merge_snapshots(snaps: List[Dict]) -> Dict:
    """Fold per-machine :meth:`MetricsRegistry.snapshot` dicts into one.

    Counters, component/domain totals, and histogram buckets sum;
    ``span`` widens to cover every input (each machine keeps its own
    virtual clock, so the merged span is a bound, not a timeline).
    The result is **order-independent** — integer sums commute — which
    is what lets a multi-process cluster harvest worker snapshots in
    completion order and still emit a deterministic merged report.
    """
    probes: Dict[str, int] = {}
    components: Dict[str, Dict] = {}
    domains: Dict[str, Dict[str, int]] = {}
    first, last = -1, -1
    for snap in snaps:
        if snap.get("schema") != 1:
            raise ValueError(f"unknown metrics schema {snap.get('schema')!r}")
        for name, count in snap["probes"].items():
            probes[name] = probes.get(name, 0) + count
        for component, entry in snap["components"].items():
            merged = components.setdefault(
                component, {"events": 0, "cycles": 0})
            merged["events"] += entry["events"]
            merged["cycles"] += entry["cycles"]
            hist = entry.get("cost_histogram")
            if hist:
                out = merged.setdefault("cost_histogram", {})
                for bucket, count in hist.items():
                    out[bucket] = out.get(bucket, 0) + count
        for domain, entry in snap["domains"].items():
            merged = domains.setdefault(domain, {"events": 0, "cycles": 0})
            merged["events"] += entry["events"]
            merged["cycles"] += entry["cycles"]
        span_first, span_last = snap["span"]
        if span_first >= 0 and (first < 0 or span_first < first):
            first = span_first
        if span_last > last:
            last = span_last
    for entry in components.values():
        hist = entry.get("cost_histogram")
        if hist:
            # Keep buckets in numeric order ("<8" before "<16").
            entry["cost_histogram"] = {
                key: hist[key]
                for key in sorted(hist, key=lambda k: int(k[1:]))
            }
    return {
        "schema": 1,
        "clock": "virtual-cycles",
        "merged_from": len(snaps),
        "span": [first, last],
        "total_events": sum(probes.values()),
        "probes": {name: probes[name] for name in sorted(probes)},
        "components": {name: components[name]
                       for name in sorted(components)},
        "domains": {name: domains[name] for name in sorted(domains)},
    }
