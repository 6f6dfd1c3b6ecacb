"""Frozen reference for :class:`repro.obs.metrics.MetricsRegistry`.

This is the registry as it was before its sink became per-probe
handlers over raw tallies: ``on_event`` folds every event straight
into component, histogram and domain dicts, and ``snapshot`` reads
them back.  The code is copied verbatim and must never be regenerated
from the code under test; ``test_metrics_oracle.py`` replays recorded
probe streams through both registries and requires identical output.
"""

import json
from typing import Dict, Tuple

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


class ReferenceRegistry:
    """The pre-``bind`` registry, fed by ``on_event`` directly."""

    def __init__(self) -> None:
        self._indexes = _field_indexes()
        #: probe name -> events seen.
        self.counters: Dict[str, int] = {}
        #: component -> events seen.
        self._component_events: Dict[str, int] = {}
        #: component -> summed cost cycles.
        self._component_cycles: Dict[str, int] = {}
        #: component -> {log2 bucket -> events} over the cost field.
        self._histograms: Dict[str, Dict[int, int]] = {}
        #: domain id -> (events, cost cycles).
        self._domain_events: Dict[int, int] = {}
        self._domain_cycles: Dict[int, int] = {}
        self.first_cycle: int = -1
        self.last_cycle: int = -1

    # -- sink protocol -----------------------------------------------------

    def on_event(self, name: str, cycle: int, args: tuple) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        if self.first_cycle < 0:
            self.first_cycle = cycle
        self.last_cycle = cycle
        component = bus.component_of(name)
        self._component_events[component] = \
            self._component_events.get(component, 0) + 1
        cost_idx, domain_idx = self._indexes.get(name, (-1, -1))
        if cost_idx >= 0:
            cost = args[cost_idx]
            self._component_cycles[component] = \
                self._component_cycles.get(component, 0) + cost
            bucket = int(cost).bit_length()  # 0 cost -> bucket 0
            hist = self._histograms.setdefault(component, {})
            hist[bucket] = hist.get(bucket, 0) + 1
        if domain_idx >= 0:
            domain = args[domain_idx]
            self._domain_events[domain] = \
                self._domain_events.get(domain, 0) + 1
            if cost_idx >= 0:
                self._domain_cycles[domain] = \
                    self._domain_cycles.get(domain, 0) + args[cost_idx]

    # -- queries -----------------------------------------------------------

    def total_events(self) -> int:
        return sum(self.counters.values())

    def snapshot(self) -> Dict:
        """Plain-dict snapshot; deterministic given a deterministic run."""
        components = {}
        for component in sorted(self._component_events):
            entry = {
                "events": self._component_events[component],
                "cycles": self._component_cycles.get(component, 0),
            }
            hist = self._histograms.get(component)
            if hist:
                # Bucket k covers costs in [2^(k-1), 2^k); rendered as
                # the inclusive upper bound so readers need no legend.
                entry["cost_histogram"] = {
                    f"<{1 << bucket}": count
                    for bucket, count in sorted(hist.items())
                }
            components[component] = entry
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
            "span": [self.first_cycle, self.last_cycle],
            "total_events": self.total_events(),
            "probes": {name: self.counters[name]
                       for name in sorted(self.counters)},
            "components": components,
            "domains": domains,
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"
