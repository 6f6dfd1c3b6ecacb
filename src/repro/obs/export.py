"""Trace exporters: deterministic JSONL and Chrome trace-event JSON.

Two formats over the same recorded event stream:

* **JSONL** — one JSON object per line, fields named per the probe
  catalog.  The canonical machine-diffable form: two identical runs
  produce byte-identical files.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` format
  Perfetto and ``chrome://tracing`` load.  Virtual cycles are the
  clock (``ts``/``dur`` are cycle counts, not microseconds).  Probes
  carrying a ``cost`` field become complete ("X") slices spanning the
  cycles their transition charged; everything else becomes an instant
  ("i") event.  Each component renders as its own named thread row.

:func:`validate_chrome_trace` is the schema check CI runs against the
emitted file; keeping it next to the writer keeps the two honest.
"""

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.obs import bus

#: One synthetic process, one thread row per component, in fixed order
#: so the exported file is stable.
_PID = 1
_THREAD_ORDER = ("vmm", "cloak", "shim", "mmu", "tlb", "disk", "swap",
                 "sched", "fault")

Event = Tuple[str, int, tuple]  # (probe name, cycle, args)


class TraceRecorder:
    """Probe-bus sink that records the raw event stream."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def bind(self, name: str, clock: Callable[[], int]) -> Callable:
        append = self.events.append

        def record(*args) -> None:
            append((name, clock(), args))

        return record

    def __len__(self) -> int:
        return len(self.events)


def _fields_of(name: str, args: tuple) -> Dict[str, object]:
    fields = bus.PROBES.get(name, ())
    return {field: value for field, value in zip(fields, args)}


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def to_jsonl(events: List[Event]) -> str:
    """One line per event: {"name": ..., "cycle": ..., <fields>}."""
    lines = []
    for name, cycle, args in events:
        record = {"name": name, "cycle": cycle}
        record.update(_fields_of(name, args))
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(events: List[Event], path) -> Path:
    out = Path(path)
    out.write_text(to_jsonl(events), encoding="utf-8")
    return out


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto)
# ----------------------------------------------------------------------

def _tid_of(component: str) -> int:
    try:
        return _THREAD_ORDER.index(component) + 1
    except ValueError:
        return len(_THREAD_ORDER) + 1


def to_chrome_trace(events: List[Event]) -> Dict:
    """The ``{"traceEvents": [...]}`` dict Perfetto loads."""
    trace: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "overshadow-vm (virtual cycles)"},
    }]
    seen_components = sorted({bus.component_of(name)
                              for name, __, __a in events})
    for component in seen_components:
        trace.append({
            "name": "thread_name", "ph": "M", "pid": _PID,
            "tid": _tid_of(component), "args": {"name": component},
        })
    for name, cycle, args in events:
        fields = _fields_of(name, args)
        component = bus.component_of(name)
        cost = fields.get("cost")
        if isinstance(cost, int) and cost > 0:
            # The probe fires after its cycles are charged: the slice
            # ends at the probe's timestamp.
            trace.append({
                "name": name, "ph": "X", "pid": _PID,
                "tid": _tid_of(component),
                "ts": max(0, cycle - cost), "dur": cost, "args": fields,
            })
        else:
            trace.append({
                "name": name, "ph": "i", "s": "t", "pid": _PID,
                "tid": _tid_of(component), "ts": cycle, "args": fields,
            })
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "virtual-cycles",
                      "source": "repro.obs (Overshadow reproduction)"},
    }


def write_chrome_trace(events: List[Event], path) -> Path:
    out = Path(path)
    out.write_text(
        json.dumps(to_chrome_trace(events), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return out


def validate_chrome_trace(obj) -> List[str]:
    """Schema-check a loaded trace; returns problems (empty = valid).

    Checks exactly what the importers require: the traceEvents array,
    per-event name/ph/pid/tid, non-negative integer ts/dur, instant
    events' scope, and that every non-metadata name is a known probe.
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return ["top level is not a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        ph = event.get("ph")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing name")
            continue
        if ph not in ("X", "i", "M"):
            problems.append(f"{where} ({name}): unsupported phase {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where} ({name}): missing int {field}")
        if ph == "M":
            if name not in ("process_name", "thread_name"):
                problems.append(f"{where}: unknown metadata {name!r}")
            continue
        if name not in bus.PROBES:
            problems.append(f"{where}: {name!r} is not a catalogued probe")
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"{where} ({name}): bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur <= 0:
                problems.append(f"{where} ({name}): bad dur {dur!r}")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where} ({name}): instant scope missing")
    return problems
