"""Layers of the simulator, the counters read at their boundaries, and
the roll-up of a cProfile run into per-layer self time.

Every module under ``src/repro`` belongs to one layer through
:data:`MODULE_LAYERS`; a module no entry covers lands in
``repro.other``, which a traced run requires to stay at zero.  Code
outside ``src/repro`` is not a layer of its own: standard-library and
builtin functions are charged to the layers that called them, in
proportion to the time each caller spent in them, so ``copy.deepcopy``
under a snapshot capture counts as ``hw.snapshot``.  Only the
benchmark's own files (and what nothing in the simulator called) are
``harness``.
"""

import gc
import os
import time
from contextlib import ExitStack
from typing import Callable, Dict, Optional, Tuple

#: Dotted module prefix -> layer.  The longest matching prefix wins.
MODULE_LAYERS = {
    "repro.__init__": "machine",
    "repro.machine": "machine",
    "repro.hw": "hw.other",
    "repro.hw.mmu": "hw.mmu",
    "repro.hw.tlb": "hw.mmu",
    "repro.hw.pagetable": "hw.mmu",
    "repro.hw.phys": "hw.phys",
    "repro.hw.snapshot": "hw.snapshot",
    "repro.core": "core.vmm",
    "repro.core.cloak": "core.cloak",
    "repro.core.crypto": "core.crypto",
    "repro.core.shim": "core.shim",
    "repro.guestos": "guestos",
    "repro.apps": "apps",
    "repro.obs": "obs",
    "repro.trace": "obs",
    "repro.faults": "faults",
    "repro.gen": "gen",
    "repro.serve": "serve",
    "repro.__main__": "bench",
    "repro.bench": "bench",
    "repro.attacks": "attacks",
    "repro.analysis": "analysis",
}

UNMAPPED = "repro.other"
HARNESS = "harness"

LAYERS = (
    "machine", "hw.mmu", "hw.phys", "hw.snapshot", "hw.other", "core.vmm",
    "core.cloak", "core.crypto", "core.shim", "guestos", "apps", "obs",
    "faults", "gen", "serve", "bench", "attacks", "analysis", HARNESS,
    UNMAPPED,
)

#: Deterministic counts, read at layer boundaries.  Profiling must not
#: move any of them: the traced run checks them against an untraced one.
COUNTS = (
    "machine.guest_ops", "machine.sim_mcycles", "machine.boots",
    "hw.snapshot.captures", "hw.snapshot.restores", "hw.mmu.tlb_hit_ratio",
    "core.vmm.world_switches", "core.vmm.shadow_fills", "core.vmm.hypercalls",
    "core.cloak.page_encrypts", "core.cloak.page_decrypts",
    "core.crypto.channel_seals", "guestos.syscalls", "guestos.page_faults",
    "faults.oracle_runs", "gen.programs", "serve.requests",
)

#: Count name -> the machine.stats counters summed into it.
STAT_COUNTS = {
    "core.vmm.world_switches": ("vmm.cloaked_entries", "vmm.cloaked_exits"),
    "core.vmm.shadow_fills": ("shadow.fills",),
    "core.vmm.hypercalls": ("vmm.hypercalls",),
    "core.cloak.page_encrypts": ("cloak.encrypts",),
    "core.cloak.page_decrypts": ("cloak.decrypts",),
    "core.crypto.channel_seals": ("vmm.channel_seals",),
    "guestos.syscalls": ("kernel.syscalls",),
    "guestos.page_faults": ("kernel.page_faults",),
}

#: Rounds of the caller-share fixed point; recursion (deepcopy, pickle)
#: converges geometrically, far inside this.
_SHARE_ROUNDS = 200


def module_layer(module: str) -> str:
    """Layer of a dotted module name (``repro.hw.tlb`` -> ``hw.mmu``)."""
    best = None
    for prefix in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return MODULE_LAYERS[best] if best is not None else UNMAPPED


def file_classifier(src_dir: str, perf_dir: str) -> Callable[[str],
                                                              Optional[str]]:
    """``filename -> layer``; None for code charged to its callers."""
    repro_dir = os.path.join(os.path.abspath(src_dir), "repro") + os.sep
    perf_dir = os.path.abspath(perf_dir) + os.sep
    cache: Dict[str, Optional[str]] = {}

    def classify(filename: str) -> Optional[str]:
        if filename not in cache:
            path = os.path.abspath(filename) if filename[:1] not in "<~" \
                else filename
            if path.startswith(repro_dir):
                rel = os.path.relpath(path, os.path.dirname(repro_dir[:-1]))
                module = os.path.splitext(rel)[0].replace(os.sep, ".")
                cache[filename] = module_layer(module)
            elif path.startswith(perf_dir):
                cache[filename] = HARNESS
            else:
                cache[filename] = None
        return cache[filename]

    return classify


# ----------------------------------------------------------------------
# profile roll-up
# ----------------------------------------------------------------------

def rollup(stats: Dict, classify: Callable[[str], Optional[str]]
           ) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping caller keys to ``(cc, nc, tt,
    ct)``.  A function ``classify`` places in no layer (builtins,
    standard library) is charged to its callers, split by the
    cumulative time each spent in it; a caller that is itself
    unplaced passes its own split on.  A function nobody called is
    ``harness``.
    """
    own = {func: classify(func[0]) for func in stats}
    share: Dict[Tuple, Dict[str, float]] = {
        func: {HARNESS: 1.0} for func, layer in own.items() if layer is None}

    def split_of(func) -> Dict[str, float]:
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        return share.get(func, {HARNESS: 1.0})

    for _ in range(_SHARE_ROUNDS):
        moved = 0.0
        for func in share:
            callers = stats[func][4]
            weights = {c: (v[3] or v[1]) for c, v in callers.items()}
            total = sum(weights.values())
            if not total:
                continue
            new: Dict[str, float] = {}
            for caller, weight in weights.items():
                for layer, part in split_of(caller).items():
                    new[layer] = new.get(layer, 0.0) + part * weight / total
            old = share[func]
            moved = max(moved, max(abs(new.get(k, 0.0) - old.get(k, 0.0))
                                   for k in set(new) | set(old)))
            share[func] = new
        if moved < 1e-12:
            break

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, entry in stats.items():
        for layer, part in split_of(func).items():
            totals[layer] += entry[2] * part
    return totals


# ----------------------------------------------------------------------
# boundary counters
# ----------------------------------------------------------------------

def patch(stack: ExitStack, owner, name: str, make: Callable) -> None:
    """Replace ``owner.name`` with ``make(original)`` until ``stack``
    closes."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    stack.callback(setattr, owner, name, original)


class Counters:
    """Deterministic counts read at layer boundaries, plus GC pauses.

    Install with :meth:`install`; the wrappers count calls into the
    machine loop, boots, snapshot capture/restore, oracle runs,
    generated programs and served requests, whichever path reached
    them.  GC pauses come from ``gc.callbacks`` and are timed on the
    host clock, so they are kept apart from the deterministic counts.
    """

    def __init__(self) -> None:
        self.calls = dict.fromkeys(
            ("boots", "captures", "restores", "oracle_runs", "programs"), 0)
        self.ops = 0
        self.cycles = 0
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.requests = 0
        self.stats: Dict[str, int] = {}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def install(self, stack: ExitStack, with_gc: bool) -> None:
        from repro.faults import oracle
        from repro.gen import generator
        from repro.hw import snapshot
        from repro.machine import Machine
        from repro.serve import loadgen

        patch(stack, Machine, "run", self._wrap_run)
        for owner, name, key in ((Machine, "__init__", "boots"),
                                 (snapshot.SnapshotState, "__init__",
                                  "captures"),
                                 (snapshot.SnapshotState, "restore",
                                  "restores"),
                                 (oracle.RunRecord, "__init__",
                                  "oracle_runs"),
                                 (generator.OpPlan, "__init__", "programs")):
            patch(stack, owner, name, self._counting(key))
        patch(stack, loadgen, "harvest", self._wrap_harvest)
        if with_gc:
            gc.callbacks.append(self._on_gc)
            stack.callback(gc.callbacks.remove, self._on_gc)

    def _counting(self, key: str) -> Callable:
        calls = self.calls

        def make(original):
            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _wrap_run(self, original):
        def run(machine, *args, **kwargs):
            stats0 = machine.stats.snapshot()
            tlb = machine.tlb
            hits0, misses0 = tlb.hits, tlb.misses
            cycles0 = machine.cycles.total
            try:
                ops = original(machine, *args, **kwargs)
                self.ops += ops
                return ops
            finally:
                self.cycles += machine.cycles.total - cycles0
                self.tlb_hits += tlb.hits - hits0
                self.tlb_misses += tlb.misses - misses0
                for name, delta in machine.stats.since(stats0).items():
                    self.stats[name] = self.stats.get(name, 0) + delta
        return run

    def _wrap_harvest(self, original):
        def harvest(spec, rows, *args, **kwargs):
            self.requests += len(rows)
            return original(spec, rows, *args, **kwargs)
        return harvest

    def _on_gc(self, phase: str, _info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def counts(self) -> Dict[str, float]:
        lookups = self.tlb_hits + self.tlb_misses
        values = {
            "machine.guest_ops": self.ops,
            "machine.sim_mcycles": self.cycles / 1e6,
            "machine.boots": self.calls["boots"],
            "hw.snapshot.captures": self.calls["captures"],
            "hw.snapshot.restores": self.calls["restores"],
            "hw.mmu.tlb_hit_ratio": self.tlb_hits / lookups if lookups else 0.0,
            "faults.oracle_runs": self.calls["oracle_runs"],
            "gen.programs": self.calls["programs"],
            "serve.requests": self.requests,
        }
        for name, sources in STAT_COUNTS.items():
            values[name] = sum(self.stats.get(s, 0) for s in sources)
        return {name: values[name] for name in COUNTS}
