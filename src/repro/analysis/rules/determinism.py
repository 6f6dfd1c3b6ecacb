"""DET001: no wall-clock time, no ambient entropy.

Every performance number in this reproduction is a virtual-cycle count
(:mod:`repro.hw.cycles`), and every "random" input is produced by a
seeded PRF or a seeded ``random.Random`` instance, so any run is
byte-identical to any other.  One stray ``time.time()`` or module-level
``random.randrange()`` makes benchmarks host-dependent and breaks the
paper-style comparisons; this rule bans the whole class.

Allowed: ``random.Random(seed)`` with an explicit seed argument.
Banned: wall-clock reads, ``os.urandom``/``secrets``/``uuid4``, every
call on the module-level ``random`` singleton (including ``seed`` —
global PRNG state is execution-order-dependent even when seeded), and
unseeded ``random.Random()`` / ``random.SystemRandom``.
"""

import ast

from repro.analysis.engine import ModuleInfo
from repro.analysis.rules.base import Rule, import_aliases, resolve_call_path

#: Calls that read the host clock or ambient entropy.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "host-clock read",
    "time.monotonic_ns": "host-clock read",
    "time.perf_counter": "host-clock read",
    "time.perf_counter_ns": "host-clock read",
    "time.process_time": "host-clock read",
    "time.process_time_ns": "host-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "ambient entropy",
    "os.getrandom": "ambient entropy",
    "uuid.uuid1": "host-dependent identifier",
    "uuid.uuid4": "ambient entropy",
    "secrets.token_bytes": "ambient entropy",
    "secrets.token_hex": "ambient entropy",
    "secrets.token_urlsafe": "ambient entropy",
    "secrets.randbits": "ambient entropy",
    "secrets.choice": "ambient entropy",
    "random.SystemRandom": "ambient entropy",
}

#: Methods of the module-level ``random`` singleton: shared global
#: state, hence execution-order-dependent even if seeded somewhere.
GLOBAL_RANDOM_FUNCS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}


class DeterminismRule(Rule):
    rule_id = "DET001"
    name = "determinism"
    summary = ("no wall-clock/entropy sources; randomness must flow "
               "through an explicitly seeded random.Random")

    def check(self, mod: ModuleInfo):
        aliases = import_aliases(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            path = resolve_call_path(node.func, aliases)
            if path is None:
                continue
            why = BANNED_CALLS.get(path)
            if why is not None:
                yield self.finding(
                    mod, node,
                    f"'{path}' is nondeterministic ({why}); use virtual "
                    "cycles (repro.hw.cycles) or a seeded PRF instead",
                )
                continue
            if path == "random.Random" and not (node.args or node.keywords):
                yield self.finding(
                    mod, node,
                    "'random.Random()' without a seed draws from OS "
                    "entropy; pass an explicit seed",
                )
            elif (path.startswith("random.")
                    and path.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS):
                yield self.finding(
                    mod, node,
                    f"'{path}' uses the shared module-level PRNG; use a "
                    "per-caller seeded random.Random(seed) instance",
                )
