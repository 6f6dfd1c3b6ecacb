"""R-T1: the cloaking state-transition cost matrix.

Reproduces the paper's per-transition accounting for its page-state
diagram: what each kind of context/state mismatch costs, in virtual
cycles.  These are the primitive costs every macro result decomposes
into.

The scenario catalog (:func:`scenarios`) is shared with the
probe-based decomposition experiment (:mod:`repro.bench.exp_decomp`),
which re-derives this table from probe-bus events alone and asserts
the two agree.
"""

from dataclasses import replace
from typing import Callable, Dict

from repro.bench.tables import Table
from repro.core.cloak import CloakConfig, CloakEngine
from repro.core.crypto import PageCipher
from repro.core.domains import ProtectionDomain
from repro.core.metadata import FileMetadataStore, MetadataStore
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.faults import AccessKind
from repro.hw.params import CostTable
from repro.hw.phys import PhysicalMemory

VPN = 0x100
GPFN = 2


def _engine():
    phys = PhysicalMemory(8)
    cycles = CycleAccount()
    engine = CloakEngine(phys, cycles, StatCounters(), CostTable(),
                         MetadataStore(), FileMetadataStore(), CloakConfig())
    cipher = PageCipher(b"bench-master", b"bench-app")
    domain = ProtectionDomain(1, "bench", cipher, b"img")
    domain.cloak_range(0, 0x1000)
    engine.register_cipher(cipher)
    return engine, domain, phys, cycles


def _measure(fn) -> int:
    engine, domain, phys, cycles = _engine()
    prepared = fn(engine, domain, phys)  # returns the measured thunk
    snap = cycles.snapshot()
    prepared()
    return cycles.since(snap).total


def scenarios() -> Dict[str, Callable]:
    """transition name -> prep function.

    Each prep function takes ``(engine, domain, phys)``, drives the
    page into the desired pre-state, and returns the zero-argument
    thunk whose cost *is* the transition.
    """

    def first_touch(engine, domain, phys):
        return lambda: engine.resolve_app_access(domain, VPN, GPFN,
                                                 AccessKind.READ)

    def in_place_write(engine, domain, phys):
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        return lambda: engine.resolve_app_access(domain, VPN, GPFN,
                                                 AccessKind.WRITE)

    def encrypt_dirty(engine, domain, phys):
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"data")
        return lambda: engine.resolve_system_access(md, GPFN)

    def restore_clean(engine, domain, phys):
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"data")
        engine.resolve_system_access(md, GPFN)
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        return lambda: engine.resolve_system_access(md, GPFN)

    def reencrypt_clean_noopt(engine, domain, phys):
        engine.config = replace(engine.config, clean_page_optimization=False)
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"data")
        engine.resolve_system_access(md, GPFN)
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        return lambda: engine.resolve_system_access(md, GPFN)

    def decrypt_verify(engine, domain, phys):
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"data")
        engine.resolve_system_access(md, GPFN)
        return lambda: engine.resolve_app_access(domain, VPN, GPFN,
                                                 AccessKind.READ)

    return {
        "app first touch (zero-fill)": first_touch,
        "app write, already plaintext (no-op)": in_place_write,
        "app access, encrypted (verify+decrypt)": decrypt_verify,
        "system touch, dirty plaintext (encrypt+MAC)": encrypt_dirty,
        "system touch, clean plaintext (ciphertext restore)": restore_clean,
        "system touch, clean plaintext w/o optimisation": reencrypt_clean_noopt,
    }


def run(verbose: bool = True) -> Dict[str, int]:
    """Measure each transition; returns {transition: cycles}."""
    results = {name: _measure(fn) for name, fn in scenarios().items()}

    if verbose:
        table = Table("R-T1: cloaking transition costs (virtual cycles/page)",
                      ["transition", "cycles"])
        for name, cycles in results.items():
            table.add_row(name, cycles)
        table.show()
    return results


if __name__ == "__main__":
    run()
