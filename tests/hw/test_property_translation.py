"""Seeded property tests: translation hardware vs reference models.

Hand-rolled property-based testing (stdlib only): each case drives the
real component and a trivially-correct Python model with the same
randomly generated operation sequence and demands agreement after
every step.  Sequences are generated from ``random.Random(seed)`` over
a fixed seed range, so failures are deterministic; every assertion
message carries the seed and operation index needed to replay the
exact sequence.
"""

import random

from repro.core.errors import StaleTranslationViolation
from repro.faults.injector import FaultyTLB
from repro.faults.plan import SITE_TLB_FLUSH_LOST, FaultArm, FaultPlan
from repro.hw.faults import AccessKind
from repro.hw.pagetable import PageTableWalker
from repro.hw.phys import PhysicalMemory
from repro.hw.tlb import SoftwareTLB, TLBEntry

SEEDS = range(20)
OPS_PER_SEED = 250


# ----------------------------------------------------------------------
# page tables vs a dict model
# ----------------------------------------------------------------------

class _PageTableModel:
    """Reference semantics: vpn -> [pfn, writable, user, accessed, dirty]."""

    def __init__(self):
        self.pages = {}

    def map(self, vpn, pfn, writable, user):
        # A fresh leaf is written whole: A/D restart clear.
        self.pages[vpn] = [pfn, writable, user, False, False]

    def unmap(self, vpn):
        return self.pages.pop(vpn, None) is not None

    def walk(self, vpn, access):
        leaf = self.pages.get(vpn)
        if leaf is None:
            return None
        # Any access sets A; a write sets D only on a writable leaf.
        leaf[3] = leaf[3] or access is not None
        leaf[4] = leaf[4] or (access is AccessKind.WRITE and leaf[1])
        return tuple(leaf)


def _pagetable_case(seed: int) -> None:
    rng = random.Random(seed)
    phys = PhysicalMemory(24)
    walker = PageTableWalker(phys)
    root = 0
    phys.zero_frame(root)
    next_table = iter(range(1, 8))
    # A vpn pool spanning several directory slots, so second-level
    # tables are allocated mid-sequence.
    vpns = [l1 << 10 | l2 for l1 in (0, 1, 3) for l2 in (0, 1, 5, 1023)]
    model = _PageTableModel()

    for i in range(OPS_PER_SEED):
        vpn = rng.choice(vpns)
        op = rng.choice(("map", "unmap", "walk", "walk"))
        where = f"seed={seed} op#{i} {op} vpn={vpn:#x}"
        if op == "map":
            pfn, writable, user = (rng.randrange(8, 16),
                                   rng.random() < 0.5, rng.random() < 0.5)
            walker.map(root, vpn, pfn, writable, user,
                       alloc_table=lambda: next(next_table))
            model.map(vpn, pfn, writable, user)
        elif op == "unmap":
            real = walker.unmap(root, vpn)
            expected = model.unmap(vpn)
            assert (real is not None) == expected, where
        else:
            access = rng.choice((None, AccessKind.READ, AccessKind.WRITE))
            leaf = walker.walk(root, vpn, access)
            expected = model.walk(vpn, access)
            if expected is None:
                assert leaf is None, where
            else:
                assert leaf is not None, where
                got = (leaf.pfn, leaf.writable, leaf.user, leaf.accessed,
                       leaf.dirty)
                assert got == expected, f"{where}: {got} != {expected}"

    # Final sweep: every mapping (and non-mapping) agrees, and the A/D
    # bits persisted in simulated physical memory, not Python state.
    for vpn in vpns:
        leaf = walker.walk(root, vpn)
        expected = model.walk(vpn, None)
        if expected is None:
            assert leaf is None, f"seed={seed} final vpn={vpn:#x}"
        else:
            got = (leaf.pfn, leaf.writable, leaf.user, leaf.accessed,
                   leaf.dirty)
            assert got == expected, \
                f"seed={seed} final vpn={vpn:#x}: {got} != {expected}"


def test_pagetable_matches_model_across_seeds():
    for seed in SEEDS:
        _pagetable_case(seed)


# ----------------------------------------------------------------------
# TLB vs an LRU model
# ----------------------------------------------------------------------

class _TLBModel:
    """Reference LRU semantics over (asid, view, vpn), dict-ordered.

    ``lost`` models :class:`FaultyTLB`: a lost invalidation leaves its
    victims resident but marked, and the next lookup that hits a
    marked entry counts the hit, drops the entry and raises.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # key -> pfn; dict order is recency order
        self.lost = set()
        self.hits = 0
        self.misses = 0

    def _touch(self, key):
        self.entries[key] = self.entries.pop(key)

    def lookup(self, key):
        """(pfn or None, whether the lookup raised a stale violation)."""
        if key not in self.entries:
            self.misses += 1
            return None, False
        self._touch(key)
        self.hits += 1
        if key in self.lost:
            self.lost.discard(key)
            del self.entries[key]
            return None, True
        return self.entries[key], False

    def insert(self, key, pfn):
        self.lost.discard(key)
        if key in self.entries:
            self._touch(key)
        elif len(self.entries) >= self.capacity:
            del self.entries[next(iter(self.entries))]
        self.entries[key] = pfn

    def invalidate(self, match, lost=False):
        victims = [k for k in self.entries if match(k)]
        if lost:
            self.lost.update(victims)
        else:
            for k in victims:
                del self.entries[k]
        return len(victims)


def _vpn_index(tlb):
    """The vpn index a TLB holding exactly its resident keys must have."""
    index = {}
    for key, __ in tlb.entries():
        index.setdefault(key[2], set()).add(key)
    return index


def _tlb_case(seed: int, faulty: bool = False) -> None:
    rng = random.Random(seed)
    capacity = rng.choice((2, 4, 7))
    if faulty:
        plan = FaultPlan(seed, [FaultArm(SITE_TLB_FLUSH_LOST,
                                         probability=0.5)])
        tlb = FaultyTLB(capacity, plan)
    else:
        plan = None
        tlb = SoftwareTLB(capacity)
    model = _TLBModel(capacity)
    asids, views, vpns = (1, 2), (0, 7), (0x10, 0x11, 0x12, 0x20)

    def fired(invalidate):
        """Run one invalidation; returns (result, whether it was lost)."""
        before = len(plan.log) if plan is not None else 0
        result = invalidate()
        return result, plan is not None and len(plan.log) > before

    for i in range(OPS_PER_SEED):
        key = (rng.choice(asids), rng.choice(views), rng.choice(vpns))
        op = rng.choice(("insert", "lookup", "lookup", "inv_page",
                         "inv_asid", "flush"))
        where = (f"seed={seed} faulty={faulty} cap={capacity} op#{i} "
                 f"{op} key={key}")
        asid, view, vpn = key
        if op == "insert":
            pfn = rng.randrange(64)
            tlb.insert(asid, view, TLBEntry(vpn, pfn, True, True))
            model.insert(key, pfn)
        elif op == "lookup":
            try:
                entry = tlb.lookup(asid, view, vpn)
                stale = False
            except StaleTranslationViolation:
                entry, stale = None, True
            expected, expected_stale = model.lookup(key)
            got = entry.pfn if entry is not None else None
            assert (got, stale) == (expected, expected_stale), \
                f"{where}: {(got, stale)} != {(expected, expected_stale)}"
        elif op == "inv_page":
            scoped = rng.random() < 0.5
            real, lost = fired(lambda: tlb.invalidate_page(
                vpn, asid=asid if scoped else None))
            expected = model.invalidate(
                lambda k: k[2] == vpn and (not scoped or k[0] == asid),
                lost)
            assert real == expected, f"{where}: {real} != {expected}"
        elif op == "inv_asid":
            real, lost = fired(lambda: tlb.invalidate_asid(asid))
            assert real == model.invalidate(lambda k: k[0] == asid,
                                            lost), where
        else:
            __, lost = fired(tlb.flush)
            model.invalidate(lambda k: True, lost)

        # Full LRU order, the vpn index and the counters agree after
        # every step.
        assert [k for k, __ in tlb.entries()] == list(model.entries), where
        assert tlb._by_vpn == _vpn_index(tlb), where
        assert (tlb.hits, tlb.misses) == (model.hits, model.misses), where


def test_tlb_matches_lru_model_across_seeds():
    for seed in SEEDS:
        _tlb_case(seed)


def test_faulty_tlb_matches_lru_model_across_seeds():
    """Lost invalidations and the stale lookups that audit them keep
    the LRU order and the vpn index exact."""
    for seed in SEEDS:
        _tlb_case(seed, faulty=True)
