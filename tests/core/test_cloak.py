"""Unit and property tests for the cloaking state machine.

These exercise the engine directly (no VMM/guest OS): frames in
physical memory, explicit app-side and system-side accesses, and
assertions about what each world can observe.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cloak import CloakConfig, CloakEngine
from repro.core.crypto import PageCipher
from repro.core.domains import ProtectionDomain
from repro.core.errors import FreshnessViolation, IntegrityViolation
from repro.core.metadata import CloakState, FileMetadataStore, MetadataStore
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.faults import AccessKind
from repro.hw.params import CostTable, PAGE_SIZE
from repro.hw.phys import PhysicalMemory

MASTER = b"test-master"
VPN = 0x80
GPFN = 3


def make_engine(config=None):
    phys = PhysicalMemory(16)
    cycles = CycleAccount()
    stats = StatCounters()
    engine = CloakEngine(
        phys, cycles, stats, CostTable(), MetadataStore(), FileMetadataStore(),
        config or CloakConfig(),
    )
    cipher = PageCipher(MASTER, b"app-image")
    domain = ProtectionDomain(1, "app", cipher, b"hash")
    domain.cloak_range(0, 0x1000)
    engine.register_cipher(cipher)
    return engine, domain, phys, cycles, stats


class TestFreshPages:
    def test_first_touch_zero_fills(self):
        engine, domain, phys, __, stats = make_engine()
        phys.write(GPFN, 0, b"OS GARBAGE")  # kernel seeded the frame
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        assert phys.read_frame(GPFN) == bytes(PAGE_SIZE)
        assert md.state is CloakState.PLAINTEXT_DIRTY
        assert stats.get("cloak.zero_fills") == 1

    def test_fresh_write_is_dirty(self):
        engine, domain, __, __, __ = make_engine()
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        assert md.state is CloakState.PLAINTEXT_DIRTY


class TestEncryptDecryptCycle:
    def _materialise_secret(self, engine, domain, phys, secret=b"SECRET DATA"):
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, secret)  # the app's store
        return engine.store.lookup(domain.domain_id, VPN)

    def test_system_touch_encrypts(self):
        engine, domain, phys, __, stats = make_engine()
        md = self._materialise_secret(engine, domain, phys)
        engine.resolve_system_access(md, GPFN)
        frame = phys.read_frame(GPFN)
        assert b"SECRET DATA" not in frame
        assert md.state is CloakState.ENCRYPTED
        assert md.version == 1
        assert stats.get("cloak.encrypts") == 1

    def test_app_reaccess_decrypts_and_verifies(self):
        engine, domain, phys, __, __ = make_engine()
        md = self._materialise_secret(engine, domain, phys)
        engine.resolve_system_access(md, GPFN)
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        assert phys.read(GPFN, 0, 11) == b"SECRET DATA"
        assert md.state is CloakState.PLAINTEXT_CLEAN

    def test_tampered_ciphertext_detected(self):
        engine, domain, phys, __, __ = make_engine()
        md = self._materialise_secret(engine, domain, phys)
        engine.resolve_system_access(md, GPFN)
        frame = phys.frame(GPFN)
        frame[50] ^= 0xFF  # malicious OS flips a bit
        with pytest.raises(IntegrityViolation):
            engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)

    def test_replay_detected_as_freshness_violation(self):
        engine, domain, phys, __, __ = make_engine()
        md = self._materialise_secret(engine, domain, phys, b"version one")
        engine.resolve_system_access(md, GPFN)
        stale = phys.read_frame(GPFN)  # OS squirrels away old ciphertext
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"version two")
        engine.resolve_system_access(md, GPFN)
        phys.write_frame(GPFN, stale)  # OS rolls the page back
        with pytest.raises(FreshnessViolation) as exc:
            engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        assert exc.value.stale_version == 1

    def test_swap_to_new_frame_verifies(self):
        """OS moves ciphertext to a different frame (paging): legal."""
        engine, domain, phys, __, __ = make_engine()
        md = self._materialise_secret(engine, domain, phys)
        engine.resolve_system_access(md, GPFN)
        ciphertext = phys.read_frame(GPFN)
        new_gpfn = 9
        phys.write_frame(new_gpfn, ciphertext)
        phys.zero_frame(GPFN)
        engine.resolve_app_access(domain, VPN, new_gpfn, AccessKind.READ)
        assert phys.read(new_gpfn, 0, 11) == b"SECRET DATA"
        assert md.resident_gpfn == new_gpfn

    def test_unsealed_relocation_refused(self):
        """Live plaintext the caller did not seal first stays tracked in
        its frame; the engine refuses to materialise the page elsewhere."""
        engine, domain, phys, __, __ = make_engine()
        md = self._materialise_secret(engine, domain, phys)
        with pytest.raises(IntegrityViolation, match="relocated unsealed"):
            engine.resolve_app_access(domain, VPN, 9, AccessKind.READ)
        assert engine.store.plaintext_in_frame(GPFN) is md
        assert md.state is CloakState.PLAINTEXT_DIRTY

    def test_ciphertext_relocated_to_other_vpn_rejected(self):
        """MAC binds the vpn: swapping two pages' ciphertext fails."""
        engine, domain, phys, __, __ = make_engine()
        other_vpn, other_gpfn = VPN + 1, GPFN + 1
        md_a = self._materialise_secret(engine, domain, phys, b"page A")
        md_b = engine.resolve_app_access(domain, other_vpn, other_gpfn,
                                         AccessKind.WRITE)
        phys.write(other_gpfn, 0, b"page B")
        engine.resolve_system_access(md_a, GPFN)
        engine.resolve_system_access(md_b, other_gpfn)
        # Malicious OS swaps the two frames' ciphertext.
        ct_a = phys.read_frame(GPFN)
        phys.write_frame(GPFN, phys.read_frame(other_gpfn))
        phys.write_frame(other_gpfn, ct_a)
        with pytest.raises(IntegrityViolation):
            engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        with pytest.raises(IntegrityViolation):
            engine.resolve_app_access(domain, other_vpn, other_gpfn,
                                      AccessKind.READ)

    def test_repeated_system_access_does_not_reencrypt(self):
        """A second system touch finds ciphertext already: a no-op, so
        the owner still decrypts its own data afterwards."""
        engine, domain, phys, __, stats = make_engine()
        md = self._materialise_secret(engine, domain, phys)
        engine.resolve_system_access(md, GPFN)
        engine.resolve_system_access(md, GPFN)
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        assert phys.read(GPFN, 0, 11) == b"SECRET DATA"
        assert md.version == 1 and stats.get("cloak.encrypts") == 1

    def test_foreign_ciphertext_at_fresh_vpn_discarded(self):
        """Relocating ciphertext to a never-used vpn leaks nothing:
        the fresh-page rule zero-fills before the app can read it."""
        engine, domain, phys, __, __ = make_engine()
        md = self._materialise_secret(engine, domain, phys)
        engine.resolve_system_access(md, GPFN)
        fresh_vpn = VPN + 7
        engine.resolve_app_access(domain, fresh_vpn, GPFN, AccessKind.READ)
        assert phys.read_frame(GPFN) == bytes(PAGE_SIZE)


class TestCleanPageOptimisation:
    def _decrypted_clean(self, engine, domain, phys):
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"data")
        engine.resolve_system_access(md, GPFN)
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        return md

    def test_clean_page_restores_cached_ciphertext(self):
        engine, domain, phys, __, stats = make_engine()
        md = self._decrypted_clean(engine, domain, phys)
        version_before = md.version
        engine.resolve_system_access(md, GPFN)
        assert stats.get("cloak.ct_restores") == 1
        assert md.version == version_before  # no re-encryption
        # And the restored ciphertext still verifies:
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        assert phys.read(GPFN, 0, 4) == b"data"

    def test_write_upgrade_forces_reencrypt(self):
        engine, domain, phys, __, stats = make_engine()
        md = self._decrypted_clean(engine, domain, phys)
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        assert md.state is CloakState.PLAINTEXT_DIRTY
        version_before = md.version
        engine.resolve_system_access(md, GPFN)
        assert md.version == version_before + 1
        assert stats.get("cloak.ct_restores") == 0

    def test_optimisation_disabled(self):
        engine, domain, phys, __, stats = make_engine(
            CloakConfig(clean_page_optimization=False)
        )
        md = self._decrypted_clean(engine, domain, phys)
        engine.resolve_system_access(md, GPFN)
        assert stats.get("cloak.ct_restores") == 0
        assert md.version == 2

    def test_clean_restore_cheaper_than_encrypt(self):
        costs = CostTable()
        engine, domain, phys, cycles, __ = make_engine()
        md = self._decrypted_clean(engine, domain, phys)
        snap = cycles.snapshot()
        engine.resolve_system_access(md, GPFN)
        delta = cycles.since(snap)
        assert delta.total <= costs.ciphertext_restore


class TestIntegrityOnlyMode:
    def test_no_privacy_but_integrity(self):
        engine, domain, phys, __, __ = make_engine(CloakConfig(integrity_only=True))
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"VISIBLE")
        engine.resolve_system_access(md, GPFN)
        assert phys.read(GPFN, 0, 7) == b"VISIBLE"  # kernel sees plaintext
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        assert phys.read(GPFN, 0, 7) == b"VISIBLE"

    def test_tamper_still_detected(self):
        engine, domain, phys, __, __ = make_engine(CloakConfig(integrity_only=True))
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"VISIBLE")
        engine.resolve_system_access(md, GPFN)
        phys.write(GPFN, 0, b"TAMPERD")
        with pytest.raises(IntegrityViolation):
            engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)

    def test_cheaper_than_full_cloaking(self):
        full_cycles = self._roundtrip_cost(CloakConfig())
        mac_cycles = self._roundtrip_cost(CloakConfig(integrity_only=True))
        assert mac_cycles < full_cycles

    @staticmethod
    def _roundtrip_cost(config):
        engine, domain, phys, cycles, __ = make_engine(config)
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"x")
        snap = cycles.snapshot()
        engine.resolve_system_access(md, GPFN)
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
        return cycles.since(snap).get("crypto")


class TestBulkOperations:
    def test_encrypt_all_plaintext(self):
        engine, domain, phys, __, __ = make_engine()
        for i in range(3):
            engine.resolve_app_access(domain, VPN + i, GPFN + i, AccessKind.WRITE)
            phys.write(GPFN + i, 0, b"secret%d" % i)
        assert engine.encrypt_all_plaintext(domain.domain_id) == 3
        for i in range(3):
            assert b"secret" not in phys.read_frame(GPFN + i)

    def test_scrub_domain_zeroes_plaintext(self):
        engine, domain, phys, __, __ = make_engine()
        engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"secret")
        assert engine.scrub_domain(domain.domain_id) == 1
        assert phys.read_frame(GPFN) == bytes(PAGE_SIZE)
        assert engine.store.lookup(domain.domain_id, VPN) is None


class TestFileBinding:
    def test_bind_persists_metadata_on_encrypt(self):
        engine, domain, phys, __, __ = make_engine()
        engine.bind_file_page(domain.domain_id, domain.lineage_id, VPN, file_id=42, page_index=0)
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"file contents")
        engine.resolve_system_access(md, GPFN)
        saved = engine.file_store.load(domain.lineage_id, 42, 0)
        assert saved is not None
        assert saved[0] == md.version

    def test_bind_seeds_from_persistent_metadata(self):
        """Re-opening a cloaked file verifies on-disk ciphertext."""
        engine, domain, phys, __, __ = make_engine()
        engine.bind_file_page(domain.domain_id, domain.lineage_id, VPN, 42, 0)
        md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
        phys.write(GPFN, 0, b"file contents")
        engine.resolve_system_access(md, GPFN)
        ciphertext = phys.read_frame(GPFN)
        saved = engine.file_store.load(domain.lineage_id, 42, 0)

        # Simulate a later process of the same lineage mapping the file
        # at a different vaddr is NOT allowed (vpn-bound); same vaddr is.
        engine.store.remove(domain.domain_id, VPN)
        md2 = engine.bind_file_page(domain.domain_id, domain.lineage_id, VPN, 42, 0)
        assert md2.state is CloakState.ENCRYPTED
        assert (md2.version, md2.iv, md2.mac) == saved
        new_frame = 11
        phys.write_frame(new_frame, ciphertext)
        engine.resolve_app_access(domain, VPN, new_frame, AccessKind.READ)
        assert phys.read(new_frame, 0, 13) == b"file contents"


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.sampled_from(["app_r", "app_w", "sys"]), min_size=1, max_size=30))
def test_kernel_never_sees_plaintext_property(ops):
    """Safety invariant: after ANY interleaving of accesses, if the
    last transition made the frame system-visible, the secret bytes are
    not in the frame."""
    engine, domain, phys, __, __ = make_engine()
    secret = b"TOP-SECRET-BYTES"
    app_visible = False
    written = False
    md = None
    for op in ops:
        if op == "app_r":
            md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
            app_visible = True
        elif op == "app_w":
            md = engine.resolve_app_access(domain, VPN, GPFN, AccessKind.WRITE)
            phys.write(GPFN, 0, secret)
            app_visible = written = True
        else:
            if md is not None:
                engine.resolve_system_access(md, GPFN)
                app_visible = False
    if not app_visible and md is not None:
        assert secret not in phys.read_frame(GPFN)
    # And the application can always get its data back afterwards:
    engine.resolve_app_access(domain, VPN, GPFN, AccessKind.READ)
    if written:
        assert phys.read(GPFN, 0, len(secret)) == secret
