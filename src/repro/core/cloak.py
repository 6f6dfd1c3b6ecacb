"""The memory-cloaking engine: Overshadow's central mechanism.

A cloaked page is in exactly one protocol state (see
:class:`repro.core.metadata.CloakState`).  Accesses whose context does
not match the state trigger a *cloaking transition*, performed here:

* owner application touches ENCRYPTED  -> verify MAC, decrypt in place
* owner application touches FRESH      -> zero-fill
* owner write to PLAINTEXT_CLEAN       -> upgrade to DIRTY (drop cache)
* system world touches PLAINTEXT_DIRTY -> bump version, encrypt + MAC
* system world touches PLAINTEXT_CLEAN -> restore cached ciphertext
  (the clean-page optimisation: unmodified pages need no new crypto)

All transitions are invisible to the guest except as time; the guest
kernel keeps managing memory with ordinary page tables throughout.

The engine also implements the *integrity-only* ablation (R-A2): MACs
without encryption, isolating the cipher's share of cloaking cost.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.crypto import PageCipher
from repro.core.domains import ProtectionDomain
from repro.core.errors import FreshnessViolation, IntegrityViolation
from repro.core.metadata import CloakState, FileMetadataStore, MetadataStore, PageMetadata
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.faults import AccessKind
from repro.hw.params import CostTable
from repro.hw.phys import PhysicalMemory
from repro.obs import bus


@dataclass(frozen=True)
class CloakConfig:
    """Tunable protocol options, exposed for the ablation benchmarks."""

    #: Reuse cached ciphertext when the system touches an unmodified
    #: plaintext page (paper's optimisation; R-A1 context).
    clean_page_optimization: bool = True
    #: MAC-only mode: integrity without privacy (ablation R-A2).
    integrity_only: bool = False


class CloakEngine:
    """Executes cloaking state transitions over physical frames."""

    def __init__(
        self,
        phys: PhysicalMemory,
        cycles: CycleAccount,
        stats: StatCounters,
        costs: CostTable,
        store: MetadataStore,
        file_store: FileMetadataStore,
        config: Optional[CloakConfig] = None,
    ):
        self._phys = phys
        self._cycles = cycles
        self._stats = stats
        self._costs = costs
        self.store = store
        self.file_store = file_store
        self.config = config or CloakConfig()
        self._ciphers: Dict[int, PageCipher] = {}
        #: Fault-injection hooks (repro.faults); None in normal runs.
        #: The hooks only damage protocol metadata — the engine's own
        #: checks must convert any such damage into typed violations.
        self.faults = None

    # -- wiring ---------------------------------------------------------------

    def register_cipher(self, cipher: PageCipher) -> None:
        self._ciphers[cipher.lineage_id] = cipher

    def cipher_for(self, lineage_id: int) -> PageCipher:
        try:
            return self._ciphers[lineage_id]
        except KeyError:
            raise KeyError(f"no cipher registered for lineage {lineage_id}")

    # -- application-side transitions ----------------------------------------

    # The returned PageMetadata is the store's own record, shared with
    # the VMM fill path on purpose: transitions made here (decrypt,
    # dirty-upgrade) must be visible to every holder immediately.
    def resolve_app_access(
        self,
        domain: ProtectionDomain,
        vpn: int,
        gpfn: int,
        access: AccessKind,
    ) -> PageMetadata:
        """Make ``gpfn`` hold plaintext for the owning domain.

        Called by the VMM's shadow fill when the owner touches a
        cloaked page.  Raises on integrity/freshness failure.
        """
        md = self.store.get_or_create(domain.domain_id, vpn, domain.lineage_id)
        if md.state in (CloakState.PLAINTEXT_CLEAN, CloakState.PLAINTEXT_DIRTY):
            if md.resident_gpfn != gpfn:
                # Plaintext is live in a *different* frame: the OS
                # remapped the page underneath the application.  The
                # caller seals the old frame first (the VMM's shadow
                # fill does), so the new frame must then verify as
                # ciphertext; materialising here instead would leave
                # the old frame's plaintext untracked.
                self._stats.bump("cloak.violations")
                raise IntegrityViolation(
                    domain.domain_id, vpn, "live plaintext relocated unsealed"
                )
            if access.is_write and md.state is CloakState.PLAINTEXT_CLEAN:
                self._upgrade_to_dirty(md)
            return md

        # The page is not plaintext anywhere: materialise it in gpfn.
        if not md.has_ciphertext_record:
            self._zero_fill(md, gpfn)
        else:
            self._verify_and_decrypt(domain, md, gpfn)
        if access.is_write:
            self._upgrade_to_dirty(md)
        return md

    def _zero_fill(self, md: PageMetadata, gpfn: int) -> None:
        """First touch of a fresh cloaked page: discard whatever the OS
        left in the frame and hand the application zeros."""
        md.transition(CloakState.PLAINTEXT_DIRTY)
        self._phys.zero_frame(gpfn)
        self._cycles.charge("vmm", self._costs.zero_fill)
        md.cached_ciphertext = None
        self.store.note_plaintext(md, gpfn)
        self._stats.bump("cloak.zero_fills")
        bus.cloak_zero_fill(md.owner_id, md.vpn, gpfn, self._costs.zero_fill)

    def _verify_and_decrypt(
        self, domain: ProtectionDomain, md: PageMetadata, gpfn: int
    ) -> None:
        cipher = domain.cipher
        contents = self._phys.read_frame(gpfn)
        self._cycles.charge("crypto", self._costs.page_hash)
        if not cipher.verify_page(md.mac_binding, md.version, md.iv, md.mac,
                                  contents):
            stale = md.matches_stale_version(cipher, contents)
            self._stats.bump("cloak.violations")
            if stale is not None:
                raise FreshnessViolation(domain.domain_id, md.vpn, stale)
            raise IntegrityViolation(domain.domain_id, md.vpn)
        md.transition(CloakState.PLAINTEXT_CLEAN)
        if not self.config.integrity_only:
            plaintext = cipher.decrypt_page(md.iv, contents)
            # Decrypt-in-place is the cloaking transition itself: this
            # frame is exposed only through the owner's shadow view
            # after this point (resolve_app_access callers invalidate
            # every other mapping), so the plaintext never becomes
            # guest-kernel-visible.
            self._phys.write_frame(gpfn, plaintext)
            self._cycles.charge("crypto", self._costs.page_decrypt)
        if self.config.clean_page_optimization:
            md.cached_ciphertext = contents
        self.store.note_plaintext(md, gpfn)
        self._stats.bump("cloak.decrypts")
        if bus.ACTIVE:
            cost = self._costs.page_hash
            if not self.config.integrity_only:
                cost += self._costs.page_decrypt
            bus.cloak_decrypt(md.owner_id, md.vpn, gpfn, cost)

    def _upgrade_to_dirty(self, md: PageMetadata) -> None:
        md.transition(CloakState.PLAINTEXT_DIRTY)
        md.cached_ciphertext = None
        self._stats.bump("cloak.dirty_upgrades")
        bus.cloak_dirty_upgrade(md.owner_id, md.vpn)

    # -- system-side transitions ------------------------------------------------

    def resolve_system_access(self, md: PageMetadata, gpfn: int) -> None:
        """Make ``gpfn`` safe for the system world to map.

        Called by the VMM when the kernel or another application
        touches a frame currently holding cloaked plaintext.  A page
        that is not plaintext is already safe: a no-op, never a second
        encryption of its ciphertext.
        """
        if md.state not in (CloakState.PLAINTEXT_CLEAN, CloakState.PLAINTEXT_DIRTY):
            return
        if md.state is CloakState.PLAINTEXT_CLEAN and (
            self.config.clean_page_optimization and md.cached_ciphertext is not None
        ):
            self._phys.write_frame(gpfn, md.cached_ciphertext)
            self._cycles.charge("crypto", self._costs.ciphertext_restore)
            self._stats.bump("cloak.ct_restores")
            bus.cloak_ct_restore(md.owner_id, md.vpn, gpfn,
                                 self._costs.ciphertext_restore)
        else:
            self._encrypt(md, gpfn)
        md.transition(CloakState.ENCRYPTED)
        self.store.note_not_plaintext(md)
        md.resident_gpfn = gpfn

    def _encrypt(self, md: PageMetadata, gpfn: int) -> None:
        cipher = self.cipher_for(md.lineage_id)
        # Zero-copy: MAC/XOR straight out of the frame.  The view is
        # fully consumed before write_frame replaces the frame's bytes.
        plaintext = self._phys.frame_view(gpfn)
        version = md.version + 1
        if self.faults is not None:
            version = self.faults.encrypt_version(md, version)
        if md.has_ciphertext_record and version <= md.version:
            # Version-monotonicity guard: encrypting under a
            # non-advancing counter would reuse a (key, IV) pair and
            # void CTR-mode confidentiality.  Refuse before any state
            # is mutated; the caller's eviction simply does not happen.
            self._stats.bump("cloak.violations")
            raise IntegrityViolation(
                md.owner_id, md.vpn,
                "page version counter would not advance (IV reuse refused)",
            )
        binding = md.mac_binding
        if self.config.integrity_only:
            # MAC the plaintext itself; nothing is hidden, only bound.
            ciphertext, iv, mac = self._mac_only(cipher, binding, version,
                                                 plaintext)
        else:
            ciphertext, iv, mac = cipher.encrypt_page(binding, version,
                                                      plaintext)
        if self.faults is not None:
            # A torn metadata write may damage the *stored* MAC.  The
            # ciphertext is untouched, so privacy is intact; the next
            # verification of this page must fail closed.
            mac = self.faults.mangle_mac(mac)
        if ciphertext is not plaintext:
            # Integrity-only mode returns the plaintext view itself;
            # rewriting a frame with its own aliasing view is both
            # pointless and unsafe, so only real ciphertext is stored.
            self._phys.write_frame(gpfn, ciphertext)
        md.record_encryption(version, iv, mac)
        md.cached_ciphertext = None
        self._cycles.charge("crypto", self._costs.page_hash)
        if not self.config.integrity_only:
            self._cycles.charge("crypto", self._costs.page_encrypt)
        self._stats.bump("cloak.encrypts")
        if bus.ACTIVE:
            cost = self._costs.page_hash
            if not self.config.integrity_only:
                cost += self._costs.page_encrypt
            bus.cloak_encrypt(md.owner_id, md.vpn, gpfn, cost)
        if md.file_binding is not None:
            file_id, page_index = md.file_binding
            self.file_store.save(md.lineage_id, file_id, page_index, version, iv, mac)

    @staticmethod
    def _mac_only(cipher: PageCipher, vpn: int, version: int, plaintext: bytes):
        from repro.core import crypto

        iv = crypto.make_iv(cipher.lineage_id, vpn, version)
        mac = crypto.page_mac(
            cipher._mac_key, plaintext, cipher.lineage_id, vpn, version, iv
        )
        return plaintext, iv, mac

    # -- bulk operations ----------------------------------------------------------

    def encrypt_all_plaintext(self, owner_id: int) -> int:
        """Force-encrypt every resident plaintext page of a domain.

        Used by the *eager* re-encryption ablation (R-A1) on every
        switch out of a cloaked context, and on domain teardown.
        """
        count = 0
        for md in list(self.store.pages()):
            if md.owner_id != owner_id:
                continue
            if md.state in (CloakState.PLAINTEXT_CLEAN, CloakState.PLAINTEXT_DIRTY):
                self.resolve_system_access(md, md.resident_gpfn)
                count += 1
        return count

    def scrub_domain(self, owner_id: int) -> int:
        """Zero all resident plaintext of a dying domain (exit path)."""
        count = 0
        for md in list(self.store.pages()):
            if md.owner_id != owner_id:
                continue
            if (
                md.state in (CloakState.PLAINTEXT_CLEAN, CloakState.PLAINTEXT_DIRTY)
                and md.resident_gpfn is not None
            ):
                self._phys.zero_frame(md.resident_gpfn)
                self._cycles.charge("vmm", self._costs.zero_fill)
                count += 1
            self.store.remove(owner_id, md.vpn)
        return count

    # -- binding cloaked file pages ----------------------------------------------

    def bind_file_page(
        self, owner_id: int, lineage_id: int, vpn: int, file_id: int,
        page_index: int
    ) -> PageMetadata:
        """Associate a cloaked vpn with a persistent cloaked-file page.

        If the file page has prior persistent metadata (the file was
        written before, possibly by an earlier process of the same
        identity), the in-memory metadata is seeded from it so the
        next application access verifies the on-disk ciphertext.
        """
        md = self.store.get_or_create(owner_id, vpn, lineage_id)
        md.file_binding = (file_id, page_index)
        saved = self.file_store.load(lineage_id, file_id, page_index)
        if saved is not None and not md.has_ciphertext_record:
            version, iv, mac = saved
            md.transition(CloakState.ENCRYPTED)
            md.version = version
            md.iv = iv
            md.mac = mac
        return md
