"""The virtual machine monitor: Overshadow's trusted core.

The VMM is the machine's translation authority (every TLB miss lands
here) and the only component that sees both worlds: it multiplexes
shadow contexts (multi-shadowing), drives cloaking transitions, saves
and scrubs registers around kernel entries (CTCs), and serves the
shim's hypercalls.  The guest kernel above it is completely untrusted;
its only interfaces to the VMM are the architectural ones a real OS
has anyway (page-table edits + invlpg, world switches, address-space
lifecycle), all of which the VMM merely *observes*.
"""

import hashlib

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import crypto
from repro.core.cloak import CloakConfig, CloakEngine
from repro.core.ctc import CTCTable, ExitReason
from repro.core.domains import DomainTable, ProtectionDomain, SYSTEM_DOMAIN
from repro.core.errors import (FreshnessViolation, HypercallError,
                               IdentityViolation, IntegrityViolation)
from repro.core.hypercall import Hypercall, HypercallDispatcher
from repro.core.metadata import CloakState, FileMetadataStore, MetadataStore
from repro.core.multishadow import MultiShadow, POLICY_FLUSH, POLICY_TAGGED
from repro.hw.cpu import CPUMode, VirtualCPU
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.faults import AccessKind, PageFault, PageFaultReason
from repro.hw.mmu import MMU, SYSTEM_VIEW, TranslationAuthority
from repro.hw.pagetable import PageTableWalker
from repro.hw.params import CostTable, PAGE_SHIFT
from repro.hw.phys import PhysicalMemory
from repro.hw.tlb import TLBEntry
from repro.obs import bus


@dataclass
class VMMConfig:
    """VMM policy knobs (the ablation benchmarks vary these)."""

    shadow_policy: str = POLICY_TAGGED
    #: Re-encrypt all of a domain's plaintext on every switch out of it
    #: (R-A1's eager mode) instead of lazily on system touch.
    eager_reencrypt: bool = False
    cloak: CloakConfig = field(default_factory=CloakConfig)


class VMM(TranslationAuthority):
    """One VMM instance per simulated machine."""

    def __init__(
        self,
        phys: PhysicalMemory,
        mmu: MMU,
        cpu: VirtualCPU,
        cycles: CycleAccount,
        stats: StatCounters,
        costs: CostTable,
        config: Optional[VMMConfig] = None,
        master_secret: bytes = b"overshadow-master-secret",
    ):
        self._phys = phys
        self._mmu = mmu
        self._cpu = cpu
        self._cycles = cycles
        self.stats = stats
        self._costs = costs
        self.config = config or VMMConfig()

        self._walker = PageTableWalker(phys)
        self.domains = DomainTable(master_secret)
        self.metadata = MetadataStore()
        self.file_metadata = FileMetadataStore()
        self.cloak = CloakEngine(
            phys, cycles, stats, costs, self.metadata, self.file_metadata,
            self.config.cloak,
        )
        self.shadows = MultiShadow(stats, policy=self.config.shadow_policy)
        self.ctcs = CTCTable()

        #: Guest address spaces the VMM knows about: asid -> PT root pfn.
        self._address_spaces: Dict[int, int] = {}
        #: VMM-private binding of cloaked threads: pid -> domain id.
        self._thread_domain: Dict[int, int] = {}
        #: Reverse: domain id -> set of pids.
        self._domain_threads: Dict[int, set] = {}
        #: Registered application identities: name -> image hash.
        self._identities: Dict[str, bytes] = {}
        #: The view the CPU last ran user code under, per asid (for the
        #: flush shadow policy).
        self._last_view: Dict[int, int] = {}
        #: Config is immutable after construction; hoisting the policy
        #: test keeps the world-switch path free of a call under the
        #: default (tagged) policy.
        self._policy_is_flush = self.config.shadow_policy == POLICY_FLUSH

        #: Fault-injection hooks (repro.faults); None in normal runs.
        #: Hooks can only degrade delivery/translation — they never
        #: see key material or plaintext.
        self.faults = None

        self._dispatcher = HypercallDispatcher()
        self._register_hypercalls()
        mmu.attach_authority(self)

    # ------------------------------------------------------------------
    # identity registry (provisioning step: done before deployment)
    # ------------------------------------------------------------------

    def register_identity(self, name: str, image: bytes) -> bytes:
        """Provision an application identity the VMM will accept for
        cloaking.  Returns the identity hash."""
        digest = crypto.hash_image(image)
        self._identities[name] = digest
        return digest

    def identity_of(self, name: str) -> Optional[bytes]:
        return self._identities.get(name)

    # ------------------------------------------------------------------
    # translation authority (TLB miss path)
    # ------------------------------------------------------------------

    # The entry installed in the shadow context and the one returned to
    # (and cached by) the MMU's TLB are one record by design: VMM-side
    # invalidation (_invalidate_frame_mappings) must revoke the TLB's
    # view at once.
    def fill(self, asid: int, view: int, vpn: int, access: AccessKind,
             mode: str) -> TLBEntry:
        shadow_entry = self.shadows.lookup(asid, view, vpn)
        if shadow_entry is not None and (not access.is_write or shadow_entry.dirty):
            return shadow_entry

        root = self._address_spaces.get(asid)
        if root is None:
            raise PageFault(vpn << PAGE_SHIFT, access, PageFaultReason.NOT_PRESENT)
        self._cycles.charge("mmu", 2 * self._costs.pt_walk_level)
        leaf = self._walker.walk(root, vpn, set_accessed=True)
        if leaf is None:
            raise PageFault(vpn << PAGE_SHIFT, access, PageFaultReason.NOT_PRESENT)
        if access.is_write and leaf.writable:
            # Hardware sets the guest D bit only when the write will
            # actually be permitted.
            leaf = self._walker.walk(root, vpn, set_dirty=True)
        gpfn = leaf.pfn
        if self.faults is not None and view != SYSTEM_VIEW \
                and self.domains.get(view).is_cloaked(vpn):
            # Stale shadow-PTE injection: the fill may resolve a
            # cloaked page to a frame it previously lived in.  Only
            # ENCRYPTED pages are eligible — then the cloaking
            # resolution below sees the stale frame and a wrong mapping
            # can never verify: it either still holds this page's
            # current ciphertext (harmless) or fails the MAC check
            # (typed violation).  Pages with live plaintext are not
            # redirected: their protection does not flow through a MAC
            # check on this path, so a stale frame holding the current
            # ciphertext could silently roll back un-encrypted writes.
            md = self.metadata.lookup(self.domains.get(view).domain_id, vpn)
            eligible = md is not None and md.state is CloakState.ENCRYPTED
            gpfn = self.faults.translate_gpfn(asid, vpn, gpfn, eligible)

        self._resolve_cloaking(view, vpn, gpfn, access)

        dirty = leaf.dirty or access.is_write
        if view != SYSTEM_VIEW:
            domain = self.domains.get(view)
            if domain.is_cloaked(vpn):
                # The shadow's dirty bit is VMM-controlled for cloaked
                # pages: a clean (just-decrypted) page must take a
                # cloak fault on its first write so the CLEAN -> DIRTY
                # upgrade is observed — the guest PTE's stale D bit
                # must not short-circuit it.
                md = self.metadata.lookup(domain.domain_id, vpn)
                dirty = access.is_write or (
                    md is not None and md.state is CloakState.PLAINTEXT_DIRTY
                )

        entry = TLBEntry(
            vpn, gpfn,
            writable=leaf.writable,
            user=leaf.user,
            dirty=dirty,
        )
        self.shadows.install(asid, view, entry)
        self._cycles.charge("vmm", self._costs.shadow_fill)
        if bus.ACTIVE:
            bus.vmm_shadow_fill(asid, view, vpn, gpfn)
        return entry

    def _resolve_cloaking(self, view: int, vpn: int, gpfn: int,
                          access: AccessKind) -> None:
        """Apply the cloaking protocol before a mapping is exposed."""
        if view != SYSTEM_VIEW:
            domain = self.domains.get(view)
            if domain.is_cloaked(vpn):
                holder = self.metadata.plaintext_in_frame(gpfn)
                if holder is not None and not (
                    holder.owner_id == domain.domain_id and holder.vpn == vpn
                ):
                    # Frame holds some *other* page's plaintext: protect
                    # it before this domain can observe the frame.
                    self._encrypt_frame(holder, gpfn)
                self.cloak.resolve_app_access(domain, vpn, gpfn, access)
                self._invalidate_frame_mappings(gpfn)
                return
        # System view, or an uncloaked page of a cloaked app: the frame
        # must not expose anyone's plaintext.
        holder = self.metadata.plaintext_in_frame(gpfn)
        if holder is not None:
            if view != SYSTEM_VIEW:
                domain = self.domains.get(view)
                if (holder.owner_id == domain.domain_id
                        and holder.vpn == vpn):
                    # Own plaintext reached through an uncloaked alias
                    # vaddr; treat as the owner's access.
                    return
            self._encrypt_frame(holder, gpfn)

    def _encrypt_frame(self, md, gpfn: int) -> None:
        self.cloak.resolve_system_access(md, gpfn)
        self._invalidate_frame_mappings(gpfn)
        self.stats.bump("vmm.system_encrypt_faults")

    def _invalidate_frame_mappings(self, gpfn: int) -> None:
        """A frame's cloak state changed: purge every stale mapping."""
        dropped = 0
        for asid, view, vpn in self.shadows.invalidate_frame(gpfn):
            self._mmu.invalidate_page(vpn, asid=asid)
            dropped += 1
        if bus.ACTIVE:
            bus.vmm_coherence(gpfn, dropped)

    # ------------------------------------------------------------------
    # guest architectural events (observed, not trusted)
    # ------------------------------------------------------------------

    def register_address_space(self, asid: int, root_pfn: int) -> None:
        self._address_spaces[asid] = root_pfn

    def drop_address_space(self, asid: int) -> None:
        self._address_spaces.pop(asid, None)
        self.shadows.drop_asid(asid)
        self._mmu.invalidate_asid(asid)
        self._last_view.pop(asid, None)

    def invlpg(self, asid: int, vpn: int) -> None:
        """Guest kernel edited a PTE: invalidate derived state."""
        self.shadows.invalidate_vpn(asid, vpn)
        self._mmu.invalidate_page(vpn, asid=asid)

    def notify_fork(self, parent_pid: int, child_pid: int, child_asid: int) -> Optional[int]:
        """Address-space cloning observed (see DESIGN.md on the
        control-flow fidelity limit).  Clones the protection domain and
        CTC when the parent is cloaked; returns the child domain id."""
        parent_domain_id = self._thread_domain.get(parent_pid)
        if parent_domain_id is None:
            return None
        child = self.domains.fork(parent_domain_id)
        self.cloak.register_cipher(child.cipher)
        self.metadata.clone_owner(parent_domain_id, child.domain_id)
        self._bind_thread(child.domain_id, child_pid)
        self.ctcs.clone(parent_pid, child_pid)
        self.stats.bump("vmm.domain_forks")
        return child.domain_id

    def notify_thread_spawn(self, parent_pid: int, tid: int) -> None:
        """A new thread of an existing task observed: same protection
        domain, fresh cloaked thread context (one CTC per thread)."""
        domain_id = self._thread_domain.get(parent_pid)
        if domain_id is None:
            return
        self._bind_thread(domain_id, tid)
        self.stats.bump("vmm.threads_bound")

    def notify_thread_exit(self, pid: int) -> None:
        domain_id = self._thread_domain.pop(pid, None)
        if domain_id is None:
            return
        pids = self._domain_threads.get(domain_id)
        if pids is not None:
            pids.discard(pid)
            if not pids:
                self._teardown_domain(domain_id)
        self.ctcs.drop(pid)

    def _teardown_domain(self, domain_id: int) -> None:
        domain = self.domains.maybe_get(domain_id)
        if domain is None:
            return
        self.domains.destroy(domain_id)
        self.cloak.scrub_domain(domain_id)
        self._domain_threads.pop(domain_id, None)
        self.stats.bump("vmm.domain_teardowns")

    # ------------------------------------------------------------------
    # world switches
    # ------------------------------------------------------------------

    def thread_domain(self, pid: int) -> int:
        return self._thread_domain.get(pid, SYSTEM_DOMAIN)

    def _bind_thread(self, domain_id: int, pid: int) -> None:
        self._thread_domain[pid] = domain_id
        self._domain_threads.setdefault(domain_id, set()).add(pid)

    def enter_user(self, pid: int, asid: int) -> int:
        """Transfer control to user mode for thread ``pid``.

        Returns the domain id the thread runs under.  For cloaked
        threads the saved CTC (if any) is restored — whatever register
        values the kernel planted are discarded.
        """
        domain_id = self._thread_domain.get(pid, SYSTEM_DOMAIN)
        if bus.ACTIVE:
            bus.vmm_enter_user(pid, domain_id)
        if self._policy_is_flush:
            self._apply_shadow_policy(asid, domain_id)
        self._cpu.enter_context(asid, domain_id, CPUMode.USER)
        if domain_id != SYSTEM_DOMAIN:
            ctc = self.ctcs.get(pid)
            if ctc.valid:
                self._cpu.regs.load(ctc.restore())
                # One ledger call for both same-category costs: the sum
                # per category is what the hash sees.
                self._cycles.charge(
                    "vmm", self._costs.world_switch + self._costs.ctc_restore)
            else:
                # First entry of a fresh cloaked thread: defined state.
                self._cpu.regs.scrub()
                self._cycles.charge("vmm", self._costs.world_switch)
            self.stats.bump("vmm.cloaked_entries")
        else:
            self._cycles.charge("vmm", self._costs.world_switch)
        return domain_id

    def exit_user(self, pid: int, reason: ExitReason,
                  visible_regs: Tuple[str, ...] = ()) -> None:
        """Transfer from user mode to the guest kernel.

        For cloaked threads, registers are saved into the CTC and
        scrubbed; only ``visible_regs`` (syscall arguments the shim
        intends to pass) remain architecturally visible.
        """
        domain_id = self._thread_domain.get(pid, SYSTEM_DOMAIN)
        if bus.ACTIVE:
            bus.vmm_exit_user(pid, reason.name, domain_id)
        if self._policy_is_flush:
            self._apply_shadow_policy(self._cpu.asid, SYSTEM_VIEW)
        if domain_id != SYSTEM_DOMAIN:
            ctc = self.ctcs.get(pid)
            ctc.save(self._cpu.regs.snapshot(), reason)
            self._cpu.regs.scrub(keep=visible_regs)
            self._cycles.charge(
                "vmm", self._costs.world_switch + self._costs.ctc_save)
            self.stats.bump("vmm.cloaked_exits")
            if self.config.eager_reencrypt:
                # repro: allow[MMU001] — the loop below invalidates the
                # frame mappings of every resident page; the only path
                # that skips it is zero iterations, i.e. no resident
                # pages, so there is nothing stale to invalidate.
                self.cloak.encrypt_all_plaintext(domain_id)
                # Eager mode invalidates wholesale; cheap to be exact:
                for md in self.metadata.pages():
                    if md.resident_gpfn is not None:
                        self._invalidate_frame_mappings(md.resident_gpfn)
        else:
            self._cycles.charge("vmm", self._costs.world_switch)
        self._cpu.enter_kernel()

    def _apply_shadow_policy(self, asid: int, view: int) -> None:
        if self.config.shadow_policy != POLICY_FLUSH:
            return
        last = self._last_view.get(asid)
        if last is not None and last != view:
            # Single-shadow hardware: a view change rebuilds the shadow.
            self.shadows.drop_asid(asid)
            self._mmu.invalidate_asid(asid)
            self._cycles.charge("vmm", self._costs.shadow_flush)
            self.stats.bump("vmm.shadow_flushes")
        self._last_view[asid] = view

    # ------------------------------------------------------------------
    # hypercalls
    # ------------------------------------------------------------------

    def hypercall(self, number: Hypercall, args: Tuple = ()) -> Any:
        """Execute a hypercall from the currently running user context."""
        caller = self._cpu.view
        self._cycles.charge("vmm", self._costs.hypercall + self._costs.world_switch)
        self.stats.bump("vmm.hypercalls")
        if bus.ACTIVE:
            bus.vmm_hypercall(number.name)
        if self.faults is not None:
            mode = self.faults.hypercall_fault(number)
            if mode == "duplicate":
                # Delivered twice.  Only idempotent calls are eligible
                # (the hooks enforce that), so the first delivery's
                # effect is absorbed and the second's result returned.
                self._cycles.charge("vmm", self._costs.hypercall
                                    + self._costs.world_switch)
                self.stats.bump("vmm.hypercalls_duplicated")
                self._dispatcher.dispatch(caller, number, args)
            elif mode == "retry":
                # Dropped, then re-issued by the shim: one extra trap's
                # worth of cost, a single execution.
                self._cycles.charge("vmm", self._costs.hypercall
                                    + self._costs.world_switch)
                self.stats.bump("vmm.hypercalls_retried")
        return self._dispatcher.dispatch(caller, number, args)

    def _register_hypercalls(self) -> None:
        reg = self._dispatcher.register
        reg(Hypercall.CLOAK_INIT, self._hc_cloak_init)
        reg(Hypercall.CLOAK_RANGE, self._hc_cloak_range)
        reg(Hypercall.UNCLOAK_RANGE, self._hc_uncloak_range)
        reg(Hypercall.FILE_BIND, self._hc_file_bind)
        reg(Hypercall.FILE_FORGET, self._hc_file_forget)
        reg(Hypercall.FILE_UNBIND, self._hc_file_unbind)
        reg(Hypercall.REGISTER_ENTRY, self._hc_register_entry)
        reg(Hypercall.DOMAIN_EXIT, self._hc_domain_exit)
        reg(Hypercall.GET_IDENTITY, self._hc_get_identity)
        reg(Hypercall.ADOPT_IMAGE, self._hc_adopt_image)
        reg(Hypercall.CHANNEL_SEAL, self._hc_channel_seal)
        reg(Hypercall.CHANNEL_OPEN, self._hc_channel_open)
        reg(Hypercall.PAGE_RECYCLE, self._hc_page_recycle)

    def _hc_cloak_init(self, caller: int, name: str, image: bytes,
                       pid: int) -> int:
        expected = self._identities.get(name)
        if expected is None:
            raise HypercallError(f"no registered identity {name!r}")
        if crypto.hash_image(image) != expected:
            self.stats.bump("vmm.identity_rejections")
            raise IdentityViolation(f"image hash mismatch for {name!r}")
        domain = self.domains.create(name, expected)
        self.cloak.register_cipher(domain.cipher)
        self._bind_thread(domain.domain_id, pid)
        self.stats.bump("vmm.domains_created")
        # The hypercall returns into the now-cloaked application: the
        # current user context continues under the new domain's view.
        if self._cpu.mode is CPUMode.USER:
            self._cpu.enter_context(self._cpu.asid, domain.domain_id,
                                    CPUMode.USER)
        return domain.domain_id

    def _hc_cloak_range(self, caller: int, start_vpn: int, end_vpn: int,
                        label: str = "") -> None:
        self.domains.get(caller).cloak_range(start_vpn, end_vpn, label)

    def _hc_uncloak_range(self, caller: int, start_vpn: int, end_vpn: int) -> bool:
        domain = self.domains.get(caller)
        removed = domain.uncloak_range(start_vpn, end_vpn)
        if removed:
            # Plaintext in the range would otherwise linger unprotected.
            for vpn in range(start_vpn, end_vpn):
                md = self.metadata.lookup(domain.domain_id, vpn)
                if md is not None and md.resident_gpfn is not None:
                    self._phys.zero_frame(md.resident_gpfn)
                    self._cycles.charge("vmm", self._costs.zero_fill)
                    self._invalidate_frame_mappings(md.resident_gpfn)
                if md is not None:
                    self.metadata.remove(domain.domain_id, vpn)
        return removed

    def _hc_file_bind(self, caller: int, start_vpn: int, file_id: int,
                      first_page: int, npages: int) -> None:
        domain = self.domains.get(caller)
        for i in range(npages):
            self.cloak.bind_file_page(
                domain.domain_id, domain.lineage_id, start_vpn + i,
                file_id, first_page + i,
            )

    def _hc_file_forget(self, caller: int, file_id: int) -> int:
        domain = self.domains.get(caller)
        return self.file_metadata.drop_file(domain.lineage_id, file_id)

    def _hc_register_entry(self, caller: int, vaddr: int) -> None:
        self.domains.get(caller).approved_entry_points.add(vaddr)

    def _hc_domain_exit(self, caller: int) -> None:
        for pid in list(self._domain_threads.get(caller, ())):
            self.notify_thread_exit(pid)

    def _hc_get_identity(self, caller: int) -> str:
        return self.domains.get(caller).image_hash.hex()

    def _hc_file_unbind(self, caller: int, start_vpn: int, npages: int) -> int:
        """Unmap a cloaked-file window: persist any plaintext pages
        (encrypt + save file metadata) and forget the in-memory
        entries.  The persistent file metadata survives, so a later
        FILE_BIND of the same file verifies the on-disk ciphertext."""
        domain = self.domains.get(caller)
        count = 0
        for vpn in range(start_vpn, start_vpn + npages):
            md = self.metadata.lookup(domain.domain_id, vpn)
            if md is None:
                continue
            if md.state in (CloakState.PLAINTEXT_CLEAN, CloakState.PLAINTEXT_DIRTY) \
                    and md.resident_gpfn is not None:
                gpfn = md.resident_gpfn
                self.cloak.resolve_system_access(md, gpfn)
                self._invalidate_frame_mappings(gpfn)
            self.metadata.remove(domain.domain_id, vpn)
            count += 1
        return count

    def _hc_page_recycle(self, caller: int, start_vpn: int, npages: int) -> int:
        """Unmap notification: the shim is releasing cloaked pages back
        to the OS (brk shrink).  Their contents are dead, so securely
        discard them — zero any resident plaintext frame and forget the
        metadata — while the range itself stays cloaked; a later
        re-grow demand-faults the pages back as fresh zero-fills
        instead of tripping integrity verification on stale records.
        Idempotent: recycling an already-forgotten page is a no-op."""
        domain = self.domains.get(caller)
        count = 0
        for vpn in range(start_vpn, start_vpn + npages):
            if not domain.is_cloaked(vpn):
                continue
            md = self.metadata.lookup(domain.domain_id, vpn)
            if md is None:
                continue
            if md.state in (CloakState.PLAINTEXT_CLEAN,
                            CloakState.PLAINTEXT_DIRTY) \
                    and md.resident_gpfn is not None:
                self._phys.zero_frame(md.resident_gpfn)
                self._cycles.charge("vmm", self._costs.zero_fill)
                self._invalidate_frame_mappings(md.resident_gpfn)
            self.metadata.remove(domain.domain_id, vpn)
            count += 1
        if count:
            self.stats.bump("vmm.pages_recycled", count)
        return count

    def _hc_adopt_image(self, caller: int, start_vaddr: int, length: int) -> None:
        """Verify that the loaded image matches the domain's identity,
        then adopt its pages as cloaked plaintext.

        The kernel's loader wrote these pages; the hash check is what
        stops a compromised loader from substituting a trojan before
        cloaking engages (thereafter, MACs take over)."""
        domain = self.domains.get(caller)
        asid = self._cpu.asid
        root = self._address_spaces.get(asid)
        if root is None:
            raise HypercallError("caller has no registered address space")
        start_vpn = start_vaddr >> PAGE_SHIFT
        npages = (length + (1 << PAGE_SHIFT) - 1) >> PAGE_SHIFT
        hasher = hashlib.sha256(b"overshadow-image")
        frames = []
        remaining = length
        for i in range(npages):
            leaf = self._walker.walk(root, start_vpn + i)
            if leaf is None:
                raise HypercallError("image page not mapped")
            chunk = self._phys.read(leaf.pfn, 0, min(remaining, 1 << PAGE_SHIFT))
            hasher.update(chunk)
            remaining -= len(chunk)
            frames.append((start_vpn + i, leaf.pfn))
            self._cycles.charge("crypto", self._costs.page_hash)
        if hasher.digest() != domain.image_hash:
            self.stats.bump("vmm.identity_rejections")
            raise IdentityViolation(
                f"in-memory image does not match identity of {domain.name!r}"
            )
        for vpn, gpfn in frames:
            if not domain.is_cloaked(vpn):
                continue
            md = self.metadata.get_or_create(domain.domain_id, vpn,
                                             domain.lineage_id)
            md.state = CloakState.PLAINTEXT_DIRTY
            md.cached_ciphertext = None
            self.metadata.note_plaintext(md, gpfn)
            self._invalidate_frame_mappings(gpfn)
        self.stats.bump("vmm.images_adopted")

    def _channel_crypto_cost(self, nbytes: int) -> None:
        """Message crypto scales with size (page costs are per 4 KiB)."""
        scaled = max(1, (self._costs.page_encrypt + self._costs.page_hash)
                     * nbytes // 4096)
        self._cycles.charge("crypto", scaled)

    def _hc_channel_seal(self, caller: int, channel_id: int, seq: int,
                         data: bytes) -> bytes:
        """Seal one protected-IPC message for the caller's identity."""
        domain = self.domains.get(caller)
        self._channel_crypto_cost(len(data))
        self.stats.bump("vmm.channel_seals")
        return domain.cipher.seal_message(channel_id, seq, data)

    def _hc_channel_open(self, caller: int, channel_id: int, seq: int,
                         record: bytes) -> bytes:
        """Verify + open a sealed message; a mismatch is an integrity
        (wrong data / wrong channel / wrong peer identity) or
        freshness (wrong sequence) violation."""
        domain = self.domains.get(caller)
        self._channel_crypto_cost(len(record))
        plaintext = domain.cipher.open_message(channel_id, seq, record)
        if plaintext is None:
            self.stats.bump("vmm.channel_rejections")
            # Distinguish replay for reporting: does the record verify
            # under an earlier sequence number?
            for stale in range(max(0, seq - 8), seq):
                if domain.cipher.open_message(channel_id, stale, record) is not None:
                    raise FreshnessViolation(domain.domain_id, channel_id,
                                             stale)
            raise IntegrityViolation(domain.domain_id, channel_id,
                                     "sealed channel record rejected")
        self.stats.bump("vmm.channel_opens")
        # repro: allow(SEC002) — hypercall results return directly into
        # the cloaked caller's user context (hypercalls never transit
        # the guest kernel, see repro.core.hypercall); delivering the
        # opened message to its owner is this call's whole purpose.
        return plaintext

    # ------------------------------------------------------------------
    # DMA interposition (IOMMU analogue)
    # ------------------------------------------------------------------

    def dma_read_frame(self, gpfn: int) -> bytes:
        """Device read of a frame: cloaked plaintext is encrypted
        first, exactly as the system-view MMU path would."""
        holder = self.metadata.plaintext_in_frame(gpfn)
        if holder is not None:
            self._encrypt_frame(holder, gpfn)
        return self._phys.read_frame(gpfn)

    def dma_write_frame(self, gpfn: int, data: bytes) -> None:
        """Device write into a frame: any resident plaintext must be
        protected (and its mapping revoked) before it is clobbered."""
        holder = self.metadata.plaintext_in_frame(gpfn)
        if holder is not None:
            self._encrypt_frame(holder, gpfn)
        self._phys.write_frame(gpfn, data)

    # ------------------------------------------------------------------
    # reporting (R-T3)
    # ------------------------------------------------------------------

    def resource_report(self) -> Dict[str, int]:
        from repro.core.metadata import METADATA_BYTES_PER_PAGE

        return {
            "page_metadata_entries": len(self.metadata),
            "page_metadata_bytes": self.metadata.overhead_bytes(),
            "page_metadata_peak_entries": self.metadata.peak_entries,
            "page_metadata_peak_bytes":
                self.metadata.peak_entries * METADATA_BYTES_PER_PAGE,
            "shadow_peak_entries": self.shadows.peak_entries,
            "file_metadata_entries": len(self.file_metadata),
            "file_metadata_bytes": self.file_metadata.overhead_bytes(),
            "shadow_contexts": self.shadows.shadow_count(),
            "shadow_entries": self.shadows.entry_count(),
            "domains": len(self.domains),
            "ctcs": len(self.ctcs),
        }
