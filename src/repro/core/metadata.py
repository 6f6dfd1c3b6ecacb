"""VMM-private metadata protecting cloaked pages.

For every cloaked page the VMM records the protocol state plus the
(version, iv, mac) triple of its latest ciphertext.  The store is
keyed by (owner domain, vpn): the page's *identity* is its place in
the owning process's address space, so the metadata survives the OS
paging the contents out, relocating them to another frame, or writing
them to disk — all of which the threat model allows.  Fork *copies*
the parent's entries to the child domain (the pages then diverge);
the copies stay verifiable because crypto keys bind to the shared
application identity (the lineage), not to the domain.

A short history of superseded (version, iv, mac) triples is kept per
page purely so the attack harness can *label* a rollback as a
freshness violation rather than generic tampering; the security
decision (reject) is identical either way.
"""

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.crypto import IV_LEN, MAC_LEN
from repro.obs import bus


class CloakState(enum.Enum):
    """Protocol state of one cloaked page (paper's page-state diagram)."""

    #: Allocated in a cloaked range but never materialised: the first
    #: application touch zero-fills it, so OS-seeded garbage can never
    #: reach the app.
    FRESH = "fresh"
    #: Frame (if resident) holds ciphertext; system view may map it.
    ENCRYPTED = "encrypted"
    #: Frame holds plaintext identical to the last ciphertext; only the
    #: owner's view may map it.  Transitioning back to ENCRYPTED can
    #: reuse cached ciphertext (the clean-page optimisation).
    PLAINTEXT_CLEAN = "plaintext-clean"
    #: Frame holds modified plaintext; owner-only; re-encryption must
    #: bump the version.
    PLAINTEXT_DIRTY = "plaintext-dirty"


#: How many superseded versions to remember for replay *labelling*.
HISTORY_DEPTH = 4

#: Marks a MAC binding as file-positional rather than address-based.
FILE_BINDING_FLAG = 1 << 63

#: Modelled per-page metadata footprint, bytes (version counter + IV +
#: MAC + state/bookkeeping), reported by the R-T3 overhead table.
METADATA_BYTES_PER_PAGE = 8 + IV_LEN + MAC_LEN + 16


class PageMetadata:
    """Cloaking metadata for one (owner domain, vpn)."""

    __slots__ = (
        "owner_id",
        "lineage_id",
        "vpn",
        "state",
        "version",
        "iv",
        "mac",
        "resident_gpfn",
        "cached_ciphertext",
        "history",
        "file_binding",
    )

    def __init__(self, owner_id: int, vpn: int, lineage_id: int):
        self.owner_id = owner_id
        self.lineage_id = lineage_id
        self.vpn = vpn
        self.state = CloakState.FRESH
        self.version = 0
        self.iv: Optional[bytes] = None
        self.mac: Optional[bytes] = None
        #: Frame currently holding this page's contents, if the VMM has
        #: seen it mapped; None once the OS may have moved it.
        self.resident_gpfn: Optional[int] = None
        #: Ciphertext cached at decrypt time for the clean-page
        #: optimisation (dropped on first write).
        self.cached_ciphertext: Optional[bytes] = None
        #: Superseded (version, iv, mac) triples, newest last.
        self.history: List[Tuple[int, bytes, bytes]] = []
        #: (file_id, page_index) when this page is a window onto a
        #: cloaked file; keeps persistent file metadata in sync.
        self.file_binding: Optional[Tuple[int, int]] = None

    @property
    def has_ciphertext_record(self) -> bool:
        return self.mac is not None

    @property
    def mac_binding(self) -> int:
        """The positional identity the MAC binds this page to.

        Anonymous pages bind to their virtual page number.  File-backed
        pages bind to (file id, page index) instead: a cloaked file may
        legitimately be mapped at different addresses by different
        processes (or the same process at different times), but moving
        ciphertext *within* a file, or between files, must still fail.
        """
        if self.file_binding is not None:
            file_id, page_index = self.file_binding
            return FILE_BINDING_FLAG | (file_id << 32) | page_index
        return self.vpn

    def record_encryption(self, version: int, iv: bytes, mac: bytes) -> None:
        """Install a new latest-ciphertext triple, archiving the old one."""
        if self.mac is not None:
            self.history.append((self.version, self.iv, self.mac))
            if len(self.history) > HISTORY_DEPTH:
                self.history.pop(0)
        self.version = version
        self.iv = iv
        self.mac = mac

    def matches_stale_version(self, cipher, ciphertext: bytes) -> Optional[int]:
        """Return the stale version number if ``ciphertext`` verifies
        under a superseded triple (i.e. the OS replayed old contents)."""
        for version, iv, mac in reversed(self.history):
            # repro: allow(CYC001) — forensic probe on the failure path:
            # the faulting access already charged page_hash, and the
            # outcome here only refines which violation is raised.
            if cipher.verify_page(self.mac_binding, version, iv, mac, ciphertext):
                return version
        return None

    def clone_for_owner(self, owner_id: int) -> "PageMetadata":
        """Fork: a copy for the child domain.

        The copy is never plaintext-resident: whatever frames the
        kernel copied for the child hold ciphertext (the copy itself
        forced encryption), so the child's view starts ENCRYPTED —
        or FRESH when this page was never encrypted at all.
        """
        clone = PageMetadata(owner_id, self.vpn, self.lineage_id)
        clone.version = self.version
        clone.iv = self.iv
        clone.mac = self.mac
        clone.history = list(self.history)
        clone.file_binding = self.file_binding
        clone.state = (
            CloakState.ENCRYPTED if self.has_ciphertext_record else CloakState.FRESH
        )
        return clone

    def __repr__(self) -> str:
        return (
            f"PageMetadata(owner={self.owner_id}, vpn={self.vpn:#x}, "
            f"{self.state.value}, v{self.version})"
        )


class MetadataStore:
    """All cloaked-page metadata, with a reverse frame index.

    The reverse index (gpfn -> metadata) tracks which frames currently
    hold cloaked *plaintext*; it is how a system-view access to a frame
    is recognised as touching cloaked data.
    """

    def __init__(self) -> None:
        self._pages: Dict[Tuple[int, int], PageMetadata] = {}
        self._plaintext_frames: Dict[int, PageMetadata] = {}
        #: High-water mark, for the space-overhead table (entries are
        #: scrubbed at domain teardown, so the live count understates).
        self.peak_entries = 0

    def __len__(self) -> int:
        return len(self._pages)

    # Callers share the store's canonical PageMetadata record by design:
    # the page-state machine lives in exactly one place, and copies
    # could disagree on CloakState.
    def get_or_create(self, owner_id: int, vpn: int, lineage_id: int) -> PageMetadata:
        key = (owner_id, vpn)
        md = self._pages.get(key)
        if md is None:
            md = PageMetadata(owner_id, vpn, lineage_id)
            self._pages[key] = md
            self.peak_entries = max(self.peak_entries, len(self._pages))
        return md

    def lookup(self, owner_id: int, vpn: int) -> Optional[PageMetadata]:
        return self._pages.get((owner_id, vpn))

    def insert(self, md: PageMetadata) -> None:
        self._pages[(md.owner_id, md.vpn)] = md
        self.peak_entries = max(self.peak_entries, len(self._pages))

    def remove(self, owner_id: int, vpn: int) -> None:
        md = self._pages.pop((owner_id, vpn), None)
        if md is not None and md.resident_gpfn is not None:
            if self._plaintext_frames.get(md.resident_gpfn) is md:
                del self._plaintext_frames[md.resident_gpfn]
        if md is not None and bus.ACTIVE:
            bus.cloak_discard(owner_id, vpn)

    # -- plaintext frame tracking ---------------------------------------------

    def note_plaintext(self, md: PageMetadata, gpfn: int) -> None:
        if md.resident_gpfn is not None and md.resident_gpfn != gpfn:
            # Only clear the old slot if it is still OURS: frames get
            # freed and reused, so a stale resident_gpfn may now be
            # another page's live plaintext frame.
            if self._plaintext_frames.get(md.resident_gpfn) is md:
                del self._plaintext_frames[md.resident_gpfn]
        md.resident_gpfn = gpfn
        self._plaintext_frames[gpfn] = md

    def note_not_plaintext(self, md: PageMetadata) -> None:
        if md.resident_gpfn is not None:
            if self._plaintext_frames.get(md.resident_gpfn) is md:
                del self._plaintext_frames[md.resident_gpfn]

    def plaintext_in_frame(self, gpfn: int) -> Optional[PageMetadata]:
        return self._plaintext_frames.get(gpfn)

    def plaintext_frame_count(self) -> int:
        return len(self._plaintext_frames)

    # -- fork support -----------------------------------------------------------

    def clone_owner(self, parent_owner: int, child_owner: int) -> int:
        """Fork: copy every page entry of one domain to another."""
        count = 0
        for md in [m for m in self._pages.values() if m.owner_id == parent_owner]:
            self.insert(md.clone_for_owner(child_owner))
            count += 1
        return count

    def pages_of_owner(self, owner_id: int):
        return [m for m in self._pages.values() if m.owner_id == owner_id]

    # -- accounting ---------------------------------------------------------------

    def pages(self) -> Iterator[PageMetadata]:
        return iter(list(self._pages.values()))

    def overhead_bytes(self) -> int:
        """Modelled VMM memory spent on page metadata (R-T3)."""
        return len(self._pages) * METADATA_BYTES_PER_PAGE


class FileMetadataStore:
    """Persistent cloaking metadata for cloaked *files*.

    A cloaked file's pages are encrypted on disk; their (version, iv,
    mac) triples must outlive any process and any mapping.  The paper
    keeps this in a VMM-protected metadata file; we keep it in a
    VMM-private table keyed by (lineage, file_id, page_index).
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int, int], Tuple[int, bytes, bytes]] = {}

    def save(self, lineage_id: int, file_id: int, page_index: int,
             version: int, iv: bytes, mac: bytes) -> None:
        self._entries[(lineage_id, file_id, page_index)] = (version, iv, mac)

    def load(self, lineage_id: int, file_id: int, page_index: int):
        return self._entries.get((lineage_id, file_id, page_index))

    def drop_file(self, lineage_id: int, file_id: int) -> int:
        victims = [k for k in self._entries if k[0] == lineage_id and k[1] == file_id]
        for k in victims:
            del self._entries[k]
        return len(victims)

    def __len__(self) -> int:
        return len(self._entries)

    def overhead_bytes(self) -> int:
        return len(self._entries) * METADATA_BYTES_PER_PAGE
