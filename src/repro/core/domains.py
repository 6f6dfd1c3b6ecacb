"""Protection domains: the unit of cloaking.

A protection domain corresponds to one cloaked application (and, via
fork, its descendants).  The VMM tracks, per domain: key material,
the application's identity hash, and the set of virtual address
ranges the domain has asked to cloak.  Everything outside those
ranges (the shim's marshalling buffers and trampoline) is uncloaked
by construction.
"""

from typing import Dict, List, Optional

from repro.core.crypto import PageCipher

#: Domain id of the system world (kernel + uncloaked applications).
SYSTEM_DOMAIN = 0


class CloakedRange:
    """A half-open cloaked virtual-page range [start_vpn, end_vpn)."""

    __slots__ = ("start_vpn", "end_vpn", "label")

    def __init__(self, start_vpn: int, end_vpn: int, label: str = ""):
        if end_vpn <= start_vpn:
            raise ValueError("empty cloaked range")
        self.start_vpn = start_vpn
        self.end_vpn = end_vpn
        self.label = label

    def __contains__(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    def overlaps(self, other: "CloakedRange") -> bool:
        return self.start_vpn < other.end_vpn and other.start_vpn < self.end_vpn

    def __repr__(self) -> str:
        return (
            f"CloakedRange({self.start_vpn:#x}..{self.end_vpn:#x}"
            + (f", {self.label}" if self.label else "")
            + ")"
        )


class ProtectionDomain:
    """One cloaked application's VMM-side state."""

    def __init__(self, domain_id: int, name: str, cipher: PageCipher,
                 image_hash: bytes, parent_id: Optional[int] = None):
        if domain_id == SYSTEM_DOMAIN:
            raise ValueError("domain id 0 is reserved for the system world")
        self.domain_id = domain_id
        self.name = name
        self.cipher = cipher
        self.image_hash = image_hash
        self.parent_id = parent_id
        self._ranges: List[CloakedRange] = []
        #: Entry points (vaddrs) at which the kernel may legitimately
        #: transfer control into the cloaked context (trampoline-
        #: registered handler addresses).
        self.approved_entry_points: set = set()
        self.active = True

    @property
    def lineage_id(self) -> int:
        return self.cipher.lineage_id

    # -- cloaked ranges ------------------------------------------------------

    def cloak_range(self, start_vpn: int, end_vpn: int, label: str = "") -> CloakedRange:
        new = CloakedRange(start_vpn, end_vpn, label)
        for existing in self._ranges:
            if existing.overlaps(new):
                raise ValueError(f"{new} overlaps {existing}")
        self._ranges.append(new)
        return new

    def uncloak_range(self, start_vpn: int, end_vpn: int) -> bool:
        """Remove a previously cloaked range; returns True if found."""
        for i, existing in enumerate(self._ranges):
            if existing.start_vpn == start_vpn and existing.end_vpn == end_vpn:
                del self._ranges[i]
                return True
        return False

    def is_cloaked(self, vpn: int) -> bool:
        # Asked on every shadow fill of a cloaked view: the range test
        # is inline rather than a generator of ``__contains__`` calls.
        for r in self._ranges:
            if r.start_vpn <= vpn < r.end_vpn:
                return True
        return False

    def ranges(self) -> List[CloakedRange]:
        return list(self._ranges)

    def __repr__(self) -> str:
        return f"ProtectionDomain({self.domain_id}, {self.name!r}, ranges={len(self._ranges)})"


class DomainTable:
    """Registry of all protection domains on a machine.

    Ciphers are cached per application identity: every domain of the
    same identity (forked children, re-runs, simultaneous instances)
    shares one security principal, which is what lets cloaked files
    persist across process lifetimes.
    """

    def __init__(self, master_secret: bytes):
        self._master = master_secret
        self._domains: Dict[int, ProtectionDomain] = {}
        self._ciphers: Dict[bytes, PageCipher] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._domains)

    def cipher_for_identity(self, image_hash: bytes) -> PageCipher:
        cipher = self._ciphers.get(image_hash)
        if cipher is None:
            cipher = PageCipher(self._master, image_hash)
            self._ciphers[image_hash] = cipher
        return cipher

    def create(self, name: str, image_hash: bytes) -> ProtectionDomain:
        domain_id = self._next_id
        self._next_id += 1
        cipher = self.cipher_for_identity(image_hash)
        domain = ProtectionDomain(domain_id, name, cipher, image_hash)
        self._domains[domain_id] = domain
        return domain

    def fork(self, parent_id: int) -> ProtectionDomain:
        """Clone a domain for a forked child (same principal, copied
        ranges)."""
        parent = self.get(parent_id)
        domain_id = self._next_id
        self._next_id += 1
        child = ProtectionDomain(
            domain_id,
            f"{parent.name}#fork{domain_id}",
            parent.cipher,
            parent.image_hash,
            parent_id=parent_id,
        )
        for r in parent.ranges():
            child.cloak_range(r.start_vpn, r.end_vpn, r.label)
        child.approved_entry_points = set(parent.approved_entry_points)
        self._domains[domain_id] = child
        return child

    def get(self, domain_id: int) -> ProtectionDomain:
        try:
            return self._domains[domain_id]
        except KeyError:
            raise KeyError(f"no protection domain {domain_id}")

    def maybe_get(self, domain_id: int) -> Optional[ProtectionDomain]:
        return self._domains.get(domain_id)

    def destroy(self, domain_id: int) -> None:
        domain = self.get(domain_id)
        domain.active = False
        del self._domains[domain_id]
