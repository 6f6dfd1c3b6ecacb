"""Cryptographic primitives for memory cloaking.

The paper uses AES-128 in CBC/CTR-style modes plus SHA-256 hashes
maintained in VMM metadata.  This offline environment has no crypto
library, so we build the same *protocol shape* from ``hashlib``:

* confidentiality: a CTR-mode stream cipher whose keystream blocks are
  ``SHA-256(key || iv || counter)`` — a keyed PRF in counter mode,
  structurally identical to AES-CTR (same IV-uniqueness obligation,
  same malleability, which is why the MAC below is not optional);
* integrity + binding: HMAC-SHA256 over the ciphertext *and* the
  page's cloaking position (domain, vpn, version, iv), which is what
  defeats relocation and replay.

Costs are modelled in virtual cycles by the cloak engine, so the
substitution does not distort any performance result.
"""

import hashlib
import hmac
import struct
from collections import OrderedDict
from typing import Optional, Tuple

from repro.hw.sync import CPU, VLock
from repro.obs import bus

#: Size of one keystream block (SHA-256 output).
_BLOCK = 32

#: Length of keys and MACs, bytes.
KEY_LEN = 32
MAC_LEN = 32
IV_LEN = 24

MASK64 = 0xFFFFFFFFFFFFFFFF

#: Bound on each host-side key-material memo below.  Key derivation is
#: pure, so memoisation can never change an output — only how often
#: the same HMAC is recomputed when fork/exec and oracle runs rebuild
#: the same principals over and over.
_MEMO_CAPACITY = 512


class _Memo:
    """Tiny bounded LRU for derived key material (host-speed only)."""

    def __init__(self, capacity: int = _MEMO_CAPACITY):
        self._capacity = capacity
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value):
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self._capacity:
            self._entries.popitem(last=False)
        self._entries[key] = value
        return value


_derive_memo = _Memo()
_principal_memo = _Memo()
#: Keystream pages: ~4 KiB each, so a smaller bound (1 MiB worst case).
#: Like key derivation, the keystream is a pure function of
#: (key, iv, length); deterministic workloads replay the same page
#: encryptions run after run, so repeats hit the memo instead of
#: redoing 128 SHA-256 blocks.
_keystream_memo = _Memo(capacity=256)

#: The machine has one CPU, so nothing races on the memos.  The lock
#: stays because its ``sync.acquire``/``sync.access``/``sync.release``
#: probes are part of the pinned benchmark outputs (fuzz-campaign's
#: probe-name set, serve-kv's per-probe counts, R-T6's probe coverage).
#: Names, fields, order and per-call counts must not change; removing
#: the lock means re-pinning the benchmark.
_memo_lock = VLock("crypto.memo")


def derive_key(master: bytes, purpose: str, qualifier: int = 0) -> bytes:
    """Derive a sub-key from ``master`` for a named purpose.

    The VMM holds one master secret per machine; per-domain page keys
    and MAC keys are derived, never stored.
    """
    memo_key = (master, purpose, qualifier)
    with _memo_lock:
        if bus.ACTIVE:
            bus.sync_access("repro.core.crypto:_derive_memo", CPU)
        cached = _derive_memo.get(memo_key)
        if cached is not None:
            return cached
        info = purpose.encode() + struct.pack("<Q", qualifier)
        derived = hmac.new(master, b"derive" + info, hashlib.sha256).digest()
        return _derive_memo.put(memo_key, derived)


def make_iv(lineage_id: int, vpn: int, version: int) -> bytes:
    """Deterministic unique IV for one (principal, page, version)
    encryption.

    Uniqueness is the whole requirement for CTR mode; the version
    counter increments on every re-encryption of the page, so no
    (key, iv) pair ever encrypts two different plaintexts.
    """
    return struct.pack("<QQQ", lineage_id & MASK64, vpn & MASK64, version)


def keystream(key: bytes, iv: bytes, length: int) -> bytes:
    """PRF counter-mode keystream of ``length`` bytes.

    Each 32-byte block is ``SHA-256(key || iv || counter)``.  The
    ``key || iv`` prefix is hashed once and the per-block state forked
    with ``copy()`` — streaming SHA-256 makes that byte-identical to
    rehashing the prefix for every counter, at a fraction of the cost
    for page-sized (128-block) requests.
    """
    if length < 0:
        raise ValueError("negative keystream length")
    if length == 0:
        return b""
    memo_key = (key, iv, length)
    with _memo_lock:
        if bus.ACTIVE:
            bus.sync_access("repro.core.crypto:_keystream_memo", CPU)
        cached = _keystream_memo.get(memo_key)
        if cached is not None:
            return cached
        nblocks = (length + _BLOCK - 1) // _BLOCK
        prefix = hashlib.sha256(key + iv)
        out = bytearray(nblocks * _BLOCK)
        pos = 0
        for counter in range(nblocks):
            block = prefix.copy()
            block.update(counter.to_bytes(8, "little"))
            out[pos:pos + _BLOCK] = block.digest()
            pos += _BLOCK
        if length != len(out):
            del out[length:]
        return _keystream_memo.put(memo_key, bytes(out))


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    """Whole-buffer XOR via arbitrary-precision integers.

    ``int.from_bytes`` / ``^`` / ``to_bytes`` runs word-at-a-time in C,
    replacing the byte-at-a-time generator this function started as
    (see tests/core/test_crypto_vectors.py for the pinned reference).
    Accepts any bytes-like operands (memoryviews included).
    """
    size = len(data)
    if size != len(pad):
        raise ValueError("xor operands differ in length")
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(size, "little")


def encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """CTR encryption; decryption is the same operation."""
    return xor_bytes(plaintext, keystream(key, iv, len(plaintext)))


decrypt = encrypt


def page_mac(
    mac_key: bytes,
    ciphertext: bytes,
    lineage_id: int,
    vpn: int,
    version: int,
    iv: bytes,
) -> bytes:
    """MAC binding ciphertext to its cloaking position.

    Covering (principal, vpn, version, iv) in the MAC is what lets the
    VMM detect the OS relocating ciphertext to a different virtual
    page, swapping pages between applications, or replaying stale
    versions.
    """
    header = struct.pack("<QQQ", lineage_id & MASK64, vpn & MASK64, version)
    # One C-level one-shot HMAC: concatenating a page-sized ciphertext
    # (bytes or a memoryview of a frame) costs less host time than the
    # Python frames of a streamed ``hmac.new``/``update``/``digest``.
    return hmac.digest(mac_key, header + iv + ciphertext, "sha256")


def macs_equal(a: bytes, b: bytes) -> bool:
    """Constant-time MAC comparison (hygiene; the simulation's timing
    is virtual anyway)."""
    return hmac.compare_digest(a, b)


def hash_image(image: bytes) -> bytes:
    """Identity hash of a cloaked program image (paper's §application
    identity)."""
    return hashlib.sha256(b"overshadow-image" + image).digest()


class PageCipher:
    """Key material of one security principal (application identity).

    Keys derive from the VMM master secret and the application's
    *identity hash*, not from any per-process nonce.  Consequences the
    paper relies on: a forked child (same identity) verifies pages the
    parent encrypted; a re-run of the same application can decrypt the
    cloaked files an earlier run persisted; and two *different*
    applications can never verify each other's pages because their
    keys differ.

    ``lineage_id`` is the numeric form of the identity (first 8 bytes
    of its hash), used for metadata indexing and MAC binding.
    """

    def __init__(self, master: bytes, identity: bytes):
        self.identity = identity
        # Key material is a pure function of (master, identity); the
        # bounded memo stops fork/exec storms and oracle sweeps from
        # re-deriving the same principal's keys on every construction.
        memo_key = (master, identity)
        with _memo_lock:
            if bus.ACTIVE:
                bus.sync_access("repro.core.crypto:_principal_memo", CPU)
            cached = _principal_memo.get(memo_key)
            if cached is None:
                digest = hashlib.sha256(b"principal" + identity).digest()
                cached = _principal_memo.put(memo_key, (
                    int.from_bytes(digest[:8], "little"),
                    hmac.new(master, b"page-enc" + identity,
                             hashlib.sha256).digest(),
                    hmac.new(master, b"page-mac" + identity,
                             hashlib.sha256).digest(),
                ))
        self.lineage_id, self._enc_key, self._mac_key = cached

    def shares_keys_with(self, other: "PageCipher") -> bool:
        return self._enc_key == other._enc_key and self._mac_key == other._mac_key

    def encrypt_page(self, vpn: int, version: int, plaintext: bytes) -> Tuple[bytes, bytes, bytes]:
        """Encrypt one page; returns (ciphertext, iv, mac)."""
        iv = make_iv(self.lineage_id, vpn, version)
        ciphertext = encrypt(self._enc_key, iv, plaintext)
        mac = page_mac(self._mac_key, ciphertext, self.lineage_id, vpn, version, iv)
        return ciphertext, iv, mac

    def verify_page(
        self, vpn: int, version: int, iv: bytes, mac: bytes, ciphertext: bytes
    ) -> bool:
        expected = page_mac(self._mac_key, ciphertext, self.lineage_id, vpn, version, iv)
        return macs_equal(expected, mac)

    def decrypt_page(self, iv: bytes, ciphertext: bytes) -> bytes:
        return decrypt(self._enc_key, iv, ciphertext)

    # -- sealed messages (protected IPC channels) -----------------------------

    #: Marks an IV as belonging to a message channel, so channel
    #: keystreams can never collide with page keystreams.
    CHANNEL_FLAG = 1 << 62

    def seal_message(self, channel_id: int, seq: int, plaintext: bytes) -> bytes:
        """Encrypt + MAC one channel message.

        The (channel, sequence) pair plays the role (vpn, version)
        plays for pages: it makes every keystream unique and binds the
        record to its position in the conversation, so reordering,
        replay, and cross-channel splicing all fail the MAC.
        """
        binding = self.CHANNEL_FLAG | (channel_id & 0x3FFFFFFFFFFFFFFF)
        iv = make_iv(self.lineage_id, binding, seq)
        ciphertext = encrypt(self._enc_key, iv, plaintext)
        mac = page_mac(self._mac_key, ciphertext, self.lineage_id, binding,
                       seq, iv)
        return ciphertext + mac

    def open_message(self, channel_id: int, seq: int, record: bytes) -> Optional[bytes]:
        """Verify + decrypt a sealed record; None on any mismatch."""
        if len(record) < MAC_LEN:
            return None
        ciphertext, mac = record[:-MAC_LEN], record[-MAC_LEN:]
        binding = self.CHANNEL_FLAG | (channel_id & 0x3FFFFFFFFFFFFFFF)
        iv = make_iv(self.lineage_id, binding, seq)
        expected = page_mac(self._mac_key, ciphertext, self.lineage_id,
                            binding, seq, iv)
        if not macs_equal(expected, mac):
            return None
        return decrypt(self._enc_key, iv, ciphertext)
