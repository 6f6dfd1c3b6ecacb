"""Sealed IPC channels: protected FIFOs between same-identity peers.

An extension in the direction the paper's discussion points (cloaking
stops at the process boundary; IPC through the kernel is a plaintext
hole unless the application encrypts).  A FIFO created under
``/secure`` becomes a *sealed channel*: the shim seals every message
through the VMM (identity-keyed encrypt + MAC bound to the channel and
a per-direction sequence number) before the kernel's pipe ever sees
it, and opens+verifies on the receive side.  The kernel moves only
ciphertext records; tampering, reordering, replay, and cross-channel
splicing are all caught at ``CHANNEL_OPEN``.

Record framing on the wire (kernel-visible, deliberately minimal
metadata): ``length:u32 | seq:u32`` followed by ``length`` bytes of
ciphertext+MAC.  Only peers of the same identity (fork children,
instances of the same program) can exchange messages — that is the
point.
"""

import hashlib
import struct
from typing import Dict

from repro.core.hypercall import Hypercall
from repro.guestos import uapi
from repro.guestos.uapi import HypercallOp, Load, Store, Syscall, SyscallOp

FRAME = struct.Struct("<II")

#: Seal one pipe write in chunks of at most this many plaintext bytes
#: (records must fit the pipe buffer with room to interleave).
MAX_MESSAGE = 4096


def channel_id_of(path: str) -> int:
    """Stable channel identifier both endpoints derive from the path."""
    digest = hashlib.sha256(b"sealed-channel:" + path.encode()).digest()
    return int.from_bytes(digest[:8], "little")


class SealedChannel:
    """Shim-side state of one sealed FIFO endpoint."""

    __slots__ = ("fd", "channel_id", "send_seq", "recv_seq", "stash")

    def __init__(self, fd: int, channel_id: int):
        self.fd = fd
        self.channel_id = channel_id
        self.send_seq = 0
        self.recv_seq = 0
        #: Decrypted bytes the application has not consumed yet (a
        #: record may be larger than the read(2) that drained it).
        self.stash = b""


class SealedChannelTable:
    """All sealed channels of one shim, with the emulation logic.

    Methods are generators yielding user ops, driven by the shim's
    interposition loop (same convention as the cloaked-file table).
    """

    def __init__(self, arena):
        self._arena = arena
        self._channels: Dict[int, SealedChannel] = {}
        self.messages_sealed = 0
        self.messages_opened = 0

    def is_sealed(self, fd: int) -> bool:
        return fd in self._channels

    def adopt(self, fd: int, path: str) -> SealedChannel:
        """Register an already-opened FIFO fd as a sealed endpoint."""
        channel = SealedChannel(fd, channel_id_of(path))
        self._channels[fd] = channel
        return channel

    # -- data path -----------------------------------------------------------

    def write(self, fd: int, buf_vaddr: int, nbytes: int):
        """Seal and send; returns the plaintext byte count written."""
        channel = self._channels[fd]
        sent = 0
        while sent < nbytes:
            chunk = min(nbytes - sent, MAX_MESSAGE)
            plaintext = yield Load(buf_vaddr + sent, chunk)
            record = yield HypercallOp(
                Hypercall.CHANNEL_SEAL,
                (channel.channel_id, channel.send_seq, plaintext),
            )
            self.messages_sealed += 1
            frame = FRAME.pack(len(record), channel.send_seq)
            channel.send_seq += 1
            self._arena.reset()
            wire_vaddr = self._arena.alloc(FRAME.size + len(record))
            yield Store(wire_vaddr, frame + record)
            result = yield from self._write_exact(
                fd, wire_vaddr, FRAME.size + len(record)
            )
            if result < 0:
                return result if sent == 0 else sent
            sent += chunk
        return sent

    def read(self, fd: int, buf_vaddr: int, nbytes: int):
        """Receive, open, verify; returns plaintext byte count."""
        channel = self._channels[fd]
        if nbytes <= 0:
            return 0
        if not channel.stash:
            result = yield from self._receive_record(channel)
            if result <= 0:
                return result  # EOF or error
        serving = channel.stash[:nbytes]
        channel.stash = channel.stash[len(serving):]
        yield Store(buf_vaddr, serving)
        return len(serving)

    def close(self, fd: int):
        self._channels.pop(fd, None)
        result = yield SyscallOp(Syscall.CLOSE, (fd,))
        return result

    # -- wire helpers ---------------------------------------------------------------

    def _write_exact(self, fd: int, vaddr: int, nbytes: int):
        sent = 0
        while sent < nbytes:
            count = yield SyscallOp(Syscall.WRITE,
                                    (fd, vaddr + sent, nbytes - sent))
            if not isinstance(count, int) or count <= 0:
                return count if isinstance(count, int) else -uapi.EPIPE
            sent += count
        return sent

    def _read_exact(self, fd: int, vaddr: int, nbytes: int):
        got = 0
        while got < nbytes:
            count = yield SyscallOp(Syscall.READ,
                                    (fd, vaddr + got, nbytes - got))
            if not isinstance(count, int) or count <= 0:
                return got
            got += count
        return got

    def _receive_record(self, channel: SealedChannel):
        self._arena.reset()
        frame_vaddr = self._arena.alloc(FRAME.size)
        got = yield from self._read_exact(channel.fd, frame_vaddr, FRAME.size)
        if got < FRAME.size:
            return 0  # peer hung up cleanly
        frame = yield Load(frame_vaddr, FRAME.size)
        length, wire_seq = FRAME.unpack(frame)
        if length > MAX_MESSAGE + 64:
            return -uapi.EINVAL
        record_vaddr = self._arena.alloc(length)
        got = yield from self._read_exact(channel.fd, record_vaddr, length)
        if got < length:
            return 0
        record = yield Load(record_vaddr, length)
        # The shim trusts its own counter, not the kernel-visible
        # wire_seq: a lying header cannot roll the sequence back.
        plaintext = yield HypercallOp(
            Hypercall.CHANNEL_OPEN,
            (channel.channel_id, channel.recv_seq, record),
        )
        channel.recv_seq += 1
        self.messages_opened += 1
        channel.stash += plaintext
        return len(plaintext)
