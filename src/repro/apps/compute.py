"""SPEC-like compute kernels (the R-F1 workload suite).

Each kernel does real work against simulated memory — inputs are
stored through the MMU, loaded back, transformed, and a checksum is
printed — so a cloaked run must produce byte-identical output to a
native run (transparency), while the virtual-cycle ledger captures the
overhead.  Sizes are chosen so each kernel runs a few million virtual
cycles, long enough to cross many timeslices.

The mix mirrors a SPECint-style suite: dense arithmetic (``matmul``,
``stencil``), sorting (``qsortk``), compression (``rle``,
``lzwindow``), hashing (``shaloop``), checksumming (``crcsweep``),
pointer chasing over a graph (``bfsgraph``), iterative numerics
(``kmeans``), byte bashing (``histogram``, ``strsearch``) and text
parsing (``recordparse``).

A transform's output and ALU units are fixed by the loop it models,
not by how the host computes them: several transforms get the same
bytes and the same units from C-level builtins, and each of those is
checked against its original loop in ``tests/apps/reference_kernels.py``.
Inputs are fixed the same way: they are the bytes one ``randrange``
call per value would draw, and the kernels draw them in bulk
(``_randbelow_many``, ``_randbytes``) in rounds of bounded size,
checked against the per-value loops kept in the same file.  A kernel's
input and result are pure functions of its identity, so ``main``
remembers the last run's and reuses them, when the bytes loaded back
match, for the next run of the same kernel (its cloaked twin): every
guest op and charge is the same, only the host's recomputation goes.
"""

import hashlib
import operator
import random
import re
import struct
import zlib
from itertools import chain, compress
from typing import Iterator, List, Optional, Tuple

from repro.apps.program import Program, UserContext

#: Memory is touched in lines of this many bytes: coarse enough to
#: keep the simulation fast, fine enough to exercise paging.
CHUNK = 512


def _prng(seed: str) -> random.Random:
    """Deterministic, explicitly seeded PRNG.

    All randomness in the workload suite must flow through here: the
    module-level ``random`` functions are banned (DET001) because their
    shared global state makes input bytes depend on execution order.
    """
    return random.Random(int.from_bytes(hashlib.sha256(seed.encode()).digest()[:8],
                                        "little"))


#: The most words one bulk draw takes.  Drawing in rounds of at most
#: this many keeps every temporary of an input's draw small, whatever
#: the input's size, and changes no value: ``getrandbits(32 * a)``
#: followed by ``getrandbits(32 * b)`` gives the words of one
#: ``getrandbits(32 * (a + b))``.
_ROUND_WORDS = 1024


def _words(rng: random.Random, count: int) -> bytes:
    """The next ``count`` 32-bit outputs of ``rng``, 4 little-endian
    bytes each, in draw order.

    ``getrandbits(k)`` for ``k <= 32`` is the top ``k`` bits of one
    output, and ``getrandbits(32 * count)`` is ``count`` outputs, least
    significant first, so word ``i`` here is what the ``i``-th
    single-word draw would see.
    """
    return rng.getrandbits(32 * count).to_bytes(4 * count, "little")


def _randbelow_rounds(rng: random.Random, count: int,
                      bound: int) -> Iterator[Tuple[int, ...]]:
    """The values of ``[rng.randrange(bound) for _ in range(count)]``,
    one round's worth at a time; ``bound`` must be below ``2**32``.

    ``randrange(bound)`` retries ``getrandbits(bound.bit_length())``
    until the value is below ``bound``, one word per try, so the values
    are the accepted words in order.  Each round draws one word per
    value still missing, at most ``_ROUND_WORDS``: that many words
    accept at most that many values, so no round draws past the word
    that ends the last call, and ``rng`` ends where the loop leaves it.
    """
    if not 0 < bound < 1 << 32:
        raise ValueError(f"bound must be in (0, 2**32), got {bound}")
    shift = 32 - bound.bit_length()
    while count:
        drawn = min(count, _ROUND_WORDS)
        words = struct.unpack(f"<{drawn}I", _words(rng, drawn))
        values = tuple(filter(bound.__gt__, map(shift.__rrshift__, words)))
        count -= len(values)
        yield values


def _randbelow_many(rng: random.Random, count: int, bound: int) -> List[int]:
    """Exactly ``[rng.randrange(bound) for _ in range(count)]``, leaving
    ``rng`` in the same state; ``bound`` must be below ``2**32``."""
    return list(chain.from_iterable(_randbelow_rounds(rng, count, bound)))


#: ``randrange(256)`` is ``getrandbits(9)``: bits 23-31 of a word, so
#: bytes 2 and 3.  The word is rejected iff byte 3 >= 0x80; otherwise
#: the value is ``_HI_BITS[byte 3] | _LO_BIT[byte 2]``.
_HI_BITS = bytes((b & 0x7F) << 1 for b in range(256))
_LO_BIT = bytes(b >> 7 for b in range(256))
_ACCEPT = bytes(b < 0x80 for b in range(256))


def _randbytes(rng: random.Random, count: int) -> bytes:
    """``bytes(rng.randrange(256) for _ in range(count))``, in C: the
    rounds of ``_randbelow_rounds`` with each word decoded by table."""
    out = bytearray()
    while len(out) < count:
        drawn = min(count - len(out), _ROUND_WORDS)
        raw = _words(rng, drawn)
        top = raw[3::4]
        values = (int.from_bytes(top.translate(_HI_BITS), "little")
                  | int.from_bytes(raw[2::4].translate(_LO_BIT), "little"))
        out.extend(compress(values.to_bytes(drawn, "little"),
                            top.translate(_ACCEPT)))
    return bytes(out)


#: The most recent kernel run whose load matched its input:
#: ``(memo_key, payload, (output, alu_units))``.  A native run and its
#: cloaked twin, or a run of identical kernels, generate and transform
#: once; every guest op and charge is the same on a hit.  One entry at
#: most, dropped before a different kernel generates its input.
_last_run: Optional[Tuple[Tuple, bytes, Tuple[bytes, int]]] = None


def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class ComputeKernel(Program):
    """Base: init input in memory -> transform -> store -> checksum."""

    #: Nominal problem scale; subclasses interpret it.
    default_size = 64

    def __init__(self, size: int = 0):
        self.size = size or self.default_size

    def rng(self) -> random.Random:
        """This kernel's input PRNG, seeded from (name, size) as
        DESIGN.md specifies — every kernel's inputs are a pure function
        of its identity."""
        return _prng(f"{self.name}-{self.size}")

    def generate_input(self) -> bytes:
        raise NotImplementedError

    def transform(self, data: bytes) -> Tuple[bytes, int]:
        """Pure computation: returns (output, alu_units_charged)."""
        raise NotImplementedError

    def _memo_key(self) -> Tuple:
        """What this kernel's input and result depend on: its class and
        size, and the ``generate_input`` and ``transform`` in effect, so
        a patched method, on the class or on the instance, is a miss."""
        return (type(self), self.size,
                getattr(self.generate_input, "__func__", self.generate_input),
                getattr(self.transform, "__func__", self.transform))

    def main(self, ctx: UserContext):
        global _last_run
        key = self._memo_key()
        if _last_run is not None and _last_run[0] == key:
            payload = _last_run[1]
        else:
            _last_run = None  # dropped before the new input exists
            payload = self.generate_input()
        src = ctx.scratch(len(payload))
        dst = ctx.scratch(len(payload) * 2)

        # Materialise the input through the MMU, chunk by chunk.
        for offset in range(0, len(payload), CHUNK):
            yield ctx.store(src + offset, payload[offset : offset + CHUNK])

        # Load, compute, store: the transform's cost lands on the ALU;
        # its traffic lands on the memory system.
        loaded: List[bytes] = []
        for offset in range(0, len(payload), CHUNK):
            loaded.append((yield ctx.load(src + offset,
                                          min(CHUNK, len(payload) - offset))))
        data = b"".join(loaded)
        last = _last_run
        if last is not None and last[0] == key and last[1] == data:
            output, alu_units = last[2]
        else:
            output, alu_units = self.transform(data)
            if data == payload:
                _last_run = (key, payload, (output, alu_units))
        yield ctx.alu(alu_units)
        for offset in range(0, len(output), CHUNK):
            yield ctx.store(dst + offset, output[offset : offset + CHUNK])

        # Read the result back and attest it.
        reread: List[bytes] = []
        for offset in range(0, len(output), CHUNK):
            reread.append((yield ctx.load(dst + offset,
                                          min(CHUNK, len(output) - offset))))
        yield from ctx.print(f"{self.name}: {_checksum(b''.join(reread))}\n")
        return 0


class MatMul(ComputeKernel):
    """Dense integer matrix multiply (blocked arithmetic)."""

    name = "matmul"
    default_size = 56  # k x k matrices

    def generate_input(self) -> bytes:
        return _randbytes(self.rng(), 2 * self.size * self.size)

    def transform(self, data: bytes):
        k = self.size
        rows = [data[i * k : (i + 1) * k] for i in range(k)]
        cols = [data[k * k + j :: k][:k] for j in range(k)]
        out = bytes(sum(map(operator.mul, row, col)) & 0xFF
                    for row in rows for col in cols)
        return out, 2 * k * k * k  # one mul + one add per step


class QSortK(ComputeKernel):
    """Sort a large array (comparison-heavy)."""

    name = "qsortk"
    default_size = 16384  # elements

    def generate_input(self) -> bytes:
        return _randbytes(self.rng(), self.size)

    def transform(self, data: bytes):
        n = len(data)
        cost = int(6 * n * max(1, n.bit_length()))
        return bytes(sorted(data)), cost


#: One run of equal bytes (any byte, hence ``re.S``), at most 255 long.
_RUN = re.compile(rb"(.)\1{0,254}", re.S)


class RLECompress(ComputeKernel):
    """Run-length encoding (branchy byte scanning)."""

    name = "rle"
    default_size = 98304

    def generate_input(self) -> bytes:
        # The input alternates randrange(32), a run's byte, with
        # randrange(1, 24), its length.  The first keeps a word's top 6
        # bits when they are below 32 (top byte < 0x80), the second adds
        # 1 to its top 5 bits when they are below 23 (top byte < 0xB8),
        # so the walk needs only each word's top byte.  The PRNG is this
        # call's own: words drawn past the last run change nothing.
        rng = self.rng()
        out = bytearray()
        value = None
        while len(out) < self.size:
            for top in _words(rng, (self.size - len(out)) // 3 + 1)[3::4]:
                if value is None:
                    if top < 0x80:
                        value = top >> 2
                elif top < 0xB8:
                    out += bytes((value,)) * ((top >> 3) + 1)
                    value = None
        return bytes(out[: self.size])

    def transform(self, data: bytes):
        # Whole runs as bytes: unlike findall's group tuples, they are
        # not objects the cyclic GC tracks.
        runs = list(map(re.Match.group, _RUN.finditer(data)))
        out = bytearray(2 * len(runs))
        out[0::2] = bytes(map(len, runs))
        out[1::2] = bytes(map(operator.itemgetter(0), runs))
        return bytes(out), 7 * len(data)


class ShaLoop(ComputeKernel):
    """Iterated hashing (ALU-bound, tiny working set)."""

    name = "shaloop"
    default_size = 1500  # iterations

    def generate_input(self) -> bytes:
        return hashlib.sha256(f"shaloop-{self.size}".encode()).digest()

    def transform(self, data: bytes):
        digest = data
        for __ in range(self.size):
            digest = hashlib.sha256(digest).digest()
        # ~18 cycles/byte is a plausible software SHA-256 rate.
        return digest, 18 * 64 * self.size


#: One node's four peers in ``bfsgraph``'s adjacency list.
_PEERS = struct.Struct("<4I")


class BFSGraph(ComputeKernel):
    """Breadth-first search over a random graph (pointer chasing)."""

    name = "bfsgraph"
    default_size = 12000  # nodes

    def generate_input(self) -> bytes:
        n = self.size
        return b"".join(struct.pack(f"<{len(values)}I", *values)
                        for values in _randbelow_rounds(self.rng(), 4 * n, n))

    def transform(self, data: bytes):
        n = self.size
        peers_of = _PEERS.unpack_from  # v's peers: bytes 16v to 16v + 16
        depth = [-1] * n
        depth[0] = 0
        frontier = [0]
        visited = 1
        while frontier:
            nxt = []
            for node in frontier:
                peer_depth = depth[node] + 1
                for peer in peers_of(data, 16 * node):
                    if depth[peer] < 0:
                        depth[peer] = peer_depth
                        nxt.append(peer)
                        visited += 1
            frontier = nxt
        out = bytes((d + 1) & 0xFF for d in depth)
        return out, 14 * visited + 3 * 4 * n


class Stencil(ComputeKernel):
    """3-point stencil sweeps over an array (streaming arithmetic)."""

    name = "stencil"
    default_size = 32768
    iterations = 10

    def generate_input(self) -> bytes:
        return _randbytes(self.rng(), self.size)

    def transform(self, data: bytes):
        # Cell i is the 16-bit lane i of one int.  A sweep adds the
        # lane-shifted neighbours and divides by 4 with one shift.  A sum
        # is at most 1020, so no lane carries into the next; the two bits
        # the shift pulls down from lane i + 1 are masked off with the
        # rest of the high byte.  The two boundary cells never change.
        n = len(data)
        lanes = bytearray(2 * n)
        lanes[0::2] = data
        cells = int.from_bytes(lanes, "little")
        inner = int.from_bytes(b"\0\0" + b"\xff\0" * (n - 2), "little")
        edges = cells & ~inner
        for __ in range(self.iterations):
            cells = ((((cells << 16) + 2 * cells + (cells >> 16)) >> 2)
                     & inner) | edges
        return (cells.to_bytes(2 * n, "little")[0::2],
                4 * self.size * self.iterations)


class Histogram(ComputeKernel):
    """Byte-frequency histogram (read-dominated)."""

    name = "histogram"
    default_size = 262144

    def generate_input(self) -> bytes:
        return _randbytes(self.rng(), self.size)

    def transform(self, data: bytes):
        counts = [0] * 256
        for byte in data:
            counts[byte] += 1
        out = b"".join((c & 0xFFFFFFFF).to_bytes(4, "little") for c in counts)
        return out, 5 * len(data)


class StrSearch(ComputeKernel):
    """Substring scanning (comparison-heavy text processing)."""

    name = "strsearch"
    default_size = 196608

    NEEDLES = (b"overshadow", b"cloak", b"shadow", b"vmm")

    def generate_input(self) -> bytes:
        rng = self.rng()
        words = [b"lorem", b"ipsum", b"cloak", b"dolor", b"shadow", b"sit",
                 b"vmm", b"amet", b"overshadow"]
        out = bytearray()
        while len(out) < self.size:
            out += rng.choice(words) + b" "
        return bytes(out[: self.size])

    def transform(self, data: bytes):
        counts = [data.count(needle) for needle in self.NEEDLES]
        out = b"".join(c.to_bytes(4, "little") for c in counts)
        return out, 3 * len(data) * len(self.NEEDLES)


class CRCSweep(ComputeKernel):
    """Table-driven CRC32 over a buffer (lookup-heavy checksumming)."""

    name = "crcsweep"
    default_size = 131072

    _TABLE = None

    @classmethod
    def _table(cls):
        if cls._TABLE is None:
            table = []
            for byte in range(256):
                crc = byte
                for __ in range(8):
                    crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
                table.append(crc)
            cls._TABLE = table
        return cls._TABLE

    def generate_input(self) -> bytes:
        return _randbytes(self.rng(), self.size)

    def transform(self, data: bytes):
        # zlib.crc32 runs the same register as ``_table`` but inverts it
        # on entry and on exit; undoing both carries the raw register
        # from block to block.
        crc = 0xFFFFFFFF
        out = bytearray()
        for offset in range(0, len(data), 4096):
            block = data[offset : offset + 4096]
            crc = zlib.crc32(block, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF
            out += crc.to_bytes(4, "little")
        # ~3 ops per byte: shift, xor, table lookup.
        return bytes(out), 3 * len(data)


#: ``_BYTE_MASKS[c]`` keeps the low ``c`` bytes of an integer.
_BYTE_MASKS = tuple((1 << (8 * c)) - 1 for c in range(256))


class LZWindow(ComputeKernel):
    """Greedy LZ77-style window compression (string matching)."""

    name = "lzwindow"
    default_size = 32768
    WINDOW = 256
    MIN_MATCH = 4

    def generate_input(self) -> bytes:
        rng = self.rng()
        phrases = [bytes(rng.randrange(97, 123) for __ in range(8))
                   for __ in range(16)]
        out = bytearray()
        while len(out) < self.size:
            out += rng.choice(phrases)
        return bytes(out[: self.size])

    def transform(self, data: bytes):
        # The modelled loop compares every window position j < i byte
        # by byte: one unit per matched byte plus one for the mismatch
        # (or cap) that ends the match.  A position whose first byte
        # differs matches nothing, so only positions holding data[i]
        # are visited; the others' single unit is charged in bulk.
        n = len(data)
        find = data.find
        from_bytes = int.from_bytes
        out = bytearray()
        i = 0
        comparisons = 0
        while i < n:
            best_len = 0
            best_dist = 0
            window_start = max(0, i - self.WINDOW)
            comparisons += i - window_start
            first = data[i : i + 1]
            limit = min(255, n - i)
            ahead = from_bytes(data[i : i + limit], "little")
            j = find(first, window_start, i)
            while j >= 0:
                # Longest common prefix of data[j:] and data[i:], capped
                # as the loop caps it: 255 bytes, the end of the data,
                # and no reaching into position i itself.  Its length is
                # the index of the lowest differing byte.
                cap = i - j
                if cap > limit:
                    cap = limit
                diff = (from_bytes(data[j : j + cap], "little") ^ ahead) \
                    & _BYTE_MASKS[cap]
                if diff:
                    length = ((diff ^ (diff - 1)).bit_length() - 1) >> 3
                else:
                    length = cap
                comparisons += length
                if length > best_len:  # strict: the farthest j wins ties
                    best_len = length
                    best_dist = i - j
                j = find(first, j + 1, i)
            if best_len >= self.MIN_MATCH:
                out += b"\x01" + best_dist.to_bytes(2, "little") \
                    + bytes([best_len])
                i += best_len
            else:
                out += b"\x00" + data[i : i + 1]
                i += 1
        return bytes(out), 2 * comparisons


class KMeans(ComputeKernel):
    """1-D k-means clustering (iterative numeric kernel)."""

    name = "kmeans"
    default_size = 12000
    K = 8
    ITERATIONS = 12

    def generate_input(self) -> bytes:
        return _randbytes(self.rng(), self.size)

    def transform(self, data: bytes):
        # Points with equal values land in the same cluster, so each
        # iteration assigns the 256 byte values once, weighted by count.
        hist = [data.count(value) for value in range(256)]
        centroids = [int((c + 0.5) * 256 / self.K) for c in range(self.K)]
        work = 0
        for __ in range(self.ITERATIONS):
            sums = [0] * self.K
            counts = [0] * self.K
            for value, count in enumerate(hist):
                best = min(range(self.K),
                           key=lambda c: abs(value - centroids[c]))
                sums[best] += value * count
                counts[best] += count
            work += len(data) * self.K
            centroids = [
                sums[c] // counts[c] if counts[c] else centroids[c]
                for c in range(self.K)
            ]
        out = bytes(centroids)
        # distance + compare per (point, centroid), twice over.
        return out, 2 * work


class RecordParse(ComputeKernel):
    """Parse key=value;... records and aggregate (text processing)."""

    name = "recordparse"
    default_size = 49152

    FIELDS = (b"id", b"qty", b"price", b"tag")

    def generate_input(self) -> bytes:
        rng = self.rng()
        out = bytearray()
        counter = 0
        while len(out) < self.size:
            counter += 1
            out += b"id=%d;qty=%d;price=%d;tag=t%d\n" % (
                counter, rng.randrange(1, 9), rng.randrange(100, 999),
                rng.randrange(4),
            )
        return bytes(out[: self.size])

    def transform(self, data: bytes):
        total_qty = 0
        revenue = 0
        records = 0
        for line in data.splitlines():
            fields = {}
            for pair in line.split(b";"):
                key, _, value = pair.partition(b"=")
                fields[key] = value
            try:
                total_qty += int(fields.get(b"qty", b"0"))
                revenue += (int(fields.get(b"qty", b"0"))
                            * int(fields.get(b"price", b"0")))
                records += 1
            except ValueError:
                continue  # the tail record may be truncated
        out = b"%d,%d,%d" % (records, total_qty, revenue)
        return out, 12 * len(data)  # parsing is ~instruction-per-char x12


#: The R-F1 suite, in presentation order.
COMPUTE_SUITE = (MatMul, QSortK, RLECompress, ShaLoop, BFSGraph, Stencil,
                 Histogram, StrSearch, CRCSweep, LZWindow, KMeans,
                 RecordParse)
