"""Unit tests for the compute kernels' pure transforms (no machine)."""

import math
import random
import zlib

import pytest

from repro.apps.compute import (
    BFSGraph,
    COMPUTE_SUITE,
    CRCSweep,
    Histogram,
    KMeans,
    LZWindow,
    MatMul,
    QSortK,
    RecordParse,
    RLECompress,
    ShaLoop,
    Stencil,
    StrSearch,
    _ROUND_WORDS,
    _randbelow_many,
    _randbytes,
)

from tests.apps.reference_kernels import INPUT_REFERENCES, REFERENCES


@pytest.mark.parametrize("kernel_cls", COMPUTE_SUITE,
                         ids=[k.name for k in COMPUTE_SUITE])
def test_inputs_deterministic(kernel_cls):
    assert kernel_cls().generate_input() == kernel_cls().generate_input()


@pytest.mark.parametrize("kernel_cls", COMPUTE_SUITE,
                         ids=[k.name for k in COMPUTE_SUITE])
def test_transform_deterministic_and_costed(kernel_cls):
    kernel = kernel_cls()
    data = kernel.generate_input()
    out1, cost1 = kernel.transform(data)
    out2, cost2 = kernel.transform(data)
    assert out1 == out2
    assert cost1 == cost2
    assert cost1 > 0
    assert len(out1) > 0


class TestKernelSemantics:
    def test_qsortk_sorts(self):
        kernel = QSortK(size=512)
        out, __ = kernel.transform(kernel.generate_input())
        assert list(out) == sorted(out)

    def test_rle_is_decodable(self):
        kernel = RLECompress(size=2048)
        data = kernel.generate_input()
        encoded, __ = kernel.transform(data)
        decoded = bytearray()
        for i in range(0, len(encoded), 2):
            decoded += bytes([encoded[i + 1]]) * encoded[i]
        assert bytes(decoded) == data

    def test_crc_matches_zlib(self):
        """The table-driven CRC32 agrees with the reference."""
        kernel = CRCSweep(size=8192)
        data = kernel.generate_input()
        out, __ = kernel.transform(data)
        # The kernel emits a running CRC per 4 KiB block, with the
        # register carried across blocks and no final inversion.
        crc = 0xFFFFFFFF
        table = CRCSweep._table()
        for byte in data[:4096]:
            crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
        first_block = int.from_bytes(out[:4], "little")
        assert first_block == crc
        # Cross-check the table itself against zlib: a full one-shot
        # CRC over the data, inverted per the standard, must match.
        full = 0xFFFFFFFF
        for byte in data:
            full = (full >> 8) ^ table[(full ^ byte) & 0xFF]
        assert (full ^ 0xFFFFFFFF) == zlib.crc32(data)

    def test_lzwindow_is_decodable(self):
        kernel = LZWindow(size=4096)
        data = kernel.generate_input()
        encoded, __ = kernel.transform(data)
        decoded = bytearray()
        i = 0
        while i < len(encoded):
            if encoded[i] == 0:
                decoded.append(encoded[i + 1])
                i += 2
            else:
                dist = int.from_bytes(encoded[i + 1 : i + 3], "little")
                length = encoded[i + 3]
                for __k in range(length):
                    decoded.append(decoded[-dist])
                i += 4
        assert bytes(decoded) == data

    def test_lzwindow_compresses(self):
        kernel = LZWindow(size=4096)
        encoded, __ = kernel.transform(kernel.generate_input())
        assert len(encoded) < 4096  # phrase-heavy input must shrink

    def test_histogram_counts_sum(self):
        kernel = Histogram(size=4096)
        data = kernel.generate_input()
        out, __ = kernel.transform(data)
        counts = [int.from_bytes(out[i : i + 4], "little")
                  for i in range(0, 1024, 4)]
        assert sum(counts) == len(data)
        assert counts[data[0]] >= 1

    def test_kmeans_centroids_in_range_and_sorted_inputwise(self):
        kernel = KMeans(size=2048)
        out, __ = kernel.transform(kernel.generate_input())
        assert len(out) == KMeans.K
        assert all(0 <= c <= 255 for c in out)

    def test_recordparse_aggregates(self):
        kernel = RecordParse()
        sample = b"id=1;qty=2;price=10;tag=t0\nid=2;qty=3;price=5;tag=t1\n"
        out, __ = kernel.transform(sample)
        records, qty, revenue = (int(x) for x in out.split(b","))
        assert (records, qty, revenue) == (2, 5, 35)

    def test_strsearch_counts(self):
        kernel = StrSearch(size=1024)
        out, __ = kernel.transform(b"cloak and shadow and cloak ")
        counts = [int.from_bytes(out[i : i + 4], "little")
                  for i in range(0, len(out), 4)]
        by_needle = dict(zip(StrSearch.NEEDLES, counts))
        assert by_needle[b"cloak"] == 2
        assert by_needle[b"shadow"] == 1

    def test_stencil_smooths(self):
        kernel = Stencil(size=256)
        kernel.iterations = 20
        spike = bytearray(256)
        spike[128] = 255
        out, __ = kernel.transform(bytes(spike))
        assert out[128] < 255       # the spike diffused
        assert max(out) <= 255

    def test_matmul_identity(self):
        kernel = MatMul(size=3)
        # A = I, B = arbitrary: C must equal B (mod 256).
        identity = bytes([1, 0, 0, 0, 1, 0, 0, 0, 1])
        b = bytes(range(10, 19))
        out, __ = kernel.transform(identity + b)
        assert out == b

    def test_bfs_root_depth_zero(self):
        kernel = BFSGraph(size=64)
        out, __ = kernel.transform(kernel.generate_input())
        assert out[0] == 1  # depth 0, stored as depth+1

    def test_shaloop_chains(self):
        import hashlib

        kernel = ShaLoop(size=3)
        data = kernel.generate_input()
        expected = data
        for __i in range(3):
            expected = hashlib.sha256(expected).digest()
        out, __c = kernel.transform(data)
        assert out == expected


# -- Rewritten kernels against their frozen reference loops -----------------

_KERNELS = {cls.name: cls for cls in COMPUTE_SUITE}
_SIZES = (1, 2, 5, 64, 500, 4096, 0, 77777)  # 0 selects the default size
_GENERATED = (
    [("matmul", k) for k in (1, 2, 3, 17, 56)]
    + [("bfsgraph", size) for size in _SIZES if size <= 20000]
    + [(name, size) for name in ("rle", "crcsweep", "lzwindow", "kmeans")
       for size in _SIZES]
    # Stencil's reference loop costs 10 sweeps per cell.
    + [("stencil", size) for size in (1, 2, 3, 4, 5, 64, 500, 4096, 0)]
)


@pytest.mark.parametrize("name,size", _GENERATED,
                         ids=[f"{n}-{s or 'default'}" for n, s in _GENERATED])
def test_transform_matches_reference_on_generated_input(name, size):
    kernel = _KERNELS[name](size=size)
    data = kernel.generate_input()
    assert kernel.transform(data) == REFERENCES[name](kernel, data)


_HANDMADE = {
    "one-byte": b"a" * 1000,
    "two-byte-period": b"ab" * 700,
    "all-values": bytes(range(256)) * 20,
    "long-run": b"xyz" + b"q" * 700 + b"xyz" + b"q" * 300,
    # Symbols that differ in their top bits: a match can end on a byte
    # that differs from its partner only in bit 7.
    "three-symbols": bytes(random.Random(7).choices(b"\x00\x40\x80", k=6000)),
}


@pytest.mark.parametrize("name",
                         ["rle", "stencil", "crcsweep", "lzwindow", "kmeans"])
@pytest.mark.parametrize("label", list(_HANDMADE))
def test_transform_matches_reference_on_handmade_input(name, label):
    kernel = _KERNELS[name]()
    data = _HANDMADE[label]
    assert kernel.transform(data) == REFERENCES[name](kernel, data)


@pytest.mark.parametrize("label", list(_HANDMADE))
def test_matmul_matches_reference_on_handmade_input(label):
    k = math.isqrt(len(_HANDMADE[label]) // 2)
    kernel = MatMul(size=k)
    data = _HANDMADE[label][: 2 * k * k]
    assert kernel.transform(data) == REFERENCES["matmul"](kernel, data)


@pytest.mark.parametrize("label,peers", [
    ("all-to-root", lambda node, n: (0, 0, 0, 0)),
    ("self-loops", lambda node, n: (node,) * 4),
    ("chain", lambda node, n: (min(node + 1, n - 1), node, 0, node)),
    ("4-ary-tree", lambda node, n: ((node * 4 + 1) % n, (node * 4 + 2) % n,
                              (node * 4 + 3) % n, (node * 4 + 4) % n)),
])
def test_bfsgraph_matches_reference_on_handmade_graph(label, peers):
    n = 700
    kernel = BFSGraph(size=n)
    data = b"".join(peer.to_bytes(4, "little")
                    for node in range(n) for peer in peers(node, n))
    assert kernel.transform(data) == REFERENCES["bfsgraph"](kernel, data)


@pytest.mark.parametrize("label,data", [
    ("empty", b""),
    ("run-255", b"z" * 255),
    ("run-256", b"z" * 256),
    ("run-511", b"z" * 511),
    ("newline-runs", b"\n" * 300 + b"a" + b"\n" * 3),
    ("alternating", b"\x00\xff" * 400),
])
def test_rle_matches_reference_on_edge_runs(label, data):
    kernel = RLECompress()
    assert kernel.transform(data) == REFERENCES["rle"](kernel, data)


@pytest.mark.parametrize("label,data", [
    ("empty", b""),
    ("saturated", b"\xff" * 1000),
    ("alternating", b"\x00\xff" * 500),
    ("spike-at-edges", b"\xff" + bytes(998) + b"\xff"),
])
def test_stencil_matches_reference_on_extremes(label, data):
    kernel = Stencil(size=len(data))
    assert kernel.transform(data) == REFERENCES["stencil"](kernel, data)


# -- Bulk input draws against one randrange call per value ------------------

_INPUT_SIZES = (1, 2, 3, 5, 64, 777, 0, 77777)  # 0 selects the default size
_INPUTS = (
    [("matmul", k) for k in _INPUT_SIZES if k <= 777]
    + [("bfsgraph", size) for size in _INPUT_SIZES if size <= 20000]
    + [(name, size) for name in ("qsortk", "rle", "stencil", "histogram",
                                 "crcsweep", "kmeans")
       for size in _INPUT_SIZES]
)


@pytest.mark.parametrize("name,size", _INPUTS,
                         ids=[f"{n}-{s or 'default'}" for n, s in _INPUTS])
def test_input_matches_reference(name, size):
    kernel = _KERNELS[name](size=size)
    assert kernel.generate_input() == INPUT_REFERENCES[name](kernel)


@pytest.mark.parametrize("bound", [1, 2, 3, 23, 32, 255, 256, 257, 12000,
                                   2**31])
@pytest.mark.parametrize("count", [0, 1, 7, 5000])
def test_randbelow_many_is_randrange(bound, count):
    bulk, single = random.Random(bound + count), random.Random(bound + count)
    assert _randbelow_many(bulk, count, bound) == \
        [single.randrange(bound) for __ in range(count)]
    assert bulk.random() == single.random()


@pytest.mark.parametrize("count", [0, 1, 7, 5000])
def test_randbytes_is_randrange_256(count):
    bulk, single = random.Random(count), random.Random(count)
    assert _randbytes(bulk, count) == \
        bytes(single.randrange(256) for __ in range(count))
    assert bulk.random() == single.random()


#: Just below, at and above one round's draw, and several rounds.
_ROUND_COUNTS = (_ROUND_WORDS - 1, _ROUND_WORDS, _ROUND_WORDS + 1,
                 3 * _ROUND_WORDS + 5)


@pytest.mark.parametrize("bound", [1, 3, 256, 12000, 2**31 + 1])
@pytest.mark.parametrize("count", _ROUND_COUNTS)
def test_randbelow_many_is_randrange_across_rounds(bound, count):
    bulk, single = random.Random(bound ^ count), random.Random(bound ^ count)
    assert _randbelow_many(bulk, count, bound) == \
        [single.randrange(bound) for __ in range(count)]
    assert bulk.getstate() == single.getstate()


@pytest.mark.parametrize("count", _ROUND_COUNTS)
def test_randbytes_is_randrange_256_across_rounds(count):
    bulk, single = random.Random(count), random.Random(count)
    assert _randbytes(bulk, count) == \
        bytes(single.randrange(256) for __ in range(count))
    assert bulk.getstate() == single.getstate()


@pytest.mark.parametrize("bound", [0, -1, 2**32])
def test_randbelow_many_rejects_bounds_beyond_one_word(bound):
    with pytest.raises(ValueError):
        _randbelow_many(random.Random(0), 1, bound)
