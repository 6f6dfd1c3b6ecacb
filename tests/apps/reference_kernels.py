"""Frozen reference loops for the rewritten compute kernels.

These are the original pure-Python loops, kept verbatim (``self``
became ``kernel``) as oracles:

* the ``transform`` of ``MatMul``, ``RLECompress``, ``BFSGraph``,
  ``Stencil``, ``CRCSweep``, ``LZWindow`` and ``KMeans``: each kernel's
  ``transform`` must return exactly what its reference returns, output
  bytes and ALU units alike;
* the ``generate_input`` of every kernel whose inputs are now drawn in
  bulk: each must return exactly the same bytes, one ``randrange`` call
  per value.

Never regenerate these from the code under test; a change to a
kernel's semantics is a change here first, made by hand.
"""


def matmul(kernel, data: bytes):
    k = kernel.size
    a = [list(data[i * k : (i + 1) * k]) for i in range(k)]
    b = [list(data[(k + i) * k : (k + i + 1) * k]) for i in range(k)]
    out = bytearray()
    for i in range(k):
        for j in range(k):
            acc = 0
            row = a[i]
            for t in range(k):
                acc += row[t] * b[t][j]
            out.append(acc & 0xFF)
    return bytes(out), 2 * k * k * k  # one mul + one add per step


def rle(kernel, data: bytes):
    out = bytearray()
    i = 0
    while i < len(data):
        j = i
        while j < len(data) and data[j] == data[i] and j - i < 255:
            j += 1
        out.append(j - i)
        out.append(data[i])
        i = j
    return bytes(out), 7 * len(data)


def bfsgraph(kernel, data: bytes):
    n = kernel.size
    adj = [
        [int.from_bytes(data[(node * 4 + e) * 4 : (node * 4 + e) * 4 + 4],
                        "little") for e in range(4)]
        for node in range(n)
    ]
    depth = [-1] * n
    depth[0] = 0
    frontier = [0]
    visited = 1
    while frontier:
        nxt = []
        for node in frontier:
            for peer in adj[node]:
                if depth[peer] < 0:
                    depth[peer] = depth[node] + 1
                    nxt.append(peer)
                    visited += 1
        frontier = nxt
    out = bytes((d + 1) & 0xFF for d in depth)
    return out, 14 * visited + 3 * 4 * n


def stencil(kernel, data: bytes):
    cells = list(data)
    for __ in range(kernel.iterations):
        prev = cells[:]
        for i in range(1, len(cells) - 1):
            cells[i] = (prev[i - 1] + 2 * prev[i] + prev[i + 1]) // 4
    return bytes(cells), 4 * kernel.size * kernel.iterations


def crcsweep(kernel, data: bytes):
    table = kernel._table()
    crc = 0xFFFFFFFF
    out = bytearray()
    for offset in range(0, len(data), 4096):
        for byte in data[offset : offset + 4096]:
            crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
        out += (crc & 0xFFFFFFFF).to_bytes(4, "little")
    # ~3 ops per byte: shift, xor, table lookup.
    return bytes(out), 3 * len(data)


def lzwindow(kernel, data: bytes):
    out = bytearray()
    i = 0
    comparisons = 0
    while i < len(data):
        best_len = 0
        best_dist = 0
        window_start = max(0, i - kernel.WINDOW)
        j = window_start
        while j < i:
            length = 0
            while (i + length < len(data) and length < 255
                   and data[j + length] == data[i + length]
                   and j + length < i):
                length += 1
            comparisons += length + 1
            if length > best_len:
                best_len = length
                best_dist = i - j
            j += 1
        if best_len >= kernel.MIN_MATCH:
            out += b"\x01" + best_dist.to_bytes(2, "little") \
                + bytes([best_len])
            i += best_len
        else:
            out += b"\x00" + data[i : i + 1]
            i += 1
    return bytes(out), 2 * comparisons


def kmeans(kernel, data: bytes):
    centroids = [int((c + 0.5) * 256 / kernel.K) for c in range(kernel.K)]
    work = 0
    for __ in range(kernel.ITERATIONS):
        sums = [0] * kernel.K
        counts = [0] * kernel.K
        for value in data:
            best = min(range(kernel.K),
                       key=lambda c: abs(value - centroids[c]))
            sums[best] += value
            counts[best] += 1
        work += len(data) * kernel.K
        centroids = [
            sums[c] // counts[c] if counts[c] else centroids[c]
            for c in range(kernel.K)
        ]
    out = bytes(centroids)
    # distance + compare per (point, centroid), twice over.
    return out, 2 * work


#: Kernel name -> reference transform.
REFERENCES = {
    "matmul": matmul,
    "rle": rle,
    "bfsgraph": bfsgraph,
    "stencil": stencil,
    "crcsweep": crcsweep,
    "lzwindow": lzwindow,
    "kmeans": kmeans,
}


# -- Inputs: one ``randrange`` call per value --------------------------------

def matmul_input(kernel):
    rng = kernel.rng()
    cells = 2 * kernel.size * kernel.size
    return bytes(rng.randrange(256) for __ in range(cells))


def rle_input(kernel):
    rng = kernel.rng()
    out = bytearray()
    while len(out) < kernel.size:
        out.extend(bytes([rng.randrange(32)]) * rng.randrange(1, 24))
    return bytes(out[: kernel.size])


def bfsgraph_input(kernel):
    rng = kernel.rng()
    n = kernel.size
    edges = bytearray()
    for node in range(n):
        for __ in range(4):
            edges += rng.randrange(n).to_bytes(4, "little")
    return bytes(edges)


def byte_input(kernel):
    """``QSortK``, ``Stencil``, ``Histogram``, ``CRCSweep`` and
    ``KMeans`` all drew their input with this one body."""
    rng = kernel.rng()
    return bytes(rng.randrange(256) for __ in range(kernel.size))


#: Kernel name -> reference ``generate_input``.
INPUT_REFERENCES = {
    "matmul": matmul_input,
    "qsortk": byte_input,
    "rle": rle_input,
    "bfsgraph": bfsgraph_input,
    "stencil": byte_input,
    "histogram": byte_input,
    "crcsweep": byte_input,
    "kmeans": byte_input,
}
