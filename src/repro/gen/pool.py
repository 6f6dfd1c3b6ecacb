"""Resource pool: what keeps generated programs well-formed.

Random op streams are useless if half the ops fault on a closed fd or
munmap an address that was never mapped — the run degenerates into
error-path noise and exercises nothing.  The pool gives the generator
riescue-style *constrained* randomness: every op draws its operands
(file handles, mapped regions, scratch buffers, child slots) from the
set of resources that are provably live at that point in the program,
so generated programs are self-checking rather than trivially
faulting.

Resources are *symbolic* at generation time — handle ``3`` is "the
fourth file the program opens", not a concrete fd number — and the
interpreter (:class:`repro.gen.generator.GeneratedProgram`) binds them
to concrete fds/vaddrs at runtime.  That indirection is what makes the
shrinker sound: :func:`sweep` replays the liveness rules over a
post-``drop`` op list and removes ops whose operands died with a
dropped producer, and :class:`FileModel` then recomputes every
expected byte, so *any* drop set yields a valid self-checking program.
"""

from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Resource-token kinds (first element of a token tuple).
KIND_FD = "fd"          # an open content-file handle
KIND_MAP = "map"        # a live mmap region
KIND_BUF = "buf"        # an allocated scratch buffer

Token = Tuple[str, int]


class ResourcePool:
    """Symbolic live-resource state, advanced op by op.

    One instance serves the emitter (to draw valid operands) and a
    second, fresh instance serves :func:`sweep` (to re-derive liveness
    over the post-drop stream).  Both walk the same transition rules:
    an op's ``provides`` tokens become live after it, its ``revokes``
    tokens die with it, and an op is only admissible while every one of
    its ``needs`` tokens is live.
    """

    def __init__(self):
        self._live: Set[Token] = set()
        self._next_id: Dict[str, int] = {}
        #: kind -> ordered live ids (deterministic draws need order).
        self._order: Dict[str, List[int]] = {}

    # -- allocation -----------------------------------------------------

    def fresh(self, kind: str) -> int:
        """Allocate the next symbolic id of ``kind`` (not yet live)."""
        next_id = self._next_id.get(kind, 0)
        self._next_id[kind] = next_id + 1
        return next_id

    # -- liveness -------------------------------------------------------

    def live(self, kind: str) -> Tuple[int, ...]:
        """Live ids of ``kind``, in creation order."""
        return tuple(self._order.get(kind, ()))

    def admissible(self, needs: Iterable[Token]) -> bool:
        return all(token in self._live for token in needs)

    def apply(self, provides: Iterable[Token],
              revokes: Iterable[Token]) -> None:
        """Advance past one op: grant its provides, kill its revokes."""
        for token in provides:
            if token not in self._live:
                self._live.add(token)
                self._order.setdefault(token[0], []).append(token[1])
        for token in revokes:
            if token in self._live:
                self._live.discard(token)
                self._order[token[0]].remove(token[1])


def sweep(ops: Sequence, drop: Iterable[int]) -> List:
    """Dependency-closing drop: remove ``drop`` indices *and* orphans.

    Walks ``ops`` in order with a fresh pool; an op survives iff its
    index is not dropped and every token it needs is still live (its
    producers survived).  Survivors' provides/revokes advance the pool,
    so a dropped ``open`` transitively removes the writes, seeks and
    close that used its handle — exactly the closure the shrinker needs
    to stay inside the space of valid programs.
    """
    dropped = set(drop)
    pool = ResourcePool()
    kept = []
    for index, op in enumerate(ops):
        if getattr(op, "kind", None) == "prologue":
            # The prologue captures run-wide state (the root pid) every
            # later op may rely on; it is never a shrink candidate.
            kept.append(op)
            continue
        if index in dropped or not pool.admissible(op.needs):
            continue
        pool.apply(op.provides, op.revokes)
        kept.append(op)
    return kept


class FileModel:
    """Byte-exact mirror of the guest kernel's regular-file semantics.

    The generator simulates every content-file op against this model
    (after the drop sweep) to bake concrete seek offsets, truncate
    sizes and expected read-back bytes into the finalized plan.  The
    model deliberately covers only the cases the generator emits —
    O_CREAT|O_RDWR (optionally O_APPEND) handles, in-bounds seeks,
    shrinking truncates — and refuses anything else, so model drift
    from :mod:`repro.guestos.sys_file` is an assertion, not a silent
    wrong expectation.
    """

    def __init__(self):
        #: path -> current logical content.
        self.files: Dict[str, bytearray] = {}
        #: symbolic handle id -> (path, offset, append).
        self.handles: Dict[int, Tuple[str, int, bool]] = {}

    # -- the op mirror --------------------------------------------------

    def open(self, handle: int, path: str, append: bool = False) -> None:
        if handle in self.handles:
            raise ValueError(f"handle {handle} opened twice")
        self.files.setdefault(path, bytearray())
        self.handles[handle] = (path, 0, append)

    def close(self, handle: int) -> None:
        del self.handles[handle]

    def write(self, handle: int, data: bytes) -> int:
        path, offset, append = self.handles[handle]
        content = self.files[path]
        if append:
            offset = len(content)
        end = offset + len(data)
        if end > len(content):
            content.extend(b"\x00" * (end - len(content)))
        content[offset:end] = data
        self.handles[handle] = (path, end, append)
        return len(data)

    def seek(self, handle: int, target: int) -> int:
        """SEEK_SET to ``target`` clamped into the current size."""
        path, __, append = self.handles[handle]
        clamped = max(0, min(target, len(self.files[path])))
        self.handles[handle] = (path, clamped, append)
        return clamped

    def truncate(self, handle: int, target: int) -> int:
        """Shrink-only truncate, clamped into the current size.

        Deliberately leaves the handle offset untouched — the kernel's
        truncate does not move file offsets.  The generator never
        *uses* an offset beyond EOF (every write re-seeks first), so
        no zero-fill-hole case can arise on either side.
        """
        path, __, __ = self.handles[handle]
        content = self.files[path]
        clamped = max(0, min(target, len(content)))
        del content[clamped:]
        return clamped

    def read_all(self, handle: int) -> bytes:
        """Expected bytes of a seek(0)+read(size) read-back."""
        path, __, append = self.handles[handle]
        data = bytes(self.files[path])
        self.handles[handle] = (path, len(data), append)
        return data

    def put(self, path: str, data: bytes) -> None:
        """Whole-file content written outside any handle (child
        protocols write their files in the child)."""
        self.files[path] = bytearray(data)

    # -- interrogation --------------------------------------------------

    def size(self, handle: int) -> int:
        return len(self.files[self.handles[handle][0]])

    def path_of(self, handle: int) -> str:
        return self.handles[handle][0]

    def surviving_paths(self) -> Tuple[str, ...]:
        """Paths that exist at end of program, in creation order."""
        return tuple(self.files)


def pick(rng, options: Sequence):
    """Deterministic choice that tolerates empty sequences."""
    if not options:
        return None
    return options[rng.randrange(len(options))]
