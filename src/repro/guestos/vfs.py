"""VFS layer: path resolution and directory operations over RamFS."""

from typing import List, Tuple

from repro.guestos import uapi
from repro.guestos.pipes import Pipe
from repro.guestos.ramfs import Inode, InodeType, RamFS


class VFSError(Exception):
    """Carries an errno for the syscall layer."""

    def __init__(self, errno: int, message: str = ""):
        super().__init__(message or uapi.errno_name(errno))
        self.errno = errno


def split_path(path: str) -> List[str]:
    return [part for part in path.split("/") if part]


class VFS:
    """Pathnames -> inodes, plus directory surgery."""

    def __init__(self, fs: RamFS):
        self.fs = fs
        self._make_devices()

    def _make_devices(self) -> None:
        dev = self.fs.new_inode(InodeType.DIRECTORY)
        self.fs.root.entries["dev"] = dev.inode_id
        for name in ("console", "null"):
            node = self.fs.new_inode(InodeType.DEVICE)
            node.device = name
            dev.entries[name] = node.inode_id

    # -- resolution ---------------------------------------------------------

    def resolve(self, path: str) -> Inode:
        """Full path -> inode; raises VFSError(ENOENT/ENOTDIR)."""
        inode = self.fs.root
        for part in split_path(path):
            if inode.itype is not InodeType.DIRECTORY:
                raise VFSError(uapi.ENOTDIR, path)
            child_id = inode.entries.get(part)
            if child_id is None:
                raise VFSError(uapi.ENOENT, path)
            inode = self.fs.get(child_id)
        return inode

    def resolve_parent(self, path: str) -> Tuple[Inode, str]:
        """Parent directory of ``path`` and the final component."""
        parts = split_path(path)
        if not parts:
            raise VFSError(uapi.EINVAL, "empty path")
        parent = self.fs.root
        for part in parts[:-1]:
            if parent.itype is not InodeType.DIRECTORY:
                raise VFSError(uapi.ENOTDIR, path)
            child_id = parent.entries.get(part)
            if child_id is None:
                raise VFSError(uapi.ENOENT, path)
            parent = self.fs.get(child_id)
        if parent.itype is not InodeType.DIRECTORY:
            raise VFSError(uapi.ENOTDIR, path)
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except VFSError:
            return False

    # -- creation / removal --------------------------------------------------------

    def create_file(self, path: str) -> Inode:
        parent, name = self.resolve_parent(path)
        if name in parent.entries:
            raise VFSError(uapi.EEXIST, path)
        inode = self.fs.new_inode(InodeType.REGULAR)
        parent.entries[name] = inode.inode_id
        return inode

    def mkdir(self, path: str) -> Inode:
        parent, name = self.resolve_parent(path)
        if name in parent.entries:
            raise VFSError(uapi.EEXIST, path)
        inode = self.fs.new_inode(InodeType.DIRECTORY)
        parent.entries[name] = inode.inode_id
        return inode

    def mkfifo(self, path: str) -> Inode:
        parent, name = self.resolve_parent(path)
        if name in parent.entries:
            raise VFSError(uapi.EEXIST, path)
        inode = self.fs.new_inode(InodeType.FIFO)
        inode.pipe = Pipe()
        parent.entries[name] = inode.inode_id
        return inode

    def unlink(self, path: str) -> None:
        parent, name = self.resolve_parent(path)
        child_id = parent.entries.get(name)
        if child_id is None:
            raise VFSError(uapi.ENOENT, path)
        child = self.fs.get(child_id)
        if child.itype is InodeType.DIRECTORY:
            if child.entries:
                raise VFSError(uapi.ENOTEMPTY, path)
        del parent.entries[name]
        child.nlink -= 1
        if child.nlink <= 0:
            self.fs.drop_inode(child)

    def rename(self, old_path: str, new_path: str) -> None:
        """Move a directory entry; replaces an existing regular target
        (POSIX semantics, minus cross-checks we do not model)."""
        old_parent, old_name = self.resolve_parent(old_path)
        child_id = old_parent.entries.get(old_name)
        if child_id is None:
            raise VFSError(uapi.ENOENT, old_path)
        new_parent, new_name = self.resolve_parent(new_path)
        existing_id = new_parent.entries.get(new_name)
        if existing_id is not None:
            if existing_id == child_id:
                return
            existing = self.fs.get(existing_id)
            if existing.itype is InodeType.DIRECTORY:
                raise VFSError(uapi.EISDIR, new_path)
            existing.nlink -= 1
            if existing.nlink <= 0:
                self.fs.drop_inode(existing)
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = child_id

    def readdir(self, path: str) -> List[str]:
        inode = self.resolve(path)
        if inode.itype is not InodeType.DIRECTORY:
            raise VFSError(uapi.ENOTDIR, path)
        return sorted(inode.entries)

    # -- stat ---------------------------------------------------------------------

    STAT_TYPES = {
        InodeType.REGULAR: uapi.S_IFREG,
        InodeType.DIRECTORY: uapi.S_IFDIR,
        InodeType.FIFO: uapi.S_IFIFO,
        InodeType.DEVICE: uapi.S_IFCHR,
    }

    def stat(self, inode: Inode) -> Tuple[int, int, int]:
        """(type, size, inode_id) — the subset our stat(2) reports."""
        return self.STAT_TYPES[inode.itype], inode.size, inode.inode_id
