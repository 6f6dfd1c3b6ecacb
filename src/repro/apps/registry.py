"""Convenience registration of the standard program suite."""

from typing import Iterable, Optional

from repro.apps.compute import COMPUTE_SUITE
from repro.apps.fileio import (FileStreamer, ReadWriteMix, SequentialRead,
                               SequentialWrite)
from repro.apps.forkstress import CompileFarm, ForkStress
from repro.apps.chanpump import ChannelPump
from repro.apps.kvstore import KVStore
from repro.apps.memwalk import WorkingSetWalker
from repro.apps.microbench import EmptyLoop, MICRO_SUITE
from repro.apps.secrets import SecretHolder, SecretWriter
from repro.apps.webserver import WebClient, WebServer
from repro.machine import Machine

ALL_PROGRAMS = (
    tuple(COMPUTE_SUITE)
    + tuple(MICRO_SUITE)
    + (EmptyLoop, FileStreamer, SequentialRead, SequentialWrite, ReadWriteMix,
       ForkStress, CompileFarm, WebServer, WebClient,
       SecretHolder, SecretWriter, WorkingSetWalker, ChannelPump, KVStore)
)


#: Programs a generated guest (:mod:`repro.gen`) may ``exec``.  Kept
#: tiny so every fuzz run registers only this baseline, not the suite.
GEN_EXEC_TARGETS = ("mb-empty",)


def register_all(machine: Machine, cloaked: bool = False,
                 only: Optional[Iterable[str]] = None) -> None:
    """Register the whole suite on ``machine`` (cloaked or native)."""
    wanted = set(only) if only is not None else None
    for program_cls in ALL_PROGRAMS:
        if wanted is not None and program_cls.name not in wanted:
            continue
        machine.register(program_cls, cloaked=cloaked)


def make_secure_dirs(machine: Machine) -> None:
    """Create the directories the suite expects (incl. /secure)."""
    for path in ("/secure", "/srv", "/www", "/bin", "/tmp"):
        if not machine.kernel.vfs.exists(path):
            machine.kernel.vfs.mkdir(path)
