"""IMP001: every module-level import binding is read in its module."""

from tests.analysis.invariants import check

SOURCE = """\
from __future__ import annotations
import os
import os.path as osp
from typing import List, Optional
from m import Exported, Machine, Unused
__all__ = ['Exported']
def f(x: Optional['Machine']) -> None:
    os = 1
    return os
"""


def test_scanner_counts_string_annotations_and_all_as_use():
    # ``os`` is read (the local shadows it, but a name pass cannot tell
    # and need not); ``osp``, ``List`` and ``Unused`` never are, and
    # ``__future__`` binds nothing.
    assert check("IMP001", "repro.m", SOURCE) == [
        (3, "'osp' is imported but never used"),
        (4, "'List' is imported but never used"),
        (5, "'Unused' is imported but never used")]


def test_init_modules_are_skipped():
    assert check("IMP001", "repro.m.__init__", SOURCE) == []
