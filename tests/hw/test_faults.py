"""Fault types: the text a page fault reads as."""

import pickle

import pytest

from repro.hw.faults import AccessKind, PageFault, PageFaultReason

# The text each (access, reason) pair has always read as.
EXPECTED = {
    (AccessKind.READ, PageFaultReason.NOT_PRESENT):
        "page fault @ 0x00403008 (read, not-present)",
    (AccessKind.READ, PageFaultReason.PROTECTION):
        "page fault @ 0x00403008 (read, protection)",
    (AccessKind.READ, PageFaultReason.USER_SUPERVISOR):
        "page fault @ 0x00403008 (read, user-supervisor)",
    (AccessKind.WRITE, PageFaultReason.NOT_PRESENT):
        "page fault @ 0x00403008 (write, not-present)",
    (AccessKind.WRITE, PageFaultReason.PROTECTION):
        "page fault @ 0x00403008 (write, protection)",
    (AccessKind.WRITE, PageFaultReason.USER_SUPERVISOR):
        "page fault @ 0x00403008 (write, user-supervisor)",
    (AccessKind.EXECUTE, PageFaultReason.NOT_PRESENT):
        "page fault @ 0x00403008 (execute, not-present)",
    (AccessKind.EXECUTE, PageFaultReason.PROTECTION):
        "page fault @ 0x00403008 (execute, protection)",
    (AccessKind.EXECUTE, PageFaultReason.USER_SUPERVISOR):
        "page fault @ 0x00403008 (execute, user-supervisor)",
}


def test_every_pair_is_covered():
    assert set(EXPECTED) == {(access, reason) for access in AccessKind
                             for reason in PageFaultReason}


@pytest.mark.parametrize("access,reason", sorted(
    EXPECTED, key=lambda pair: (pair[0].value, pair[1].value)))
def test_page_fault_text(access, reason):
    fault = PageFault(0x403008, access, reason)
    assert str(fault) == EXPECTED[access, reason]
    assert (fault.vaddr, fault.access, fault.reason) == \
        (0x403008, access, reason)


def test_page_fault_round_trips_through_pickle():
    fault = PageFault(0x2000, AccessKind.WRITE, PageFaultReason.PROTECTION)
    again = pickle.loads(pickle.dumps(fault))
    assert str(again) == str(fault)
    assert (again.vaddr, again.access, again.reason) == \
        (fault.vaddr, fault.access, fault.reason)
