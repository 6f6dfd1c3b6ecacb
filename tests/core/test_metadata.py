"""Unit tests for cloaked-page and cloaked-file metadata stores."""

import pytest

from repro.core.crypto import PageCipher
from repro.core.errors import IntegrityViolation
from repro.core.metadata import (
    CloakState,
    FileMetadataStore,
    HISTORY_DEPTH,
    METADATA_BYTES_PER_PAGE,
    MetadataStore,
    PageMetadata,
    TRANSITIONS,
)
from repro.hw.params import PAGE_SIZE


class TestPageMetadata:
    def test_fresh_state(self):
        md = PageMetadata(1, 0x40, lineage_id=10)
        assert md.state is CloakState.FRESH
        assert not md.has_ciphertext_record
        assert md.version == 0

    def test_record_encryption_archives_history(self):
        md = PageMetadata(1, 0x40, lineage_id=10)
        md.record_encryption(1, b"iv1", b"mac1")
        assert md.history == []
        md.record_encryption(2, b"iv2", b"mac2")
        assert md.history == [(1, b"iv1", b"mac1")]
        assert md.version == 2 and md.mac == b"mac2"

    def test_history_bounded(self):
        md = PageMetadata(1, 0x40, lineage_id=10)
        for v in range(1, HISTORY_DEPTH + 5):
            md.record_encryption(v, b"iv", f"mac{v}".encode())
        assert len(md.history) == HISTORY_DEPTH

    def test_matches_stale_version(self):
        cipher = PageCipher(b"m", b"id1")
        md = PageMetadata(1, 0x40, cipher.lineage_id)
        old_ct, old_iv, old_mac = cipher.encrypt_page(0x40, 1, b"a" * PAGE_SIZE)
        md.record_encryption(1, old_iv, old_mac)
        new_ct, new_iv, new_mac = cipher.encrypt_page(0x40, 2, b"b" * PAGE_SIZE)
        md.record_encryption(2, new_iv, new_mac)
        assert md.matches_stale_version(cipher, old_ct) == 1
        assert md.matches_stale_version(cipher, new_ct) is None
        assert md.matches_stale_version(cipher, b"\x00" * PAGE_SIZE) is None


#: The paper's five edges plus the idempotent dirty upgrade, spelled
#: out independently of the table under test.
LEGAL = {
    ("FRESH", "PLAINTEXT_DIRTY"), ("FRESH", "ENCRYPTED"),
    ("ENCRYPTED", "PLAINTEXT_CLEAN"),
    ("PLAINTEXT_CLEAN", "PLAINTEXT_DIRTY"), ("PLAINTEXT_CLEAN", "ENCRYPTED"),
    ("PLAINTEXT_DIRTY", "ENCRYPTED"), ("PLAINTEXT_DIRTY", "PLAINTEXT_DIRTY"),
}


def test_transition_table_is_the_paper_lattice():
    assert {(a.name, b.name) for a, b in TRANSITIONS} == LEGAL


@pytest.mark.parametrize("prior", list(CloakState), ids=lambda s: s.name)
@pytest.mark.parametrize("target", list(CloakState), ids=lambda s: s.name)
def test_transition(prior, target):
    """Legal edges move the state; illegal ones raise before any
    field of the record changes."""
    md = PageMetadata(1, 0x40, lineage_id=10)
    md.record_encryption(1, b"iv1", b"mac1")
    md.record_encryption(2, b"iv2", b"mac2")
    md.resident_gpfn = 7
    md.cached_ciphertext = b"ct"
    md.file_binding = (3, 4)
    md.state = prior
    before = {slot: getattr(md, slot) for slot in PageMetadata.__slots__}
    if (prior.name, target.name) in LEGAL:
        md.transition(target)
        assert md.state is target
        before["state"] = target
    else:
        with pytest.raises(IntegrityViolation, match="illegal cloak-state"):
            md.transition(target)
    assert {slot: getattr(md, slot) for slot in PageMetadata.__slots__} \
        == before


class TestMetadataStore:
    def test_get_or_create_idempotent(self):
        store = MetadataStore()
        a = store.get_or_create(1, 0x40, lineage_id=10)
        b = store.get_or_create(1, 0x40, lineage_id=10)
        assert a is b
        assert len(store) == 1

    def test_lookup_missing(self):
        store = MetadataStore()
        assert store.lookup(1, 0x40) is None

    def test_plaintext_frame_tracking(self):
        store = MetadataStore()
        md = store.get_or_create(1, 0x40, lineage_id=10)
        store.note_plaintext(md, 7)
        assert store.plaintext_in_frame(7) is md
        assert md.resident_gpfn == 7
        store.note_not_plaintext(md)
        assert store.plaintext_in_frame(7) is None

    def test_plaintext_moves_between_frames(self):
        store = MetadataStore()
        md = store.get_or_create(1, 0x40, lineage_id=10)
        store.note_plaintext(md, 7)
        store.note_plaintext(md, 9)
        assert store.plaintext_in_frame(7) is None
        assert store.plaintext_in_frame(9) is md

    def test_remove_clears_frame_index(self):
        store = MetadataStore()
        md = store.get_or_create(1, 0x40, lineage_id=10)
        store.note_plaintext(md, 7)
        store.remove(1, 0x40)
        assert store.plaintext_in_frame(7) is None
        assert store.lookup(1, 0x40) is None

    def test_overhead_accounting(self):
        store = MetadataStore()
        for vpn in range(10):
            store.get_or_create(1, vpn, lineage_id=10)
        assert store.overhead_bytes() == 10 * METADATA_BYTES_PER_PAGE

    def test_owners_are_separate(self):
        store = MetadataStore()
        store.get_or_create(1, 0x40, lineage_id=10)
        store.get_or_create(2, 0x40, lineage_id=10)
        assert len(store) == 2
        assert len(store.pages_of_owner(1)) == 1

    def test_clone_owner_copies_entries(self):
        store = MetadataStore()
        md = store.get_or_create(1, 0x40, lineage_id=10)
        md.record_encryption(3, b"iv", b"mac")
        store.note_plaintext(md, 7)
        md.state = CloakState.PLAINTEXT_DIRTY
        assert store.clone_owner(1, 2) == 1
        clone = store.lookup(2, 0x40)
        assert clone is not None
        assert clone.version == 3 and clone.mac == b"mac"
        assert clone.state is CloakState.ENCRYPTED  # never plaintext
        assert clone.resident_gpfn is None
        # Original unaffected.
        assert store.lookup(1, 0x40).resident_gpfn == 7

    def test_clone_owner_fresh_page_stays_fresh(self):
        store = MetadataStore()
        store.get_or_create(1, 0x40, lineage_id=10)
        store.clone_owner(1, 2)
        assert store.lookup(2, 0x40).state is CloakState.FRESH


class TestFileMetadataStore:
    def test_save_load_roundtrip(self):
        store = FileMetadataStore()
        store.save(1, 55, 3, 7, b"iv", b"mac")
        assert store.load(1, 55, 3) == (7, b"iv", b"mac")

    def test_load_missing(self):
        store = FileMetadataStore()
        assert store.load(1, 55, 3) is None

    def test_lineage_isolation(self):
        store = FileMetadataStore()
        store.save(1, 55, 3, 7, b"iv", b"mac")
        assert store.load(2, 55, 3) is None

    def test_drop_file(self):
        store = FileMetadataStore()
        for page in range(4):
            store.save(1, 55, page, 1, b"iv", b"mac")
        store.save(1, 66, 0, 1, b"iv", b"mac")
        assert store.drop_file(1, 55) == 4
        assert len(store) == 1
        assert store.load(1, 66, 0) is not None
