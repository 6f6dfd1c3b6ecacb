"""VLock and the pinned ``crypto.memo`` probe stream."""

import pytest

from repro.core.crypto import derive_key
from repro.hw.sync import LockError, VLock
from repro.obs import bus


class RecordingSink:
    def __init__(self):
        self.events = []

    def bind(self, name, clock):
        return lambda *args: self.events.append((name, args))


def record(fn):
    sink = RecordingSink()
    bus.attach(sink, lambda: 0)
    try:
        fn()
    finally:
        bus.detach(sink)
    return sink.events


def test_acquire_release_tracks_owner():
    lock = VLock("t")
    assert not lock.held
    lock.acquire()
    assert lock.held
    lock.release()
    assert not lock.held


def test_same_owner_reacquire_raises():
    lock = VLock("t")
    lock.acquire()
    with pytest.raises(LockError, match="re-acquired"):
        lock.acquire()


def test_release_of_free_lock_raises():
    lock = VLock("t")
    with pytest.raises(LockError, match="released"):
        lock.release()
    assert not lock.held


def test_context_manager_releases_on_exception():
    lock = VLock("t")
    with pytest.raises(ValueError):
        with lock:
            assert lock.held
            raise ValueError("boom")
    assert not lock.held


def test_lock_fires_sync_probes_when_bus_active():
    lock = VLock("probe.lock")

    def use():
        with lock:
            pass

    assert record(use) == [
        ("sync.acquire", ("probe.lock", 0)),
        ("sync.release", ("probe.lock", 0)),
    ]


def test_lock_is_silent_with_no_sink():
    lock = VLock("t")
    with lock:
        pass  # no sink attached: probes are no-ops, nothing raises


def test_derive_key_emits_the_pinned_probe_stream():
    """Benchmark pins hash the ``sync.*`` probe names and per-call
    counts, so one derivation must emit exactly these three events,
    whether the memo hits or misses."""
    expected = [
        ("sync.acquire", ("crypto.memo", 0)),
        ("sync.access", ("repro.core.crypto:_derive_memo", 0)),
        ("sync.release", ("crypto.memo", 0)),
    ]
    for _ in range(2):
        assert record(lambda: derive_key(b"m" * 32, "pinned", 7)) == expected
