"""The dynamic MMU001 coherence sanitizer behind ``--sanitize-run``."""

import io

from repro.analysis.sanitize import CoherenceChecker, sanitize_run


def fire(sink, name, *args):
    """Deliver one probe event through the sink's bound handler."""
    sink.bind(name, lambda: 0)(*args)


def test_shadow_fill_over_unflushed_frame_is_flagged():
    cc = CoherenceChecker()
    cc.on_shadow_fill(1, 0, 0x10, 7)
    cc.on_cloak_change("cloak.encrypt", 7)  # frame 7 now pending
    cc.on_shadow_fill(1, 1, 0x10, 7)
    assert len(cc.violations) == 1
    assert "frame 7" in cc.violations[0]


def test_coherence_event_clears_pending():
    cc = CoherenceChecker()
    cc.on_shadow_fill(1, 0, 0x10, 7)
    cc.on_cloak_change("cloak.encrypt", 7)
    cc.on_coherence(7, 1)
    cc.on_shadow_fill(1, 1, 0x10, 7)
    cc.finish()
    assert cc.violations == []


def test_cloak_change_without_mappings_is_benign():
    cc = CoherenceChecker()
    cc.on_cloak_change("cloak.encrypt", 7)
    cc.finish()
    assert cc.violations == []


def test_tlb_invalidate_removes_matching_mappings():
    cc = CoherenceChecker()
    cc.on_shadow_fill(1, 0, 0x10, 7)
    cc.on_tlb_invalidate(1, 0x10, 1)  # guest invlpg'd that vpn
    cc.on_cloak_change("cloak.encrypt", 7)  # no live mappings now
    cc.finish()
    assert cc.violations == []


def test_unflushed_frame_at_end_is_flagged():
    cc = CoherenceChecker()
    cc.on_shadow_fill(1, 0, 0x10, 7)
    cc.on_cloak_change("cloak.encrypt", 7)
    cc.finish()
    assert len(cc.violations) == 1
    assert "still un-flushed" in cc.violations[0]


def test_sink_dispatch_routes_probes():
    sink = CoherenceChecker()
    fire(sink, "cloak.zero_fill", 1, 0x10, 7, 100)
    fire(sink, "vmm.shadow_fill", 1, 0, 0x10, 7)
    fire(sink, "vmm.coherence", 7, 1)
    fire(sink, "tlb.invalidate", 1, 0x10, 1)
    fire(sink, "cloak.dirty_upgrade", 1, 0x10)  # no frame: ignored
    fire(sink, "cloak.discard", 1, 0x10)
    fire(sink, "tlb.hits", 5)  # unrelated probes: ignored
    assert sink.events == 4
    assert sink.violations == []


def test_sink_dispatch_routes_sync_probes():
    """VLock("crypto.memo") still emits sync.* probes during a replayed
    workload; the sink has no checker for them and must drop them
    without counting or flagging anything."""
    sink = CoherenceChecker()
    fire(sink, "sync.acquire", "crypto.memo", 0)
    fire(sink, "sync.access", "repro.core.crypto:_derive_memo", 0)
    fire(sink, "sync.release", "crypto.memo", 0)
    sink.finish()
    assert sink.events == 0
    assert sink.violations == []


def test_unknown_workload_exits_two():
    out = io.StringIO()
    assert sanitize_run("no-such-suite", out) == 2
    assert "unknown sanitize workload" in out.getvalue()


def test_mb_suite_differential_run_agrees(monkeypatch):
    """End to end: static clean, dynamic clean, cycles bit-identical
    to the committed BENCH_wallclock.json."""
    from pathlib import Path

    import repro

    repo_root = Path(repro.__file__).resolve().parent.parent.parent
    monkeypatch.chdir(repo_root)
    out = io.StringIO()
    code = sanitize_run("mb-suite", out)
    text = out.getvalue()
    assert code == 0, text
    assert "AGREE" in text
    assert "sanitizer charged nothing" in text
