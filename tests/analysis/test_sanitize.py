"""The dynamic STATE001/MMU001 sanitizer behind ``--sanitize-run``."""

import io

from repro.analysis.sanitize import (EXPECT, RESULT, CoherenceChecker,
                                     SanitizerSink, TransitionChecker,
                                     sanitize_run)
from repro.core.metadata import CloakState
from repro.obs import bus


def test_expectation_tables_cover_the_probe_catalog():
    """Every cloak transition probe has a legal-from set and a result
    state, and both speak real CloakState member names."""
    assert set(EXPECT) == set(RESULT)
    members = {m.name for m in CloakState}
    for probe, legal in EXPECT.items():
        assert probe in bus.PROBES
        assert legal <= members
        assert RESULT[probe] in members


def test_legal_lifecycle_is_clean():
    tc = TransitionChecker()
    tc.on_transition("cloak.zero_fill", 1, 0x10)   # first sight
    tc.on_transition("cloak.encrypt", 1, 0x10)     # DIRTY -> ENCRYPTED
    tc.on_transition("cloak.decrypt", 1, 0x10)     # ENCRYPTED -> CLEAN
    tc.on_transition("cloak.ct_restore", 1, 0x10)  # CLEAN -> ENCRYPTED
    assert tc.violations == []
    assert tc.states[(1, 0x10)] == "ENCRYPTED"


def test_illegal_transition_is_flagged():
    tc = TransitionChecker()
    tc.on_transition("cloak.zero_fill", 1, 0x10)  # -> PLAINTEXT_DIRTY
    tc.on_transition("cloak.decrypt", 1, 0x10)    # legal only from ENCRYPTED
    assert len(tc.violations) == 1
    assert "PLAINTEXT_DIRTY" in tc.violations[0]


def test_first_sight_is_accepted_mid_lifecycle():
    tc = TransitionChecker()
    tc.on_transition("cloak.decrypt", 3, 0x20)  # attach mid-run: UNKNOWN
    assert tc.violations == []
    assert tc.states[(3, 0x20)] == "PLAINTEXT_CLEAN"


def test_discard_ends_a_lifecycle():
    tc = TransitionChecker()
    tc.on_transition("cloak.zero_fill", 1, 0x10)
    tc.on_discard(1, 0x10)
    tc.on_transition("cloak.decrypt", 1, 0x10)  # fresh lifecycle, OK
    assert tc.violations == []


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
    sink = SanitizerSink()
    sink.on_event("cloak.zero_fill", 0, (1, 0x10, 7, 100))
    sink.on_event("vmm.shadow_fill", 0, (1, 0, 0x10, 7))
    sink.on_event("vmm.coherence", 0, (7, 1))
    sink.on_event("tlb.invalidate", 0, (1, 0x10, 1))
    sink.on_event("cloak.discard", 0, (1, 0x10))
    sink.on_event("tlb.hits", 0, (5,))  # unrelated probes: ignored
    # zero_fill counts twice: once as a transition, once as a cloak
    # change on its carrying frame.
    assert sink.events == 6
    assert sink.violations == []


def test_sink_dispatch_routes_sync_probes():
    """VLock("crypto.memo") still emits sync.* probes during a replayed
    workload; the sink has no checker for them and must drop them
    without counting or flagging anything."""
    sink = SanitizerSink()
    sink.on_event("sync.acquire", 0, ("crypto.memo", 0))
    sink.on_event("sync.access", 0, ("repro.core.crypto:_derive_memo", 0))
    sink.on_event("sync.release", 0, ("crypto.memo", 0))
    sink.coherence.finish()
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
