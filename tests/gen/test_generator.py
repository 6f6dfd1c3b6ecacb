"""Generator: purity, drop semantics, and native self-check health."""

from repro.faults.oracle import run_once
from repro.gen.generator import app_spec_for, generate
from repro.gen.spec import PRESETS, derive_seed
from repro.guestos.uapi import Syscall

SYSCALL_NAMES = {sc.name for sc in Syscall}


def _native_exit(seed, spec):
    app, __ = app_spec_for(seed, spec)
    return run_once(app, cloaked=False).exit_code


class TestPurity:
    def test_same_pair_same_listing(self):
        spec = PRESETS["default"]
        a, b = generate(7, spec), generate(7, spec)
        assert a.listing() == b.listing()
        assert a.digest == b.digest

    def test_different_seeds_differ(self):
        spec = PRESETS["default"]
        assert generate(7, spec).digest != generate(8, spec).digest

    def test_syscall_footprint_is_valid(self):
        for preset in PRESETS.values():
            plan = generate(3, preset)
            assert set(plan.syscalls) <= SYSCALL_NAMES
            assert "EXIT" in plan.syscalls

    def test_name_is_digest_derived(self):
        plan = generate(11, PRESETS["fileio"])
        assert plan.name == f"gen-{plan.digest[:10]}"


class TestDrop:
    def test_drop_removes_ops_but_keeps_program_valid(self):
        spec = PRESETS["fileio"]
        full = generate(5, spec)
        half = generate(
            5, spec.replace(drop=tuple(range(0, full.structural_count, 2))))
        assert len(half.ops) < len(full.ops)
        assert _native_exit(5, spec.replace(
            drop=tuple(range(0, full.structural_count, 2)))) == 0

    def test_drop_everything_leaves_runnable_skeleton(self):
        spec = PRESETS["default"]
        count = generate(5, spec).structural_count
        empty = spec.replace(drop=tuple(range(count)))
        assert len(generate(5, empty).ops) < 4
        assert _native_exit(5, empty) == 0

    def test_marker_follows_surviving_secret_ops(self):
        spec = PRESETS["secrets"]
        plan = generate(9, spec)
        assert plan.marker is not None
        # With every structural op dropped no secret op survives, so
        # the plan must not claim a marker the program never places.
        empty = spec.replace(drop=tuple(range(plan.structural_count)))
        assert generate(9, empty).marker is None


class TestNativeHealth:
    def test_every_preset_self_checks_natively(self):
        for name, spec in PRESETS.items():
            seed = derive_seed(101, hash(name) % 7)
            assert _native_exit(seed, spec) == 0, (name, seed)
