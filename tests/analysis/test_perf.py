"""PERF001/PERF002: per-byte XOR loops are banned on the hw/core hot
paths; fresh boots are banned inside harness per-run loops."""

from repro.analysis.rules.perf import FreshBootLoopRule, PerByteLoopRule

from tests.analysis.conftest import check

RULE = PerByteLoopRule()
BOOT_RULE = FreshBootLoopRule()


def test_xor_generator_over_zip_is_flagged(tree):
    mod = tree.module("repro/core/slowcrypt.py", """\
        def xor_bytes(data, pad):
            return bytes(a ^ b for a, b in zip(data, pad))
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert findings[0].rule == "PERF001"
    assert "per-byte XOR" in findings[0].message


def test_xor_list_comprehension_is_flagged(tree):
    mod = tree.module("repro/hw/slowmix.py", """\
        def mix(data, pad):
            return bytes([x ^ y for x, y in zip(data, pad)])
        """)
    assert len(check(RULE, mod)) == 1


def test_xor_for_loop_over_zip_is_flagged(tree):
    mod = tree.module("repro/hw/slowloop.py", """\
        def mask(frame, pad):
            out = bytearray()
            for a, b in zip(frame, pad):
                out.append(a ^ b)
            return bytes(out)
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "loop over zip" in findings[0].message


def test_aliased_zip_is_still_caught(tree):
    mod = tree.module("repro/core/sneaky.py", """\
        from builtins import zip as pair
        def xor(a, b):
            return bytes(x ^ y for x, y in pair(a, b))
        """)
    # `from builtins import zip as pair` resolves to builtins.zip, not
    # bare zip — the rule keys on the bare builtin, which is the only
    # spelling that occurs in practice.  A direct alias still resolves:
    mod2 = tree.module("repro/core/sneaky2.py", """\
        def xor(a, b, pair=zip):
            return bytes(x ^ y for x, y in zip(a, b))
        """)
    assert len(check(RULE, mod2)) == 1


def test_whole_buffer_xor_is_clean(tree):
    mod = tree.module("repro/core/fastcrypt.py", """\
        def xor_bytes(data, pad):
            size = len(data)
            joined = int.from_bytes(data, "little") ^ int.from_bytes(
                pad, "little")
            return joined.to_bytes(size, "little")
        """)
    assert check(RULE, mod) == []


def test_non_xor_zip_loops_are_clean(tree):
    mod = tree.module("repro/core/pairwise.py", """\
        def interleave(a, b):
            return [pair for pair in zip(a, b)]

        def add(a, b):
            return [x + y for x, y in zip(a, b)]
        """)
    assert check(RULE, mod) == []


def test_rule_scoped_to_hot_packages(tree):
    # The same per-byte XOR in an app or the analysis layer is fine.
    source = """\
        def xor(a, b):
            return bytes(x ^ y for x, y in zip(a, b))
        """
    assert check(RULE, tree.module("repro/apps/appxor.py", source)) == []
    assert check(RULE, tree.module("repro/analysis/selfxor.py", source)) == []


def test_inline_suppression_honoured(tree):
    mod = tree.module("repro/hw/tagged.py", """\
        def tag(a, b):
            # repro: allow(PERF001) — 16-byte tag, not a page
            return bytes(x ^ y for x, y in zip(a, b))
        """)
    assert check(RULE, mod) == []


def test_boot_in_for_loop_is_flagged(tree):
    mod = tree.module("repro/bench/sweep.py", """\
        from repro.machine import Machine

        def sweep(configs):
            results = []
            for config in configs:
                machine = Machine.build(vmm_config=config)
                results.append(run(machine))
            return results
        """)
    findings = check(BOOT_RULE, mod)
    assert len(findings) == 1
    assert findings[0].rule == "PERF002"
    assert "Machine.boot" in findings[0].message


def test_boot_constructor_in_while_loop_is_flagged(tree):
    mod = tree.module("repro/faults/retry.py", """\
        from repro.machine import Machine

        def retry(plan):
            while True:
                machine = Machine(fault_plan=plan)
                if run(machine):
                    return machine
        """)
    assert len(check(BOOT_RULE, mod)) == 1


def test_boot_outside_loop_is_clean(tree):
    # The sanctioned shape: boot in a helper, restore per iteration.
    mod = tree.module("repro/bench/harness.py", """\
        from repro.machine import Machine

        def _boot(params):
            return Machine.build(params=params)

        def measure(golden, runs):
            return [run(Machine.from_snapshot(golden)) for _ in range(runs)]

        def repeat(config, runs):
            for _ in range(runs):
                run(Machine.boot(config))
        """)
    assert check(BOOT_RULE, mod) == []


def test_boot_rule_scoped_to_harness_packages(tree):
    # Apps, core, and tests may boot wherever they like.
    source = """\
        from repro.machine import Machine

        def boot_all(n):
            return [Machine.build() for _ in range(n)]
        """
    assert check(BOOT_RULE, tree.module("repro/attacks/many.py", source)) == []
    assert check(BOOT_RULE, tree.module("repro/core/selftest.py", source)) == []


def test_boot_suppression_honoured(tree):
    mod = tree.module("repro/bench/paramsweep.py", """\
        from repro.machine import Machine

        def sweep(param_sets):
            out = []
            for params in param_sets:
                # repro: allow(PERF002) — params differ per iteration;
                # no golden snapshot can cover a parameter sweep
                out.append(run(Machine.build(params=params)))
            return out
        """)
    assert check(BOOT_RULE, mod) == []


def test_real_harness_modules_are_clean():
    from pathlib import Path

    from repro.analysis.engine import ModuleInfo

    for rel in ("src/repro/bench/runner.py", "src/repro/bench/wallclock.py",
                "src/repro/faults/oracle.py", "src/repro/gen/driver.py"):
        path = Path(rel)
        mod = ModuleInfo(path, str(path), path.read_text(encoding="utf-8"))
        assert check(BOOT_RULE, mod) == [], rel


def test_real_crypto_module_is_clean():
    from pathlib import Path

    from repro.analysis.engine import ModuleInfo

    for rel in ("src/repro/core/crypto.py", "src/repro/hw/mmu.py",
                "src/repro/hw/phys.py"):
        path = Path(rel)
        mod = ModuleInfo(path, str(path), path.read_text(encoding="utf-8"))
        assert check(RULE, mod) == [], rel
