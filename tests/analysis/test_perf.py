"""PERF002: fresh boots are banned inside harness per-run loops."""

from repro.analysis.rules.perf import FreshBootLoopRule

from tests.analysis.conftest import check

BOOT_RULE = FreshBootLoopRule()


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

    for rel in ("src/repro/bench/runner.py", "src/repro/faults/oracle.py",
                "src/repro/gen/driver.py"):
        path = Path(rel)
        mod = ModuleInfo(path, str(path), path.read_text(encoding="utf-8"))
        assert check(BOOT_RULE, mod) == [], rel

