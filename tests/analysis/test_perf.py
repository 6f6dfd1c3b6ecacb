"""PERF002: fresh boots are banned inside harness per-run loops."""

from tests.analysis.invariants import check


def perf(module, source):
    return check("PERF002", module, source)


def test_boot_in_for_loop_is_flagged():
    findings = perf("repro.bench.sweep", """\
        from repro.machine import Machine

        def sweep(configs):
            results = []
            for config in configs:
                machine = Machine.build(vmm_config=config)
                results.append(run(machine))
            return results
        """)
    assert len(findings) == 1
    assert "Machine.boot" in findings[0][1]


def test_boot_constructor_in_while_loop_is_flagged():
    assert len(perf("repro.faults.retry", """\
        from repro.machine import Machine

        def retry(plan):
            while True:
                machine = Machine(fault_plan=plan)
                if run(machine):
                    return machine
        """)) == 1


def test_boot_outside_loop_is_clean():
    # The sanctioned shape: boot in a helper, restore per iteration.
    assert perf("repro.bench.harness", """\
        from repro.machine import Machine

        def _boot(params):
            return Machine.build(params=params)

        def measure(golden, runs):
            return [run(Machine.from_snapshot(golden)) for _ in range(runs)]

        def repeat(config, runs):
            for _ in range(runs):
                run(Machine.boot(config))
        """) == []


def test_boot_rule_scoped_to_harness_packages():
    # Apps, core, and tests may boot wherever they like.
    source = """\
        from repro.machine import Machine

        def boot_all(n):
            return [Machine.build() for _ in range(n)]
        """
    assert perf("repro.attacks.many", source) == []
    assert perf("repro.core.selftest", source) == []


def test_real_harness_modules_are_clean():
    for module in ("repro.bench.runner", "repro.faults.oracle",
                   "repro.gen.driver"):
        assert check("PERF002", module) == [], module
