"""OBS001: hot paths emit probes only through module-level indirection."""

from repro.analysis.rules.import_boundary import ImportBoundaryRule
from repro.analysis.rules.obs import ProbeIndirectionRule

from tests.analysis.conftest import check

RULE = ProbeIndirectionRule()


def test_module_indirection_is_clean(tree):
    mod = tree.module("repro/hw/probed.py", """\
        from repro.obs import bus

        def insert(asid, view, vpn):
            if bus.ACTIVE:
                bus.tlb_fill(asid, view, vpn)
        """)
    assert check(RULE, mod) == []


def test_plain_bus_module_import_is_clean(tree):
    mod = tree.module("repro/core/probed.py", """\
        import repro.obs.bus

        def fire(number):
            repro.obs.bus.vmm_hypercall(number)
        """)
    assert check(RULE, mod) == []


def test_frozen_probe_binding_is_flagged(tree):
    mod = tree.module("repro/hw/frozen.py", """\
        from repro.obs.bus import tlb_fill

        def insert(asid, view, vpn):
            tlb_fill(asid, view, vpn)
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert findings[0].rule == "OBS001"
    assert "freezes" in findings[0].message


def test_sink_import_from_instrumented_layer_is_flagged(tree):
    mod = tree.module("repro/core/leaky.py", """\
        from repro.obs.export import TraceRecorder
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "repro.obs.export" in findings[0].message


def test_obs_submodule_via_from_obs_is_flagged(tree):
    mod = tree.module("repro/core/leaky2.py", """\
        from repro.obs import metrics
        """)
    assert len(check(RULE, mod)) == 1


def test_control_plane_call_on_hot_path_is_flagged(tree):
    mod = tree.module("repro/hw/selfmanaged.py", """\
        from repro.obs import bus

        def run(sink, clock):
            bus.attach(sink, clock)
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "attach" in findings[0].message


def test_outside_instrumented_scope_is_exempt(tree):
    mod = tree.module("repro/bench/tool.py", """\
        from repro.obs import bus
        from repro.obs.export import TraceRecorder

        def run(machine):
            recorder = TraceRecorder()
            bus.attach(recorder, machine.cycles)
        """)
    assert check(RULE, mod) == []


def test_layering_admits_the_bus_everywhere(tree):
    """TB001 and OBS001 agree: `from repro.obs import bus` is legal in
    every instrumented layer."""
    boundary = ImportBoundaryRule()
    for relpath in ("repro/hw/a.py", "repro/core/b.py", "repro/guestos/c.py"):
        mod = tree.module(relpath, "from repro.obs import bus\n")
        assert check(boundary, mod) == []
        assert check(RULE, mod) == []
