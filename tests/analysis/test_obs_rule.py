"""OBS001: hot paths emit probes only through module-level indirection."""

from tests.analysis.invariants import check


def obs(module, source):
    return check("OBS001", module, source)


def test_module_indirection_is_clean():
    assert obs("repro.hw.probed", """\
        from repro.obs import bus

        def insert(asid, view, vpn):
            if bus.ACTIVE:
                bus.tlb_fill(asid, view, vpn)
        """) == []


def test_plain_bus_module_import_is_clean():
    assert obs("repro.core.probed", """\
        import repro.obs.bus

        def fire(number):
            repro.obs.bus.vmm_hypercall(number)
        """) == []


def test_frozen_probe_binding_is_flagged():
    findings = obs("repro.hw.frozen", """\
        from repro.obs.bus import tlb_fill

        def insert(asid, view, vpn):
            tlb_fill(asid, view, vpn)
        """)
    assert len(findings) == 1
    assert "freezes" in findings[0][1]


def test_sink_import_from_instrumented_layer_is_flagged():
    findings = obs("repro.core.leaky",
                   "from repro.obs.export import TraceRecorder\n")
    assert len(findings) == 1
    assert "repro.obs.export" in findings[0][1]


def test_obs_submodule_via_from_obs_is_flagged():
    assert len(obs("repro.core.leaky2", "from repro.obs import metrics\n")) == 1


def test_control_plane_call_on_hot_path_is_flagged():
    findings = obs("repro.hw.selfmanaged", """\
        from repro.obs import bus

        def run(sink, clock):
            bus.attach(sink, clock)
        """)
    assert len(findings) == 1
    assert "attach" in findings[0][1]


def test_outside_instrumented_scope_is_exempt():
    assert obs("repro.bench.tool", """\
        from repro.obs import bus
        from repro.obs.export import TraceRecorder

        def run(machine):
            recorder = TraceRecorder()
            bus.attach(recorder, machine.cycles)
        """) == []


def test_layering_admits_the_bus_everywhere():
    """TB001 and OBS001 agree: `from repro.obs import bus` is legal in
    every instrumented layer."""
    for module in ("repro.hw.a", "repro.core.b", "repro.guestos.c"):
        assert check("TB001", module, "from repro.obs import bus\n") == []
        assert obs(module, "from repro.obs import bus\n") == []
