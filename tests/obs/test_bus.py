"""The probe bus: rebinding, sink lifecycle, clock discipline."""

import sys

import pytest

from repro.hw.cycles import CycleAccount
from repro.obs import bus


class Collector:
    def __init__(self):
        self.events = []

    def bind(self, name, clock):
        return lambda *args: self.events.append((name, clock(), args))


class FakeClock:
    """Stands in for a CycleAccount: exposes ``.total``."""

    total = 0


class TestCatalog:
    def test_every_probe_has_a_module_callable(self):
        for name in bus.PROBES:
            probe = getattr(bus, bus.probe_attr(name))
            assert callable(probe)

    def test_probe_attr_and_component(self):
        assert bus.probe_attr("tlb.fill") == "tlb_fill"
        assert bus.component_of("vmm.enter_user") == "vmm"

    def test_catalog_covers_required_components(self):
        components = {bus.component_of(name) for name in bus.PROBES}
        assert {"vmm", "cloak", "shim", "tlb", "disk", "swap", "sched",
                "fault"} <= components


class TestRebinding:
    def test_probes_are_noops_when_detached(self):
        assert not bus.ACTIVE
        for name in bus.PROBES:
            assert getattr(bus, bus.probe_attr(name)) is bus._noop

    def test_attach_swaps_in_live_emitters_and_detach_restores(self):
        sink = Collector()
        clock = FakeClock()
        bus.attach(sink, clock)
        assert bus.ACTIVE
        for name in bus.PROBES:
            assert getattr(bus, bus.probe_attr(name)) is not bus._noop
        bus.detach(sink)
        assert not bus.ACTIVE
        assert getattr(bus, bus.probe_attr("tlb.fill")) is bus._noop

    def test_events_carry_name_clock_and_args(self):
        sink = Collector()
        clock = FakeClock()
        bus.attach(sink, clock)
        clock.total = 42
        bus.tlb_fill(3, 1, 0x80)
        clock.total = 99
        bus.vmm_hypercall("CLOAK_INIT")
        bus.detach(sink)
        assert sink.events == [("tlb.fill", 42, (3, 1, 0x80)),
                               ("vmm.hypercall", 99, ("CLOAK_INIT",))]

    def test_callable_clock_is_used_directly(self):
        sink = Collector()
        ticks = iter((7, 8))
        bus.attach(sink, lambda: next(ticks))
        bus.sched_slice(1)
        bus.sched_slice(2)
        bus.detach(sink)
        assert [cycle for __, cycle, __a in sink.events] == [7, 8]

    def test_one_sink_handler_is_the_probe_itself(self):
        """With one sink attached a firing probe is one call: every
        probe global is the handler the sink's bind returned."""
        handlers = {}

        class Binder:
            def bind(self, name, clock):
                handlers[name] = lambda *args: None
                return handlers[name]

        sink = Binder()
        bus.attach(sink, FakeClock())
        try:
            for name in bus.PROBES:
                assert getattr(bus, bus.probe_attr(name)) is handlers[name]
        finally:
            bus.detach(sink)

    def test_cycle_account_clock_reads_total_without_a_frame(self):
        sink = Collector()
        account = CycleAccount()
        bus.attach(sink, account)
        account.charge("user", 5)
        bus.sched_slice(1)
        clock = bus._clock
        bus.detach(sink)
        assert sink.events == [("sched.slice", 5, (1,))]
        python_calls = []
        sys.setprofile(lambda frame, event, arg: python_calls.append(
            frame.f_code.co_name) if event == "call" else None)
        try:
            stamp = clock()
        finally:
            sys.setprofile(None)
        assert stamp == 5
        assert python_calls == []

    def test_multiple_sinks_all_receive_each_event(self):
        a, b = Collector(), Collector()
        clock = FakeClock()
        bus.attach(a, clock)
        bus.attach(b, clock)
        bus.disk_read(5)
        bus.detach(a)
        bus.disk_write(6)
        bus.detach(b)
        assert a.events == [("disk.read", 0, (5,))]
        assert b.events == [("disk.read", 0, (5,)),
                            ("disk.write", 0, (6,))]


class TestLifecycleErrors:
    def test_double_attach_rejected(self):
        sink = Collector()
        bus.attach(sink, FakeClock())
        with pytest.raises(RuntimeError):
            bus.attach(sink, FakeClock())
        bus.detach(sink)

    def test_detach_of_unattached_sink_rejected(self):
        with pytest.raises(RuntimeError):
            bus.detach(Collector())

    def test_sink_without_bind_rejected(self):
        with pytest.raises(TypeError):
            bus.attach(object(), FakeClock())
        assert not bus.ACTIVE

    def test_mismatched_clocks_rejected(self):
        first = Collector()
        bus.attach(first, FakeClock())
        with pytest.raises(RuntimeError):
            bus.attach(Collector(), FakeClock())
        # The same clock object is fine.
        bus.detach(first)

    def test_bad_clock_rejected(self):
        with pytest.raises(TypeError):
            bus.attach(Collector(), object())
        assert not bus.ACTIVE

    def test_detach_all_clears_everything(self):
        bus.attach(Collector(), FakeClock())
        bus.detach_all()
        assert bus.attached_sinks() == ()
        assert not bus.ACTIVE
