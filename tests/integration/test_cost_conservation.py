"""Every Overshadow mechanism pays its modelled cost, on a real run.

The micro-hot programs (the ledger golden's :func:`replay`) and a
campaign of the ``secrets`` fuzz preset run under
:func:`~tests.integration.cost_conservation.conservation_check`; the
sealed-channel tests run under it too (``test_sealed_channels.py``),
because no micro-hot program seals or opens a message.  The mutants
at the end prove the check bites.
"""

import importlib
import inspect
import textwrap

import pytest

import repro.core.cloak
import repro.core.vmm
from repro.core.cloak import CloakEngine
from repro.core.vmm import VMM
from repro.gen.driver import run_campaign

from tests.integration.cost_conservation import (PRIMITIVES,
                                                  UNCHARGED_BY_DESIGN,
                                                  conservation_check)
from tests.integration.test_ledger_golden import replay


@pytest.fixture(scope="module")
def checked():
    with conservation_check() as record:
        replay()
        report = run_campaign(campaign_seed=0, count=6, presets=("secrets",),
                              determinism_every=0, shrink_failures=False)
    assert report.ok
    return record


def test_micro_hot_and_fuzz_charge_every_primitive_call(checked):
    checked.assert_conserved()


def test_the_check_saw_the_page_primitives(checked):
    """The workloads reach every page primitive from hw/ or core/ (the
    message primitives are the sealed-channel tests' share)."""
    called = {prim for __, __, prim in checked.sites()}
    assert called == {name for __, name in PRIMITIVES} - {"seal_message",
                                                          "open_message"}


@pytest.mark.parametrize("site", sorted(UNCHARGED_BY_DESIGN))
def test_each_exemption_names_a_live_call(site):
    """An exemption outlives its call site only as a stale hole."""
    module_name, qualname, primitive = site
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert f".{primitive}(" in inspect.getsource(obj)


# ----------------------------------------------------------------------
# self-test: in-process mutants of repro.core must fail the check
# ----------------------------------------------------------------------

def _core_function(module, source):
    """Compile ``source`` as if it were written in ``module``, so its
    frames are ``repro.core`` frames to the check."""
    namespace = {}
    exec(textwrap.dedent(source), vars(module), namespace)
    (function,) = namespace.values()
    return function


def _unmatched_under(monkeypatch, cls, module, source):
    function = _core_function(module, source)
    monkeypatch.setattr(cls, function.__name__, function)
    with conservation_check() as record:
        replay()
    return record.unmatched()


def test_extra_uncharged_read_frame_fails(monkeypatch):
    """A zero-fill that also reads the frame: its own ``vmm`` charge
    does not pay for the read."""
    bad = _unmatched_under(monkeypatch, CloakEngine, repro.core.cloak, """\
        def _zero_fill(self, md, gpfn):
            self._phys.read_frame(gpfn)
            md.transition(CloakState.PLAINTEXT_DIRTY)
            self._phys.zero_frame(gpfn)
            self._cycles.charge("vmm", self._costs.zero_fill)
            md.cached_ciphertext = None
            self.store.note_plaintext(md, gpfn)
            self._stats.bump("cloak.zero_fills")
            bus.cloak_zero_fill(md.owner_id, md.vpn, gpfn,
                                self._costs.zero_fill)
        """)
    assert list(bad) == [("repro.core.cloak", "_zero_fill", "read_frame")]


def test_dropped_charge_fails(monkeypatch):
    """The frame scrub with its ``zero_fill`` charge deleted."""
    bad = _unmatched_under(monkeypatch, VMM, repro.core.vmm, """\
        def _zero_frame(self, gpfn):
            self._phys.zero_frame(gpfn)
            self._invalidate_frame_mappings(gpfn)
        """)
    assert list(bad) == [("repro.core.vmm", "_zero_frame", "zero_frame")]


def test_charge_in_a_callee_pays(monkeypatch):
    """Moving the charge into a helper the caller invokes is fine."""
    helper = _core_function(repro.core.vmm, """\
        def _pay_zero_fill(self):
            self._cycles.charge("vmm", self._costs.zero_fill)
        """)
    monkeypatch.setattr(VMM, "_pay_zero_fill", helper, raising=False)
    bad = _unmatched_under(monkeypatch, VMM, repro.core.vmm, """\
        def _zero_frame(self, gpfn):
            self._phys.zero_frame(gpfn)
            self._pay_zero_fill()
            self._invalidate_frame_mappings(gpfn)
        """)
    assert bad == {}
