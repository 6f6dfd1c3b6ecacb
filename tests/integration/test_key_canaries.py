"""Cloaked data never reaches the untrusted side in plaintext: key canaries.

After each checked run, every key and the secret marker are searched
for in everything the run left outside the cloaked application:

* physical frames and disk blocks (a file's pages are one or the other);
* byte buffers the guest kernel holds (console streams, pipe buffers);
* host stdout and stderr, and log records of every level;
* the run's probe stream, exported as JSONL;
* the message of every recorded violation;
* ``repr`` and ``str`` of every reachable ``repro`` object whose class
  defines ``__repr__`` or ``__str__``.

The keys are ``DomainTable._master`` and each ``PageCipher``'s
``_enc_key`` and ``_mac_key``, found by walking the machine.  Objects
that hold a key to use it (a cipher's ``__dict__``, the key memos) are
not sinks; only what a run prints, stores or reports is.  The marker
is the victims' secret (the fuzz preset's runs add each program's
own).  The runs: the cloaked attack suite, the fault matrix, and a
campaign of the ``secrets`` fuzz preset.  The mutants at the end prove
the search bites.
"""

import collections
import functools
import gc
import logging
import types

import pytest

from repro.apps.secrets import SECRET
from repro.attacks import ATTACK_SUITE
from repro.core.cloak import CloakEngine
from repro.core.crypto import PageCipher
from repro.core.errors import IntegrityViolation
from repro.core.domains import DomainTable
from repro.faults import oracle
from repro.gen import driver
from repro.machine import Machine
from repro.obs import bus
from repro.obs.export import TraceRecorder, to_jsonl

#: ``SecretWriter`` stores only this prefix; every ``SECRET`` holds it.
MARKER = SECRET[:32]

#: What the walk descends through besides ``repro`` instances.
_WALKED = (dict, list, tuple, set, frozenset, collections.deque,
           functools.partial, types.MethodType, types.FunctionType,
           types.GeneratorType)
_BUFFERS = (bytes, bytearray)

#: One checked run.  ``live`` holds objects caught mid-run, so a
#: domain that exits before the search is still searched.
Run = collections.namedtuple("Run", "name machine recorder marker live")


def _referents(obj):
    if isinstance(obj, types.FunctionType):
        cells = []
        for cell in obj.__closure__ or ():
            try:
                cells.append(cell.cell_contents)
            except ValueError:  # an empty cell
                pass
        return cells + list(obj.__defaults__ or ())
    if isinstance(obj, types.GeneratorType):
        frame = obj.gi_frame
        return list(frame.f_locals.values()) if frame is not None else []
    return gc.get_referents(obj)


def reachable(*roots):
    """Every object reachable from ``roots`` through ``repro``
    instances, containers, closures and suspended generators."""
    stack = list({id(root): root for root in roots}.values())
    seen = {id(root) for root in stack}
    found = []
    while stack:
        obj = stack.pop()
        found.append(obj)
        for ref in _referents(obj):
            if id(ref) not in seen and (
                    type(ref).__module__.startswith("repro.")
                    or isinstance(ref, _WALKED)):
                seen.add(id(ref))
                stack.append(ref)
    return found


def _custom_text(cls) -> bool:
    return any(klass.__module__.startswith("repro.")
               and ("__repr__" in vars(klass) or "__str__" in vars(klass))
               for klass in cls.__mro__)


def _kernel_buffers(obj):
    """Byte buffers a guest-kernel object holds, through containers."""
    pending = [obj]
    while pending:
        for ref in gc.get_referents(pending.pop()):
            if isinstance(ref, _BUFFERS):
                yield ref
            elif isinstance(ref, (dict, list, tuple, set, collections.deque)):
                pending.append(ref)


def forms(secret: bytes):
    """How a secret reads in a sink: raw, hex, or escaped by ``repr``."""
    escaped = repr(secret + b"'\"")[2:-4]
    return {secret, secret.hex().encode(), escaped.encode(),
            escaped.replace("\\'", "'").encode()}


def _as_bytes(text: str) -> bytes:
    return text.encode("latin-1", "backslashreplace")


def canaries(objects, marker):
    """``{name: secret}`` for every key on the machine, plus the marker."""
    found = {"marker": marker}
    for obj in objects:
        if isinstance(obj, DomainTable):
            found["DomainTable._master"] = obj._master
        elif isinstance(obj, PageCipher):
            tag = obj.identity.hex()[:8]
            found[f"PageCipher[{tag}]._enc_key"] = obj._enc_key
            found[f"PageCipher[{tag}]._mac_key"] = obj._mac_key
    return found


def sinks(run, objects):
    """``(where, bytes)`` for every place a run could leak into."""
    machine = run.machine
    yield "probe JSONL", to_jsonl(run.recorder.events).encode()
    for record in machine.violations:
        yield f"violation {type(record.error).__name__}", \
            _as_bytes(str(record.error))
    for obj in objects:
        cls = type(obj)
        if cls.__module__.startswith("repro.guestos."):
            for buffer in _kernel_buffers(obj):
                yield f"{cls.__name__} buffer", bytes(buffer)
        if _custom_text(cls):
            yield f"repr/str of {cls.__name__}", \
                _as_bytes(repr(obj) + "\n" + str(obj))


def leaks(runs, host_output=b""):
    """Every (sink, canary) hit across ``runs``; empty when clean."""
    hits = []
    for run in runs:
        objects = reachable(run.machine, *run.live)
        for name, secret in canaries(objects, run.marker).items():
            needles = forms(secret)
            for needle in needles:
                if run.machine.phys.frames_containing(needle):
                    hits.append(("frames", name))
                if run.machine.disk.blocks_containing(needle):
                    hits.append(("disk blocks", name))
                if needle in host_output:
                    hits.append(("host output", name))
            for where, data in sinks(run, objects):
                if any(needle in data for needle in needles):
                    hits.append((where, name))
    return sorted(set(hits))


@pytest.fixture
def host(capfd, caplog):
    """Reads the test's host stdout, stderr and log records (all
    levels) so far."""
    caplog.set_level(logging.DEBUG)

    def output() -> bytes:
        out, err = capfd.readouterr()
        records = "\n".join(r.getMessage() for r in caplog.records)
        return _as_bytes(out + err + records)

    return output


def cloaked_attack_runs():
    """The cloaked attack suite.  Each victim runs to completion after
    the attack, so its resident plaintext is scrubbed as at any exit;
    what was reachable just before and after the attack is searched
    too."""
    runs = []
    for attack_cls, victim_cls, argv in ATTACK_SUITE:
        machine = Machine.build()
        machine.kernel.vfs.mkdir("/secure")
        machine.register(victim_cls, cloaked=True)
        recorder = TraceRecorder()
        bus.attach(recorder, machine.cycles)
        try:
            victim = machine.spawn(victim_cls.name, argv)
            machine.run_until_output(victim.pid, b"ready\n")
            live = reachable(machine)
            attack_cls().run(machine, victim)
            live += reachable(machine)
            machine.run()
        finally:
            bus.detach(recorder)
        runs.append(Run(attack_cls.name, machine, recorder, MARKER, live))
    return runs


@pytest.fixture
def oracle_runs(monkeypatch):
    """Collects every cloaked oracle run (the fault matrix's and the
    fuzz driver's) with its probe stream."""
    runs = []
    real_run_once = oracle.run_once

    def run_once(spec, cloaked, plan=None, tweak=None):
        recorder = TraceRecorder()

        def hook(machine):
            if tweak is not None:
                tweak(machine)
            if cloaked:
                bus.attach(recorder, machine.cycles)
                runs.append(Run(spec.name, machine, recorder,
                                spec.marker or MARKER, ()))

        try:
            return real_run_once(spec, cloaked, plan=plan, tweak=hook)
        finally:
            if any(sink is recorder for sink in bus.attached_sinks()):
                bus.detach(recorder)

    monkeypatch.setattr(oracle, "run_once", run_once)
    monkeypatch.setattr(driver, "run_once", run_once)
    return runs


def fuzz_campaign():
    report = driver.run_campaign(campaign_seed=0, count=6,
                                 presets=("secrets",), determinism_every=0,
                                 shrink_failures=False)
    assert report.ok


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------

def test_cloaked_attack_suite_leaks_no_canary(host):
    runs = cloaked_attack_runs()
    assert leaks(runs, host()) == []


def test_fault_matrix_leaks_no_canary(host, oracle_runs):
    oracle.run_fault_matrix()
    assert len(oracle_runs) >= 14
    assert leaks(oracle_runs, host()) == []


def test_secrets_fuzz_preset_leaks_no_canary(host, oracle_runs):
    fuzz_campaign()
    assert len(oracle_runs) == 6
    assert leaks(oracle_runs, host()) == []


def test_the_walk_finds_every_key_and_custom_repr():
    """The search is only as good as its reach: the walk must see the
    domain table, the victim's cipher and the classes that print."""
    run = cloaked_attack_runs()[0]
    objects = reachable(run.machine, *run.live)
    names = canaries(objects, MARKER)
    assert "DomainTable._master" in names
    assert sum(name.endswith("_enc_key") for name in names) >= 1
    printing = {type(obj).__name__ for obj in objects
                if _custom_text(type(obj))}
    assert {"Process", "PageMetadata", "ProtectionDomain",
            "RegisterFile"} <= printing


# ----------------------------------------------------------------------
# self-test: in-process mutants that leak must fail the search
# ----------------------------------------------------------------------

def test_key_in_a_violation_message_is_caught(host, monkeypatch):
    """A verify failure that names the domain's MAC key in its message
    (the bit-flip attack makes one)."""
    real = CloakEngine._verify_and_decrypt

    def blabbing(self, domain, md, gpfn):
        try:
            real(self, domain, md, gpfn)
        except IntegrityViolation:
            raise IntegrityViolation(
                domain.domain_id, md.vpn,
                f"mac_key={domain.cipher._mac_key!r}") from None

    monkeypatch.setattr(CloakEngine, "_verify_and_decrypt", blabbing)
    (bitflip,) = [run for run in cloaked_attack_runs()
                  if run.name == "tamper-bitflip"]
    found = leaks([bitflip], host())
    assert [where for where, __ in found] == [
        "violation IntegrityViolation"]


def test_key_in_a_custom_repr_is_caught(host, monkeypatch):
    monkeypatch.setattr(DomainTable, "__repr__",
                        lambda self: "DomainTable(boot secret=%r)"
                        % (self._master,), raising=False)
    found = leaks(cloaked_attack_runs()[:1], host())
    assert found == [("repr/str of DomainTable", "DomainTable._master")]


def test_decrypted_page_on_stdout_is_caught(host, monkeypatch):
    """The cloak engine printing each page it decrypts."""
    real = CloakEngine._verify_and_decrypt

    def noisy(self, domain, md, gpfn):
        real(self, domain, md, gpfn)
        print(self._phys.read_frame(gpfn))

    monkeypatch.setattr(CloakEngine, "_verify_and_decrypt", noisy)
    found = leaks(cloaked_attack_runs()[:1], host())
    assert found == [("host output", "marker")]
