"""The compute kernels' one-entry memo: a native/cloaked pair, or a run
of identical kernels, generates and transforms once, and every guest
op, charge and output byte stays what a fresh computation gives."""

import sys
from collections import Counter

import pytest

from repro.apps import compute
from repro.apps.compute import KMeans, MatMul, ShaLoop, _checksum
from repro.apps.program import UserContext
from repro.bench.runner import compare_program
from repro.guestos.uapi import Alu, Load, Store, SyscallOp


@pytest.fixture(autouse=True)
def forget(monkeypatch):
    """Each test starts with an empty memo and leaves none behind."""
    monkeypatch.setattr(compute, "_last_run", None)


def _count_calls(fn, *functions):
    """``fn()``'s result and how often each function was entered, by
    code object, so nothing is wrapped and no memo key changes."""
    codes = {f.__code__: f.__qualname__ for f in functions}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def _drive(kernel, tamper=False):
    """Run ``kernel.main`` against a dict of stored chunks, no machine.

    Returns the ALU units it charged and the line it printed.  With
    ``tamper``, the first load of the input returns its bytes with the
    first one flipped, as a corrupted page would.
    """
    memory, units, printed = {}, [], []
    program = kernel.main(UserContext())
    reply = None
    while True:
        try:
            op = program.send(reply)
        except StopIteration:
            return units, b"".join(printed)
        reply = None
        if isinstance(op, Store):
            memory[op.vaddr] = op.data
        elif isinstance(op, Load):
            reply = memory[op.vaddr][: op.size]
            if tamper:
                reply = bytes([reply[0] ^ 1]) + reply[1:]
                tamper = False
        elif isinstance(op, Alu):
            units.append(op.units)
        else:
            assert isinstance(op, SyscallOp)  # the checksum line's write
            printed.append(memory[op.args[1]][: op.args[2]])
            reply = op.args[2]


def _results(pair):
    return [(r.exit_code, r.console, r.cycles_total, r.cycles_breakdown)
            for r in pair]


def test_native_cloaked_pair_generates_and_transforms_once():
    pair, calls = _count_calls(lambda: compare_program("matmul"),
                               MatMul.generate_input, MatMul.transform)
    assert calls == {"MatMul.generate_input": 1, "MatMul.transform": 1}

    def forgetful(machine):
        compute._last_run = None

    fresh, calls = _count_calls(
        lambda: compare_program("matmul", setup=forgetful),
        MatMul.generate_input, MatMul.transform)
    assert calls == {"MatMul.generate_input": 2, "MatMul.transform": 2}
    assert _results(pair) == _results(fresh)


def test_a_load_that_differs_from_the_payload_is_transformed_afresh():
    kernel = MatMul(size=17)
    payload = kernel.generate_input()
    __, clean_line = _drive(kernel)
    remembered = compute._last_run
    assert remembered[1] == payload

    (units, line), calls = _count_calls(lambda: _drive(kernel, tamper=True),
                                        MatMul.transform)
    assert calls == {"MatMul.transform": 1}
    corrupted = bytes([payload[0] ^ 1]) + payload[1:]
    output, alu_units = kernel.transform(corrupted)
    assert (units, line) == ([alu_units], f"matmul: {_checksum(output)}\n"
                             .encode())
    assert line != clean_line
    assert compute._last_run is remembered  # not stored

    compute._last_run = None
    assert _drive(kernel, tamper=True) == (units, line)
    assert compute._last_run is None


def test_the_memo_holds_only_the_last_kernel():
    seen = []

    class Watched(KMeans):
        def generate_input(self):
            seen.append(compute._last_run)
            return super().generate_input()

    _drive(MatMul(size=5))
    assert compute._last_run[0] == MatMul(size=5)._memo_key()
    _drive(Watched(size=300))
    assert seen == [None]  # dropped before the new input existed
    key, payload, result = compute._last_run
    assert key == Watched(size=300)._memo_key()
    assert (payload, result) == (Watched(size=300).generate_input(),
                                 Watched(size=300).transform(payload))
    # Another size is another kernel.
    _drive(Watched(size=301))
    assert compute._last_run[0] == Watched(size=301)._memo_key()


def _fake_transform(self, data):
    return b"patched", 1


@pytest.mark.parametrize("where", ["class", "instance"])
def test_a_patched_transform_misses(monkeypatch, where):
    kernel = ShaLoop(size=3)
    _drive(kernel)
    if where == "class":
        monkeypatch.setattr(ShaLoop, "transform", _fake_transform)
    else:
        monkeypatch.setattr(kernel, "transform", lambda data: (b"patched", 1))
    assert _drive(kernel) == ([1], f"shaloop: {_checksum(b'patched')}\n"
                              .encode())


def test_a_patched_generate_input_misses(monkeypatch):
    kernel = MatMul(size=3)
    _drive(kernel)
    monkeypatch.setattr(MatMul, "generate_input", lambda self: bytes(18))
    output, alu_units = kernel.transform(bytes(18))
    assert _drive(kernel) == ([alu_units], f"matmul: {_checksum(output)}\n"
                              .encode())
