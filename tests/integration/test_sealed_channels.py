"""Sealed IPC channels: protected FIFOs between same-identity peers.

End-to-end over the full machine: a cloaked parent and its forked
child exchange messages through a ``/secure`` FIFO; the kernel's pipe
buffer holds only sealed records, and kernel-side manipulation of the
stream is caught at CHANNEL_OPEN.

Every test here also runs under the cost-conservation check
(``cost_conservation.py``): no micro-hot program seals or opens a
message, so these runs are the check's only look at the channel path.
"""

import pytest

from repro.apps.program import Program
from repro.guestos import uapi
from repro.machine import Machine

from tests.integration.cost_conservation import conservation_check

MESSAGES = [b"alpha-secret", b"beta-secret!", b"gamma-secret"]
FIFO = "/secure/chan"


class ChannelPair(Program):
    """Parent sends MESSAGES to its forked child over a sealed FIFO."""

    name = "channelpair"

    def child(self, ctx, path_vaddr, path_len):
        fd = yield ctx.open(path_vaddr, path_len, uapi.O_RDONLY)
        buf = ctx.scratch(256)
        received = []
        for expected in MESSAGES:
            got = b""
            while len(got) < len(expected):
                count = yield ctx.read(fd, buf, len(expected) - len(got))
                if not isinstance(count, int) or count <= 0:
                    break
                got += (yield ctx.load(buf, count))
            received.append(got)
        yield ctx.close(fd)
        ok = received == MESSAGES
        yield from ctx.print("child-ok\n" if ok else f"child-bad {received}\n")
        return 0 if ok else 1

    def main(self, ctx):
        path_vaddr, path_len = yield from ctx.put_string(FIFO)
        yield ctx.mkfifo(path_vaddr, path_len)
        pid = yield ctx.fork(self.child, path_vaddr, path_len)
        fd = yield ctx.open(path_vaddr, path_len, uapi.O_WRONLY)
        buf = ctx.scratch(256)
        for message in MESSAGES:
            yield ctx.store(buf, message)
            yield ctx.write(fd, buf, len(message))
        yield ctx.close(fd)
        result = yield ctx.waitpid(pid)
        yield from ctx.print(f"parent-done {result[1]}\n")
        return result[1]


@pytest.fixture(autouse=True)
def conservation():
    with conservation_check() as record:
        yield record
    record.assert_conserved()


def build(cloaked=True):
    machine = Machine.build()
    machine.kernel.vfs.mkdir("/secure")
    machine.register(ChannelPair, cloaked=cloaked)
    return machine


class TestSealedChannelFunctionality:
    def test_roundtrip_between_forked_peers(self, conservation):
        machine = build()
        proc = machine.run_program("channelpair")
        assert "parent-done 0" in proc.text
        assert "child-ok" in machine.kernel.console.text_of(proc.pid + 1)
        assert not machine.violations
        assert machine.stats.get("vmm.channel_seals") == len(MESSAGES)
        assert machine.stats.get("vmm.channel_opens") == len(MESSAGES)
        assert {("repro.core.vmm", "VMM._hc_channel_seal", "seal_message"),
                ("repro.core.vmm", "VMM._hc_channel_open", "open_message")
                } <= set(conservation.sites())

    def test_native_fifo_still_works_uncloaked(self):
        machine = build(cloaked=False)
        proc = machine.run_program("channelpair")
        assert "parent-done 0" in proc.text

    def test_pipe_buffer_holds_no_plaintext(self):
        """Freeze the machine mid-conversation and inspect the kernel's
        pipe buffer: sealed records only."""
        machine = build()
        proc = machine.spawn("channelpair")
        # Run until the first message is in flight or consumed; easier:
        # run to completion and assert via a padded pipe — instead we
        # intercept every pipe write by running stepwise.
        observed = []
        from repro.guestos.pipes import Pipe

        original_write = Pipe.write

        def spying_write(self, data):
            observed.append(bytes(data))
            return original_write(self, data)

        Pipe.write = spying_write
        try:
            machine.run()
        finally:
            Pipe.write = original_write
        blob = b"".join(observed)
        assert blob, "no pipe traffic observed"
        for message in MESSAGES:
            assert message not in blob

    def test_native_pipe_buffer_leaks_plaintext(self):
        machine = build(cloaked=False)
        machine.spawn("channelpair")
        observed = []
        from repro.guestos.pipes import Pipe

        original_write = Pipe.write

        def spying_write(self, data):
            observed.append(bytes(data))
            return original_write(self, data)

        Pipe.write = spying_write
        try:
            machine.run()
        finally:
            Pipe.write = original_write
        blob = b"".join(observed)
        assert MESSAGES[0] in blob


class TestSealedChannelAttacks:
    def _run_with_pipe_mutation(self, mutate):
        """Run the pair with a kernel-side mutation of pipe contents
        applied once, after the first record lands in the buffer."""
        machine = build()
        proc = machine.spawn("channelpair")
        from repro.guestos.pipes import Pipe

        state = {"done": False}
        original_write = Pipe.write

        def hostile_write(pipe_self, data):
            result = original_write(pipe_self, data)
            if not state["done"] and len(pipe_self) > 0:
                mutate(pipe_self)
                state["done"] = True
            return result

        Pipe.write = hostile_write
        try:
            machine.run()
        finally:
            Pipe.write = original_write
        return machine, proc

    def test_tampered_record_detected(self):
        def flip_payload_bit(pipe):
            # Flip a bit past the 8-byte frame header (inside the
            # sealed record).
            pipe._buffer[9] ^= 0x01

        machine, proc = self._run_with_pipe_mutation(flip_payload_bit)
        assert machine.violations
        from repro.core.errors import IntegrityViolation

        assert isinstance(machine.violations[0].error, IntegrityViolation)

    def test_replayed_record_detected(self):
        def duplicate_record(pipe):
            # The kernel re-injects a copy of the buffered record: the
            # receiver's sequence number will not match.
            pipe._buffer.extend(bytes(pipe._buffer))

        machine, __ = self._run_with_pipe_mutation(duplicate_record)
        assert machine.violations

    def test_lying_frame_header_cannot_roll_sequence_back(self):
        def lie_about_seq(pipe):
            # Rewrite the kernel-visible seq field; the shim ignores it
            # in favour of its own counter, so this alone is harmless —
            # the conversation must still complete.
            pipe._buffer[4] = 0xFF

        machine, proc = self._run_with_pipe_mutation(lie_about_seq)
        assert not machine.violations
        assert "parent-done 0" in machine.kernel.console.text_of(proc.pid)
