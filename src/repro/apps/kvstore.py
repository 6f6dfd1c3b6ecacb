"""A protected key-value store: the paper's motivating workload.

The intro's scenario — a commodity OS "entrusted with securing
sensitive data" it should never be able to read — as a runnable
application:

* the **server** runs cloaked, keeps its table in cloaked memory, and
  persists a log to a protected file (``/secure``), so the page cache
  and disk hold ciphertext;
* **clients** (forked same-identity workers, e.g. connection handlers)
  talk to it over a sealed channel, so requests and responses cross
  the kernel as sealed records;
* on restart the server **recovers** its table by replaying the
  protected log — data at rest survives process death without ever
  being kernel-readable.

Wire protocol (inside the sealed channel): length-prefixed text
commands ``PUT k v`` / ``GET k`` / ``DEL k`` / ``QUIT``; responses
``OK``, ``VAL <v>``, ``NIL``.
"""

import struct
from typing import Dict, List

from repro.apps.program import Program, UserContext
from repro.guestos import uapi

LEN = struct.Struct("<H")

REQ_FIFO = "/secure/kv.req"
RSP_FIFO = "/secure/kv.rsp"
LOG_PATH = "/secure/kv.log"


def _frame(message: bytes) -> bytes:
    return LEN.pack(len(message)) + message


class _Wire:
    """Length-prefixed messages over an fd (generator helpers)."""

    @staticmethod
    def send(ctx, fd, buf, message: bytes):
        data = _frame(message)
        yield ctx.store(buf, data)
        sent = yield from ctx.write_all(fd, buf, len(data))
        return sent == len(data)

    @staticmethod
    def recv(ctx, fd, buf):
        got = yield from ctx.read_all(fd, buf, LEN.size)
        if got < LEN.size:
            return None
        header = yield ctx.load(buf, LEN.size)
        (length,) = LEN.unpack(header)
        got = yield from ctx.read_all(fd, buf + LEN.size, length)
        if got < length:
            return None
        body = yield ctx.load(buf + LEN.size, length)
        return body


#: Public name for the framed-message helpers: the open-loop load
#: generator (repro.serve.loadgen) speaks the same wire protocol to
#: multiplex many logical connections over the request FIFO.
Wire = _Wire


class KVStore(Program):
    """The server+client pair in one identity.

    argv: ("serve", requests) — run a server for N requests, or
    argv: ("batch", commands...) — fork a server, run the given
    commands as a client, then QUIT.  Commands are semicolon-joined,
    e.g. "PUT a 1;GET a;DEL a;GET a".
    """

    name = "kvstore"

    # ------------------------------------------------------------------
    # server
    # ------------------------------------------------------------------

    def _recover(self, ctx: UserContext, table: Dict[bytes, bytes]):
        """Replay the protected log into the in-memory table."""
        fd = yield from ctx.open_path(LOG_PATH, uapi.O_RDONLY)
        if not isinstance(fd, int) or fd < 0:
            return 0
        buf = ctx.scratch(8 * 1024)
        raw = b""
        while True:
            count = yield ctx.read(fd, buf, 4096)
            if not isinstance(count, int) or count <= 0:
                break
            raw += (yield ctx.load(buf, count))
        yield ctx.close(fd)
        replayed = 0
        for line in raw.splitlines():
            parts = line.split(b" ", 2)
            if parts[0] == b"PUT" and len(parts) == 3:
                table[parts[1]] = parts[2]
            elif parts[0] == b"DEL" and len(parts) >= 2:
                table.pop(parts[1], None)
            replayed += 1
        return replayed

    def _append_log(self, ctx, log_fd, buf, line: bytes):
        yield ctx.store(buf, line + b"\n")
        yield ctx.write(log_fd, buf, len(line) + 1)

    def server(self, ctx: UserContext, max_requests: int):
        """Serve ``max_requests`` then stop.  A non-positive count
        means "serve until QUIT" — the open-loop load generator's
        mode, where the arrival schedule decides how many requests
        each shard receives (re-routed traffic included)."""
        table: Dict[bytes, bytes] = {}
        replayed = yield from self._recover(ctx, table)
        run_until_quit = max_requests <= 0

        log_fd = yield from ctx.open_path(
            LOG_PATH, uapi.O_CREAT | uapi.O_WRONLY | uapi.O_APPEND
        )
        req_fd = yield from ctx.open_path(REQ_FIFO, uapi.O_RDONLY)
        rsp_fd = yield from ctx.open_path(RSP_FIFO, uapi.O_WRONLY)
        wire_buf = ctx.scratch(4 * 1024)
        log_buf = ctx.scratch(1024)

        served = 0
        while run_until_quit or served < max_requests:
            request = yield from _Wire.recv(ctx, req_fd, wire_buf)
            if request is None:
                break
            served += 1
            parts = request.split(b" ", 2)
            verb = parts[0]
            if verb == b"PUT" and len(parts) == 3:
                table[parts[1]] = parts[2]
                yield from self._append_log(ctx, log_fd, log_buf, request)
                reply = b"OK"
            elif verb == b"GET" and len(parts) >= 2:
                value = table.get(parts[1])
                reply = b"VAL " + value if value is not None else b"NIL"
            elif verb == b"DEL" and len(parts) >= 2:
                existed = parts[1] in table
                table.pop(parts[1], None)
                yield from self._append_log(ctx, log_fd, log_buf, request)
                reply = b"OK" if existed else b"NIL"
            elif verb == b"QUIT":
                yield from _Wire.send(ctx, rsp_fd, wire_buf, b"BYE")
                break
            else:
                reply = b"ERR"
            ok = yield from _Wire.send(ctx, rsp_fd, wire_buf, reply)
            if not ok:
                break

        yield ctx.close(req_fd)
        yield ctx.close(rsp_fd)
        yield ctx.close(log_fd)
        yield from ctx.print(
            f"server: replayed {replayed}, served {served}, "
            f"keys {len(table)}\n"
        )
        return 0

    # ------------------------------------------------------------------
    # client
    # ------------------------------------------------------------------

    def client(self, ctx: UserContext, commands: List[bytes]):
        req_fd = yield from ctx.open_path(REQ_FIFO, uapi.O_WRONLY)
        rsp_fd = yield from ctx.open_path(RSP_FIFO, uapi.O_RDONLY)
        wire_buf = ctx.scratch(4 * 1024)
        replies = []
        for command in commands + [b"QUIT"]:
            ok = yield from _Wire.send(ctx, req_fd, wire_buf, command)
            if not ok:
                break
            reply = yield from _Wire.recv(ctx, rsp_fd, wire_buf)
            if reply is None:
                break
            replies.append(reply)
        yield ctx.close(req_fd)
        yield ctx.close(rsp_fd)
        yield from ctx.print(
            "client: " + b" | ".join(replies).decode(errors="replace") + "\n"
        )
        return 0

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------

    def _server_entry(self, ctx: UserContext, max_requests: int):
        code = yield from self.server(ctx, max_requests)
        return code

    def main(self, ctx: UserContext):
        mode = ctx.argv[0] if ctx.argv else "batch"
        path_vaddr, path_len = yield from ctx.put_string(REQ_FIFO)
        rsp_vaddr, rsp_len = yield from ctx.put_string(RSP_FIFO)
        for vaddr, length in ((path_vaddr, path_len), (rsp_vaddr, rsp_len)):
            result = yield ctx.mkfifo(vaddr, length)
            if result not in (0, -uapi.EEXIST):
                yield from ctx.print(f"mkfifo failed {result}\n")
                return 1

        if mode == "serve":
            max_requests = int(ctx.argv[1]) if len(ctx.argv) > 1 else 16
            code = yield from self.server(ctx, max_requests)
            return code

        # batch: fork the server, run the commands as client, join.
        script = ctx.argv[1] if len(ctx.argv) > 1 else "PUT a 1;GET a"
        commands = [c.strip().encode() for c in script.split(";") if c.strip()]
        server_pid = yield ctx.fork(self._server_entry, len(commands) + 1)
        code = yield from self.client(ctx, commands)
        yield ctx.waitpid(server_pid)
        return code
