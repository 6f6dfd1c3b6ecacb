"""A static-file web server and closed-loop clients (R-F3).

The transport is FIFOs (the guest has no network stack; the paper's
claim is about syscall/memory overhead, not TCP): clients write
fixed-size request records into a shared request FIFO and read
responses from per-client FIFOs.  The server is the protected party —
run it cloaked and every page of file cache it touches through
``/secure`` stays ciphertext to the OS while clients still get
plaintext responses (explicit declassification on the response path,
like serving TLS from an enclave).

Request record (64 bytes): ``cid:4 | path_len:2 | path | zero pad``.
Response: ``status:4 | length:4`` header, then the body.
"""

import hashlib
import struct

from repro.apps.program import Program, UserContext
from repro.guestos import uapi

REQUEST_SIZE = 64
RESPONSE_HEADER = struct.Struct("<II")

REQUEST_FIFO = "/srv/req"

#: Connection-id sentinel: a request record carrying this cid asks the
#: server to shut down.  Open-loop load generators (repro.serve) run
#: the server with ``total <= 0`` ("serve until told to stop") and
#: send this after the last scheduled arrival, so the request count
#: does not have to be known when the server starts.
SHUTDOWN_CID = 0xFFFFFFFF


def response_fifo(cid: int) -> str:
    return f"/srv/rsp{cid}"


def pack_request(cid: int, path: str) -> bytes:
    encoded = path.encode()
    if len(encoded) > REQUEST_SIZE - 6:
        raise ValueError("path too long for request record")
    record = struct.pack("<IH", cid, len(encoded)) + encoded
    return record.ljust(REQUEST_SIZE, b"\x00")


def pack_shutdown() -> bytes:
    """The shutdown-sentinel request record (see :data:`SHUTDOWN_CID`)."""
    return pack_request(SHUTDOWN_CID, "")


def unpack_request(record: bytes):
    cid, path_len = struct.unpack_from("<IH", record)
    path = record[6 : 6 + path_len].decode()
    return cid, path


class WebServer(Program):
    """Serves ``total_requests`` then exits.

    argv: (total_requests,).  A non-positive total means "serve until
    a shutdown-sentinel request arrives" (:data:`SHUTDOWN_CID`) — the
    connection-multiplexing mode the open-loop load generator uses,
    where the number of requests is decided by the arrival schedule,
    not the server.
    """

    name = "webserver"

    def main(self, ctx: UserContext):
        total = int(ctx.argv[0]) if ctx.argv else 8
        run_until_shutdown = total <= 0
        req_fd = yield from ctx.open_path(REQUEST_FIFO, uapi.O_RDONLY)
        if req_fd < 0:
            yield from ctx.print(f"server: no request fifo ({req_fd})\n")
            return 1

        record_buf = ctx.scratch(REQUEST_SIZE)
        body_buf = ctx.scratch(64 * 1024)
        header_buf = ctx.scratch(RESPONSE_HEADER.size)
        served = 0
        response_fds = {}

        spins = 0
        while run_until_shutdown or served < total:
            got = yield from ctx.read_all(req_fd, record_buf, REQUEST_SIZE)
            if got < REQUEST_SIZE:
                # EOF: either the clients have not connected yet (FIFO
                # opens are non-blocking in this kernel) or they all
                # hung up.  Spin politely for the former.
                spins += 1
                if served > 0 or spins > 300:
                    break
                yield ctx.sched_yield()
                continue
            record = yield ctx.load(record_buf, REQUEST_SIZE)
            cid, path = unpack_request(record)
            if cid == SHUTDOWN_CID:
                break

            rsp_fd = response_fds.get(cid)
            if rsp_fd is None:
                rsp_fd = yield from ctx.open_path(response_fifo(cid),
                                                  uapi.O_WRONLY)
                response_fds[cid] = rsp_fd

            # Fetch the file (through the shim's emulation when the
            # path is protected).
            fd = yield from ctx.open_path(path, uapi.O_RDONLY)
            if fd < 0:
                yield ctx.store(header_buf, RESPONSE_HEADER.pack(404, 0))
                yield ctx.write(rsp_fd, header_buf, RESPONSE_HEADER.size)
                served += 1
                continue
            length = 0
            while True:
                count = yield ctx.read(fd, body_buf + length,
                                       16 * 1024)
                if not isinstance(count, int) or count <= 0:
                    break
                length += count
            yield ctx.close(fd)

            yield ctx.store(header_buf, RESPONSE_HEADER.pack(200, length))
            yield ctx.write(rsp_fd, header_buf, RESPONSE_HEADER.size)
            offset = 0
            while offset < length:
                chunk = min(8 * 1024, length - offset)
                count = yield ctx.write(rsp_fd, body_buf + offset, chunk)
                if not isinstance(count, int) or count <= 0:
                    break
                offset += count
            served += 1

        for rsp_fd in response_fds.values():
            yield ctx.close(rsp_fd)
        yield ctx.close(req_fd)
        yield from ctx.print(f"served {served}\n")
        return 0


class WebClient(Program):
    """Closed-loop client: request, await response, repeat.

    argv: (cid, requests, path)
    """

    name = "webclient"

    def main(self, ctx: UserContext):
        cid = int(ctx.argv[0])
        requests = int(ctx.argv[1])
        path = ctx.argv[2]

        req_fd = yield from ctx.open_path(REQUEST_FIFO, uapi.O_WRONLY)
        rsp_fd = yield from ctx.open_path(response_fifo(cid), uapi.O_RDONLY)
        if req_fd < 0 or rsp_fd < 0:
            yield from ctx.print(f"client{cid}: connect failed\n")
            return 1

        record_buf = ctx.scratch(REQUEST_SIZE)
        yield ctx.store(record_buf, pack_request(cid, path))
        header_buf = ctx.scratch(RESPONSE_HEADER.size)
        body_buf = ctx.scratch(64 * 1024)

        digest = hashlib.sha256()
        completed = 0
        for __ in range(requests):
            yield ctx.write(req_fd, record_buf, REQUEST_SIZE)
            got = yield from ctx.read_all(rsp_fd, header_buf,
                                          RESPONSE_HEADER.size)
            if got < RESPONSE_HEADER.size:
                break
            header = yield ctx.load(header_buf, RESPONSE_HEADER.size)
            status, length = RESPONSE_HEADER.unpack(header)
            if status != 200:
                break
            got = yield from ctx.read_all(rsp_fd, body_buf, length)
            if got < length:
                break
            body = yield ctx.load(body_buf, length)
            digest.update(body)
            completed += 1

        yield ctx.close(req_fd)
        yield ctx.close(rsp_fd)
        yield from ctx.print(
            f"client{cid} ok {completed} {digest.hexdigest()[:12]}\n"
        )
        return 0
