"""Seeded open-loop load generation on the virtual-cycle clock.

A closed-loop client (``apps/webserver.WebClient``) issues the next
request only after the previous response arrived, so whenever the
server queues, the client *stops offering load* and the measured
latency silently excludes the queueing delay — the classic
**coordinated omission** error.  The open-loop generator here fixes
the arrival schedule in advance from a seed: request *i* is due at
virtual cycle ``base + arrival_i`` whether or not earlier requests
completed, and its latency is measured from the *intended* arrival to
response completion, so queueing (and sender back-pressure) shows up
in the percentiles where it belongs.

Mechanics, entirely on the existing guest channel ABI:

* one **client process** multiplexes ``connections`` logical
  connections into the server's request FIFO; a sender paces arrivals
  with ``GETTIME``/``NANOSLEEP`` on the virtual clock, and one
  receiver **thread per connection** blocks on that connection's
  response FIFO (webserver) or the shared response FIFO (kvstore);
* the server runs in serve-until-told-to-stop mode (``total <= 0``;
  see the shutdown sentinel in :mod:`repro.apps.webserver` and the
  unbounded serve mode in :mod:`repro.apps.kvstore`), so the request
  count is owned by the schedule — exactly what cluster re-routing
  needs;
* requests carry a deadline (``spec.deadline`` cycles after intended
  arrival); misses are recorded, never cancelled — an SLO meter, not
  an admission controller.

Everything is a pure function of ``(seed, LoadSpec)``; two runs of the
same spec produce byte-identical samples, and the per-machine cycle
ledger is untouched by the host-side bookkeeping (samples live on the
client's host-side program object, so observation costs nothing the
schedule did not already pay for).
"""

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.apps.kvstore import KVStore, REQ_FIFO, RSP_FIFO, Wire
from repro.apps.program import Program, UserContext
from repro.apps.webserver import (
    REQUEST_FIFO,
    REQUEST_SIZE,
    RESPONSE_HEADER,
    WebServer,
    pack_request,
    pack_shutdown,
    response_fifo,
)
from repro.guestos import uapi
from repro.machine import BootConfig, Machine
from repro.obs import bus
from repro.obs.metrics import MetricsRegistry

#: Registry name of generated open-loop client programs.
CLIENT_NAME = "loadgen"

#: Schedule row: (arrival offset, connection id, operation, key).
Row = Tuple[int, int, str, str]

ARRIVALS = ("poisson", "bursty", "uniform")
APPS = ("webserver", "kvstore")


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop workload, fully determined by its fields + seed."""

    app: str = "webserver"
    requests: int = 64
    #: Mean inter-arrival gap, virtual cycles (offered rate = 1e6/gap
    #: requests per Mcycle).
    mean_gap: int = 12_000
    arrival: str = "poisson"
    connections: int = 4
    #: SLO deadline in cycles, measured from the intended arrival.
    deadline: int = 240_000
    #: Key population size (documents for webserver, keys for kvstore).
    keys: int = 16
    #: Percentage of kvstore requests that are PUTs.
    put_pct: int = 25
    value_size: int = 32
    file_size: int = 2048
    seed: int = 0

    def validate(self) -> None:
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r} (want {APPS})")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r} (want {ARRIVALS})")
        if self.requests <= 0 or self.connections <= 0 or self.keys <= 0:
            raise ValueError("requests/connections/keys must be positive")
        if self.mean_gap <= 0 or self.deadline <= 0:
            raise ValueError("mean_gap/deadline must be positive")


def key_name(index: int) -> str:
    return f"k{index:04d}"


def doc_path(key: str) -> str:
    return f"/www/{key}.bin"


def doc_payload(key: str, size: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(hashlib.sha256(f"doc:{key}:{counter}".encode()).digest())
        counter += 1
    return bytes(out[:size])


# ---------------------------------------------------------------------------
# arrival schedule
# ---------------------------------------------------------------------------

def _gaps(rng: random.Random, spec: LoadSpec) -> List[int]:
    """Inter-arrival gaps (cycles) for ``spec.requests`` arrivals."""
    if spec.arrival == "uniform":
        return [spec.mean_gap] * spec.requests
    if spec.arrival == "poisson":
        return [max(1, int(rng.expovariate(1.0 / spec.mean_gap)))
                for _ in range(spec.requests)]
    # bursty: geometric trains of back-to-back arrivals (mean gap a
    # quarter of nominal) separated by long idle gaps (4x nominal), so
    # the offered *average* stays near 1e6/mean_gap while the peak
    # rate is ~4x — the shape that exposes queueing at the tail.
    gaps: List[int] = []
    while len(gaps) < spec.requests:
        burst = 1 + min(15, int(rng.expovariate(1.0 / 8)))
        gaps.append(4 * spec.mean_gap)
        for _ in range(burst - 1):
            gaps.append(max(1, int(rng.expovariate(4.0 / spec.mean_gap))))
    return gaps[: spec.requests]


def build_schedule(spec: LoadSpec) -> List[Row]:
    """The full arrival schedule, a pure function of ``spec``."""
    spec.validate()
    rng = random.Random(f"serve:{spec.seed}:{spec.app}:{spec.arrival}")
    gaps = _gaps(rng, spec)
    rows: List[Row] = []
    clock = 0
    for index in range(spec.requests):
        clock += gaps[index]
        key = key_name(rng.randrange(spec.keys))
        if spec.app == "webserver":
            op = "GET"
        else:
            op = "PUT" if rng.randrange(100) < spec.put_pct else "GET"
        rows.append((clock, index % spec.connections, op, key))
    return rows


# ---------------------------------------------------------------------------
# generated open-loop client programs
# ---------------------------------------------------------------------------

class _OpenLoopClient(Program):
    """Base for generated clients: host-side sample bookkeeping.

    ``samples`` rows are ``(index, intended, done, status)`` in
    completion order; ``base`` is the virtual cycle the schedule is
    anchored at.  Both live on the host-side program object (shared
    with receiver threads), so harvesting them costs no guest cycles.
    """

    name = CLIENT_NAME
    schedule: Tuple[Row, ...] = ()

    def __init__(self) -> None:
        self.samples: List[Tuple[int, int, int, int]] = []
        self.base: int = 0
        self._pending: Dict[int, deque] = {}


def make_web_client(rows: List[Row]) -> Type[Program]:
    """An open-loop client class for the web server, schedule baked in."""

    class OpenLoopWebClient(_OpenLoopClient):
        schedule = tuple(rows)

        def _receiver(self, ctx: UserContext, cid: int, count: int):
            header_buf = ctx.scratch(RESPONSE_HEADER.size)
            body_buf = ctx.scratch(64 * 1024)
            rsp_fd = yield from ctx.open_path(response_fifo(cid),
                                              uapi.O_RDONLY)
            if rsp_fd < 0:
                return 1
            for _ in range(count):
                got = yield from ctx.read_all(rsp_fd, header_buf,
                                              RESPONSE_HEADER.size)
                if got < RESPONSE_HEADER.size:
                    break  # server went away: report what completed
                header = yield ctx.load(header_buf, RESPONSE_HEADER.size)
                status, length = RESPONSE_HEADER.unpack(header)
                if length:
                    got = yield from ctx.read_all(rsp_fd, body_buf, length)
                    if got < length:
                        break
                done = yield ctx.gettime()
                index, intended = self._pending[cid].popleft()
                self.samples.append((index, intended, done, status))
            yield ctx.close(rsp_fd)
            return 0

        def main(self, ctx: UserContext):
            conns = sorted({row[1] for row in self.schedule})
            expected = {cid: sum(1 for row in self.schedule
                                 if row[1] == cid)
                        for cid in conns}
            self._pending = {cid: deque() for cid in conns}
            self.base = yield ctx.gettime()
            tids = []
            for cid in conns:
                tid = yield ctx.thread_create(self._receiver, cid,
                                              expected[cid])
                tids.append(tid)
            req_fd = yield from ctx.open_path(REQUEST_FIFO, uapi.O_WRONLY)
            if req_fd < 0:
                yield from ctx.print("loadgen: no request fifo\n")
                return 1
            record_buf = ctx.scratch(REQUEST_SIZE)
            for index, (arrival, cid, _op, key) in enumerate(self.schedule):
                target = self.base + arrival
                now = yield ctx.gettime()
                if now < target:
                    yield ctx.nanosleep(target - now)
                self._pending[cid].append((index, target))
                yield ctx.store(record_buf,
                                pack_request(cid, doc_path(key)))
                sent = yield from ctx.write_all(req_fd, record_buf,
                                                REQUEST_SIZE)
                if sent < REQUEST_SIZE:
                    break
            yield ctx.store(record_buf, pack_shutdown())
            yield from ctx.write_all(req_fd, record_buf, REQUEST_SIZE)
            yield ctx.close(req_fd)
            for tid in tids:
                yield ctx.thread_join(tid)
            yield from ctx.print(f"loadgen done {len(self.samples)}\n")
            return 0

    return OpenLoopWebClient


def make_kv_client(rows: List[Row], value_size: int) -> Type[Program]:
    """An open-loop client class for the kvstore.

    All logical connections share the store's single request/response
    FIFO pair; responses arrive in request order, so one receiver
    thread matches them against the shared pending queue.
    """

    class OpenLoopKVClient(_OpenLoopClient):
        schedule = tuple(rows)

        def image_bytes(self, image_size: int = 8192) -> bytes:
            # The client presents the *store's* binary image: sealing
            # principals derive from the identity hash, so a cloaked
            # client carrying this image shares the store's sealed
            # channel — the open-loop analogue of the store's forked
            # same-identity connection handlers.
            return KVStore().image_bytes(image_size)

        def _receiver(self, ctx: UserContext, count: int):
            buf = ctx.scratch(4 * 1024)
            rsp_fd = yield from ctx.open_path(RSP_FIFO, uapi.O_RDONLY)
            if rsp_fd < 0:
                return 1
            for _ in range(count):
                reply = yield from Wire.recv(ctx, rsp_fd, buf)
                if reply is None:
                    break
                done = yield ctx.gettime()
                index, intended = self._pending[0].popleft()
                status = 500 if reply == b"ERR" else 200
                self.samples.append((index, intended, done, status))
            # Drain the server's BYE so the FIFO quiesces cleanly.
            yield from Wire.recv(ctx, rsp_fd, buf)
            yield ctx.close(rsp_fd)
            return 0

        def main(self, ctx: UserContext):
            self._pending = {0: deque()}
            self.base = yield ctx.gettime()
            tid = yield ctx.thread_create(self._receiver,
                                          len(self.schedule))
            req_fd = yield from ctx.open_path(REQ_FIFO, uapi.O_WRONLY)
            if req_fd < 0:
                yield from ctx.print("loadgen: no request fifo\n")
                return 1
            wire_buf = ctx.scratch(4 * 1024)
            for index, (arrival, _cid, op, key) in enumerate(self.schedule):
                target = self.base + arrival
                now = yield ctx.gettime()
                if now < target:
                    yield ctx.nanosleep(target - now)
                if op == "PUT":
                    value = doc_payload(key, value_size).hex()[: value_size]
                    command = f"PUT {key} {value}".encode()
                else:
                    command = f"GET {key}".encode()
                self._pending[0].append((index, target))
                ok = yield from Wire.send(ctx, req_fd, wire_buf, command)
                if not ok:
                    break
            yield from Wire.send(ctx, req_fd, wire_buf, b"QUIT")
            yield ctx.close(req_fd)
            yield ctx.thread_join(tid)
            yield from ctx.print(f"loadgen done {len(self.samples)}\n")
            return 0

    return OpenLoopKVClient


def make_client(spec: LoadSpec, rows: List[Row]) -> Type[Program]:
    if spec.app == "webserver":
        return make_web_client(rows)
    return make_kv_client(rows, spec.value_size)


# ---------------------------------------------------------------------------
# workload setup / execution on one machine
# ---------------------------------------------------------------------------

def server_class(app: str) -> Type[Program]:
    return WebServer if app == "webserver" else KVStore


def boot_server(spec: LoadSpec, cloaked: bool) -> Machine:
    """A machine booted with the server program alone registered (no
    directories)."""
    return Machine.boot(BootConfig(
        cloaked=cloaked, programs=(server_class(spec.app).name,)))


def setup_workload(machine: Machine, spec: LoadSpec,
                   rows: List[Row]) -> None:
    """Pre-create the FIFOs and (for the webserver) the documents."""
    vfs = machine.kernel.vfs
    if spec.app == "webserver":
        if not vfs.exists("/www"):
            vfs.mkdir("/www")
        if not vfs.exists("/srv"):
            vfs.mkdir("/srv")
        for key in sorted({row[3] for row in rows}):
            path = doc_path(key)
            if not vfs.exists(path):
                inode = vfs.create_file(path)
                machine.kernel.fs.write(inode, 0,
                                        doc_payload(key, spec.file_size))
        if not vfs.exists(REQUEST_FIFO):
            vfs.mkfifo(REQUEST_FIFO)
        for cid in sorted({row[1] for row in rows}):
            if not vfs.exists(response_fifo(cid)):
                vfs.mkfifo(response_fifo(cid))
    else:
        if not vfs.exists("/secure"):
            vfs.mkdir("/secure")
        # The kvstore's own main() creates its FIFOs (EEXIST-tolerant);
        # pre-creating them removes the spawn-order dependency.
        for path in (REQ_FIFO, RSP_FIFO):
            if not vfs.exists(path):
                vfs.mkfifo(path)


def _server_argv(app: str) -> Tuple[str, ...]:
    # total/max_requests <= 0: serve until the schedule says stop.
    return ("0",) if app == "webserver" else ("serve", "0")


def percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile over pre-sorted integer samples."""
    if not sorted_values:
        return 0
    rank = int(-(-q * len(sorted_values) // 100))  # ceil without floats-ish
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


def cycle_hash(total: int, breakdown: Dict[str, int]) -> str:
    """A short stable digest of a cycle-ledger interval."""
    blob = json.dumps({"total": total, "by": breakdown},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def drive_open_loop(machine: Machine, spec: LoadSpec, rows: List[Row],
                    cloaked: bool = False, attach_metrics: bool = False,
                    max_ops: int = 20_000_000) -> Dict:
    """Run one open-loop schedule against ``machine``'s server.

    The machine must already have the server program registered
    (cloaked iff ``cloaked``); the generated client is registered
    here — cloaked alongside a cloaked kvstore (its requests must
    cross the sealed channel under the store's identity; see
    ``image_bytes`` on the generated client), native otherwise (the
    webserver declassifies responses, so plain clients interoperate).
    Returns a plain-dict result — JSON-able, deterministic, and
    mergeable by :mod:`repro.serve.cluster`.
    """
    client_cloaked = cloaked and spec.app == "kvstore"
    machine.register(make_client(spec, rows), cloaked=client_cloaked)
    setup_workload(machine, spec, rows)
    registry: Optional[MetricsRegistry] = None
    cycle_snap = machine.cycles.snapshot()
    if attach_metrics:
        registry = MetricsRegistry()
        bus.attach(registry, machine.cycles)
    try:
        server_proc = machine.spawn(spec.app, _server_argv(spec.app))
        client_proc = machine.spawn(CLIENT_NAME)
        machine.run(max_ops=max_ops)
    finally:
        if registry is not None:
            bus.detach(registry)
    program = client_proc.runtime.program
    delta = machine.cycles.since(cycle_snap)
    result = harvest(spec, rows, program.samples, program.base,
                     delta.total, delta.breakdown())
    result["server_exit"] = server_proc.exit_code
    result["violations"] = len(machine.violations)
    if registry is not None:
        result["metrics"] = registry.snapshot()
    return result


def harvest(spec: LoadSpec, rows: List[Row],
            samples: List[Tuple[int, int, int, int]], base: int,
            cycles_total: int, breakdown: Dict[str, int]) -> Dict:
    """Fold raw samples into the deterministic per-run result dict."""
    latencies = sorted(done - intended
                       for _idx, intended, done, _status in samples)
    errors = sum(1 for *_rest, status in samples if status != 200)
    slo_misses = sum(1 for lat in latencies if lat > spec.deadline)
    completed = len(samples)
    span = (rows[-1][0] - rows[0][0]) if len(rows) > 1 else 1
    last_done = max((done for _i, _t, done, _s in samples), default=base)
    run_span = max(1, last_done - base)
    return {
        "app": spec.app,
        "requests": len(rows),
        "completed": completed,
        "errors": errors,
        "slo_misses": slo_misses,
        "deadline": spec.deadline,
        "latency": {
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
            "p999": percentile(latencies, 99.9),
            "max": latencies[-1] if latencies else 0,
        },
        "latencies": latencies,
        "offered_per_mcycle": round(1_000_000 * len(rows) / max(1, span), 4),
        "achieved_per_mcycle": round(1_000_000 * completed / run_span, 4),
        "cycles": cycles_total,
        "cycle_hash": cycle_hash(cycles_total, breakdown),
    }


def run_open_loop(spec: LoadSpec, cloaked: bool = False,
                  attach_metrics: bool = False) -> Dict:
    """Convenience single-machine entry: boot, drive."""
    machine = boot_server(spec, cloaked)
    rows = build_schedule(spec)
    return drive_open_loop(machine, spec, rows, cloaked=cloaked,
                           attach_metrics=attach_metrics)
