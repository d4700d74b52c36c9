"""The ``serve-http`` workload: ``repro serve`` out of process, driven by
this process over raw keep-alive HTTP/1.1 connections.

Load-generator hygiene, and why:

* **The daemon runs in its own process.**  An in-process paced generator
  measured 18-49 ms p99 lateness at 2000 req/s from GIL contention with
  the daemon's executor thread: it measured the scheduler, not the server.
* **Request bodies are encoded before any timed phase.**  Encoding per
  call (``ServeClient``'s ``tolist`` + ``json.dumps``) held the daemon to
  about 215 req/s against about 310 req/s with pre-encoded bodies, so the
  client, not the server, set the rate.
* **Two raw keep-alive sockets, one thread.**  No more connections than
  the machine's two cores, no client thread pool, no HTTP library on the
  hot path: a ``select`` loop writes pre-built request bytes and parses
  only status and ``Content-Length``; bodies are decoded and checked
  after the phase.
* **The paced phase is an open loop timed from each request's due
  time**, so a stall also charges the requests queued behind it, and the
  generator's own lateness (send time minus due time) is reported.
* **The saturated phase is a closed loop**: each connection sends its
  next request as soon as the previous answer arrives.

The request mix is EEG and ECG alternating 1:1, one window each (about
10 KB and 50 KB of JSON), routed by ``"model"`` to the two tenants of the
golden bundle.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUNDLE = ROOT / "tests" / "fixtures" / "plans" / "eeg_ecg_bundle.npz"

import timing  # noqa: E402

CONNECTIONS = 2        # = cores of the reference machine
POOL = 256             # distinct pre-encoded requests, cycled
PACED_RATE = 60.0      # offered req/s, a sixth of the saturated rate
PACED_SHARE = 0.6      # share of the run spent in the paced phase
ROUNDS = 8             # paced and saturated phases take this many turns
WARMUP_REQUESTS = 64
BOOT_TIMEOUT = 120.0
STALL_TIMEOUT = 30.0


# ---------------------------------------------------------------------------
# wire
# ---------------------------------------------------------------------------
def encode_post(host: str, body: bytes) -> bytes:
    return (f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class Connection:
    """One keep-alive socket with an incremental response parser."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        self._need = None        # (status, header end, body length)

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def receive(self):
        """Read what is available; ``(status, body)`` once a whole
        response has arrived, else ``None``."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buf += chunk
        return self._parse()

    def _parse(self):
        if self._need is None:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0:
                return None
            head = bytes(self._buf[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split()[1])
            length = 0
            for line in head[1:]:
                key, _, value = line.partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            self._need = (status, end + 4, length)
        status, start, length = self._need
        if len(self._buf) < start + length:
            return None
        body = bytes(self._buf[start:start + length])
        del self._buf[:start + length]
        self._need = None
        return status, body

    def exchange(self, data: bytes):
        """Blocking request/response (warm-up, stats, health)."""
        self.send(data)
        while True:
            response = self.receive()
            if response is not None:
                return response

    def get(self, path: str):
        return self.exchange(
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode())

    def close(self) -> None:
        self.sock.close()


# ---------------------------------------------------------------------------
# daemon lifecycle
# ---------------------------------------------------------------------------
class Daemon:
    """``repro serve`` as a child process; :meth:`start` returns set-up
    time, from spawn to the first ``/healthz`` 200, calibrated by the
    machine's speed gauged here just before and after (:mod:`timing`):
    boot is one process whose cost follows the machine's speed over the
    minutes, which the gauge sees; raw boot times of two ten-run sets a
    few minutes apart differed by 22%."""

    URL = re.compile(rb"on http://([0-9.]+):([0-9]+)")

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.proc = None
        self.host, self.port = None, None

    def start(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        speedometer = timing.Speedometer()
        before = speedometer.factor(0.05)
        t0 = time.perf_counter()
        # Unbuffered: a buffered reader could swallow the url line
        # into its buffer where select() no longer sees it.
        self.proc = subprocess.Popen(self.argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, bufsize=0)
        deadline = t0 + BOOT_TIMEOUT
        seen = b""
        while self.host is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not start: {seen[-500:]!r}")
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                seen += line
                match = self.URL.search(line)
                if match:
                    self.host = match.group(1).decode()
                    self.port = int(match.group(2))
        while True:
            try:
                probe = Connection(self.host, self.port)
                try:
                    status, _ = probe.get("/healthz")
                finally:
                    probe.close()
                if status == 200:
                    wall = time.perf_counter() - t0
                    return wall * (before + speedometer.factor(0.05)) / 2
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never reported healthy")
            time.sleep(0.001)

    def peak_rss_mb(self) -> float:
        """Peak resident set of the daemon process (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        """SIGTERM (drain), then wait; kill if it does not exit."""
        if self.proc is None or self.proc.poll() is not None:
            if self.proc is not None:
                self.proc.communicate()
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def daemon_argv(trace_out: str | None = None) -> list[str]:
    serve = ["serve", str(BUNDLE), "--port", "0", "--backend", "packed"]
    if trace_out is None:
        return [sys.executable, "-m", "repro", *serve]
    return [sys.executable, str(HERE / "serve_launcher.py"),
            "--trace-out", trace_out, "--", *serve]


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------
def make_requests(seed: int) -> dict:
    """The seeded request pool: alternating EEG/ECG single windows, each
    pre-encoded to wire bytes, with the offline ``packed`` answer."""
    import numpy as np
    from repro.io import load_compiled, load_plan

    artifacts = {m: load_plan(BUNDLE, model=m) for m in ("eeg", "ecg")}
    plans = {m: load_compiled(a, backend="packed")
             for m, a in artifacts.items()}
    rng = np.random.default_rng(seed)
    models, bodies, expected = [], [], []
    for i in range(POOL):
        m = ("eeg", "ecg")[i % 2]
        window = rng.standard_normal((1,) + artifacts[m].input_shape)
        models.append(m)
        bodies.append(json.dumps({"inputs": window.tolist(),
                                  "model": m}).encode())
        expected.append(plans[m].scores(window))
    return {"models": models, "bodies": bodies, "expected": expected}


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------
def _wait_readable(busy, timeout):
    readable, _, _ = select.select(list(busy), [], [], timeout)
    return readable


def paced(conns, wire, rate: float, seconds: float, first: int) -> list:
    """Open loop at ``rate`` req/s for ``seconds``.  Each record is
    ``(index, due, sent, done, status, body)``."""
    n = max(1, int(rate * seconds))
    records = []
    idle = list(conns)
    busy = {}
    start = time.perf_counter() + 0.01
    sent_count = 0
    while sent_count < n or busy:
        now = time.perf_counter()
        while sent_count < n and idle and start + sent_count / rate <= now:
            conn = idle.pop()
            index = first + sent_count
            due = start + sent_count / rate
            sent = time.perf_counter()
            conn.send(wire[index % len(wire)])
            busy[conn.sock] = (conn, index, due, sent)
            sent_count += 1
        if sent_count < n and idle:
            timeout = max(0.0, start + sent_count / rate
                          - time.perf_counter())
        else:
            timeout = STALL_TIMEOUT
        if not busy:
            time.sleep(timeout)
            continue
        readable = _wait_readable(busy, timeout)
        if not readable and timeout == STALL_TIMEOUT:
            raise RuntimeError("daemon stalled in the paced phase")
        for sock in readable:
            conn, index, due, sent = busy[sock]
            response = conn.receive()
            if response is not None:
                records.append((index, due, sent, time.perf_counter(),
                                *response))
                del busy[sock]
                idle.append(conn)
    return records


def saturated(conns, wire, seconds: float, first: int):
    """Closed loop for ``seconds``: every connection keeps exactly one
    request in flight.  Returns ``(records, elapsed)``."""
    records = []
    busy = {}
    cursor = first
    start = time.perf_counter()
    end = start + seconds
    for conn in conns:
        busy[conn.sock] = (conn, cursor, time.perf_counter())
        conn.send(wire[cursor % len(wire)])
        cursor += 1
    last = start
    while busy:
        readable = _wait_readable(busy, STALL_TIMEOUT)
        if not readable:
            raise RuntimeError("daemon stalled in the saturated phase")
        for sock in readable:
            conn, index, sent = busy[sock]
            response = conn.receive()
            if response is None:
                continue
            last = time.perf_counter()
            records.append((index, sent, sent, last, *response))
            del busy[sock]
            if last < end:
                busy[conn.sock] = (conn, cursor, time.perf_counter())
                conn.send(wire[cursor % len(wire)])
                cursor += 1
    return records, last - start


def _stats(conn) -> dict:
    status, body = conn.get("/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return json.loads(body)


def verify(records, pool, tally) -> list:
    """Every response must be a 200 whose scores and labels equal the
    offline ``packed`` answer.  Returns each record's server latency in
    ms (``None`` for a failed request)."""
    import numpy as np

    server_ms = []
    for index, _, _, _, status, body in records:
        latency = None
        if status == 200:
            data = json.loads(body)
            expected = pool["expected"][index % POOL]
            if (np.array_equal(np.asarray(data["scores"]), expected)
                    and data["labels"] == expected.argmax(axis=1).tolist()
                    and data["model"] == pool["models"][index % POOL]):
                latency = float(data["latency_ms"])
        tally.check(latency is not None)
        server_ms.append(latency)
    return server_ms


def drive(daemon: Daemon, pool, seconds: float, tally) -> dict:
    """Warm up, then paced and saturated phases against a ready daemon;
    returns end-to-end metrics plus client-side layer figures.

    The two phases take ``ROUNDS`` turns each (paced, then saturated,
    then paced again ...), so both sample the whole run and a slow spell
    of a shared machine weighs on both alike.

    Times here are not calibrated (:mod:`timing`): the work runs in the
    daemon, on a core this process cannot gauge, and a gauge of the
    client's own core made the spread between runs wider, not narrower.
    The throughput is the median of the rounds' rates: one round caught
    in a slow spell of either core moves it less than the pooled rate.
    """
    wire = [encode_post(daemon.host, body) for body in pool["bodies"]]
    conns = [Connection(daemon.host, daemon.port)
             for _ in range(CONNECTIONS)]
    paced_records, sat_records, round_rates = [], [], []
    batches, rows = 0, 0
    try:
        for i in range(WARMUP_REQUESTS):
            conns[i % CONNECTIONS].exchange(wire[i % POOL])
        first = _stats(conns[0])
        for _ in range(ROUNDS):
            before = _stats(conns[0])
            paced_records += paced(
                conns, wire, PACED_RATE, seconds * PACED_SHARE / ROUNDS,
                first=len(paced_records) + len(sat_records))
            after = _stats(conns[0])
            batches += after["batches"] - before["batches"]
            rows += after["rows"] - before["rows"]
            records, elapsed = saturated(
                conns, wire, seconds * (1 - PACED_SHARE) / ROUNDS,
                first=len(paced_records) + len(sat_records))
            sat_records += records
            round_rates.append(len(records) / elapsed)
        last = _stats(conns[0])
    finally:
        for conn in conns:
            conn.close()

    server_ms = verify(paced_records, pool, tally)
    verify(sat_records, pool, tally)
    tally.check(last["rejected"] == first["rejected"])

    due = timing.summarize([(r[3] - r[1]) for r in paced_records])
    late = timing.summarize([(r[2] - r[1]) for r in paced_records])
    transport = [(r[3] - r[2]) * 1e3 - s
                 for r, s in zip(paced_records, server_ms) if s is not None]
    server_ms = [s for s in server_ms if s is not None]
    server = timing.summarize(server_ms) if server_ms else None
    layers = {
        "serve.server_latency_p50_ms": server["median"] if server else 0.0,
        "serve.server_latency_p99_ms": server["tail"] if server else 0.0,
        "serve.transport_p50_ms": statistics.median(transport)
        if transport else 0.0,
        "serve.mean_fill": rows / batches if batches else 0.0,
        "serve.rejected": last["rejected"] - first["rejected"],
        "serve.request_bytes": statistics.mean(
            len(pool["bodies"][r[0] % POOL]) for r in paced_records),
        "serve.generator_late_p99_ms": late["tail"] * 1e3,
    }
    return {"throughput_per_s": statistics.median(round_rates),
            "latency_p50_ms": due["median"] * 1e3,
            "latency_tail_ms": due["tail"] * 1e3,
            "samples": {"paced_from_due": due, "generator_late": late,
                        "saturated_requests": len(sat_records),
                        "saturated_round_rates": round_rates},
            "layers": layers}


def daemon_layers(trace_path):
    """Execute time and set-up figures from the traced daemon's tape, and
    the accounting of every plan execute into its layers' self times."""
    from collections import defaultdict

    from spans import SpanTable

    with open(trace_path) as handle:
        tape = json.load(handle)
    table = SpanTable.from_tape(tape)
    executes = table.named("runtime.scores")
    wall, parts = 0.0, defaultdict(float)
    for sid in executes:
        wall += table.duration(sid)
        for name, value in table.self_by_name(sid).items():
            parts[name] += value
    layers = {"serve.execute_ms": statistics.median(
                  table.duration(s) for s in executes) * 1e3
              if executes else 0.0,
              "setup.import_s": tape["import_s"],
              "io.load_ms": sum(table.duration(s) for s in
                                table.outermost(["io.load"])) * 1e3}
    breakdown = {}
    if executes:
        breakdown["daemon.executes"] = {
            "wall_s": wall, "self_s": dict(parts),
            "accounted": sum(parts.values()) / wall}
    return layers, breakdown
