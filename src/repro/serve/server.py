"""The always-on inference daemon: transport, lifecycle, execution.

Dataflow (one process, one or more co-resident models)::

    client request (rows of raw model input, optionally model-tagged)
        -> tenant router           ``model=`` names the lane; unknown
                                   model -> reject (HTTP 400)
        -> admission queue         bounded per model; full -> reject
                                   (HTTP 429)
        -> micro-batcher           coalesce FIFO rows per model, flush
                                   on window timeout or max-batch fill
        -> executor thread         ONE thread drives CompiledModel.scores
                                   on the noise-free packed
                                   kernels; one wake cycle carries the
                                   flushes of EVERY ready model
                                   back-to-back (cross-tenant coalescing)
        -> demultiplexer           slice per-request score rows back out,
                                   bit-identical to predicting each
                                   request alone
        -> response                scores + argmax labels (+ latency)

Threading model: transport threads (one per in-flight HTTP connection)
only touch the batchers under the server's condition variable and then
block on their request handle; the single executor thread is the only
caller of any compiled plan.  The noise-free fast-path kernels are
reentrant (see ``tests/rram/test_thread_reentrancy.py``), so even this
single-executor rule is a throughput choice — one saturated batched
kernel beats competing partial ones — not a correctness requirement.
Noisy (Monte-Carlo) plans draw from controller-owned RNG streams and are
*not* servable: the constructor refuses plans whose controllers are off
the fast path.

Multi-tenancy: pass a ``{name: plan}`` mapping (e.g. from
:func:`repro.io.load_compiled_bundle`) and each model gets its own
admission queue, batcher, geometry contract and
:class:`~repro.serve.stats.ServeStats`, while the executor and the HTTP
front stay shared.  Requests route by ``model=`` on :meth:`submit` (or
``"model"`` in the ``POST /v1/predict`` body); with a single model the
tag is optional and everything behaves exactly as before.

Lifecycle: ``close(drain=True)`` (the SIGTERM path) stops admissions
(HTTP 503), lets the executor flush every admitted request of every
model — drain, don't drop — then joins it.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections.abc import Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.serve.batcher import MicroBatcher
from repro.serve.stats import ServeStats, render_tenant_table

__all__ = ["PlanServer", "HttpFront", "ServeRequest", "QueueFull",
           "ServerClosed", "UnknownModel"]

# Request-body cap of the HTTP front: a JSON number of a served sample
# takes at most 24 bytes ("-1.2345678901234567e-308"), so 32 covers it
# with its separator and the nesting brackets; the envelope covers the
# keys and the model name.
JSON_BYTES_PER_NUMBER = 32
JSON_ENVELOPE_BYTES = 4096

# How often the HTTP accept loop checks for a shutdown request: the
# stdlib default of 0.5 s would make every shutdown wait that long.
HTTP_POLL_INTERVAL = 0.05


class QueueFull(RuntimeError):
    """Admission queue at capacity (HTTP 429 — retryable), or a request
    larger than the whole queue (``permanent`` — HTTP 413)."""

    def __init__(self, message: str, permanent: bool = False):
        super().__init__(message)
        self.permanent = permanent


class ServerClosed(RuntimeError):
    """The daemon is draining or stopped (HTTP 503)."""


class UnknownModel(ValueError):
    """The request named a model this daemon does not serve — or named
    none while several are resident (HTTP 400, a client error: retrying
    the same request can never succeed)."""

    def __init__(self, model, available):
        self.model = model
        self.available = sorted(str(name) for name in available)
        served = ", ".join(self.available)
        if model is None:
            message = ("request must name a model: this daemon serves "
                       f"[{served}]")
        else:
            message = (f"unknown model {model!r}: this daemon serves "
                       f"[{served}]")
        super().__init__(message)


class ServeRequest:
    """A submitted request's handle: wait on it, then read the scores."""

    def __init__(self, request_id: int, rows: int, submitted_at: float,
                 model: str = "model"):
        self.id = request_id
        self.rows = rows
        self.submitted_at = submitted_at
        self.model = model
        self.scores: np.ndarray | None = None
        self.error: Exception | None = None
        self.latency: float | None = None     # set at completion (seconds)
        self._event = threading.Event()
        self._remaining = rows

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the response is demuxed (True) or ``timeout``
        elapses (False)."""
        return self._event.wait(timeout)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def labels(self) -> np.ndarray:
        """Per-row argmax labels (requires a completed request)."""
        if self.scores is None:
            raise RuntimeError("request not completed (or it failed)")
        return self.scores.argmax(axis=1)

    # -- executor side ---------------------------------------------------
    def _deliver(self, offset: int, part: np.ndarray, now: float) -> None:
        if self.scores is None:
            if offset == 0 and len(part) == self.rows:
                self.scores = part          # whole request in one flush
            else:
                self.scores = np.empty((self.rows,) + part.shape[1:],
                                       dtype=part.dtype)
                self.scores[offset:offset + len(part)] = part
        else:
            self.scores[offset:offset + len(part)] = part
        self._remaining -= len(part)
        if self._remaining == 0:
            self.latency = now - self.submitted_at
            self._event.set()

    def _fail(self, error: Exception) -> None:
        self.error = error
        self._event.set()


class _Tenant:
    """One served model's private lane: plan, batcher, geometry, stats."""

    __slots__ = ("name", "plan", "batcher", "input_shape", "dtype", "stats")

    def __init__(self, name, plan, batcher, input_shape, dtype, stats):
        self.name = name
        self.plan = plan
        self.batcher = batcher
        self.input_shape = input_shape
        self.dtype = dtype
        self.stats = stats


def _per_model(value, name: str, default=None):
    """Resolve a possibly per-model setting: mappings are keyed by model
    name (missing names fall back to ``default``), anything else applies
    to every model."""
    if isinstance(value, Mapping):
        return value.get(name, default)
    return value if value is not None else default


class PlanServer:
    """Micro-batching execution core around one or more compiled plans.

    Transport-agnostic: :meth:`submit` + :class:`ServeRequest` are the
    whole client API; :class:`HttpFront` (or a test, or the load
    generator) layers a wire protocol on top.  ``input_shape`` is the
    per-sample geometry contract (defaults to the plan's recorded one
    when available); ``dtype`` canonicalizes request arrays at admission
    so coalescing requests never changes a single bit relative to
    predicting the same canonical array alone.

    ``plan`` may be a single compiled plan (served as ``model``) or a
    ``{name: plan}`` mapping for a multi-tenant daemon.  In the mapping
    case ``max_batch``, ``window``, ``max_queue``, ``input_shape`` and
    ``dtype`` may each be either one value for every model or a mapping
    keyed by model name.  Per-model :class:`ServeStats` always exist;
    ``self.stats`` is the sole model's stats for a single-model server
    (unchanged from the single-plan days) and a separate aggregate
    instance when several models are resident.
    """

    def __init__(self, plan, *, max_batch=256, window=200e-6,
                 max_queue=1024, input_shape=None,
                 dtype=None, model: str = "model",
                 stats: ServeStats | None = None):
        if isinstance(plan, Mapping):
            if not plan:
                raise ValueError("no models to serve (empty mapping)")
            plans = {str(name): tenant_plan
                     for name, tenant_plan in plan.items()}
        else:
            plans = {str(model): plan}
        multi = len(plans) > 1
        self._tenants: dict[str, _Tenant] = {}
        for name, tenant_plan in plans.items():
            _require_deterministic(tenant_plan)
            shape = _per_model(input_shape, name)
            if shape is not None:
                shape = tuple(int(s) for s in shape)
            tenant_dtype = _per_model(dtype, name)
            if tenant_dtype is None:
                front = tenant_plan.ops[0]
                spec = getattr(front, "spec", None) or {}
                tenant_dtype = np.uint8 if spec.get("op") == "bits" \
                    else np.float64
            batcher = MicroBatcher(
                max_batch=int(_per_model(max_batch, name, 256)),
                window=float(_per_model(window, name, 200e-6)),
                max_queue=int(_per_model(max_queue, name, 1024)))
            tenant_stats = ServeStats(model=name) if multi \
                else (stats or ServeStats(model=name))
            self._tenants[name] = _Tenant(name, tenant_plan, batcher,
                                          shape, np.dtype(tenant_dtype),
                                          tenant_stats)
        if multi:
            self.stats = stats or ServeStats(model="aggregate")
            self.plan = None
            self.input_shape = None
            self.dtype = None
            self._batcher = None
        else:
            sole = next(iter(self._tenants.values()))
            self.stats = sole.stats
            self.plan = sole.plan          # single-model conveniences
            self.input_shape = sole.input_shape
            self.dtype = sole.dtype
            self._batcher = sole.batcher
        self._cond = threading.Condition()
        self._handles: dict[int, ServeRequest] = {}
        self._next_id = 0
        self._draining = False
        self._stopped = False
        self._executor_dead = False
        self._executor = threading.Thread(target=self._executor_loop,
                                          name="repro-serve-executor",
                                          daemon=True)
        self._executor.start()

    # -- tenant routing ----------------------------------------------------
    def models(self) -> list[str]:
        """Served model names, in registration order."""
        return list(self._tenants)

    def describe_models(self) -> list[dict]:
        """One JSON-ready record per served model (``GET /v1/models``)."""
        return [{
            "name": t.name,
            "input_shape": list(t.input_shape)
            if t.input_shape is not None else None,
            "dtype": t.dtype.name,
            "max_batch": t.batcher.max_batch,
            "window_us": t.batcher.window * 1e6,
            "max_queue": t.batcher.max_queue,
        } for t in self._tenants.values()]

    def _resolve(self, model) -> _Tenant:
        if model is None:
            if len(self._tenants) == 1:
                return next(iter(self._tenants.values()))
            raise UnknownModel(None, self._tenants)
        tenant = self._tenants.get(str(model))
        if tenant is None:
            raise UnknownModel(model, self._tenants)
        return tenant

    def _stat(self, tenant: _Tenant, method: str, *args) -> None:
        """Record on the tenant's counters and (when distinct) on the
        aggregate — single-model servers alias the two, so nothing is
        ever double-counted."""
        getattr(tenant.stats, method)(*args)
        if tenant.stats is not self.stats:
            getattr(self.stats, method)(*args)

    # -- client API ------------------------------------------------------
    def submit(self, inputs, model: str | None = None) -> ServeRequest:
        """Admit one request: ``(rows,) + input_shape`` (or one bare
        sample, auto-wrapped).  ``model`` routes to the named tenant
        (optional when a single model is served).  Returns the request's
        handle; raises :class:`UnknownModel` for a bad route,
        :class:`ValueError` for a bad shape or a non-finite value,
        :class:`QueueFull` under backpressure and :class:`ServerClosed`
        once draining or once the executor thread has died (nothing
        would ever serve the request)."""
        tenant = self._resolve(model)
        try:
            inputs = np.ascontiguousarray(inputs, dtype=tenant.dtype)
        except OverflowError as error:   # e.g. inf or 300 for a uint8 model
            raise ValueError(f"request values do not fit {tenant.dtype} "
                             f"for model {tenant.name!r}: {error}") from None
        if tenant.input_shape is not None and \
                inputs.shape == tenant.input_shape:
            inputs = inputs[None]
        if tenant.input_shape is not None and \
                inputs.shape[1:] != tenant.input_shape:
            raise ValueError(
                f"request shape {inputs.shape} != (rows, "
                f"{', '.join(map(str, tenant.input_shape))}) "
                f"for model {tenant.name!r}")
        if inputs.ndim < 2:
            raise ValueError(
                f"request must be (rows,) + sample shape, "
                f"got {inputs.shape}")
        if inputs.dtype.kind == "f":
            bad = inputs.size - np.count_nonzero(np.isfinite(inputs))
            if bad:
                raise ValueError(
                    f"request has {bad} non-finite (NaN/Inf) input "
                    f"value(s) for model {tenant.name!r}")
        now = time.monotonic()
        with self._cond:
            if self._draining:
                raise ServerClosed("server is draining; not accepting "
                                   "new requests")
            if not self.executor_alive:
                raise ServerClosed("executor thread has died; not "
                                   "accepting new requests")
            if len(inputs) > tenant.batcher.max_queue:
                self._stat(tenant, "record_reject")
                raise QueueFull(
                    f"request of {len(inputs)} rows exceeds the whole "
                    f"admission queue ({tenant.batcher.max_queue} rows)",
                    permanent=True)
            handle = ServeRequest(self._next_id, len(inputs), now,
                                  model=tenant.name)
            if not tenant.batcher.submit(handle.id, inputs, now):
                self._stat(tenant, "record_reject")
                raise QueueFull(
                    f"admission queue full "
                    f"({tenant.batcher.depth}/{tenant.batcher.max_queue} "
                    "rows queued); retry")
            self._next_id += 1
            self._handles[handle.id] = handle
            self._stat(tenant, "record_admit", tenant.batcher.depth)
            self._cond.notify()
        return handle

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return sum(t.batcher.depth for t in self._tenants.values())

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def executor_alive(self) -> bool:
        """False once the executor thread has exited, by a drain or by
        an error outside a plan evaluation."""
        return not self._executor_dead and self._executor.is_alive()

    # -- stats -----------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Aggregate counters plus a ``"models"`` section with every
        tenant's own snapshot (``GET /v1/stats``)."""
        snapshot = self.stats.snapshot()
        snapshot["models"] = {name: t.stats.snapshot()
                              for name, t in self._tenants.items()}
        return snapshot

    def render_stats(self) -> str:
        """The daemon's shutdown report: the aggregate block, plus a
        per-model exit table when several models are resident."""
        if len(self._tenants) == 1:
            return self.stats.render()
        table = render_tenant_table(
            [t.stats.snapshot() for t in self._tenants.values()])
        return "\n".join([self.stats.render(), "", table])

    # -- lifecycle -------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None):
        """Stop the daemon.  ``drain=True`` (the SIGTERM contract) serves
        every admitted request of every model before the executor exits;
        ``drain=False`` fails queued requests with :class:`ServerClosed`."""
        with self._cond:
            if self._stopped:
                return
            self._draining = True
            if not drain:
                now = time.monotonic()
                for tenant in self._tenants.values():
                    for flush in tenant.batcher.drain(now):
                        for s in flush.slices:
                            if s.final:
                                handle = self._handles.pop(s.request_id)
                                handle._fail(ServerClosed("server stopped"))
            self._cond.notify_all()
        self._executor.join(timeout)
        self._stopped = True

    # -- executor --------------------------------------------------------
    def _executor_loop(self):
        """Run the executor; if it dies outside a plan evaluation, fail
        every admitted request at once instead of leaving it to time out,
        and refuse new ones (the error still reaches the thread hook)."""
        try:
            self._serve_flushes()
        except BaseException:
            with self._cond:
                self._executor_dead = True
                handles = list(self._handles.values())
                self._handles.clear()
            for handle in handles:
                handle._fail(ServerClosed("executor thread has died"))
            raise

    def _serve_flushes(self):
        tenants = list(self._tenants.values())
        while True:
            flushes = []
            with self._cond:
                while True:
                    if self._draining:
                        if all(t.batcher.n_waiting == 0 for t in tenants):
                            return
                        break                    # drain: flush regardless
                    now = time.monotonic()
                    if any(t.batcher.ready(now) for t in tenants):
                        break
                    deadlines = [d for d in (t.batcher.next_deadline()
                                             for t in tenants)
                                 if d is not None]
                    self._cond.wait(
                        None if not deadlines
                        else max(0.0, min(deadlines) - now))
                # Cross-tenant coalescing: one wake cycle collects the
                # flush of EVERY ready model, so back-to-back dispatches
                # share the wake/lock overhead instead of paying it per
                # tenant.
                now = time.monotonic()
                for tenant in tenants:
                    if self._draining or tenant.batcher.ready(now):
                        flush = tenant.batcher.flush(now)
                        if flush is not None:
                            flushes.append((tenant, flush,
                                            tenant.batcher.depth))
            for tenant, flush, depth in flushes:
                self._execute(tenant, flush, depth)

    def _execute(self, tenant: _Tenant, flush, depth: int) -> None:
        try:
            scores = tenant.plan.scores(flush.inputs)
        except Exception:
            # One poisoned request must not fail the flush around it:
            # rerun each slice alone (rows are independent, so a healthy
            # slice scores as it would have in the batch) and fail only
            # the requests whose own run raises.  Keep serving either way.
            parts = []
            for s in flush.slices:
                try:
                    parts.append(tenant.plan.scores(
                        flush.inputs[s.row_start:s.row_stop]))
                except Exception as error:
                    parts.append(error)
        else:
            self._stat(tenant, "record_batch", flush.rows, depth)
            parts = [scores[s.row_start:s.row_stop] for s in flush.slices]
        now = time.monotonic()
        with self._cond:
            handles = [self._handles.pop(s.request_id, None) if s.final
                       else self._handles.get(s.request_id)
                       for s in flush.slices]
        for s, handle, part in zip(flush.slices, handles, parts):
            if handle is None or handle.error is not None:
                continue                # already failed in an earlier part
            if isinstance(part, Exception):
                handle._fail(part)
                continue
            handle._deliver(s.offset, part, now)
            if s.final:
                self._stat(tenant, "record_complete", handle.latency)


def _max_body_bytes(server: PlanServer) -> int | None:
    """The largest JSON body any served model could admit: its whole
    admission queue of samples at :data:`JSON_BYTES_PER_NUMBER` each.  A
    model without a declared input shape admits any sample size, so
    then there is no cap."""
    numbers = []
    for model in server.describe_models():
        if model["input_shape"] is None:
            return None
        numbers.append(model["max_queue"] * math.prod(model["input_shape"]))
    return max(numbers) * JSON_BYTES_PER_NUMBER + JSON_ENVELOPE_BYTES


def _require_deterministic(plan) -> None:
    """Serving demuxes one batched evaluation into per-request answers;
    that is only bit-identical to solo evaluation when every substrate op
    is deterministic (the noise-free fast path).  Noisy plans draw from
    controller-owned RNG streams whose consumption order depends on
    batch composition — refuse them loudly."""
    for op in getattr(plan, "layer_ops", []):
        controller = getattr(op.executor, "controller", None)
        if controller is not None and not controller.fast_path:
            raise ValueError(
                "cannot serve a noisy plan: controller "
                f"{controller!r} is off the deterministic fast path "
                "(serving requires noise-free configs so batched == "
                "per-request bit-identically)")


class HttpFront:
    """A minimal stdlib HTTP/1.1 front over a :class:`PlanServer`.

    Endpoints::

        POST /v1/predict   {"inputs": [[...], ...], "model": "eeg"?} ->
                           {"scores": [[...]], "labels": [...],
                            "model": ..., "latency_ms": ...}
        GET  /v1/models    the served models and their contracts (JSON)
        GET  /v1/stats     aggregate + per-model counters and latency
                           percentiles (JSON)
        GET  /healthz      {"status": "ok" | "draining" | "executor_dead"}

    ``"model"`` in the predict body is required only when several models
    are resident; an unknown (or missing-but-required) name is a 400
    client error whose body lists the served models.  Backpressure
    surfaces as 429 (retryable) / 413 (request larger than the queue); a
    draining daemon, or one whose executor thread has died, answers 503
    to predictions and to the health probe; unknown paths get a
    structured 404 that lists the routes.  A ``Content-Length`` that is
    not a non-negative integer is a 400, and one above
    :attr:`max_body_bytes` a 413, both sent before reading the body and
    closing the connection.  One thread per in-flight connection (stdlib
    ``ThreadingHTTPServer``); all of them funnel into the single executor
    through the per-model admission queues.
    """

    ROUTES = ("GET /healthz", "GET /v1/models", "GET /v1/stats",
              "POST /v1/predict")

    def __init__(self, server: PlanServer, host: str = "127.0.0.1",
                 port: int = 0, request_timeout: float = 30.0):
        self.server = server
        self.request_timeout = float(request_timeout)
        self.max_body_bytes = _max_body_bytes(server)
        front = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Responses are written as several small sends (status,
            # headers, body); with Nagle on, those interact with delayed
            # ACKs into ~40 ms stalls per request on loopback.
            disable_nagle_algorithm = True

            def log_message(self, *args):   # quiet: stats, not access logs
                pass

            def _reply(self, code: int, payload: dict,
                       close: bool = False) -> None:
                body = json.dumps(payload).encode()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if close:                   # also ends the keep-alive loop
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def _not_found(self) -> None:
                self._reply(404, {"error": "no such route",
                                  "path": self.path,
                                  "routes": list(HttpFront.ROUTES)})

            def do_GET(self):
                if self.path == "/healthz":
                    if front.server.draining:
                        self._reply(503, {"status": "draining"})
                    elif not front.server.executor_alive:
                        self._reply(503, {"status": "executor_dead"})
                    else:
                        self._reply(200, {"status": "ok"})
                elif self.path == "/v1/models":
                    self._reply(200, {
                        "models": front.server.describe_models()})
                elif self.path == "/v1/stats":
                    self._reply(200, front.server.stats_snapshot())
                else:
                    self._not_found()

            def do_POST(self):
                if self.path != "/v1/predict":
                    self._not_found()
                    return
                raw_length = self.headers.get("Content-Length", "0")
                length = raw_length.strip()
                # The body stays unread on a refusal, so its framing is
                # lost and the connection closes after the reply.
                if not (length.isascii() and length.isdigit()):
                    self._reply(400, {"error": "bad Content-Length "
                                               f"{raw_length!r}"},
                                close=True)
                    return
                length = int(length)
                if front.max_body_bytes is not None and \
                        length > front.max_body_bytes:
                    self._reply(413, {
                        "error": f"request body of {length} bytes exceeds "
                                 f"the {front.max_body_bytes}-byte limit "
                                 "(a full admission queue of the largest "
                                 "model)"}, close=True)
                    return
                try:
                    payload = json.loads(self.rfile.read(length))
                    inputs = payload["inputs"]
                    model = payload.get("model")
                except (ValueError, KeyError, TypeError) as error:
                    self._reply(400, {"error": f"bad request: {error}"})
                    return
                try:
                    handle = front.server.submit(inputs, model=model)
                except UnknownModel as error:
                    self._reply(400, {"error": str(error),
                                      "model": error.model,
                                      "available": error.available})
                    return
                except QueueFull as error:
                    self._reply(413 if error.permanent else 429,
                                {"error": str(error)})
                    return
                except ServerClosed as error:
                    self._reply(503, {"error": str(error)})
                    return
                except ValueError as error:
                    self._reply(400, {"error": str(error)})
                    return
                if not handle.wait(front.request_timeout):
                    self._reply(504, {"error": "timed out waiting for "
                                               "the executor"})
                    return
                if handle.error is not None:
                    closed = isinstance(handle.error, ServerClosed)
                    self._reply(503 if closed else 500,
                                {"error": str(handle.error)})
                    return
                self._reply(200, {
                    "scores": handle.scores.tolist(),
                    "labels": handle.labels.tolist(),
                    "model": handle.model,
                    "latency_ms": handle.latency * 1e3,
                })

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpFront":
        """Serve in a background thread (returns immediately)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-serve-http",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever(poll_interval=HTTP_POLL_INTERVAL)

    def shutdown(self, drain: bool = True) -> None:
        """Stop the transport, then drain (or drop) the execution core."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.server.close(drain=drain)
