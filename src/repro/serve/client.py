"""HTTP client + concurrent load generator for the serving daemon.

:class:`ServeClient` is a thin keep-alive JSON client over one
``http.client.HTTPConnection`` (one instance per thread — the connection
is not shared).  :func:`fire` drives a daemon with N concurrent
closed-loop clients and collects every response; ``python -m
repro.serve.client`` wraps that as the CI smoke: boot a daemon
elsewhere, point this at it with the golden fixture artifact, and it
verifies every served answer bit-for-bit against offline
``CompiledModel.predict`` before exiting 0.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
import urllib.parse

import numpy as np

__all__ = ["ServeClient", "ServeHTTPError", "fire"]


class ServeHTTPError(RuntimeError):
    """A non-200 daemon response (the status is the backpressure signal:
    429 retryable queue-full, 413 oversized, 503 draining or executor
    dead)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """One keep-alive connection to a ``repro serve`` daemon."""

    def __init__(self, url: str, timeout: float = 30.0,
                 retries: int = 0, backoff: float = 0.002):
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http":
            raise ValueError(f"expected an http:// url, got {url!r}")
        self.url = url
        self.retries = int(retries)
        self.backoff = float(backoff)
        self._conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port or 80, timeout=timeout)

    def _request(self, method: str, path: str, payload=None) -> dict:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = json.loads(response.read())
        except (http.client.HTTPException, ConnectionError):
            # A dropped keep-alive connection (daemon restarted mid-run):
            # reconnect once, then let real errors surface.
            self._conn.close()
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = json.loads(response.read())
        if response.status != 200:
            raise ServeHTTPError(response.status,
                                 data.get("error", "unknown error"))
        return data

    def predict(self, inputs: np.ndarray,
                model: str | None = None) -> dict:
        """POST one request; retries queue-full (429) with backoff when
        ``retries > 0``.  ``model`` routes to one tenant of a
        multi-model daemon (optional when a single model is served).
        Returns ``{"scores": ndarray, "labels": ndarray,
        "model": str | None, "latency_ms": float}``."""
        payload = {"inputs": np.asarray(inputs).tolist()}
        if model is not None:
            payload["model"] = str(model)
        for attempt in range(self.retries + 1):
            try:
                data = self._request("POST", "/v1/predict", payload)
                break
            except ServeHTTPError as error:
                if error.status != 429 or attempt == self.retries:
                    raise
                time.sleep(self.backoff * (attempt + 1))
        return {"scores": np.asarray(data["scores"], dtype=np.float64),
                "labels": np.asarray(data["labels"], dtype=np.int64),
                "model": data.get("model"),
                "latency_ms": float(data["latency_ms"])}

    def models(self) -> list[dict]:
        """The daemon's served models and their contracts."""
        return self._request("GET", "/v1/models")["models"]

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def close(self) -> None:
        self._conn.close()


def fire(url: str, requests: list, threads: int = 8,
         retries: int = 200, timeout: float = 30.0) -> list[dict]:
    """Fire ``requests`` at a daemon from ``threads`` concurrent
    closed-loop clients; returns one response dict per request, in
    request order.  Each request is either a bare input array or a
    ``(model_name, array)`` pair for a multi-model daemon (a mixed
    burst).  Worker failures re-raise in the caller."""
    results: list = [None] * len(requests)
    errors: list[Exception] = []
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def worker():
        client = ServeClient(url, timeout=timeout, retries=retries)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = requests[index]
                if isinstance(request, tuple):
                    model, inputs = request
                    results[index] = client.predict(inputs, model=model)
                else:
                    results[index] = client.predict(request)
        except Exception as error:      # surface on the caller's thread
            with lock:
                errors.append(error)
        finally:
            client.close()

    pool = [threading.Thread(target=worker, daemon=True)
            for _ in range(max(1, int(threads)))]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _synthetic_requests(artifact, count: int, seed: int,
                        rows: int = 1) -> list[np.ndarray]:
    """Per-request synthetic inputs from the artifact's recorded geometry
    (the ``repro deploy`` convention: bits for ``bits`` fronts, floats
    otherwise)."""
    shape = artifact.input_shape
    if shape is None:
        raise SystemExit("artifact records no input geometry")
    rng = np.random.default_rng(seed)
    if artifact.ops[0]["op"] == "bits":
        return [rng.integers(0, 2, size=(rows,) + shape).astype(np.uint8)
                for _ in range(count)]
    return [rng.standard_normal((rows,) + shape) for _ in range(count)]


def main(argv=None) -> int:
    """CI smoke client: concurrent requests, bit-exact verification."""
    parser = argparse.ArgumentParser(
        description="load-generate against a repro serve daemon and "
                    "verify responses bit-for-bit against offline "
                    "predict")
    parser.add_argument("--url", required=True,
                        help="daemon base url, e.g. http://127.0.0.1:8373")
    parser.add_argument("--artifact", required=True,
                        help="the plan artifact the daemon is serving "
                             "(for input geometry + offline reference)")
    parser.add_argument("--model", default=None,
                        help="tenant name when the daemon serves a "
                             "multi-model bundle (also selects the "
                             "plan inside a bundle artifact)")
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--rows", type=int, default=1,
                        help="samples per request (default 1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default="packed",
                        help="offline reference backend (default packed; "
                             "accepts the 'ideal-rram'/'sharded' aliases "
                             "of the serve command)")
    args = parser.parse_args(argv)

    from repro.io import load_compiled, load_plan

    artifact = load_plan(args.artifact, model=args.model)
    requests = _synthetic_requests(artifact, args.requests, args.seed,
                                   args.rows)
    tagged = [(args.model, r) for r in requests] \
        if args.model is not None else requests
    t0 = time.perf_counter()
    responses = fire(args.url, tagged, threads=args.threads)
    elapsed = time.perf_counter() - t0

    backend = args.backend
    if backend in ("ideal-rram", "sharded"):   # the serve CLI aliases
        from repro.rram import AcceleratorConfig
        from repro.runtime import RRAMBackend, ShardedRRAMBackend
        config = AcceleratorConfig(ideal=True)
        backend = RRAMBackend(config) if backend == "ideal-rram" \
            else ShardedRRAMBackend(config)
    plan = load_compiled(artifact, backend=backend)
    mismatches = 0
    for request, response in zip(requests, responses):
        expected = plan.scores(request)
        if not np.array_equal(expected, response["scores"]) or \
                not np.array_equal(expected.argmax(axis=1),
                                   response["labels"]):
            mismatches += 1
    rps = len(requests) / elapsed
    print(f"{len(requests)} requests x {args.rows} row(s) over "
          f"{args.threads} connections: {rps:.0f} req/s, "
          f"{mismatches} mismatches vs offline predict")
    stats = ServeClient(args.url).stats()
    print(f"daemon: {stats['batches']} batches, mean fill "
          f"{stats['mean_fill']:.1f}, p99 "
          f"{stats['latency_ms']['p99']:.2f} ms")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
