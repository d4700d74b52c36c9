"""Serving claim — micro-batched coalescing beats per-request dispatch.

The PR 8 acceptance surface: the always-on daemon loads a golden fixture
artifact once and coalesces concurrent 1-window requests into batched
dispatches on the packed fast path.  The lever is dispatch amortization —
``BENCH_rram_hotpath.json`` shows a 256-batch scan costs barely more than
a 1-batch scan — so the headline is requests/sec through the *same
serving pipeline* with micro-batching on vs off:

* **baseline** (``one-request-per-dispatch``): the daemon with
  ``max_batch=1`` — every request pays its own full plan dispatch (the
  pre-daemon behaviour of every offline entry point);
* **micro-batched**: ``max_batch=256`` across a sweep of batch windows —
  the requests/sec-vs-window curve, with mean fill and p50/p95/p99
  response latency per point (shared ``repro.metrics`` helpers);
* **bit-identity**: every served response is compared against offline
  ``CompiledModel.scores`` on the same request alone — coalescing must
  never change a single bit (asserted, smoke and full);
* an **http** section measures the end-to-end stdlib transport (real
  sockets, concurrent keep-alive connections), which bounds what one
  process offers the wire; the pipeline numbers isolate the coalescing
  win from socket overhead.

Results are recorded in ``BENCH_serve.json`` at the repo root; the smoke
mode additionally asserts the saturated micro-batched speedup ≥ 2.5x
(machine-noise-safe floor; the committed full run shows the ≥ 5x claim).

Run:  python benchmarks/bench_serve.py [--smoke]
(--smoke: fewer requests, no JSON record — the CI mode.)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

JSON_PATH = ROOT / "BENCH_serve.json"
FIXTURES = ROOT / "tests" / "fixtures" / "plans"

WINDOWS_US = (0.0, 50.0, 200.0, 1000.0)
# Coalescing ceiling, both models: with the folded analog fronts the
# per-sample plan cost keeps falling up to 256 rows on EEG and ECG alike.
MAX_BATCH = 256


def _requests_for(artifact, count: int, seed: int = 0):
    """One-row synthetic requests from the artifact's recorded geometry
    (the deploy/client convention)."""
    rng = np.random.default_rng(seed)
    shape = artifact.input_shape
    if artifact.ops[0]["op"] == "bits":
        return [rng.integers(0, 2, (1,) + shape).astype(np.uint8)
                for _ in range(count)]
    return [rng.standard_normal((1,) + shape) for _ in range(count)]


def _drive(plan, artifact, requests, *, max_batch: int, window_us: float,
           feeders: int = 4, max_queue: int = 4096) -> dict:
    """Saturate one server configuration with an open-loop feeder pool.

    Feeders submit as fast as admission allows (retrying backpressure
    rejections), so the executor always has co-travellers to coalesce —
    the "saturated" regime of the acceptance criterion.  Returns
    requests/sec plus the daemon's own stats snapshot.
    """
    from repro.serve import PlanServer, QueueFull

    server = PlanServer(plan, max_batch=max_batch,
                        window=window_us * 1e-6, max_queue=max_queue,
                        input_shape=artifact.input_shape)
    handles = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def feed():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            while True:
                try:
                    handles[index] = server.submit(requests[index])
                    break
                except QueueFull:
                    time.sleep(50e-6)

    pool = [threading.Thread(target=feed, daemon=True)
            for _ in range(feeders)]
    t0 = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    for handle in handles:
        if not handle.wait(60.0):
            raise RuntimeError("request timed out under load")
    elapsed = time.perf_counter() - t0
    server.close(drain=True)
    stats = server.stats.snapshot()
    return {"window_us": window_us, "max_batch": max_batch,
            "requests": len(requests),
            "requests_per_sec": len(requests) / elapsed,
            "mean_fill": stats["mean_fill"],
            "batches": stats["batches"],
            "latency_ms": stats["latency_ms"]}, handles


def _verify_bit_identity(plan, requests, handles, sample: int) -> int:
    """Served scores vs offline solo dispatch, exact float equality."""
    mismatches = 0
    step = max(1, len(requests) // sample)
    for index in range(0, len(requests), step):
        expected = plan.scores(requests[index])
        if not np.array_equal(expected, handles[index].scores):
            mismatches += 1
    return mismatches


def _bench_http(plan, artifact, requests, window_us: float,
                max_batch: int) -> dict:
    """End-to-end over real sockets: daemon + concurrent keep-alive
    clients in one process (the transport ceiling, not the kernel one)."""
    from repro.serve import HttpFront, PlanServer, fire

    server = PlanServer(plan, max_batch=max_batch,
                        window=window_us * 1e-6, max_queue=4096,
                        input_shape=artifact.input_shape)
    front = HttpFront(server, port=0).start()
    t0 = time.perf_counter()
    responses = fire(front.url, requests, threads=8)
    elapsed = time.perf_counter() - t0
    mismatches = sum(
        0 if np.array_equal(plan.scores(request), response["scores"])
        else 1 for request, response in zip(requests, responses))
    stats = server.stats.snapshot()
    front.shutdown(drain=True)
    return {"window_us": window_us, "requests": len(requests),
            "requests_per_sec": len(requests) / elapsed,
            "mean_fill": stats["mean_fill"],
            "mismatches": mismatches}


def _bench_model(name: str, smoke: bool) -> dict:
    from repro.io import load_compiled, load_plan

    artifact = load_plan(FIXTURES / f"{name}_full_binary.npz")
    plan = load_compiled(artifact, backend="packed")
    max_batch = MAX_BATCH
    n_requests = 512 if smoke else 4096
    requests = _requests_for(artifact, n_requests)
    plan.predict(requests[0])                      # warm the kernels

    # One-request-per-dispatch baseline: same pipeline, no coalescing.
    baseline_n = min(n_requests, 256 if smoke else 1024)
    baseline, handles = _drive(plan, artifact, requests[:baseline_n],
                               max_batch=1, window_us=0.0)
    mismatches = _verify_bit_identity(plan, requests[:baseline_n],
                                      handles, sample=32)

    curve = []
    for window_us in (WINDOWS_US[:2] if smoke else WINDOWS_US):
        point, handles = _drive(plan, artifact, requests,
                                max_batch=max_batch, window_us=window_us)
        mismatches += _verify_bit_identity(plan, requests, handles,
                                           sample=64)
        point["speedup_vs_baseline"] = (point["requests_per_sec"]
                                        / baseline["requests_per_sec"])
        curve.append(point)
        print(f"  {name} window {window_us:6.0f} us: "
              f"{point['requests_per_sec']:8.0f} req/s "
              f"(fill {point['mean_fill']:6.1f}, "
              f"p99 {point['latency_ms']['p99']:7.2f} ms, "
              f"{point['speedup_vs_baseline']:4.1f}x baseline)")

    http = _bench_http(plan, artifact,
                       requests[:128 if smoke else 512],
                       window_us=200.0, max_batch=max_batch)
    mismatches += http.pop("mismatches")

    saturated = max(point["speedup_vs_baseline"] for point in curve)
    print(f"  {name} baseline {baseline['requests_per_sec']:.0f} req/s; "
          f"saturated micro-batched speedup {saturated:.2f}x; "
          f"http {http['requests_per_sec']:.0f} req/s; "
          f"{mismatches} mismatches")
    return {"baseline_one_request_per_dispatch": baseline,
            "micro_batched": curve, "http": http,
            "saturated_speedup": saturated, "mismatches": mismatches}


def main(smoke: bool = False) -> None:
    results = {}
    for name in ("eeg", "ecg"):
        print(f"{name} fixture artifact:")
        results[name] = _bench_model(name, smoke)

    total_mismatches = sum(r["mismatches"] for r in results.values())
    assert total_mismatches == 0, (
        f"{total_mismatches} served responses differ from offline "
        "predict — coalescing must be bit-exact")
    if smoke:
        assert results["eeg"]["saturated_speedup"] >= 2.5, (
            f"eeg micro-batched speedup "
            f"{results['eeg']['saturated_speedup']:.2f}x under the "
            "2.5x smoke floor")
        print("smoke OK: bit-identical under load, coalescing speedup "
              f"{results['eeg']['saturated_speedup']:.2f}x")
        return
    record = {
        "bench": "serve",
        "max_batch": MAX_BATCH,
        "windows_us": list(WINDOWS_US),
        "models": results,
        "headline": {
            "eeg_saturated_speedup": results["eeg"]["saturated_speedup"],
            "ecg_saturated_speedup": results["ecg"]["saturated_speedup"],
        },
    }
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {JSON_PATH}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer requests, assertions only, no JSON "
                             "record (CI mode)")
    args = parser.parse_args()
    main(args.smoke)
