"""Multi-tenant serving claim — one co-resident daemon beats N solo ones.

The PR 9 acceptance surface, measured end-to-end the way an operator
deploys it: real ``python -m repro serve`` subprocesses over real
sockets on the same core budget.

* **baseline** (``sequential solo daemons``): one single-model daemon
  per golden fixture (EEG then ECG), each booted, health-polled, fed
  its half of the request burst, and SIGTERM'd before the next starts —
  the only way to serve two models from solo artifacts on one core
  budget without doubling resident processes;
* **multi-tenant**: ONE daemon on the committed ``eeg_ecg_bundle.npz``
  boots once and serves the same burst as a model-tagged mix; one
  executor coalesces across tenants, so the whole artifact-load +
  process-boot + plan-compile cost is paid once instead of per model;
* **aggregate throughput** = total requests / total wall clock
  *including the daemon lifecycle* (boot, health poll, shutdown) — the
  operator's number.  The serve-phase-only rates are recorded too, for
  transparency: on one core the in-flight rates are near parity and the
  win is the amortized lifecycle (see ``phases`` in the record);
* **bit-identity**: every served response is compared against offline
  packed ``CompiledModel.scores`` of its own model — routing and
  cross-tenant coalescing must never change a single bit (asserted,
  smoke and full);
* **macro utilization**: ``ChipPlacer`` packs both tenants' sharded
  placements onto one pool; the record keeps the before/after macro
  counts and utilization (the silicon half of the co-residency win).

Results are recorded in ``BENCH_multitenant.json`` at the repo root;
the acceptance bar is ≥ 1.5x aggregate throughput at equal
bit-exactness (the smoke mode asserts a machine-noise-safe ≥ 1.2x).

Run:  python benchmarks/bench_multitenant.py [--smoke]
(--smoke: fewer requests, assertions only, no JSON record — CI mode.)
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

JSON_PATH = ROOT / "BENCH_multitenant.json"
FIXTURES = ROOT / "tests" / "fixtures" / "plans"
BUNDLE = FIXTURES / "eeg_ecg_bundle.npz"
MODELS = ("eeg", "ecg")
# Coalescing ceiling of every daemon, as in bench_serve.py.
MAX_BATCH = 256
WINDOW_US = 200.0


def _requests_for(artifact, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    shape = artifact.input_shape
    if artifact.ops[0]["op"] == "bits":
        return [rng.integers(0, 2, (1,) + shape).astype(np.uint8)
                for _ in range(count)]
    return [rng.standard_normal((1,) + shape) for _ in range(count)]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _Daemon:
    """One ``python -m repro serve`` subprocess, health-polled to ready."""

    def __init__(self, artifact: pathlib.Path):
        self.port = _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(artifact),
             "--port", str(self.port), "--batch-window", str(WINDOW_US),
             "--max-batch", str(MAX_BATCH)],
            env=env, cwd=str(ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=1.0):
                    break
            except (urllib.error.URLError, ConnectionError, OSError):
                if self.proc.poll() is not None:
                    out = self.proc.stdout.read().decode(errors="replace")
                    raise RuntimeError(f"daemon died during boot:\n{out}")
                if time.monotonic() > deadline:
                    self.proc.kill()
                    raise RuntimeError("daemon never became healthy")
                time.sleep(0.02)
        self.boot_s = time.perf_counter() - t0

    def stop(self) -> float:
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return time.perf_counter() - t0


def _check_scores(plans, tagged, responses) -> int:
    mismatches = 0
    for (model, request), response in zip(tagged, responses):
        if not np.array_equal(plans[model].scores(request),
                              response["scores"]):
            mismatches += 1
    return mismatches


def _bench_baseline(plans, requests) -> dict:
    """Two solo daemons, booted and torn down sequentially."""
    from repro.serve import fire

    phases, mismatches, total = [], 0, 0
    t0 = time.perf_counter()
    for name in MODELS:
        daemon = _Daemon(FIXTURES / f"{name}_full_binary.npz")
        try:
            t_fire = time.perf_counter()
            responses = fire(daemon.url, requests[name], threads=4)
            serve_s = time.perf_counter() - t_fire
        finally:
            shutdown_s = daemon.stop()
        mismatches += _check_scores(
            plans, [(name, r) for r in requests[name]], responses)
        total += len(responses)
        phases.append({"model": name, "boot_s": daemon.boot_s,
                       "serve_s": serve_s, "shutdown_s": shutdown_s,
                       "requests": len(responses)})
    elapsed = time.perf_counter() - t0
    return {"daemons": len(MODELS), "requests": total,
            "wall_s": elapsed, "aggregate_req_per_sec": total / elapsed,
            "serve_phase_req_per_sec":
                total / sum(p["serve_s"] for p in phases),
            "phases": phases, "mismatches": mismatches}


def _bench_multitenant(plans, requests) -> dict:
    """One bundle daemon, one boot, a model-tagged mixed burst."""
    from repro.serve import ServeClient, fire

    # Interleave the two models' requests so coalesced flushes really
    # carry a cross-tenant mix, not two sequential single-model runs.
    tagged = []
    streams = [[(name, r) for r in requests[name]] for name in MODELS]
    for pair in zip(*streams):
        tagged.extend(pair)

    t0 = time.perf_counter()
    daemon = _Daemon(BUNDLE)
    try:
        client = ServeClient(daemon.url)
        resident = sorted(m["name"] for m in client.models())
        client.close()
        t_fire = time.perf_counter()
        responses = fire(daemon.url, tagged, threads=4)
        serve_s = time.perf_counter() - t_fire
    finally:
        shutdown_s = daemon.stop()
    elapsed = time.perf_counter() - t0
    assert resident == sorted(MODELS), resident
    return {"daemons": 1, "requests": len(tagged), "wall_s": elapsed,
            "aggregate_req_per_sec": len(tagged) / elapsed,
            "serve_phase_req_per_sec": len(tagged) / serve_s,
            "phases": [{"model": "+".join(MODELS),
                        "boot_s": daemon.boot_s, "serve_s": serve_s,
                        "shutdown_s": shutdown_s,
                        "requests": len(tagged)}],
            "mismatches": _check_scores(plans, tagged, responses)}


def _placement_report() -> dict:
    """The silicon half: co-resident pool vs per-tenant solo chips."""
    from repro.io import load_compiled_bundle
    from repro.rram import AcceleratorConfig, ChipPlacer, MacroGeometry
    from repro.runtime import ShardedRRAMBackend

    macro = MacroGeometry(32, 32)
    placements = {}
    for name, plan in load_compiled_bundle(
            BUNDLE, backend=lambda: ShardedRRAMBackend(
                AcceleratorConfig(ideal=True), macro=macro)).items():
        placements[name] = plan.placements
    pool = ChipPlacer(macro).place(placements)
    return {"macro": f"{macro.rows}x{macro.cols}",
            "solo_macros": pool.solo_macros_total,
            "pool_macros": pool.n_macros_provisioned,
            "macros_saved": pool.solo_macros_total
            - pool.n_macros_provisioned,
            "shared_macros": pool.shared_macros(),
            "utilization_co_resident": pool.utilization,
            "utilization_solo": pool.synapses_used
            / (pool.solo_macros_total * macro.synapses)}


def main(smoke: bool = False) -> None:
    from repro.io import load_compiled, load_plan

    per_model = 48 if smoke else 256
    plans, requests = {}, {}
    for index, name in enumerate(MODELS):
        artifact = load_plan(FIXTURES / f"{name}_full_binary.npz")
        plans[name] = load_compiled(artifact, backend="packed")
        requests[name] = _requests_for(artifact, per_model, seed=index)

    print(f"baseline: {len(MODELS)} sequential solo daemons "
          f"({per_model} requests each)...")
    baseline = _bench_baseline(plans, requests)
    print(f"  {baseline['aggregate_req_per_sec']:8.1f} req/s aggregate "
          f"({baseline['wall_s']:.2f} s wall, "
          f"{baseline['mismatches']} mismatches)")

    print("multi-tenant: one bundle daemon, mixed burst...")
    multitenant = _bench_multitenant(plans, requests)
    print(f"  {multitenant['aggregate_req_per_sec']:8.1f} req/s "
          f"aggregate ({multitenant['wall_s']:.2f} s wall, "
          f"{multitenant['mismatches']} mismatches)")

    speedup = (multitenant["aggregate_req_per_sec"]
               / baseline["aggregate_req_per_sec"])
    parity = (multitenant["serve_phase_req_per_sec"]
              / baseline["serve_phase_req_per_sec"])
    placement = _placement_report()
    print(f"aggregate speedup {speedup:.2f}x "
          f"(serve-phase-only parity {parity:.2f}x); "
          f"pool {placement['pool_macros']} vs "
          f"{placement['solo_macros']} solo macros "
          f"({placement['utilization_co_resident']:.1%} vs "
          f"{placement['utilization_solo']:.1%} utilization)")

    mismatches = baseline["mismatches"] + multitenant["mismatches"]
    assert mismatches == 0, (
        f"{mismatches} served responses differ from offline packed "
        "scores — tenant routing must be bit-exact")
    floor = 1.2 if smoke else 1.5
    assert speedup >= floor, (
        f"aggregate multi-tenant speedup {speedup:.2f}x under the "
        f"{floor}x floor")
    if smoke:
        print(f"smoke OK: bit-identical mixed burst, {speedup:.2f}x "
              f">= {floor}x aggregate floor")
        return
    record = {
        "bench": "multitenant",
        "models": list(MODELS),
        "requests_per_model": per_model,
        "window_us": WINDOW_US,
        "max_batch": MAX_BATCH,
        "baseline_sequential_solo_daemons": baseline,
        "multi_tenant_bundle_daemon": multitenant,
        "placement": placement,
        "headline": {
            "aggregate_speedup": speedup,
            "serve_phase_parity": parity,
            "macros_saved": placement["macros_saved"],
            "mismatches": mismatches,
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
