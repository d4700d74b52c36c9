"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {offline-eval,mc-robustness,serve-http}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Inputs come from ``--seed`` only; the
program receives nothing but those generated inputs.  Every output is
checked, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any output was wrong, 2 when the program is not there to measure.

``--trace 0`` prints the end-to-end metrics, the same five on every
workload (metric names and units are read from ``BENCHMARK.json``):

===================  ==================  ==================  ================
metric               offline-eval        mc-robustness       serve-http
===================  ==================  ==================  ================
``setup_s``          fresh interpreter to plans loaded and warm; median of
                     three set-ups (serve-http: to the first ``/healthz``
                     200 of a real daemon boot)
``peak_rss_mb``      peak RSS of the measured process (the daemon's own)
``throughput_per_s`` samples/s, batch   trial-samples/s     req/s, saturated
                     256                                    closed loop
``latency_p50_ms``   single-window      one sigma point     paced, from due
                     predict, EEG+ECG   (4 plans)           time
``latency_tail_ms``  highest percentile with at least ten samples beyond it
                     (p99, p75 and p95 at 25 s; the samples line names it)
===================  ==================  ==================  ================

Times of the in-process workloads are calibrated to a reference machine
speed, and their uncalibrated figures are printed on their own line: the
shared machines this runs on change speed by up to 1.6x every few seconds
(:mod:`timing`).  serve-http times are as measured.

The error rate is ``failed / attempted``: a wrong, failed or refused
operation counts as failed.

``--trace 1`` runs the workload twice in fresh processes, each for half
the time: once untraced and once with span wrappers installed around the
public layer calls (:mod:`probes`).  It prints every per-layer metric of
``BENCHMARK.json``; a layer the workload does not exercise reads 0.  The
``trace_overhead.*`` metrics are the traced-minus-untraced difference of
each end-to-end metric.  The span tape is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

WORKLOADS = ("offline-eval", "mc-robustness", "serve-http")
SETUPS = 3                 # set-ups per run; setup_s is their median
E2E = ("setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms",
       "latency_tail_ms")
ALIASES = {
    "offline-eval": {"throughput_per_s": "eval_samples_per_s",
                     "latency_p50_ms": "predict1_p50_ms",
                     "latency_tail_ms": "predict1_tail_ms"},
    "mc-robustness": {"throughput_per_s": "mc_trial_samples_per_s",
                      "latency_p50_ms": "sigma_point_p50_ms",
                      "latency_tail_ms": "sigma_point_tail_ms"},
    "serve-http": {"throughput_per_s": "serve_rps",
                   "latency_p50_ms": "serve_p50_ms",
                   "latency_tail_ms": "serve_tail_ms"},
}
WORKER_TIMEOUT = 150.0


def _missing() -> list[str]:
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py",
              ROOT / "tests" / "fixtures" / "plans" / "eeg_ecg_bundle.npz"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


# ---------------------------------------------------------------------------
# in-process workloads: one worker interpreter per set-up
# ---------------------------------------------------------------------------
def _worker(workload: str, seed: int, seconds: float, *, setup_only=False,
            trace_out=None):
    """Spawn a worker; returns ``(setup_s, result)`` where set-up is
    timed from spawn to the worker's ``READY`` line, less the worker's
    speed measurement, and calibrated by it (:mod:`timing`)."""
    argv = [sys.executable, str(HERE / "worker.py"), workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        wall = time.perf_counter() - t0
        word, measuring, factor = (first.split() + [b""] * 3)[:3]
        if word != b"READY":
            raise RuntimeError(f"{workload} worker failed to set up")
        setup_s = (wall - float(measuring)) * float(factor)
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.decode().strip().splitlines()[-1])


def in_process(workload, seed, seconds, trace, tally):
    if not trace:
        setups = [_worker(workload, seed, seconds, setup_only=True)[0]
                  for _ in range(SETUPS - 1)]
        setup_s, result = _worker(workload, seed, seconds)
        _absorb(result, tally)
        result["setup_s"] = statistics.median(setups + [setup_s])
        result["setup_samples"] = setups + [setup_s]
        return result, None
    OUT.mkdir(exist_ok=True)
    setup_plain, plain = _worker(workload, seed, seconds / 2)
    setup_traced, traced = _worker(
        workload, seed, seconds / 2,
        trace_out=OUT / f"trace-{workload}-{seed}.json")
    _absorb(plain, tally)
    _absorb(traced, tally)
    plain["setup_s"], traced["setup_s"] = setup_plain, setup_traced
    return plain, traced


def _absorb(result, tally) -> None:
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    for problem in result.get("problems", []):
        print(f"MISMATCH {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# serve-http: the daemon out of process, this process the client
# ---------------------------------------------------------------------------
def serve(seed, seconds, trace, tally):
    import serve_http

    pool = serve_http.make_requests(seed)

    def session(argv, drive_seconds):
        daemon = serve_http.Daemon(argv)
        try:
            setup_s = daemon.start()
            result = serve_http.drive(daemon, pool, drive_seconds, tally)
            result["peak_rss_mb"] = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        result["setup_s"] = setup_s
        return result

    if not trace:
        setups = []
        for _ in range(SETUPS - 1):
            daemon = serve_http.Daemon(serve_http.daemon_argv())
            try:
                setups.append(daemon.start())
            finally:
                daemon.stop()
        result = session(serve_http.daemon_argv(), seconds)
        result["setup_samples"] = setups + [result["setup_s"]]
        result["setup_s"] = statistics.median(result["setup_samples"])
        return result, None
    OUT.mkdir(exist_ok=True)
    tape = OUT / f"trace-serve-http-{seed}.json"
    plain = session(serve_http.daemon_argv(), seconds / 2)
    traced = session(serve_http.daemon_argv(str(tape)), seconds / 2)
    layers, traced["breakdown"] = serve_http.daemon_layers(tape)
    traced["layers"].update(layers)
    return plain, traced


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = _missing()
    if missing:
        print("perfbench: run from a repository checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    import timing
    from worker import Tally

    print(f"machine {json.dumps(timing.fingerprint())}")
    tally = Tally()
    if args.workload == "serve-http":
        plain, traced = serve(args.seed, args.seconds, args.trace, tally)
    else:
        plain, traced = in_process(args.workload, args.seed, args.seconds,
                                   args.trace, tally)

    aliases = ALIASES[args.workload]
    for name in E2E:
        shown = aliases.get(name, name)
        print(f"{args.workload} {shown} = {plain[name]:.6g} {units[name]}"
              + (f" (traced {traced[name]:.6g})" if traced else ""))
    for phase, summary in plain.get("samples", {}).items():
        print(f"{args.workload} samples {phase}: {json.dumps(summary)}")
    if "raw" in plain:
        print(f"{args.workload} uncalibrated {json.dumps(plain['raw'])}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{args.workload} error_rate = {rate:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")

    if traced is None:
        metrics = {name: _metric(plain[name], units[name]) for name in E2E}
    else:
        layers = traced.get("layers", {})
        for name in E2E:
            layers[f"trace_overhead.{name}"] = traced[name] - plain[name]
        for phase, parts in traced.get("breakdown", {}).items():
            shares = ", ".join(f"{k} {v / parts['wall_s']:.1%}"
                               for k, v in sorted(parts["self_s"].items(),
                                                  key=lambda kv: -kv[1]))
            print(f"{args.workload} trace {phase}: wall "
                  f"{parts['wall_s']:.3f} s, self+children account for "
                  f"{parts['accounted']:.6f}: {shares}")
        metrics = {m["name"]: _metric(layers.get(m["name"], 0.0), m["unit"])
                   for m in spec["per_layer"]}
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
