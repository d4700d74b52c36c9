"""Scale claim XTRA17 — sharded multi-macro backend.

The paper's test vehicle is a fixed 1K-synapse macro (Fig. 2): deploying a
real classifier therefore means splitting every folded layer across a
*grid* of such chips.  This script measures the sharded backend — the
floorplan shard map executed as one simulated chip per
:class:`~repro.rram.floorplan.MacroShard` with partial-popcount reduction
(:class:`~repro.rram.accelerator.ShardedController`) — against the
monolithic single-controller RRAM backend, and verifies its two contracts:

* **equivalence** — noise-free sharded execution is bit-identical to the
  monolithic RRAM backend (and the reference backend) at a divisible
  macro geometry and at a prime geometry forcing non-divisible tail
  shards, on the demo EEG classifier;
* **Monte-Carlo invariance** — noisy sharded trials are chunk-invariant:
  ``scores_trials`` under any ``trial_chunk`` is bit-identical, per-shard
  noise riding on the per-(shard, trial) child streams of
  :func:`repro.rram.mc.shard_streams`;
* **throughput** — sharded vs monolithic cost of one wide dense layer
  (model-level latency is front-end-dominated), as median and IQR over
  the repeats.  A noise-free layer of either backend is the same packed
  executor over the same effective bits, so the fast row times the
  prepared executors and the build row times what really differs:
  controller construction plus the sharded controller's bit stitching.
  The noisy row times the physical chip scans.  The fast path is the
  acceptance surface: smoke mode asserts its overhead stays ≤ 2.0x
  monolithic, and every mode asserts its outputs equal the monolithic
  backend and its effective bits' counts equal the zero-sigma physical
  sharded and monolithic scans (``fast_path=False``); the noisy per-chip
  loop stays recorded-not-asserted (per-chip dispatch by construction,
  required by the RNG stream contract).

Results are recorded in ``BENCH_sharded_backend.json`` at the repo root.

Run:  python benchmarks/bench_sharded_backend.py [--smoke]
(--smoke: small batch, no JSON record — the CI mode.)
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

JSON_PATH = ROOT / "BENCH_sharded_backend.json"

GEOMETRIES = ((32, 32), (7, 13))     # divisible-ish and tail-forcing


def main(smoke: bool = False) -> None:
    from _util import report, time_ms
    from repro.cli.main import _demo_model_and_inputs
    from repro.nn.binary import FoldedBinaryDense, xnor_popcount
    from repro.rram import (AcceleratorConfig, DeviceParameters,
                            MacroGeometry, SenseParameters)
    from repro.runtime import RRAMBackend, ShardedRRAMBackend, compile

    model, inputs = _demo_model_and_inputs("eeg", "binary_classifier")
    if not smoke:
        inputs = np.tile(inputs, (8, 1, 1))
    repeats = 3 if smoke else 9

    # --- equivalence: sharded == monolithic == reference, bit for bit ---
    reference = compile(model, backend="reference").scores(inputs)
    mono_plan = compile(model,
                        backend=RRAMBackend(AcceleratorConfig(ideal=True)))
    mono_scores = mono_plan.scores(inputs)
    equivalence = {}
    macro_counts = {}
    for rows, cols in GEOMETRIES:
        backend = ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                     macro=MacroGeometry(rows, cols))
        plan = compile(model, backend=backend)
        scores = plan.scores(inputs)
        equivalence[f"{rows}x{cols}"] = bool(
            np.array_equal(scores, mono_scores)
            and np.array_equal(scores, reference))
        macro_counts[f"{rows}x{cols}"] = plan.floorplan().n_macros

    # --- Monte-Carlo: noisy sharded trials are chunk-invariant ----------
    device = DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0,
                              broadening=0.0, hrs_drift=0.0,
                              device_mismatch=1.0)
    noisy = ShardedRRAMBackend(
        AcceleratorConfig(device=device,
                          sense=SenseParameters(offset_sigma=0.8)),
        macro=MacroGeometry(8, 16), fast_path=False)
    noisy_plan = compile(model, backend=noisy)
    mc_inputs = inputs[:4] if smoke else inputs[:16]
    trials = 4 if smoke else 16
    stacked = noisy_plan.scores_trials(mc_inputs, trials=trials, seed=11)
    chunked = noisy_plan.scores_trials(mc_inputs, trials=trials, seed=11,
                                       trial_chunk=1)
    mc_invariant = bool(np.array_equal(stacked, chunked))

    # --- throughput: the cost of chip-level fidelity --------------------
    # One wide dense layer, monolithic vs sharded.  Noise-free, both
    # backends prepare the same packed executor over the same effective
    # bits; what differs is building the controller (one tile grid, or
    # one chip per shard plus stitching their bits).  The noisy row
    # scans the physical chips.
    from repro.rram import MemoryController, ShardedController

    rng = np.random.default_rng(0)
    out_f, in_f = (64, 384) if smoke else (128, 1023)
    weights = rng.integers(0, 2, (out_f, in_f)).astype(np.uint8)
    x_bits = rng.integers(
        0, 2, (64 if smoke else 256, in_f)).astype(np.uint8)
    folded = FoldedBinaryDense(weights, theta=np.zeros(out_f),
                               gamma_sign=np.ones(out_f),
                               beta_sign=np.ones(out_f))
    ideal = AcceleratorConfig(ideal=True)
    noisy_cfg = AcceleratorConfig(device=device,
                                  sense=SenseParameters(offset_sigma=0.3))
    macro = MacroGeometry(32, 32)
    executors = {
        "monolithic": RRAMBackend(ideal).prepare_dense(folded),
        "sharded": ShardedRRAMBackend(ideal, macro=macro)
        .prepare_dense(folded),
    }
    noisy_controllers = {
        "monolithic": MemoryController(
            weights, noisy_cfg, np.random.default_rng(1), False),
        "sharded": ShardedController(
            weights, config=noisy_cfg, rng=np.random.default_rng(1),
            fast_path=False, macro=macro),
    }
    rows = {
        "fast": {name: (lambda e=e: e.forward_bits(x_bits))
                 for name, e in executors.items()},
        "build": {
            "monolithic": lambda: MemoryController(weights, ideal),
            "sharded": lambda: ShardedController(weights, config=ideal,
                                                 macro=macro)},
        "noisy": {name: (lambda c=c: c.popcounts(x_bits))
                  for name, c in noisy_controllers.items()},
    }
    timings = {}
    for label, calls in rows.items():
        mono = time_ms(calls["monolithic"], repeats)
        shard = time_ms(calls["sharded"], repeats)
        timings[label] = {"monolithic": mono, "sharded": shard,
                          "overhead_x": round(shard["median_ms"]
                                              / mono["median_ms"], 2)}

    # The acceptance surface: both fast executors answer alike, and the
    # stitched effective bits count like the zero-sigma physical
    # sharded and monolithic scans.
    fast_bits = executors["sharded"].forward_bits(x_bits)
    fast_counts = xnor_popcount(
        x_bits, executors["sharded"].controller.effective_bits)
    mono_counts = MemoryController(weights, ideal,
                                   fast_path=False).popcounts(x_bits)
    physical_counts = ShardedController(
        weights, config=ideal, rng=np.random.default_rng(1),
        fast_path=False, macro=macro).popcounts(x_bits)
    scan_equivalent = bool(
        np.array_equal(fast_bits,
                       executors["monolithic"].forward_bits(x_bits))
        and np.array_equal(fast_bits, folded.forward_bits(x_bits))
        and np.array_equal(fast_counts, mono_counts)
        and np.array_equal(fast_counts, physical_counts))

    geom_lines = "\n".join(
        f"  {name:<7}: bit-identical to monolithic+reference = "
        f"{equivalence[name]}  ({macro_counts[name]} macros)"
        for name in equivalence)
    timing_lines = "\n".join(
        f"  {label:<5} ({out_f}x{in_f}, batch {len(x_bits)}): monolithic "
        f"{t['monolithic']['median_ms']:.2f} ms "
        f"(IQR {t['monolithic']['iqr_ms']:.2f}), sharded "
        f"{t['sharded']['median_ms']:.2f} ms "
        f"(IQR {t['sharded']['iqr_ms']:.2f}) -> {t['overhead_x']:.2f}x"
        for label, t in timings.items())
    text = (
        "XTRA17 — sharded multi-macro backend\n"
        "====================================\n"
        f"demo EEG classifier, batch {len(inputs)}\n"
        f"{geom_lines}\n"
        f"  noisy sharded trials chunk-invariant ({trials} trials) = "
        f"{mc_invariant}\n"
        f"  scan-layer results bit-identical (fast / monolithic / "
        f"zero-sigma physical) = {scan_equivalent}\n"
        f"  median (IQR) over {repeats} repeats: fast = prepared "
        "executor call, build = controller construction + stitching, "
        "noisy = physical scan\n"
        f"{timing_lines}\n")
    report("sharded_backend", text)

    assert all(equivalence.values()), equivalence
    assert mc_invariant, "sharded Monte-Carlo trials were chunk-variant"
    assert scan_equivalent, \
        "sharded fast path diverged from monolithic / physical counts"
    if smoke:
        overhead = timings["fast"]["overhead_x"]
        assert overhead <= 2.0, (
            f"sharded fast path overhead {overhead}x exceeds the 2.0x "
            "smoke budget")
        return

    result = {
        "model": "eeg demo classifier",
        "batch": int(len(inputs)),
        "geometries": {name: {"equivalent": equivalence[name],
                              "n_macros": macro_counts[name]}
                       for name in equivalence},
        "mc_trials": trials,
        "mc_chunk_invariant": mc_invariant,
        "scan_layer": f"{out_f}x{in_f}",
        "scan_batch": int(len(x_bits)),
        "scan_equivalent": scan_equivalent,
        "scan_repeats": repeats,
        "scan_timings": timings,
        "cores": len(os.sched_getaffinity(0)),
    }
    JSON_PATH.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small batch, no JSON record")
    main(parser.parse_args().smoke)
