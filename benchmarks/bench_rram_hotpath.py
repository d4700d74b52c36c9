"""Throughput claim XTRA15 — fast-path kernels for the Fig. 5 architecture.

The RRAM backend is the substrate the whole paper is about, and its ideal
(noise-free) configuration is what every bit-exactness check and most
sweep points run.  A noise-free
:class:`~repro.rram.accelerator.MemoryController` is detected at program
time, builds no device state and hands its effective bits to the packed
uint64 XNOR-popcount executors of :mod:`repro.nn.bitops` — no device
programming, no offset draws, no bit planes.  This script measures that
fast path (the prepared executors) and what building it costs
(controller construction) on the quickstart-scale EEG classifier
(Table I geometry, reduced) against

* the **legacy read path** (pre-refactor): a Python double loop over the
  tile grid, one offset tensor and one XNOR reduction per tile — timed
  from a faithful reimplementation against the same programmed tiles;
* the **vectorized noisy path** (the refactor's simulation path) run at
  ideal parameters: one stacked-margin pass per batch chunk;

and pins the fast path bit-exact against the ``reference`` backend.
Timings are the median and IQR over the rounds.  Results are recorded in
``BENCH_rram_hotpath.json`` at the repo root.

Run:  python benchmarks/bench_rram_hotpath.py [--smoke]
(--smoke: tiny batch, no timing assertions, no JSON record — the CI mode.)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

JSON_PATH = ROOT / "BENCH_rram_hotpath.json"


def _eeg_workload(batch: int):
    """The quickstart-scale EEG classifier with calibrated batch-norms."""
    from repro.models import BinarizationMode, EEGNet
    from repro.tensor import Tensor, no_grad

    rng = np.random.default_rng(0)
    model = EEGNet(mode=BinarizationMode.BINARY_CLASSIFIER, n_channels=16,
                   n_samples=240, base_filters=8, hidden_units=32, rng=rng)
    inputs = rng.standard_normal((batch, 16, 240))
    model.train()
    with no_grad():
        for start in range(0, min(batch, 64), 8):
            model(Tensor(inputs[start:start + 8]))
    model.eval()
    return model, inputs


def _legacy_tile_popcounts(tile, chunk: np.ndarray,
                           valid: int) -> np.ndarray:
    """One tile's pre-refactor word-line scan: a fresh ``(N, rows, cols)``
    offset tensor from the tile's own stream, then the agreeing cells
    over the first ``valid`` columns counted per word line."""
    n = chunk.shape[0]
    offsets = tile.sense.offset(tile.rng, (n, tile.n_rows, tile.n_cols))
    tile.sense_ops += offsets.size
    weight_read = (tile._sense_margin()[None] + offsets) > 0
    agree = weight_read[:, :, :valid] == (chunk[:, None, :valid] != 0)
    return agree.sum(axis=2, dtype=np.int64)


def _legacy_popcounts(controller, x_bits: np.ndarray) -> np.ndarray:
    """The pre-refactor read path, verbatim: per-tile offset tensors and
    XNOR reductions under a grid_rows x grid_cols Python loop."""
    x_bits = np.asarray(x_bits, dtype=np.uint8)
    n = x_bits.shape[0]
    tr, tc = controller.config.tile_rows, controller.config.tile_cols
    counts = np.zeros((n, controller.grid_rows * tr), dtype=np.int64)
    for j in range(controller.grid_cols):
        valid = controller._valid_cols[j]
        chunk = np.zeros((n, tc), dtype=np.uint8)
        chunk[:, :valid] = x_bits[:, j * tc:j * tc + valid]
        for i in range(controller.grid_rows):
            counts[:, i * tr:(i + 1) * tr] += _legacy_tile_popcounts(
                controller.tiles[i][j], chunk, valid)
    return counts[:, :controller.out_features]


def main(smoke: bool = False) -> None:
    from repro.nn.binary import threshold_bits
    from repro.rram import AcceleratorConfig, MemoryController
    from repro.runtime import RRAMBackend, compile
    from _util import report, time_ms

    batch = 16 if smoke else 256
    rounds = 1 if smoke else 7
    model, inputs = _eeg_workload(batch)
    config = AcceleratorConfig(ideal=True)

    reference = compile(model, backend="reference")
    t0 = time.perf_counter()
    fast_plan = compile(model, backend=RRAMBackend(config))
    fast_program_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow_plan = compile(model, backend=RRAMBackend(config, fast_path=False))
    slow_program_s = time.perf_counter() - t0
    assert all(layer.controller.fast_path
               for layer in (op.executor for op in fast_plan.ops[1:]))
    assert not any(layer.controller.fast_path
                   for layer in (op.executor for op in slow_plan.ops[1:]))

    # The digital front-end is shared by every backend; time the on-fabric
    # classifier only (bits in, scores out).
    bits = fast_plan.ops[0].run(inputs)

    def run_layers(plan):
        x = bits
        for op in plan.ops[1:]:
            x = op.run(x)
        return x

    hidden, output = (op.executor for op in slow_plan.ops[1:])

    def run_legacy():
        f = hidden.folded
        pc = _legacy_popcounts(hidden.controller, bits)
        h = threshold_bits(2 * pc - f.in_features, f.theta[None, :],
                           f.gamma_sign[None, :], f.beta_sign[None, :])
        g = output.folded
        pc = _legacy_popcounts(output.controller, h)
        return (2 * pc - g.in_features) * g.scale[None, :] \
            + g.offset[None, :]

    # Bit-exactness before timing: fast path == reference, exactly.
    ref_scores = run_layers(reference)
    fast_scores = run_layers(fast_plan)
    bit_exact = bool(np.array_equal(fast_scores, ref_scores))
    assert bit_exact
    assert np.array_equal(run_layers(slow_plan), ref_scores)
    assert np.array_equal(run_legacy(), ref_scores)

    def build_controllers():
        for layer in (hidden, output):
            MemoryController(layer.folded.weight_bits, config)

    fast = time_ms(lambda: run_layers(fast_plan), rounds)
    slow = time_ms(lambda: run_layers(slow_plan), rounds)
    legacy = time_ms(run_legacy, rounds)
    build = time_ms(build_controllers, rounds)
    fast_s, slow_s, legacy_s = (t["median_ms"] / 1e3
                                for t in (fast, slow, legacy))
    speedup = legacy_s / fast_s

    in_features = hidden.folded.in_features
    text = (
        "XTRA15 — fast-path RRAM simulation kernels\n"
        "==========================================\n"
        f"workload: EEG classifier {in_features} -> "
        f"{hidden.folded.out_features} -> {len(output.folded.scale)}, "
        f"batch {batch}, ideal config\n"
        f"  legacy per-tile loop      : {legacy_s * 1e3:8.2f} ms/batch\n"
        f"  vectorized noisy path     : {slow_s * 1e3:8.2f} ms/batch "
        f"({legacy_s / slow_s:.1f}x vs legacy)\n"
        f"  packed fast path          : {fast_s * 1e3:8.2f} ms/batch "
        f"({speedup:.1f}x vs legacy, {slow_s / fast_s:.1f}x vs vectorized)"
        "\n"
        f"  fast-path controllers     : {build['median_ms']:8.2f} ms "
        "to build\n"
        f"  medians over {rounds} rounds; IQR legacy "
        f"{legacy['iqr_ms']:.2f}, vectorized {slow['iqr_ms']:.2f}, "
        f"fast {fast['iqr_ms']:.2f}, build {build['iqr_ms']:.2f} ms\n"
        f"  programming               : {slow_program_s * 1e3:8.2f} ms "
        f"(simulated) -> {fast_program_s * 1e3:.2f} ms (packed)\n"
        f"  fast path bit-exact vs reference backend : {bit_exact}\n")
    report("rram_hotpath", text)

    if smoke:
        return
    result = {
        "workload": {
            "model": "EEGNet binary_classifier (quickstart scale)",
            "classifier": [in_features, hidden.folded.out_features,
                           len(output.folded.scale)],
            "batch": batch,
            "config": "ideal (zero device sigma, zero sense offset)",
        },
        "rounds": rounds,
        "legacy": legacy,
        "vectorized": slow,
        "fast": fast,
        "fast_build": build,
        "speedup": round(speedup, 2),
        "speedup_vs_vectorized": round(slow_s / fast_s, 2),
        "program_speedup": round(slow_program_s / fast_program_s, 2),
        "bit_exact_vs_reference": bit_exact,
    }
    JSON_PATH.write_text(json.dumps(result, indent=2) + "\n")
    assert speedup >= 5.0, result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny batch, no timing assertions, no JSON")
    main(parser.parse_args().smoke)
