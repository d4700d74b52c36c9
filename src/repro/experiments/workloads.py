"""Module-level sweep point functions (picklable by construction).

Points dispatched by :mod:`repro.experiments.executor` cross a process
boundary, so they must be importable top-level callables.  This module
collects the stock workloads the CLI ``sweep`` command, the throughput
benchmarks and the tests all share.  Every workload takes a ``seed``
parameter and is deterministic given its full parameter dict — the
property the sweep resume/equality contract relies on.

The Monte-Carlo workloads additionally follow the engine contract of
:mod:`repro.rram.mc`: the root seed stream builds/programs, child stream
``t`` reads trial ``t``, and the structural build is memoized through
:func:`repro.experiments.executor.cached_plan` — so neither trial
batching nor plan caching can change a single recorded byte relative to
a cold, serial evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ber_point", "rram_inference_point", "sharded_robustness_point",
           "trained_robustness_point", "lifetime_point", "yield_point",
           "latency_point", "SweepWorkload", "SWEEP_WORKLOADS"]


def _cell_geometry(n_cells: int) -> tuple[int, int]:
    """Exact array geometry for ``n_cells``: square when possible, one
    word line otherwise — never silently dropping cells (the historic
    ``int(np.sqrt(n_cells))`` truncation lost up to ``2*side`` cells for
    non-square counts)."""
    n_cells = int(n_cells)
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    side = int(np.sqrt(n_cells))
    while side * side > n_cells:     # guard float-sqrt edge cases
        side -= 1
    if side * side == n_cells:
        return side, side
    return 1, n_cells


def _random_folded_dense(rng: np.random.Generator, in_features: int,
                         out_features: int):
    """A random binary dense layer with a random batch-norm, folded per
    Eq. 3 — the layer the RRAM robustness workloads program."""
    from repro import nn
    from repro.nn.binary import fold_batchnorm_sign

    layer = nn.BinaryLinear(in_features, out_features, rng=rng)
    bn = nn.BatchNorm1d(out_features)
    bn.set_buffer("running_mean", rng.standard_normal(out_features))
    bn.set_buffer("running_var", rng.uniform(0.5, 2.0, out_features))
    bn.eval()
    return fold_batchnorm_sign(layer, bn)


def ber_point(cycles: float, mode: str = "2T2R", n_cells: int = 4096,
              seed: int = 0, trials: int = 1) -> dict[str, float]:
    """Monte-Carlo bit error rate of one Fig. 4 sweep point.

    Programs ``n_cells`` random bits into a wear-aged array once, then
    runs ``trials`` noisy read-back trials through the trial-batched
    engine (:mod:`repro.rram.mc`): the root ``seed`` stream programs the
    array, child stream ``t`` reads trial ``t``, so the statistics are
    bit-identical to a serial per-trial loop over the same streams.  The
    programmed plan is cached per worker
    (keyed by geometry/mode/wear/seed), so re-runs and trial-count
    extensions skip the expensive device-sampling program pass.
    """
    from repro.experiments.executor import cached_plan
    from repro.rram import RRAMArray, read_bit_errors, trial_streams

    rows, cols = _cell_geometry(n_cells)

    def _build():
        rng = np.random.default_rng(seed)
        array = RRAMArray(rows, cols, rng=rng, mode=mode)
        array.wear(int(cycles) - 1)
        bits = rng.integers(0, 2, (rows, cols)).astype(np.uint8)
        array.program(bits)
        return array, bits

    array, bits = cached_plan(
        ("ber_point", mode, rows, cols, int(cycles), seed), _build)
    errors = read_bit_errors(array, bits, trial_streams(seed, trials))
    per_trial = errors / (rows * cols)
    return {"ber": float(per_trial.mean()),
            "ber_std": float(per_trial.std()),
            "cells": float(rows * cols)}


def rram_inference_point(sigma: float, seed: int = 0, n_inputs: int = 32,
                         in_features: int = 128, out_features: int = 16,
                         trials: int = 1) -> dict[str, float]:
    """Agreement of a noisy RRAM dense layer against the folded software
    reference — one point of an offset-sigma robustness sweep (the §II-B
    error-tolerance argument as a sweepable workload).

    Only the sense-amplifier offset varies across the sweep: device
    variability is held at zero for every point and ``sigma`` is applied
    at *read time* as a sense override, so the whole sigma series shares
    one programmed plan through the per-worker cache — the sweep programs
    the array once and perturbs it many times.  ``trials`` noisy read
    trials run trial-batched on child streams of ``seed`` (at ``sigma=0``
    offsets are exactly zero and agreement is exactly 1).
    """
    from repro.experiments.executor import cached_plan
    from repro.rram import SenseParameters, trial_streams

    def _build():
        from repro.rram import AcceleratorConfig
        from repro.runtime.backends import RRAMBackend

        rng = np.random.default_rng(seed)
        folded = _random_folded_dense(rng, in_features, out_features)
        # fast_path=False keeps the physical margins resident: the cached
        # plan must stay readable at every sense sigma of the sweep.
        hw = RRAMBackend(AcceleratorConfig(ideal=True), rng,
                         fast_path=False).prepare_dense(folded)
        x = rng.integers(0, 2, (n_inputs, in_features)).astype(np.uint8)
        return hw, x, folded.forward_bits(x)

    hw, x, reference = cached_plan(
        ("rram_inference", seed, n_inputs, in_features, out_features),
        _build)
    out = hw.forward_bits_trials(
        x, trial_streams(seed, trials),
        sense=SenseParameters(offset_sigma=sigma))
    per_trial = (out == reference[None]).mean(axis=(1, 2))
    return {"agreement": float(per_trial.mean()),
            "agreement_std": float(per_trial.std())}


def sharded_robustness_point(macro_cols: int, macro_rows: int = 8,
                             sigma: float = 1.5, seed: int = 0,
                             n_inputs: int = 32, in_features: int = 131,
                             out_features: int = 10, trials: int = 1
                             ) -> dict[str, float]:
    """Agreement of a *sharded multi-macro* dense layer against the folded
    reference, as a function of the macro geometry — the new robustness
    axis the sharded backend opens: the same layer, the same read-offset
    sigma, but split across more (smaller) or fewer (larger) chips.

    ``in_features`` defaults to a prime so almost every geometry produces
    non-divisible tail shards.  Device variability is zero and ``sigma``
    is applied at read time as a sense override, so the whole geometry
    series shares one folded layer while each geometry programs its own
    shard grid (cached per worker, keyed by the geometry).  Trials run
    trial-batched on per-(shard, trial) child streams
    (:func:`repro.rram.mc.shard_streams`); at ``sigma=0`` the reduction
    is exact and agreement is exactly 1.
    """
    from repro.experiments.executor import cached_plan
    from repro.rram import SenseParameters, trial_streams

    def _build():
        from repro.rram import AcceleratorConfig, MacroGeometry
        from repro.runtime.backends import ShardedRRAMBackend

        rng = np.random.default_rng(seed)
        folded = _random_folded_dense(rng, in_features, out_features)
        # fast_path=False keeps every shard's physical margins resident so
        # the cached grid can be read at any sense sigma of the sweep.
        hw = ShardedRRAMBackend(
            AcceleratorConfig(ideal=True),
            MacroGeometry(int(macro_rows), int(macro_cols)), rng,
            fast_path=False).prepare_dense(folded)
        x = rng.integers(0, 2, (n_inputs, in_features)).astype(np.uint8)
        return hw, x, folded.forward_bits(x)

    hw, x, reference = cached_plan(
        ("sharded_robustness", int(macro_rows), int(macro_cols), seed,
         n_inputs, in_features, out_features), _build)
    out = hw.forward_bits_trials(
        x, trial_streams(seed, trials),
        sense=SenseParameters(offset_sigma=sigma))
    per_trial = (out == reference[None]).mean(axis=(1, 2))
    return {"agreement": float(per_trial.mean()),
            "agreement_std": float(per_trial.std()),
            "n_macros": float(hw.controller.n_macros),
            "utilization": float(hw.controller.placement.utilization)}


def trained_robustness_point(sigma: float, weights: str = "clean",
                             model: str = "eeg",
                             mode: str = "binary_classifier",
                             train_sigma: float = 1.5,
                             epochs: int = 0, seed: int = 0,
                             trials: int = 1) -> dict[str, float]:
    """Validation accuracy of a *deployed* demo classifier under sense
    noise — the Fig. 4 sigma-robustness story on real weights.

    ``weights`` selects what gets programmed onto the chip: ``"seeded"``
    (the untrained control every pre-training table measured),
    ``"clean"`` (recipe-trained, no noise in the loop) or ``"noise"``
    (recipe-trained with the read-noise surrogate at ``train_sigma`` —
    :mod:`repro.nn.noise`).  The variant trains once per worker (cached
    like a programmed plan), its classifier is programmed with zeroed
    device variability, and ``sigma`` is applied at read time as a sense
    override — one training run and one programmed chip serve the whole
    sigma series.  ``epochs=0`` means the recipe's own budget; ``mode``
    is the binarization flavour (the default matches the paper's
    classifier-on-chip deployment, which is also where the demo recipes
    train well enough for robustness differences to clear MC noise).
    """
    from repro.experiments.executor import cached_plan
    from repro.rram import SenseParameters

    def _build():
        from repro.experiments.training import (seeded_baseline,
                                                train_demo_model)
        from repro.rram import AcceleratorConfig, classifier_input_bits
        from repro.runtime import (RRAMBackend, fold_classifier_stack,
                                   plan_from_folded)

        n_epochs = None if int(epochs) <= 0 else int(epochs)
        if weights == "seeded":
            demo = seeded_baseline(model, mode, seed=seed)
        elif weights == "clean":
            demo = train_demo_model(model, mode, epochs=n_epochs, seed=seed)
        elif weights == "noise":
            demo = train_demo_model(model, mode,
                                    noise_sigma=float(train_sigma),
                                    epochs=n_epochs, seed=seed)
        else:
            raise ValueError(f"weights must be seeded/clean/noise, "
                             f"got {weights!r}")
        # Only the classifier goes on the chip (features stay digital, as
        # in a lower_features=False compile).  fast_path=False keeps the
        # physical margins resident: the cached programmed classifier
        # must stay readable at every sweep sigma.
        plan = plan_from_folded(
            *fold_classifier_stack(demo.model),
            backend=RRAMBackend(AcceleratorConfig(ideal=True),
                                np.random.default_rng(seed),
                                fast_path=False))
        bits = classifier_input_bits(demo.model, demo.val_inputs)
        return plan, bits, np.asarray(demo.val_labels), demo.val_accuracy

    plan, bits, labels, clean_acc = cached_plan(
        ("trained_robustness", str(model), str(mode), str(weights),
         float(train_sigma), int(epochs), seed), _build)
    predicted = plan.predict_trials(
        bits, trials, seed=seed, sense=SenseParameters(offset_sigma=sigma))
    per_trial = (predicted == labels[None]).mean(axis=1)
    return {"accuracy": float(per_trial.mean()),
            "accuracy_std": float(per_trial.std()),
            "clean_accuracy": float(clean_acc)}


def lifetime_point(years: float, temp_c: float = 125.0, ecc: str = "none",
                   seed: int = 0, n_inputs: int = 32,
                   in_features: int = 256, out_features: int = 32,
                   trials: int = 1) -> dict[str, float]:
    """Agreement of an *aged* noisy RRAM dense layer against the folded
    reference — one point of the accuracy-vs-storage-years curve, with or
    without SECDED ECC on the weight store.

    Unlike the zeroed-variability robustness workloads, this point keeps
    the *realistic* device statistics (aging flips nothing on an ideal
    device: the margins are tens of sigma wide).  The layer is programmed
    once, drifted by ``years`` of storage at ``temp_c`` through the
    Arrhenius-mapped :class:`~repro.rram.reliability.RetentionModel`
    (program-time transform, so trial streams stay untouched), and then
    read ``trials`` times trial-batched.  ``ecc="secded"`` stores the
    weights behind the (72, 64) code instead
    (:class:`~repro.rram.ecc.EccMemoryController`) — the comparison that
    quantifies how much usable lifetime ECC buys at its 1.125x
    redundancy.
    """
    from repro.experiments.executor import cached_plan
    from repro.rram import trial_streams

    def _build():
        from repro.rram import AcceleratorConfig, LifetimeConfig
        from repro.runtime.backends import RRAMBackend

        rng = np.random.default_rng(seed)
        folded = _random_folded_dense(rng, in_features, out_features)
        lifetime = LifetimeConfig.years(float(years), float(temp_c))
        # Realistic device + sense statistics: aging needs variability.
        hw = RRAMBackend(AcceleratorConfig(), rng, ecc=ecc,
                         lifetime=lifetime).prepare_dense(folded)
        x = rng.integers(0, 2, (n_inputs, in_features)).astype(np.uint8)
        return hw, x, folded.forward_bits(x), lifetime

    hw, x, reference, lifetime = cached_plan(
        ("lifetime_point", float(years), float(temp_c), str(ecc), seed,
         n_inputs, in_features, out_features), _build)
    out = hw.forward_bits_trials(x, trial_streams(seed, trials))
    per_trial = (out == reference[None]).mean(axis=(1, 2))
    return {"agreement": float(per_trial.mean()),
            "agreement_std": float(per_trial.std()),
            "bake_hours": float(lifetime.bake_hours()),
            "redundancy": float(getattr(hw.controller, "redundancy", 1.0))}


def yield_point(traffic_msps: float, mode: str = "2T2R",
                cycles: float = 1e8, seed: int = 0, n_chips: int = 500,
                die_sigma: float = 0.10, ber_limit: float = 1e-3,
                per_chip_msps: float = 1.0) -> dict[str, float]:
    """Fleet capacity at one traffic level from a die-population yield
    study: how many chips must be provisioned to serve ``traffic_msps``
    mega-scans/sec when only the yielding fraction of dies (analytic BER
    within ``ber_limit``) can be deployed.

    Wraps :class:`~repro.rram.reliability.YieldAnalysis` — per-die median
    resistances drawn log-normally with ``die_sigma``, BER evaluated
    closed-form per die — and reports the worst-chip BER of the sampled
    population alongside the provisioning count
    ``ceil(traffic / (per_chip_throughput * yield))``.
    """
    import math

    from repro.rram import DeviceParameters, YieldAnalysis

    result = YieldAnalysis(DeviceParameters(), die_sigma=float(die_sigma),
                           n_chips=int(n_chips), ber_limit=float(ber_limit),
                           seed=int(seed)).run(float(cycles), mode)
    fraction = result.yield_fraction
    if fraction > 0:
        chips = math.ceil(float(traffic_msps)
                          / (float(per_chip_msps) * fraction))
    else:
        chips = float("inf")
    return {"yield_fraction": float(fraction),
            "worst_chip_ber": float(result.worst_chip_ber),
            "chips_needed": float(chips)}


def latency_point(index: int, seed: int = 0, blocking_ms: float = 0.0,
                  spin_elems: int = 50_000, fail_flag: str = "",
                  fail_at: int = -1) -> dict[str, float]:
    """A scheduler-calibration point: bounded blocking latency plus a small
    deterministic compute kernel.

    Models the shape of real sweep points that wait on external resources
    (device programming, storage, a queue) — the regime where pool
    execution overlaps latency even on few cores.  The metric is a pure
    function of ``(index, seed)``, so serial and parallel runs must agree
    byte for byte.

    ``fail_flag``/``fail_at`` are the crash-recovery test hook: while the
    file named by ``fail_flag`` exists, points with ``index >= fail_at``
    raise — a reproducible mid-grid "crash" that disappears on resume.
    """
    import pathlib

    if fail_flag and 0 <= fail_at <= index \
            and pathlib.Path(fail_flag).exists():
        raise RuntimeError(f"simulated crash at point {index}")
    if blocking_ms > 0:
        time.sleep(blocking_ms / 1e3)
    rng = np.random.default_rng(seed + index)
    values = rng.standard_normal(int(spin_elems))
    return {"checksum": float(np.sort(values)[: 100].sum()),
            "index": float(index)}


# ---------------------------------------------------------------------------
# Sweep workload registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepWorkload:
    """One CLI-sweepable workload: the point function plus the default
    grid and how to report it.

    ``axes(trials)`` returns the keyword grid for
    :func:`repro.experiments.sweep.grid`; workloads without a
    Monte-Carlo trial axis simply omit ``trials`` from it (the CLI
    filters its series on the trial count only when present).  New
    workloads register here — the ``sweep`` sub-command derives its
    choices and help text from this table, so a registration is the
    whole integration.
    """

    name: str
    fn: Callable[..., dict]
    axes: Callable[[int], dict]
    x_axis: str
    metric: str
    split: str
    description: str


SWEEP_WORKLOADS: dict[str, SweepWorkload] = {w.name: w for w in [
    SweepWorkload(
        name="ber", fn=ber_point,
        axes=lambda trials: dict(
            cycles=[int(c) for c in np.geomspace(1e8, 7e8, 8)],
            mode=("1T1R", "2T2R"), n_cells=(4096,), seed=(0,),
            trials=(trials,)),
        x_axis="cycles", metric="ber", split="mode",
        description="Monte-Carlo Fig. 4 error rates vs endurance"),
    SweepWorkload(
        name="robustness", fn=rram_inference_point,
        axes=lambda trials: dict(
            sigma=[round(s, 3) for s in np.linspace(0.0, 2.5, 8)],
            seed=(0, 1), trials=(trials,)),
        x_axis="sigma", metric="agreement", split="seed",
        description="agreement vs sense-offset sigma"),
    SweepWorkload(
        name="sharded", fn=sharded_robustness_point,
        axes=lambda trials: dict(
            macro_cols=(8, 16, 32, 64), macro_rows=(8,), sigma=(1.5,),
            seed=(0, 1), trials=(trials,)),
        x_axis="macro_cols", metric="agreement", split="seed",
        description="agreement vs macro geometry on the multi-chip "
                    "backend"),
    SweepWorkload(
        name="trained_robustness", fn=trained_robustness_point,
        axes=lambda trials: dict(
            sigma=[round(s, 3) for s in np.linspace(0.0, 2.5, 6)],
            weights=("seeded", "clean", "noise"), model=("eeg",),
            seed=(0,), trials=(trials,)),
        x_axis="sigma", metric="accuracy", split="weights",
        description="deployed validation accuracy vs sense sigma: "
                    "seeded vs clean-trained vs noise-trained weights"),
    SweepWorkload(
        name="lifetime", fn=lifetime_point,
        axes=lambda trials: dict(
            years=(0.0, 1.0, 3.0, 10.0, 30.0), temp_c=(125.0,),
            ecc=("none", "secded"), seed=(0,), trials=(trials,)),
        x_axis="years", metric="agreement", split="ecc",
        description="accuracy vs storage years at temperature, with and "
                    "without SECDED ECC"),
    SweepWorkload(
        name="yield", fn=yield_point,
        axes=lambda trials: dict(
            traffic_msps=(1.0, 4.0, 16.0, 64.0), mode=("1T1R", "2T2R"),
            seed=(0,)),
        x_axis="traffic_msps", metric="chips_needed", split="mode",
        description="fleet capacity: chips needed per traffic level at "
                    "the die-population yield"),
]}
