"""Bit-error-rate measurement and fault injection.

:class:`EnduranceExperiment` reproduces the protocol behind Fig. 4 of the
paper: a population of 2T2R pairs is reprogrammed for hundreds of millions
of cycles, alternating the two complementary weight states; at logarithmic
checkpoints the stored weight is read back through the on-chip PCSA (2T2R
curve) and each device of the pair is also sensed single-endedly against the
reference (the 1T1R BL and BLb curves).

Fault injection utilities corrupt deployed weight bits at a chosen BER so
the robustness of BNN accuracy to residual errors (§II-B) can be quantified
without running full device Monte-Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.nn.binary import FoldedBinaryDense, FoldedOutputDense
from repro.rram.device import DeviceParameters
from repro.rram.mc import READ_CHUNK_ELEMS, trial_chunks
from repro.rram.sense import SenseParameters

__all__ = ["EnduranceExperiment", "EnduranceResult", "inject_bit_errors",
           "corrupt_folded"]


@dataclass
class EnduranceResult:
    """BER curves versus cycle count (the series plotted in Fig. 4)."""

    cycles: np.ndarray
    ber_1t1r_bl: np.ndarray
    ber_1t1r_blb: np.ndarray
    ber_2t2r: np.ndarray
    trials: int

    def rows(self) -> list[tuple[float, float, float, float]]:
        return [(float(c), float(a), float(b), float(d))
                for c, a, b, d in zip(self.cycles, self.ber_1t1r_bl,
                                      self.ber_1t1r_blb, self.ber_2t2r)]


@dataclass
class EnduranceExperiment:
    """Monte-Carlo endurance/BER experiment.

    ``checkpoints`` are absolute cycle counts (the paper sweeps 1e8 to
    7e8); at each checkpoint ``trials`` program-and-read operations are
    simulated per measurement path.  The per-trial work is fully
    vectorized, so millions of trials run in seconds — necessary because
    2T2R error rates sit at 1e-6.

    RNG-stream contract (see :mod:`repro.rram.mc`): one child stream per
    checkpoint, re-spawned into one stream per draw site (BL/BLb
    resistances, BL/BLb single-ended offsets, PCSA offset).  Because
    numpy normal draws are split-stable per stream, the trial axis is
    evaluated in windows bounded by ``read_chunk_elems`` with results
    bit-identical for every window size — the same contract the
    trial-batched array reads obey.
    """

    device: DeviceParameters = field(default_factory=DeviceParameters)
    sense: SenseParameters = field(default_factory=SenseParameters)
    checkpoints: np.ndarray = field(default_factory=lambda: np.linspace(
        1e8, 7e8, 7))
    trials: int = 200_000
    seed: int = 0

    #: ~doubles drawn per trial per checkpoint (sizes the default window)
    _ELEMS_PER_TRIAL = 8
    #: draw budget per trial window, bound at import like the arrays'
    read_chunk_elems: ClassVar[int] = READ_CHUNK_ELEMS

    def run(self) -> EnduranceResult:
        ref = np.log(self.device.reference_resistance)
        ber_bl = np.empty(len(self.checkpoints))
        ber_blb = np.empty(len(self.checkpoints))
        ber_2t2r = np.empty(len(self.checkpoints))
        # Alternating complementary programming: half of the trials store
        # weight +1, half weight -1, as in the paper's protocol.
        stored = np.tile(np.array([1, 0], dtype=np.uint8),
                         -(-self.trials // 2))[:self.trials]
        single_sigma = np.sqrt(self.sense.offset_sigma ** 2
                               + self.device.reference_spread ** 2)
        checkpoint_seeds = np.random.SeedSequence(self.seed).spawn(
            len(self.checkpoints))
        for k, cycles in enumerate(self.checkpoints):
            streams = [np.random.default_rng(child)
                       for child in checkpoint_seeds[k].spawn(5)]
            r_bl, r_blb, so_bl, so_blb, pcsa = streams
            err_bl = err_blb = err_2t = 0
            for start, stop in trial_chunks(self.trials,
                                            self._ELEMS_PER_TRIAL,
                                            self.read_chunk_elems):
                window = stored[start:stop]
                # Program: BL holds LRS iff weight == 1, BLb the
                # complement.
                ln_r_bl = np.log(self.device.sample_resistance(
                    window == 1, cycles, r_bl))
                ln_r_blb = np.log(self.device.sample_resistance(
                    window == 0, cycles, r_blb,
                    mismatch=self.device.device_mismatch))
                # 1T1R single-ended reads of each device against the
                # reference; the decision noise adds sense offset and
                # reference imprecision in quadrature.
                bl_bit = (ref - ln_r_bl
                          + so_bl.normal(0.0, single_sigma, len(window))) > 0
                blb_bit = (ref - ln_r_blb
                           + so_blb.normal(0.0, single_sigma,
                                           len(window))) > 0
                err_bl += int((bl_bit != (window == 1)).sum())
                err_blb += int((blb_bit != (window == 0)).sum())
                # 2T2R differential read through the PCSA.
                off2 = self.sense.offset(pcsa, len(window))
                weight_read = (ln_r_blb - ln_r_bl + off2) > 0  # weight +1
                err_2t += int((weight_read != (window == 1)).sum())
            ber_bl[k] = err_bl / self.trials
            ber_blb[k] = err_blb / self.trials
            ber_2t2r[k] = err_2t / self.trials
        return EnduranceResult(np.asarray(self.checkpoints, dtype=float),
                               ber_bl, ber_blb, ber_2t2r, self.trials)


def _corruption_rng(rng, key: tuple[int, ...]) -> np.random.Generator:
    """Resolve the fault-injection stream.

    A :class:`numpy.random.Generator` is used as-is (the legacy,
    order-dependent contract).  An integer seed routes through the keyed
    :func:`repro.rram.mc.site_stream`, so a corruption site named by
    ``(seed, *key)`` draws the same flips in every worker process, chunk
    layout and call order — the same split-stable contract the
    :class:`~repro.rram.faults.FaultMap` masks follow.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    from repro.rram.mc import site_stream
    return site_stream(rng, *key)


def inject_bit_errors(bits: np.ndarray, ber: float,
                      rng: np.random.Generator | int,
                      key: tuple[int, ...] = ()) -> np.ndarray:
    """Flip each bit independently with probability ``ber``.

    ``rng`` is either a generator (legacy) or an integer seed; with a
    seed, ``key`` names the draw site (e.g. a layer index) and the flips
    are reproducible independent of call order or worker count.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be a probability, got {ber}")
    bits = np.asarray(bits, dtype=np.uint8)
    flips = _corruption_rng(rng, key).random(bits.shape) < ber
    return (bits ^ flips.astype(np.uint8)).astype(np.uint8)


def corrupt_folded(layer: FoldedBinaryDense | FoldedOutputDense, ber: float,
                   rng: np.random.Generator | int,
                   key: tuple[int, ...] = ()):
    """Return a copy of a folded layer with weight bits corrupted at
    ``ber`` — the software-level equivalent of deploying on devices whose
    residual error rate is ``ber``.  ``rng``/``key`` follow the
    :func:`inject_bit_errors` contract (pass a seed plus a per-layer key
    for chunk- and worker-invariant corruption)."""
    corrupted = inject_bit_errors(layer.weight_bits, ber, rng, key)
    if isinstance(layer, FoldedBinaryDense):
        return FoldedBinaryDense(corrupted, layer.theta.copy(),
                                 layer.gamma_sign.copy(),
                                 layer.beta_sign.copy())
    return FoldedOutputDense(corrupted, layer.scale.copy(),
                             layer.offset.copy())
