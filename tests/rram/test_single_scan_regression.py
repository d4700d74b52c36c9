"""A single read is a one-trial scan.

Every controller has one scan, ``popcounts_trials``; ``popcounts`` and
the in-memory layers' ``forward_bits`` / ``forward_scores`` call it with
one trial stream.  The digests below were recorded from the dedicated
single-scan loops these wrappers replaced (fixed seed, sense-offset
sigma 2.0, an explicit ``rng`` and then two reads from the controller's
own stream), so they pin that a single read draws exactly the noise it
always drew and meters exactly the same operations.

A one-trial wrapper must also keep the single-read rank check: a
``(1, N, ...)`` stack handed to a single read raises instead of being
read as one trial's activations.
"""

import hashlib

import numpy as np
import pytest

from repro.nn.binary import FoldedBinaryDense, FoldedOutputDense
from repro.rram import (AcceleratorConfig, EccMemoryController,
                        MacroGeometry, MemoryController, SenseParameters,
                        ShardedController)
from repro.rram.conv import FoldedBinaryConv1d
from repro.rram.conv2d import FoldedBinaryConv2d
from repro.runtime import RRAMBackend

CONFIG = AcceleratorConfig(sense=SenseParameters(offset_sigma=2.0), seed=5)

CONTROLLERS = {
    "memory": lambda w: MemoryController(w, CONFIG),
    "sharded": lambda w: ShardedController(w, config=CONFIG,
                                           macro=MacroGeometry(8, 24)),
    "ecc": lambda w: EccMemoryController(w, CONFIG),
}

#: (explicit rng, default stream, default stream again) count digests
#: and the meter totals after those three reads.
EXPECTED = {
    "memory": ("2eee951db4a79f36", "18018c8875ec7b1b", "a40f0404cdd59545",
               276480, 226368),
    "sharded": ("655f0e2745e935f7", "898d557a127d348f", "bf524fedb821cf53",
                155520, 141480),
    "ecc": ("2bc45d64a3175130", "44dc429c0d7483f7", "e6a1ad45c3155dc1",
            23976, 130869),
}


def _digest(counts: np.ndarray) -> str:
    data = np.ascontiguousarray(counts, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture
def data():
    rng = np.random.default_rng(2024)
    weights = rng.integers(0, 2, (37, 131)).astype(np.uint8)
    x = rng.integers(0, 2, (9, 131)).astype(np.uint8)
    return weights, x


class TestRecordedSingleScanNoise:
    @pytest.mark.parametrize("kind", sorted(CONTROLLERS))
    def test_counts_and_meters_match_recorded_loop(self, data, kind):
        weights, x = data
        controller = CONTROLLERS[kind](weights)
        assert not controller.fast_path
        reads = (controller.popcounts(x, rng=np.random.default_rng(11)),
                 controller.popcounts(x),
                 controller.popcounts(x))
        *digests, sense_ops, bit_ops = EXPECTED[kind]
        assert [_digest(r) for r in reads] == digests
        assert controller.sense_ops == sense_ops
        assert controller.popcount_bit_ops == bit_ops

    def test_ecc_decode_meters_match_recorded_loop(self, data):
        weights, x = data
        ecc = CONTROLLERS["ecc"](weights)
        ecc.popcounts(x, rng=np.random.default_rng(11))
        ecc.popcounts(x)
        assert (ecc.ecc_words_decoded, ecc.ecc_words_corrected,
                ecc.ecc_double_errors) == (222, 71, 106)


def _dense(rng, out=6, fan_in=20):
    return FoldedBinaryDense(
        rng.integers(0, 2, (out, fan_in)).astype(np.uint8),
        theta=np.zeros(out), gamma_sign=np.ones(out),
        beta_sign=np.ones(out))


def _conv1d(rng):
    return FoldedBinaryConv1d(
        rng.integers(0, 2, (4, 3 * 5)).astype(np.uint8), in_channels=3,
        kernel_size=5, stride=1, theta=np.zeros(4), gamma_sign=np.ones(4),
        beta_sign=np.ones(4))


def _conv2d(rng):
    return FoldedBinaryConv2d(
        rng.integers(0, 2, (4, 3 * 9)).astype(np.uint8), in_channels=3,
        kernel_size=(3, 3), stride=(1, 1), theta=np.zeros(4),
        gamma_sign=np.ones(4), beta_sign=np.ones(4))


class TestSingleReadRankCheck:
    @pytest.mark.parametrize("kind", sorted(CONTROLLERS))
    def test_popcounts_refuses_a_trial_stack(self, data, kind):
        weights, x = data
        controller = CONTROLLERS[kind](weights)
        with pytest.raises(ValueError, match="input shape"):
            controller.popcounts(x[None])

    def test_forward_bits_refuses_a_trial_stack(self, rng):
        layer = RRAMBackend(CONFIG).prepare_dense(_dense(rng))
        x = rng.integers(0, 2, (5, 20)).astype(np.uint8)
        with pytest.raises(ValueError, match="input shape"):
            layer.forward_bits(x[None])

    def test_forward_scores_refuses_a_trial_stack(self, rng):
        folded = FoldedOutputDense(
            rng.integers(0, 2, (3, 20)).astype(np.uint8),
            scale=np.ones(3), offset=np.zeros(3))
        layer = RRAMBackend(CONFIG).prepare_output(folded)
        x = rng.integers(0, 2, (5, 20)).astype(np.uint8)
        with pytest.raises(ValueError, match="input shape"):
            layer.forward_scores(x[None])

    def test_conv_forward_bits_refuses_a_trial_stack(self, rng):
        conv1d = RRAMBackend(CONFIG).prepare_conv1d(_conv1d(rng))
        x1 = rng.integers(0, 2, (2, 3, 12)).astype(np.uint8)
        with pytest.raises(ValueError, match="input shape"):
            conv1d.forward_bits(x1[None])
        conv2d = RRAMBackend(CONFIG).prepare_conv2d(_conv2d(rng))
        x2 = rng.integers(0, 2, (2, 3, 6, 6)).astype(np.uint8)
        with pytest.raises(ValueError, match="input shape"):
            conv2d.forward_bits(x2[None])
