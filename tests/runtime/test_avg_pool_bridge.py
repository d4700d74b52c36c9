"""The EEG ``avg_pool_bridge`` periphery op as a count lookup.

The bridge turns ``(N, F, T', 1)`` bits into ±1, averages overlapping
windows, flattens and applies the pre-classifier batch-norm + sign.  It
runs as one gather into a ``(features, k + 1)`` bit table indexed by each
window's count of ones; these tests hold it to the autograd modules it
was built from, for every count, for random bit tensors and across a
save/reload of the artifact.
"""

import pathlib

import numpy as np
import pytest

from repro.io import load_compiled, load_plan, save_plan
from repro.nn.activations import Sign
from repro.nn.binary import to_bits
from repro.nn.container import Sequential
from repro.nn.norm import BatchNorm1d
from repro.nn.pooling import AvgPool1d
from repro.runtime import serialize
from repro.runtime.serialize import build_transform
from repro.tensor import Tensor, no_grad

FIXTURE = pathlib.Path(__file__).resolve().parents[1] / "fixtures" \
    / "plans" / "eeg_full_binary.npz"


def _spec(kernel, stride, features, gamma, beta, mean, var, eps=1e-5):
    params = {"pool_kernel": kernel, "pool_stride": stride,
              "bn_features": features, "bn_eps": eps}
    arrays = {"bn_gamma": np.asarray(gamma, dtype=np.float64),
              "bn_beta": np.asarray(beta, dtype=np.float64),
              "bn_mean": np.asarray(mean, dtype=np.float64),
              "bn_var": np.asarray(var, dtype=np.float64)}
    return {"op": "avg_pool_bridge", "params": params}, arrays


def _autograd_bridge(spec, arrays):
    """±1 -> AvgPool1d -> flatten -> BatchNorm1d -> Sign, in autograd."""
    params = spec["params"]
    pool = AvgPool1d(params["pool_kernel"], params["pool_stride"])
    pre = Sequential(
        serialize._rebuild_batchnorm(BatchNorm1d, params, arrays), Sign())
    pre.eval()

    def run(bits):
        pm1 = np.where(bits != 0, 1.0, -1.0).reshape(bits.shape[:3])
        with no_grad():
            return to_bits(pre(pool(Tensor(pm1)).flatten_from(1)).data)

    return run


def _random_bn(rng, features):
    """Every gamma regime: positive, negative, zero."""
    gamma = rng.choice([-1.0, 0.0, 1.0], features) \
        * rng.uniform(0.1, 3.0, features)
    return (gamma, rng.normal(0, 1, features), rng.normal(0, 0.5, features),
            rng.uniform(0.0, 2.0, features))


class TestEveryCount:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kernel", [1, 2, 7, 30])
    def test_every_count_of_ones(self, seed, kernel):
        rng = np.random.default_rng(seed)
        features = 24
        gamma, beta, mean, var = _random_bn(rng, features)
        # A third of the features sit exactly on a count's pooled value
        # with beta == 0: the batch-norm output is a signed zero there.
        ties = rng.random(features) < 0.35
        counts = rng.integers(0, kernel + 1, features)
        mean = np.where(ties, (2.0 * counts - kernel) / kernel, mean)
        beta = np.where(ties, 0.0, beta)
        spec, arrays = _spec(kernel, kernel, features, gamma, beta, mean,
                             var)
        # Row c: every feature's single window holds c ones, shuffled.
        bits = np.zeros((kernel + 1, features, kernel, 1), dtype=np.uint8)
        for c in range(kernel + 1):
            for f in range(features):
                bits[c, f, rng.permutation(kernel)[:c], 0] = 1
        got = build_transform(spec, arrays).run(bits)
        expected = _autograd_bridge(spec, arrays)(bits)
        assert got.dtype == np.uint8 and got.shape == (kernel + 1, features)
        assert np.array_equal(got, expected)
        # Both bit values occur, so the table is not trivially constant.
        assert 0 < expected.sum() < expected.size

    def test_flat_channels_follow_beta(self):
        spec, arrays = _spec(4, 4, 3, gamma=[0.0, -0.0, 0.0],
                             beta=[1.0, -1.0, 0.0], mean=[0.0] * 3,
                             var=[1.0] * 3)
        bits = np.zeros((5, 3, 4, 1), dtype=np.uint8)
        for c in range(5):
            bits[c, :, :c] = 1
        got = build_transform(spec, arrays).run(bits)
        assert np.array_equal(got, _autograd_bridge(spec, arrays)(bits))
        assert (got[:, 0] == 1).all() and (got[:, 1] == 0).all()
        assert (got[:, 2] == 1).all()


class TestRandomBits:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kernel,stride,length", [
        (30, 15, 64), (5, 2, 17), (3, 3, 9), (4, 1, 4)])
    def test_matches_autograd_path(self, seed, kernel, stride, length):
        rng = np.random.default_rng(seed)
        channels = 4
        l_out = (length - kernel) // stride + 1
        features = channels * l_out
        spec, arrays = _spec(kernel, stride, features,
                             *_random_bn(rng, features))
        bits = rng.integers(0, 2, (33, channels, length, 1)).astype(np.uint8)
        bits[rng.random(bits.shape) < 0.05] = 2     # stray: counts as one
        got = build_transform(spec, arrays).run(bits)
        assert np.array_equal(got, _autograd_bridge(spec, arrays)(bits))

    def test_non_contiguous_bits_and_empty_batch(self):
        rng = np.random.default_rng(9)
        spec, arrays = _spec(6, 3, 4 * 3, *_random_bn(rng, 12))
        bridge = build_transform(spec, arrays)
        base = rng.integers(0, 2, (7, 12, 1, 4)).astype(np.uint8)
        bits = base.transpose(0, 3, 1, 2)             # (7, 4, 12, 1) view
        assert not bits.flags.c_contiguous
        assert np.array_equal(bridge.run(bits),
                              _autograd_bridge(spec, arrays)(bits))
        assert bridge.run(bits[:0]).shape == (0, 12)


class TestArtifact:
    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_saved_and_reloaded_score_byte_for_byte(self, tmp_path,
                                                    backend):
        plan = load_compiled(FIXTURE, backend=backend)
        path = save_plan(plan, tmp_path / "eeg.npz")
        reloaded = load_compiled(path, backend=backend)
        x = np.random.default_rng(2).standard_normal(
            (40,) + tuple(load_plan(FIXTURE).input_shape))
        assert plan.scores(x).tobytes() == reloaded.scores(x).tobytes()
        bridge = [op for op in reloaded.ops
                  if getattr(op, "spec", {}).get("op") == "avg_pool_bridge"]
        assert len(bridge) == 1
