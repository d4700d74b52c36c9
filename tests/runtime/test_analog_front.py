"""The folded analog front ends: exact thresholds, the guard, input shapes.

The fold (:mod:`repro.runtime.analog_front`) must reproduce the autograd
reference closure of :mod:`repro.runtime.serialize` bit for bit.  These
tests aim at the places where that can go wrong: a pre-activation landing
exactly on (or one ulp beside) a channel's threshold, non-finite rows,
the threshold bisection itself, and windows of the wrong shape.
"""

import pathlib

import numpy as np
import pytest

from repro.io import load_compiled, load_plan
from repro.nn.binary import from_bits, to_bits
from repro.nn.norm import BatchNorm1d
from repro.runtime import PlanSerializationError, analog_front, serialize
from repro.runtime.analog_front import bn_sign_threshold
from repro.runtime.serialize import build_front_end
from repro.tensor import Tensor, no_grad

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures" \
    / "plans"
# The reference builders, captured before the ``spy`` fixture wraps them.
REFERENCE = {"conv1d_front": serialize._reference_conv1d,
             "conv2d_front": serialize._reference_conv2d}


def _bn(gamma, beta, mean, var, eps=1e-5):
    return ({"bn_features": len(gamma), "bn_eps": eps},
            {"bn_gamma": np.asarray(gamma, dtype=np.float64),
             "bn_beta": np.asarray(beta, dtype=np.float64),
             "bn_mean": np.asarray(mean, dtype=np.float64),
             "bn_var": np.asarray(var, dtype=np.float64)})


def _library_bits(params, arrays, y):
    """``to_bits`` of the library batch-norm over one row of channels."""
    bn = serialize._rebuild_batchnorm(BatchNorm1d, params, arrays)
    with no_grad():
        return to_bits(bn(Tensor(np.asarray(y, dtype=np.float64)[None]))
                       .data)[0]


def _fixture_front(model):
    artifact = load_plan(FIXTURE_DIR / f"{model}_full_binary.npz")
    entry = artifact.ops[0]
    arrays = {k: artifact.arrays[f"op0.{k}"] for k in entry["arrays"]}
    spec = {"op": entry["op"], "params": entry["params"]}
    return spec, arrays, artifact.input_shape


def _one_tap_ecg(bn_params, bn_arrays):
    """C_in = K = 1, unit norm: the pre-activation equals the input."""
    c = len(bn_arrays["bn_gamma"])
    params = {"in_channels": 1, "stride": 1, "padding": 0,
              "pool_kernel": None, "pool_stride": None,
              "input_shape": None, **bn_params}
    arrays = {"weight_bits": np.ones((c, 1, 1), np.uint8),
              "norm_mean": np.zeros(1), "norm_std": np.ones(1), **bn_arrays}
    return {"op": "conv1d_front", "params": params}, arrays


def _spy_on_references(monkeypatch, record):
    """Wrap the reference builders so every recompute is ``record``-ed."""
    def wrap(builder):
        def build(params, arrays):
            reference = builder(params, arrays)

            def run(inputs):
                record(inputs)
                return reference(inputs)
            return run
        return build

    for name in ("_reference_conv1d", "_reference_conv2d"):
        monkeypatch.setattr(serialize, name, wrap(getattr(serialize, name)))


@pytest.fixture
def spy(monkeypatch):
    """Count the rows each reference closure is asked to recompute."""
    calls = []
    _spy_on_references(monkeypatch, lambda inputs: calls.append(len(inputs)))
    return calls


@pytest.fixture
def redone(monkeypatch):
    """The very rows each reference closure is asked to recompute."""
    calls = []
    _spy_on_references(monkeypatch,
                       lambda inputs: calls.append(np.array(inputs)))
    return calls


def _tile(spec, arrays, length):
    """Rows per batch tile of an ECG front over windows of ``length``."""
    c_out, _, kernel = arrays["weight_bits"].shape
    padded = length + 2 * spec["params"]["padding"]
    return max(1, analog_front._PARTIAL_BYTES // (8 * kernel * c_out * padded))


class TestThresholdBisection:
    @pytest.mark.parametrize("seed", range(6))
    def test_boundary_is_exact_for_both_signs(self, seed):
        rng = np.random.default_rng(seed)
        c = 16
        gamma = rng.choice([-1.0, 1.0], c) * 10.0 ** rng.uniform(-8, 3, c)
        params, arrays = _bn(gamma, rng.normal(0, 3, c),
                             rng.normal(0, 5, c), rng.uniform(0, 4, c),
                             eps=float(rng.choice([1e-5, 1e-3, 0.0])))
        sign, t = bn_sign_threshold(
            arrays["bn_mean"], arrays["bn_var"], arrays["bn_gamma"],
            arrays["bn_beta"], params["bn_eps"])
        assert np.array_equal(sign, np.where(gamma < 0, -1.0, 1.0))
        assert np.isfinite(t).all()
        edge = sign * t                     # last y of the bit-1 half-line
        outside = np.nextafter(edge, -sign * np.inf)
        assert _library_bits(params, arrays, edge).all()
        assert not _library_bits(params, arrays, outside).any()

    def test_flat_and_constant_channels(self):
        # gamma == 0 (both signs of zero), NaN gamma, and a threshold far
        # outside the float range on either side.
        params, arrays = _bn([0.0, -0.0, 0.0, np.nan, 1e-310, -1e-310],
                             [1.0, -1.0, 0.0, 1.0, 5.0, 5.0],
                             [0.0] * 6, [1.0] * 6)
        sign, t = bn_sign_threshold(
            arrays["bn_mean"], arrays["bn_var"], arrays["bn_gamma"],
            arrays["bn_beta"], params["bn_eps"])
        assert list(t) == [-np.inf, np.inf, -np.inf, np.inf, -np.inf,
                           -np.inf]
        for y in (-1e300, -1.0, 0.0, 2.5, 1e300):
            expected = _library_bits(params, arrays, [y] * 6)
            assert np.array_equal(sign * y >= t, expected)

    def test_vanishing_std_with_zero_gamma_is_left_to_the_guard(self):
        # (y - mean) / std overflows inside the trusted range, so the bit
        # is no half-line: the threshold is NaN and every row is guarded.
        params, arrays = _bn([0.0], [1.0], [0.0], [0.0], eps=5e-324)
        _, t = bn_sign_threshold(
            arrays["bn_mean"], arrays["bn_var"], arrays["bn_gamma"],
            arrays["bn_beta"], params["bn_eps"])
        assert np.isnan(t).all()


class TestThresholdLanding:
    @pytest.mark.parametrize("gamma", [0.7, -0.7, 3e-9, -3e-9])
    def test_on_and_beside_the_threshold(self, gamma, spy):
        params, arrays = _bn([gamma], [0.3], [0.11], [0.5])
        sign, t = bn_sign_threshold(
            arrays["bn_mean"], arrays["bn_var"], arrays["bn_gamma"],
            arrays["bn_beta"], params["bn_eps"])
        edge = float(sign[0] * t[0])
        ys = [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
        spec, front_arrays = _one_tap_ecg(params, arrays)
        front = build_front_end(spec, front_arrays)
        reference = REFERENCE[spec["op"]](spec["params"], front_arrays)
        x = np.array(ys).reshape(3, 1, 1)
        spy.clear()
        got = front.run(x)
        assert np.array_equal(got, reference(x))
        assert spy == [3]                   # every row was guarded
        # Far from the threshold nothing is recomputed.
        spy.clear()
        far = np.array([edge + 1.0, edge - 1.0]).reshape(2, 1, 1)
        assert np.array_equal(front.run(far), reference(far))
        assert spy == []

    @pytest.mark.parametrize("model", ["eeg", "ecg"])
    def test_non_finite_rows_go_to_the_reference(self, model, spy):
        spec, arrays, shape = _fixture_front(model)
        front = build_front_end(spec, arrays)
        x = np.random.default_rng(3).standard_normal((6,) + shape)
        x[1, 0, 3] = np.nan
        x[2, 1, 4] = np.inf
        x[4, 0, 0] = -np.inf
        expected = REFERENCE[spec["op"]](spec["params"], arrays)(x)
        spy.clear()
        with np.errstate(invalid="ignore"):
            got = front.run(x)
        assert np.array_equal(got, expected)
        assert spy == [3]

    @pytest.mark.parametrize("model", ["eeg", "ecg"])
    def test_clean_batches_skip_the_reference(self, model, spy):
        spec, arrays, shape = _fixture_front(model)
        front = build_front_end(spec, arrays)
        x = np.random.default_rng(4).standard_normal((64,) + shape)
        spy.clear()
        front.run(x)
        assert spy == []

    def test_irregular_channel_guards_every_row(self, spy):
        params, arrays = _bn([0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0],
                             eps=5e-324)
        spec, front_arrays = _one_tap_ecg(params, arrays)
        front = build_front_end(spec, front_arrays)
        reference = REFERENCE[spec["op"]](spec["params"], front_arrays)
        x = np.array([0.0, 1e-200, 1e200, -3.0]).reshape(4, 1, 1)
        spy.clear()
        with np.errstate(all="ignore"):
            got, expected = front.run(x), reference(x)
        assert np.array_equal(got, expected)
        assert spy == [4]


class TestBatchTiles:
    """The ECG front runs its GEMM, shifted adds and threshold per batch
    tile; every tile boundary must leave the bits of the untiled
    reference intact, and guarded rows must be redone where they are."""

    def test_fixture_batches_around_the_tile(self):
        spec, arrays, shape = _fixture_front("ecg")
        tile = _tile(spec, arrays, shape[1])
        assert 2 <= tile < 256
        front = build_front_end(spec, arrays)
        reference = REFERENCE[spec["op"]](spec["params"], arrays)
        for batch in (1, tile - 1, tile, tile + 1, 3 * tile + 5):
            x = np.random.default_rng(batch).standard_normal(
                (batch,) + shape)
            got = front.run(x)
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            assert np.array_equal(got, reference(x)), batch

    @pytest.mark.parametrize("stride,padding,pool", [
        (1, 2, None), (2, 0, (2, 2)), (3, 4, (3, 1))])
    def test_strided_padded_tiles(self, monkeypatch, stride, padding, pool):
        rng = np.random.default_rng(stride)
        c_in, c_out, kernel, length = 3, 5, 6, 41
        params, bn_arrays = _bn(
            rng.normal(0, 1, c_out), rng.normal(0, 1, c_out),
            rng.normal(0, 2, c_out), rng.uniform(0.1, 4, c_out))
        spec = {"op": "conv1d_front", "params": {
            "in_channels": c_in, "stride": stride, "padding": padding,
            "pool_kernel": pool and pool[0], "pool_stride": pool and pool[1],
            "input_shape": [c_in, length], **params}}
        arrays = {"weight_bits": rng.integers(0, 2, (c_out, c_in, kernel))
                  .astype(np.uint8),
                  "norm_mean": rng.normal(0, 1, c_in),
                  "norm_std": rng.uniform(0.5, 2, c_in), **bn_arrays}
        padded = length + 2 * padding
        monkeypatch.setattr(analog_front, "_PARTIAL_BYTES",
                            7 * 8 * kernel * c_out * padded)
        assert _tile(spec, arrays, length) == 7
        front = build_front_end(spec, arrays)
        reference = REFERENCE["conv1d_front"](spec["params"], arrays)
        for batch in (1, 6, 7, 8, 26):
            x = rng.standard_normal((batch, c_in, length))
            assert np.array_equal(front.run(x), reference(x))

    def test_guarded_rows_in_first_and_last_tiles(self, monkeypatch,
                                                  redone):
        params, arrays = _bn([0.7], [0.3], [0.11], [0.5])
        sign, t = bn_sign_threshold(
            arrays["bn_mean"], arrays["bn_var"], arrays["bn_gamma"],
            arrays["bn_beta"], params["bn_eps"])
        edge = float(sign[0] * t[0])
        spec, front_arrays = _one_tap_ecg(params, arrays)
        monkeypatch.setattr(analog_front, "_PARTIAL_BYTES", 4 * 8)
        assert _tile(spec, front_arrays, 1) == 4
        front = build_front_end(spec, front_arrays)
        reference = REFERENCE[spec["op"]](spec["params"], front_arrays)
        x = edge + 1.0 + np.arange(17.0).reshape(17, 1, 1)
        guarded = {0: edge, 1: np.nan,                        # first tile
                   15: np.nextafter(edge, -np.inf), 16: 1e300}  # last
        for row, value in guarded.items():
            x[row] = value
        expected = reference(x)
        redone.clear()
        with np.errstate(invalid="ignore"):
            got = front.run(x)
        assert np.array_equal(got, expected)
        assert len(redone) == 1
        np.testing.assert_array_equal(redone[0], x[sorted(guarded)])


def _per_row_eeg_flags(arrays, params, x):
    """The EEG front's former guard, kept as the referee: one decision
    per (window, electrode) row from that row's own ``min|y - t|`` and
    ``max|x|``; a window is redone when any of its rows is flagged."""
    c_out, _, kernel, _ = arrays["weight_bits"].shape
    n, n_channels, n_samples = x.shape
    stride, padding = params["stride"][0], params["padding"][0]
    sign, t = bn_sign_threshold(**serialize._bn_arrays(params, arrays))
    weights = from_bits(arrays["weight_bits"][:, 0, :, 0]) * sign[:, None]
    h_out = (n_samples + 2 * padding - kernel) // stride + 1
    toeplitz = np.zeros((n_samples, c_out, h_out))
    for k in range(kernel):
        times = np.arange(h_out) * stride - padding + k
        inside = (times >= 0) & (times < n_samples)
        toeplitz[times[inside], :, np.flatnonzero(inside)] = weights[:, k]
    signal = x.reshape(n * n_channels, n_samples)
    with np.errstate(invalid="ignore"):
        y = signal @ toeplitz.reshape(n_samples, c_out * h_out)
    y = np.abs(y - np.repeat(t, h_out))
    rows = analog_front._guarded(y.min(axis=1),
                                 analog_front._abs_max(signal, 1), kernel)
    return rows.reshape(n, n_channels).any(axis=1)


@pytest.fixture
def flagged(monkeypatch):
    """The window mask each front hands to ``_redo``."""
    masks = []
    redo = analog_front._redo

    def spy(bits, rows, inputs, reference):
        masks.append(np.array(rows))
        return redo(bits, rows, inputs, reference)

    monkeypatch.setattr(analog_front, "_redo", spy)
    return masks


class TestEegWindowGuard:
    """The EEG front guards whole windows: from the smallest ``|y - t|``
    over all of a window's outputs and the largest ``|x|`` over all its
    electrodes.  Each window flag must cover every per-row flag of the
    former rule, and redone windows keep the bits exact."""

    def _windows(self, arrays, params, shape):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40,) + shape)
        x[3] *= 1e200                              # huge window
        x[4, 5, 9] = 1e300                         # one huge sample
        x[5, 2, 40] = 1e-300                       # tiny, harmless
        x[6, 0, 0] = np.nan
        x[7, 7, 63] = -np.inf
        x[8] = 0.0                                 # silent window
        # On threshold: a lone sample read by output j through tap 0
        # alone makes that output's pre-activation t[c] exactly.
        sign, t = bn_sign_threshold(**serialize._bn_arrays(params, arrays))
        weights = from_bits(arrays["weight_bits"][:, 0, :, 0]) * sign[:, None]
        padding, kernel = params["padding"][0], weights.shape[1]
        j = 20 + padding                    # the output tap 0 reads t=20 in
        assert j < shape[1] + 2 * padding - kernel + 1
        for window, c in ((9, 0), (10, 3)):
            x[window] = 0.0
            x[window, 4, 20] = t[c] / weights[c, 0]
        x[11] = 1e-3 * x[9]                         # scaled off it
        return x

    def test_window_flags_contain_the_per_row_flags(self, flagged):
        spec, arrays, shape = _fixture_front("eeg")
        params = spec["params"]
        x = self._windows(arrays, params, shape)
        front = build_front_end(spec, arrays)
        reference = REFERENCE[spec["op"]](params, arrays)
        flagged.clear()
        with np.errstate(all="ignore"):
            got, expected = front.run(x), reference(x)
            per_row = _per_row_eeg_flags(arrays, params, x)
        assert np.array_equal(got, expected)
        (windows,) = flagged
        assert windows.shape == (len(x),)
        assert not (per_row & ~windows).any()
        assert per_row[[3, 4, 6, 7, 9, 10]].all()
        assert not windows[[0, 1, 2, 5, 8, 11]].any()

    def test_nan_in_one_electrode_redoes_that_window(self, redone):
        spec, arrays, shape = _fixture_front("eeg")
        front = build_front_end(spec, arrays)
        x = np.random.default_rng(12).standard_normal((16,) + shape)
        x[9, 6, 33] = np.nan
        expected = REFERENCE[spec["op"]](spec["params"], arrays)(x)
        redone.clear()
        with np.errstate(invalid="ignore"):
            got = front.run(x)
        assert np.array_equal(got, expected)
        assert len(redone) == 1
        np.testing.assert_array_equal(redone[0], x[[9]])

    def test_fixture_scores_are_byte_identical(self):
        # Packed plan scores equal the scores of the same plan with every
        # window's front bits taken from the reference closure.
        spec, arrays, shape = _fixture_front("eeg")
        plan = load_compiled(FIXTURE_DIR / "eeg_full_binary.npz",
                             backend="packed")
        reference = REFERENCE[spec["op"]](spec["params"], arrays)
        x = np.random.default_rng(13).standard_normal((256,) + shape)
        x[::17] *= 1e-6
        h = reference(x)
        for op in plan.ops[1:]:
            h = op.run(h)
        assert plan.scores(x).tobytes() == np.asarray(h).tobytes()


class TestWindowShapes:
    """A wrongly shaped window is refused before any math."""

    @pytest.mark.parametrize("model,shape", [
        ("eeg", (3, 64, 8)),          # (time, electrodes): transposed
        ("eeg", (8, 64)),             # one window without the batch axis
        ("eeg", (3, 8, 65)),
        ("ecg", (3, 12, 201)),        # longer window
        ("ecg", (3, 200, 12)),
        ("ecg", (12, 200)),
    ])
    def test_mismatch_raises_naming_both_shapes(self, model, shape):
        plan = load_compiled(FIXTURE_DIR / f"{model}_full_binary.npz")
        expected = plan.ops[0].spec["params"]["input_shape"]
        with pytest.raises(ValueError) as err:
            plan.predict(np.zeros(shape))
        message = str(err.value)
        assert f"(N, {expected[0]}, {expected[1]})" in message
        assert str(shape) in message

    def test_refuses_non_temporal_eeg_kernel(self):
        spec, arrays, _ = _fixture_front("eeg")
        arrays = dict(arrays, weight_bits=np.ones((4, 1, 30, 2), np.uint8))
        with pytest.raises(PlanSerializationError, match="(4, 1, 30, 2)"):
            build_front_end(spec, arrays)

    def test_refuses_electrode_axis_stride(self):
        spec, arrays, _ = _fixture_front("eeg")
        spec = {"op": spec["op"],
                "params": dict(spec["params"], stride=[1, 2])}
        with pytest.raises(PlanSerializationError, match="stride"):
            build_front_end(spec, arrays)
