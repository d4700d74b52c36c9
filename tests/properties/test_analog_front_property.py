"""Property: the folded analog fronts equal the autograd reference bit for bit.

For random geometries (input channels, taps, stride, padding, max-pool on
and off, batch 1..300), batch-norm parameters that include gamma < 0,
gamma == 0 and tiny |gamma|, and float64, float32 and integer inputs, the
front built by :func:`repro.runtime.serialize.build_front_end` must return
exactly the bits of the reference closure it folds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.serialize import (_reference_conv1d, _reference_conv2d,
                                     build_front_end)


def _bn_payload(rng, channels):
    """Batch-norm statistics with every kind of gamma mixed in."""
    kind = rng.integers(0, 4, channels)
    magnitude = np.choose(kind, [rng.uniform(0.2, 3.0, channels),
                                 rng.uniform(0.2, 3.0, channels),
                                 np.zeros(channels),
                                 10.0 ** rng.uniform(-14, -8, channels)])
    gamma = magnitude * rng.choice([-1.0, 1.0], channels)
    # Integer means with zero beta put the threshold on an integer, where
    # integer inputs land exactly.
    on_grid = rng.random(channels) < 0.5
    mean = rng.normal(0.0, 2.0, channels)
    params = {"bn_features": channels,
              "bn_eps": float(rng.choice([1e-5, 1e-3]))}
    arrays = {"bn_gamma": gamma,
              "bn_beta": np.where(on_grid, 0.0,
                                  rng.normal(0.0, 1.0, channels)),
              "bn_mean": np.where(on_grid, np.round(mean), mean),
              "bn_var": rng.uniform(0.0, 9.0, channels)}
    return params, arrays


def _inputs(rng, shape, dtype, scale):
    if dtype == "int":
        return rng.integers(-50, 51, shape)
    return (rng.standard_normal(shape) * scale).astype(dtype)


dtypes = st.sampled_from(["float64", "float32", "int"])
scales = st.sampled_from([0.01, 1.0, 75.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), c_in=st.integers(1, 6),
       c_out=st.integers(1, 5), kernel=st.integers(1, 9),
       stride=st.integers(1, 3), padding=st.integers(0, 3),
       extra=st.integers(0, 30), pool=st.one_of(
           st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3))),
       batch=st.integers(1, 300), dtype=dtypes, scale=scales)
def test_conv1d_front_matches_reference(seed, c_in, c_out, kernel, stride,
                                        padding, extra, pool, batch, dtype,
                                        scale):
    rng = np.random.default_rng(seed)
    # At least max(kernel, pool) outputs' worth of window.
    length = max(kernel - 2 * padding, 1) + extra
    if pool is not None:
        length += stride * pool[0]
    bn_params, arrays = _bn_payload(rng, c_out)
    params = {"in_channels": c_in, "stride": stride, "padding": padding,
              "pool_kernel": pool[0] if pool else None,
              "pool_stride": pool[1] if pool else None,
              "input_shape": [c_in, length], **bn_params}
    arrays.update(
        weight_bits=rng.integers(0, 2, (c_out, c_in, kernel)).astype(
            np.uint8),
        norm_mean=rng.normal(0.0, 1.0, c_in),
        norm_std=rng.uniform(0.1, 3.0, c_in))
    front = build_front_end({"op": "conv1d_front", "params": params}, arrays)
    x = _inputs(rng, (batch, c_in, length), dtype, scale)
    got = front.run(x)
    expected = _reference_conv1d(params, arrays)(x)
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), electrodes=st.integers(1, 6),
       c_out=st.integers(1, 5), kernel=st.integers(1, 31),
       stride=st.integers(1, 3), pad_fraction=st.floats(0.0, 1.0),
       extra=st.integers(0, 40), batch=st.integers(1, 300), dtype=dtypes,
       scale=scales)
def test_conv2d_front_matches_reference(seed, electrodes, c_out, kernel,
                                        stride, pad_fraction, extra, batch,
                                        dtype, scale):
    rng = np.random.default_rng(seed)
    padding = int(pad_fraction * (kernel - 1))
    samples = max(kernel - 2 * padding, 1) + extra
    bn_params, arrays = _bn_payload(rng, c_out)
    params = {"n_channels": electrodes, "n_samples": samples,
              "stride": [stride, 1], "padding": [padding, 0],
              "input_shape": [electrodes, samples], **bn_params}
    arrays["weight_bits"] = rng.integers(
        0, 2, (c_out, 1, kernel, 1)).astype(np.uint8)
    front = build_front_end({"op": "conv2d_front", "params": params}, arrays)
    x = _inputs(rng, (batch, electrodes, samples), dtype, scale)
    got = front.run(x)
    expected = _reference_conv2d(params, arrays)(x)
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, expected)
