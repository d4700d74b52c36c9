"""Declarative plan ops: the bridge between compiled plans and artifacts.

Every digital-periphery op of a plan (front-end, pooling, flatten,
re-thresholding) is described by a **spec** — a JSON-serializable dict
(``{"op": <kind>, "params": {...}}``) plus named numpy arrays — and the
executable closure is *built from the spec* by this module.  The compiler
extracts specs from the trained model once; :mod:`repro.io` persists them
and rebuilds the ops on load.  Because the saved and the freshly compiled
plan both run the closure this module builds, a reloaded artifact is
bit-identical to a fresh compile by construction, on every backend.

Substrate ops (:class:`~repro.runtime.ir.BitLayerOp` /
:class:`~repro.runtime.ir.OutputLayerOp`) need no spec: their ``folded``
dataclasses (weight bits + integer thresholds) are already declarative,
and a backend rebinds them through its ``prepare_*`` hooks.

Spec kinds
----------
front-ends
    ``bits`` (activation-bit passthrough, the classic memory-controller
    input contract), ``conv1d_front`` (ECG: input-norm + analog conv
    stage 0 + binarize [+ max-pool]), ``conv2d_front`` (EEG: reshape +
    temporal conv + binarize), ``external`` (the float feature stack of
    a non-lowered model — not reloadable without a ``front_end``
    callable).  The two conv fronts run folded
    (:mod:`repro.runtime.analog_front`), bit-identical to the autograd
    closures kept here as their reference.
transforms
    ``max_pool1d``, ``flatten``, ``two_row_lookup`` (pre-classifier
    batch-norm + sign over known ±1 inputs), ``avg_pool_bridge`` (the
    EEG periphery: ±1 avg-pool + flatten + batch-norm + sign, run as a
    lookup of each window's count of ones in a bit table the library
    modules fill at build time).
layers
    ``dense``, ``conv1d``, ``conv2d``, ``output`` — the folded forms.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import Sign
from repro.nn.binary import (FoldedBinaryDense, FoldedOutputDense, from_bits,
                             to_bits)
from repro.nn.container import Sequential
from repro.nn.conv import conv1d_op, conv2d_op
from repro.nn.norm import BatchNorm1d, BatchNorm2d, InputNorm
from repro.nn.pooling import AvgPool1d
from repro.rram.conv import FoldedBinaryConv1d, max_pool_bits_1d
from repro.rram.conv2d import FoldedBinaryConv2d
from repro.runtime.analog_front import conv1d_front, conv2d_front
from repro.runtime.ir import (BitLayerOp, BitTransformOp, FrontEndOp,
                              OutputLayerOp, PlanOp)
from repro.tensor import Tensor, no_grad

__all__ = ["FORMAT_VERSION", "PlanSerializationError", "build_front_end",
           "build_transform", "folded_payload", "folded_from_payload",
           "plan_payload", "ops_from_payload"]

FORMAT_VERSION = 1


class PlanSerializationError(ValueError):
    """A plan op cannot be expressed as (or rebuilt from) an artifact."""


# ---------------------------------------------------------------------------
# Reconstructed library modules (shared by compile-time and load-time paths)
# ---------------------------------------------------------------------------
def _rebuild_batchnorm(cls, params: dict, arrays: dict):
    """A library batch-norm in eval mode, populated from saved arrays.

    Using the real :class:`~repro.nn.norm._BatchNorm` subclass (not a
    re-derived affine) keeps the float expression — and therefore every
    borderline sign bit — identical to the training stack's forward.
    """
    bn = cls(int(params["bn_features"]), eps=float(params["bn_eps"]))
    bn.gamma.data[...] = np.asarray(arrays["bn_gamma"], dtype=np.float64)
    bn.beta.data[...] = np.asarray(arrays["bn_beta"], dtype=np.float64)
    bn.set_buffer("running_mean",
                  np.asarray(arrays["bn_mean"], dtype=np.float64))
    bn.set_buffer("running_var",
                  np.asarray(arrays["bn_var"], dtype=np.float64))
    bn.eval()
    return bn


def bn_payload(bn) -> tuple[dict, dict]:
    """Spec params + arrays of a trained batch-norm (running statistics)."""
    params = {"bn_features": int(bn.num_features), "bn_eps": float(bn.eps)}
    arrays = {"bn_gamma": np.array(bn.gamma.data, dtype=np.float64),
              "bn_beta": np.array(bn.beta.data, dtype=np.float64),
              "bn_mean": np.array(bn.running_mean, dtype=np.float64),
              "bn_var": np.array(bn.running_var, dtype=np.float64)}
    return params, arrays


# ---------------------------------------------------------------------------
# Front-end builders
# ---------------------------------------------------------------------------
def _front_bits(params: dict, arrays: dict):
    width = params.get("in_features")

    def run(x):
        bits = np.asarray(x, dtype=np.uint8)
        if width is not None and (bits.ndim != 2 or bits.shape[1] != width):
            raise ValueError(
                f"expected (N, {width}) activation bits, got {bits.shape}")
        return bits

    return run, "activation bits passthrough"


def _bn_arrays(params: dict, arrays: dict) -> dict:
    return {"mean": arrays["bn_mean"], "var": arrays["bn_var"],
            "gamma": arrays["bn_gamma"], "beta": arrays["bn_beta"],
            "eps": float(params["bn_eps"])}


def _reference_conv1d(params: dict, arrays: dict):
    """The ECG front in the autograd stack: the bits the fold reproduces."""
    norm = InputNorm(int(params["in_channels"]))
    norm.set_buffer("mean", np.asarray(arrays["norm_mean"],
                                       dtype=np.float64))
    norm.set_buffer("std", np.asarray(arrays["norm_std"], dtype=np.float64))
    bn = _rebuild_batchnorm(BatchNorm1d, params, arrays)
    weight = Tensor(from_bits(arrays["weight_bits"]))
    stride, padding = int(params["stride"]), int(params["padding"])
    pool_kernel = params.get("pool_kernel")
    pool_stride = params.get("pool_stride")

    def run(inputs: np.ndarray) -> np.ndarray:
        with no_grad():
            h = norm(Tensor(np.asarray(inputs)))
            h = bn(conv1d_op(h, weight, None, stride, padding))
        bits = to_bits(h.data)
        if pool_kernel is not None:
            bits = max_pool_bits_1d(bits, int(pool_kernel), int(pool_stride))
        return bits

    return run


def _reference_conv2d(params: dict, arrays: dict):
    """The EEG front in the autograd stack: the bits the fold reproduces."""
    bn = _rebuild_batchnorm(BatchNorm2d, params, arrays)
    weight = Tensor(from_bits(arrays["weight_bits"]))
    n_samples = int(params["n_samples"])
    n_channels = int(params["n_channels"])
    stride = tuple(int(s) for s in params["stride"])
    padding = tuple(int(p) for p in params["padding"])

    def run(inputs: np.ndarray) -> np.ndarray:
        x = Tensor(np.asarray(inputs))
        with no_grad():
            h = x.transpose((0, 2, 1)).reshape(x.shape[0], 1, n_samples,
                                               n_channels)
            h = bn(conv2d_op(h, weight, None, stride, padding))
        return to_bits(h.data)

    return run


def _front_conv1d(params: dict, arrays: dict):
    pool = params.get("pool_kernel")
    shape = params.get("input_shape")
    run = conv1d_front(
        np.asarray(arrays["weight_bits"]), arrays["norm_mean"],
        arrays["norm_std"], _bn_arrays(params, arrays),
        int(params["stride"]), int(params["padding"]),
        (int(pool), int(params["pool_stride"])) if pool is not None else None,
        int(shape[1]) if shape else None, _reference_conv1d(params, arrays))
    return run, "input-norm + conv stage 0 + binarize (analog front)"


def _front_conv2d(params: dict, arrays: dict):
    weight_bits = np.asarray(arrays["weight_bits"])
    stride = [int(s) for s in params["stride"]]
    padding = [int(p) for p in params["padding"]]
    if weight_bits.shape[1] != 1 or weight_bits.shape[3] != 1 \
            or stride[1] != 1 or padding[1] != 0:
        raise PlanSerializationError(
            "conv2d_front expects a per-electrode temporal kernel "
            "(C_out, 1, K, 1) with stride (s, 1) and padding (p, 0); got "
            f"weights {weight_bits.shape}, stride {tuple(stride)}, "
            f"padding {tuple(padding)}")
    run = conv2d_front(
        weight_bits, _bn_arrays(params, arrays), int(params["n_channels"]),
        int(params["n_samples"]), stride[0], padding[0],
        _reference_conv2d(params, arrays))
    return run, "temporal conv + binarize (analog front)"


_FRONT_BUILDERS = {
    "bits": _front_bits,
    "conv1d_front": _front_conv1d,
    "conv2d_front": _front_conv2d,
}


def build_front_end(spec: dict, arrays: dict | None = None,
                    fn=None, label: str | None = None) -> FrontEndOp:
    """Build a :class:`FrontEndOp` from a spec (and attach the spec to it).

    ``external`` specs wrap a model- or user-supplied closure and require
    ``fn``; every other kind is self-contained and rebuilds the closure
    from the spec arrays alone.
    """
    arrays = dict(arrays or {})
    kind = spec["op"]
    if kind == "external":
        if fn is None:
            raise PlanSerializationError(
                "this plan's front-end is external (the float feature "
                "stack of the model it was compiled from); pass a "
                "front_end= callable to rebuild it, or compile with "
                "lower_features=True for a self-contained artifact")
        return FrontEndOp(fn, label or "custom front-end", spec=spec,
                          spec_arrays=arrays)
    try:
        builder = _FRONT_BUILDERS[kind]
    except KeyError:
        raise PlanSerializationError(
            f"unknown front-end spec {kind!r}; this artifact may need a "
            "newer repro") from None
    run, default_label = builder(spec.get("params", {}), arrays)
    return FrontEndOp(run, label or default_label, spec=spec,
                      spec_arrays=arrays)


# ---------------------------------------------------------------------------
# Bit-transform builders
# ---------------------------------------------------------------------------
def _transform_max_pool1d(params: dict, arrays: dict):
    kernel, stride = int(params["kernel"]), int(params["stride"])
    return (lambda bits: max_pool_bits_1d(bits, kernel, stride),
            f"max-pool bits k={kernel} (logical OR)")


def _transform_flatten(params: dict, arrays: dict):
    return (lambda bits: np.ascontiguousarray(bits).reshape(
        bits.shape[0], -1), "flatten")


def _transform_two_row_lookup(params: dict, arrays: dict):
    bit_for_0 = np.asarray(arrays["bit_for_0"], dtype=np.uint8)
    bit_for_1 = np.asarray(arrays["bit_for_1"], dtype=np.uint8)

    def run(bits: np.ndarray) -> np.ndarray:
        return np.where(bits != 0, bit_for_1[None, :], bit_for_0[None, :])

    return run, ("pre-classifier batch-norm + sign (two-row lookup)")


def _transform_avg_pool_bridge(params: dict, arrays: dict):
    kernel, stride = int(params["pool_kernel"]), int(params["pool_stride"])
    pool = AvgPool1d(kernel, stride)
    pre = Sequential(_rebuild_batchnorm(BatchNorm1d, params, arrays), Sign())
    pre.eval()
    # (N, F, T', 1) bits -> ±1 -> overlapping avg-pool -> flatten ->
    # pre-classifier batch-norm + sign.  A window's ±1 sum is an exact
    # integer, so its average -- and every bit after it -- depends only
    # on how many ones it holds: table[f, c] is output feature f's bit
    # for a window of c ones, computed once by these very modules.
    n_features = int(params["bn_features"])
    ones = np.arange(kernel) < np.arange(kernel + 1)[:, None]
    with no_grad():
        pooled = pool(Tensor(np.where(ones, 1.0, -1.0)[:, None, :]))
        features = np.repeat(pooled.data.reshape(kernel + 1, 1), n_features,
                             axis=1)
        table = to_bits(pre(Tensor(features)).data).T.ravel()
    offsets = np.arange(n_features) * (kernel + 1)

    def run(bits: np.ndarray) -> np.ndarray:
        n, channels, length = bits.shape[:3]
        cumulative = np.zeros((n, channels, length + 1), dtype=np.int32)
        np.cumsum(bits.reshape(n, channels, length) != 0, axis=2,
                  out=cumulative[:, :, 1:])
        starts = np.arange(0, length - kernel + 1, stride)
        counts = cumulative[:, :, starts + kernel] - cumulative[:, :, starts]
        return table[offsets + counts.reshape(n, n_features)]

    return run, "avg-pool + flatten + pre-classifier (periphery)"


_TRANSFORM_BUILDERS = {
    "max_pool1d": _transform_max_pool1d,
    "flatten": _transform_flatten,
    "two_row_lookup": _transform_two_row_lookup,
    "avg_pool_bridge": _transform_avg_pool_bridge,
}


def build_transform(spec: dict, arrays: dict | None = None,
                    label: str | None = None) -> BitTransformOp:
    """Build a :class:`BitTransformOp` from a spec (attached to the op)."""
    arrays = dict(arrays or {})
    try:
        builder = _TRANSFORM_BUILDERS[spec["op"]]
    except KeyError:
        raise PlanSerializationError(
            f"unknown periphery spec {spec['op']!r}; this artifact may "
            "need a newer repro") from None
    run, default_label = builder(spec.get("params", {}), arrays)
    return BitTransformOp(run, label or default_label, spec=spec,
                          spec_arrays=arrays)


# ---------------------------------------------------------------------------
# Substrate layers: folded forms <-> payloads
# ---------------------------------------------------------------------------
_FOLD_ARRAYS = ("weight_bits", "theta", "gamma_sign", "beta_sign")


def folded_payload(folded) -> tuple[str, dict, dict]:
    """``(kind, params, arrays)`` of any folded substrate layer.

    The params record the geometry a memory controller needs beyond the
    raw arrays: fan-in, kernel/stride for convolutions, and the depthwise
    flag (packed kernels derive their pad corrections from these).
    """
    if isinstance(folded, FoldedBinaryConv1d):
        params = {"in_channels": int(folded.in_channels),
                  "kernel_size": int(folded.kernel_size),
                  "stride": int(folded.stride),
                  "fan_in": int(folded.fan_in)}
        return "conv1d", params, {k: getattr(folded, k)
                                  for k in _FOLD_ARRAYS}
    if isinstance(folded, FoldedBinaryConv2d):
        params = {"in_channels": int(folded.in_channels),
                  "kernel_size": [int(k) for k in folded.kernel_size],
                  "stride": [int(s) for s in folded.stride],
                  "depthwise": bool(folded.depthwise),
                  "fan_in": int(folded.fan_in)}
        return "conv2d", params, {k: getattr(folded, k)
                                  for k in _FOLD_ARRAYS}
    if isinstance(folded, FoldedOutputDense):
        params = {"fan_in": int(folded.in_features)}
        return "output", params, {"weight_bits": folded.weight_bits,
                                  "scale": folded.scale,
                                  "offset": folded.offset}
    if isinstance(folded, FoldedBinaryDense):
        params = {"fan_in": int(folded.in_features)}
        return "dense", params, {k: getattr(folded, k)
                                 for k in _FOLD_ARRAYS}
    raise PlanSerializationError(
        f"cannot serialize substrate layer {type(folded).__name__}")


def folded_from_payload(kind: str, params: dict, arrays: dict):
    """Rebuild a folded substrate layer from its artifact payload."""
    if kind == "dense":
        return FoldedBinaryDense(
            weight_bits=np.asarray(arrays["weight_bits"], dtype=np.uint8),
            theta=np.asarray(arrays["theta"]),
            gamma_sign=np.asarray(arrays["gamma_sign"]),
            beta_sign=np.asarray(arrays["beta_sign"]))
    if kind == "output":
        return FoldedOutputDense(
            weight_bits=np.asarray(arrays["weight_bits"], dtype=np.uint8),
            scale=np.asarray(arrays["scale"]),
            offset=np.asarray(arrays["offset"]))
    if kind == "conv1d":
        return FoldedBinaryConv1d(
            weight_bits=np.asarray(arrays["weight_bits"], dtype=np.uint8),
            in_channels=int(params["in_channels"]),
            kernel_size=int(params["kernel_size"]),
            stride=int(params["stride"]),
            theta=np.asarray(arrays["theta"]),
            gamma_sign=np.asarray(arrays["gamma_sign"]),
            beta_sign=np.asarray(arrays["beta_sign"]))
    if kind == "conv2d":
        return FoldedBinaryConv2d(
            weight_bits=np.asarray(arrays["weight_bits"], dtype=np.uint8),
            in_channels=int(params["in_channels"]),
            kernel_size=tuple(int(k) for k in params["kernel_size"]),
            stride=tuple(int(s) for s in params["stride"]),
            theta=np.asarray(arrays["theta"]),
            gamma_sign=np.asarray(arrays["gamma_sign"]),
            beta_sign=np.asarray(arrays["beta_sign"]),
            depthwise=bool(params.get("depthwise", False)))
    raise PlanSerializationError(
        f"unknown substrate layer kind {kind!r}; this artifact may need "
        "a newer repro")


_PREPARE_HOOKS = {
    "dense": lambda backend: backend.prepare_dense,
    "conv1d": lambda backend: backend.prepare_conv1d,
    "conv2d": lambda backend: backend.prepare_conv2d,
    "output": lambda backend: backend.prepare_output,
}


# ---------------------------------------------------------------------------
# Whole-plan payloads
# ---------------------------------------------------------------------------
def plan_payload(plan) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Flatten a compiled plan into ``(ops_meta, arrays)``.

    ``ops_meta`` is a JSON-serializable list (one entry per op: role,
    spec kind, label, params, array names); ``arrays`` maps flat
    ``op{i}.{name}`` keys to the numpy payloads.  Raises
    :class:`PlanSerializationError` for ops that carry no spec, except
    the front-end, which degrades to ``external`` (reloadable only with
    a caller-supplied closure).
    """
    ops_meta: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for index, op in enumerate(plan.ops):
        if isinstance(op, (BitLayerOp, OutputLayerOp)):
            role = "output" if isinstance(op, OutputLayerOp) else "layer"
            kind, params, op_arrays = folded_payload(op.folded)
        elif isinstance(op, (FrontEndOp, BitTransformOp)):
            role = "front" if isinstance(op, FrontEndOp) else "transform"
            spec = getattr(op, "spec", None)
            if spec is None:
                if role != "front":
                    raise PlanSerializationError(
                        f"op {index} ({op.label!r}) carries no spec and "
                        "cannot be persisted; build periphery ops through "
                        "repro.runtime.serialize")
                spec = {"op": "external", "params": {}}
            kind = spec["op"]
            params = dict(spec.get("params", {}))
            op_arrays = dict(getattr(op, "spec_arrays", None) or {})
            if kind == "external":
                op_arrays = {}
        else:
            raise PlanSerializationError(
                f"op {index} ({type(op).__name__}) is not a serializable "
                "plan op")
        ops_meta.append({"index": index, "role": role, "op": kind,
                         "label": op.label, "params": params,
                         "arrays": sorted(op_arrays)})
        for name, value in op_arrays.items():
            arrays[f"op{index}.{name}"] = np.asarray(value)
    return ops_meta, arrays


def ops_from_payload(ops_meta: list[dict], arrays: dict[str, np.ndarray],
                     backend, front_end=None) -> list[PlanOp]:
    """Rebuild executable plan ops on ``backend`` from an artifact payload.

    The caller is responsible for ``backend.begin_plan()``; substrate
    layers are prepared in plan order, so stateful backends (the sharded
    floorplan) see exactly the sequence the compiler would have produced.
    """
    ops: list[PlanOp] = []
    for entry in ops_meta:
        index = entry["index"]
        op_arrays = {name: arrays[f"op{index}.{name}"]
                     for name in entry["arrays"]}
        spec = {"op": entry["op"], "params": dict(entry["params"])}
        role = entry["role"]
        if role == "front":
            ops.append(build_front_end(spec, op_arrays, fn=front_end,
                                       label=entry["label"]))
        elif role == "transform":
            ops.append(build_transform(spec, op_arrays,
                                       label=entry["label"]))
        elif role in ("layer", "output"):
            folded = folded_from_payload(entry["op"], entry["params"],
                                         op_arrays)
            prepare = _PREPARE_HOOKS[entry["op"]](backend)
            if role == "layer":
                ops.append(BitLayerOp(prepare(folded), folded,
                                      entry["label"]))
            else:
                ops.append(OutputLayerOp(prepare(folded), folded,
                                         entry["label"]))
        else:
            raise PlanSerializationError(
                f"unknown plan-op role {role!r}; this artifact may need "
                "a newer repro")
    return ops
