"""The compiler: trained model -> executable plan, folding and packing once.

``compile(model, backend=...)`` is the single entry point every deployment
path in this repository goes through (:func:`plan_from_folded` is its
model-free companion for already folded classifiers).  It:

1. puts the model in eval mode (deployment uses the batch-norm running
   statistics, exactly like the hardware fold);
2. folds every binarized layer into substrate-independent integer
   popcount/threshold form — **once**;
3. asks the backend to prepare an executor per folded layer (packing
   weight words, programming RRAM tiles) — **once**;
4. returns a :class:`CompiledModel` whose ops chain activation bits from
   the digital front-end to the class scores.

For fully binarized EEG/ECG networks, ``lower_features`` additionally maps
the feature convolutions onto the backend: every convolution whose inputs
are already binary executes on the substrate, and only the analog-facing
first stage stays in the digital front-end (standard BNN practice — the
paper's §II-B conv adaptation).
"""

from __future__ import annotations

import numpy as np

from repro.models.common import BinarizationMode
from repro.nn.binary import (fold_batchnorm_output, fold_batchnorm_sign,
                             to_bits)
from repro.rram.accelerator import classifier_input_bits
from repro.rram.conv import fold_conv1d_batchnorm_sign
from repro.rram.conv2d import fold_conv2d_batchnorm_sign
from repro.runtime.backends import Backend, resolve_backend
from repro.runtime.ir import (BitLayerOp, BitTransformOp, FrontEndOp,
                              OutputLayerOp, PlanOp)
from repro.runtime.serialize import (bn_payload, build_front_end,
                                     build_transform)
from repro.tensor import Tensor, no_grad

__all__ = ["compile", "CompiledModel", "fold_classifier_stack",
           "plan_from_folded"]


def fold_classifier_stack(model):
    """Fold the two-layer binarized classifier of a trained model.

    Works with any model following the repository convention of exposing
    ``fc1``/``bn_fc1`` (hidden, sign-activated) and ``fc2``/``bn_fc2``
    (output) binary layers — :class:`~repro.models.EEGNet`,
    :class:`~repro.models.ECGNet` and :class:`~repro.models.MobileNetV1`
    in their binarized modes all do.  Returns ``(hidden_layers, output)``
    folded forms.
    """
    if not hasattr(model, "fc1") or model.fc2 is None:
        raise ValueError("model does not have a two-layer classifier")
    if not type(model.fc1).__name__.startswith("Binary"):
        raise ValueError("classifier is not binarized; train with "
                         "BinarizationMode.FULL_BINARY or BINARY_CLASSIFIER")
    hidden = [fold_batchnorm_sign(model.fc1, model.bn_fc1)]
    output = fold_batchnorm_output(model.fc2, model.bn_fc2)
    return hidden, output


class CompiledModel:
    """An executable inference plan bound to one backend.

    ``ops`` is the straight-line program: a front-end, zero or more
    lowered feature ops, the classifier layers, and a terminal score op.
    """

    def __init__(self, ops: list[PlanOp], backend: Backend, model=None):
        if not ops or not isinstance(ops[-1], OutputLayerOp):
            raise ValueError("a plan must end in an output layer")
        self.ops = ops
        self.backend = backend
        self.model = model

    # -- execution -------------------------------------------------------
    def scores(self, inputs: np.ndarray,
               batch_size: int | None = None) -> np.ndarray:
        """Class scores ``(N, classes)`` for raw model inputs."""
        inputs = np.asarray(inputs)
        if batch_size is None or len(inputs) == 0:
            return self._run(inputs)
        chunks = [self._run(inputs[s:s + batch_size])
                  for s in range(0, len(inputs), batch_size)]
        return np.concatenate(chunks, axis=0)

    def predict(self, inputs: np.ndarray,
                batch_size: int | None = None) -> np.ndarray:
        """Predicted class labels for raw model inputs."""
        return self.scores(inputs, batch_size).argmax(axis=1)

    def _run(self, x):
        for op in self.ops:
            x = op.run(x)
        return x

    # -- Monte-Carlo execution (trial axis) ------------------------------
    def scores_trials(self, inputs: np.ndarray, trials: int, seed: int = 0,
                      batch_size: int | None = None,
                      trial_chunk: int | None = None,
                      sense=None) -> np.ndarray:
        """Class scores with a leading Monte-Carlo trial axis:
        ``(trials, N, classes)``.

        Each trial is one noisy end-to-end evaluation of the plan; trial
        ``t`` draws every stochastic read from child stream ``t`` of
        ``seed`` (:func:`repro.rram.mc.trial_streams`), so for a fixed
        ``(seed, batch_size)`` the stack is bit-identical to a serial
        per-trial pass over the same streams.  ``trial_chunk`` runs the
        trials in windows of that many streams and concatenates them —
        bit-identical for any window, since each trial draws only from
        its own stream; ``trial_chunk=1`` is the serial per-trial pass.
        Substrate ops that expose ``forward_*_trials`` (the ``rram``
        backend's noisy layers) evaluate all trials in one vectorized
        pass; deterministic ops (front-end, periphery, packed/reference
        executors, noise-free RRAM layers) run once and broadcast.

        ``sense`` (a :class:`~repro.rram.SenseParameters`) overrides the
        sense parameters of every substrate layer for these reads — the
        robustness-sweep convention: one programmed chip, many read-time
        sigmas.  A nonzero ``offset_sigma`` needs every substrate op on
        the physical device path (``RRAMBackend(..., fast_path=False)``);
        any other plan raises ``ValueError`` rather than ignore it.
        """
        from repro.rram.mc import trial_streams

        if sense is not None and sense.offset_sigma != 0.0 and not all(
                self._stochastic(op.executor) for op in self.layer_ops):
            raise ValueError(
                "a sense override with nonzero offset_sigma needs every "
                "substrate layer on the physical device path; compile "
                "with RRAMBackend(..., fast_path=False)")
        inputs = np.asarray(inputs)
        rngs = trial_streams(seed, trials)
        step = len(rngs) if trial_chunk is None else max(1, int(trial_chunk))
        return np.concatenate(
            [self._run_batches(inputs, rngs[t0:t0 + step], batch_size, sense)
             for t0 in range(0, len(rngs), step)], axis=0)

    def predict_trials(self, inputs: np.ndarray, trials: int, seed: int = 0,
                       batch_size: int | None = None,
                       sense=None) -> np.ndarray:
        """Per-trial predicted labels ``(trials, N)``."""
        return self.scores_trials(inputs, trials, seed, batch_size,
                                  sense=sense).argmax(axis=2)

    def _run_batches(self, inputs, rngs, batch_size, sense):
        if batch_size is None or len(inputs) == 0:
            return self._run_trials(inputs, rngs, sense)
        chunks = [self._run_trials(inputs[s:s + batch_size], rngs, sense)
                  for s in range(0, len(inputs), batch_size)]
        return np.concatenate(chunks, axis=1)

    @staticmethod
    def _stochastic(executor) -> bool:
        """True for the noisy ``InMemory*Layer`` executors, the only ones
        with a trial axis: deterministic trials coincide, so the plan
        keeps their activations shared."""
        controller = getattr(executor, "controller", None)
        return controller is not None and not controller.fast_path

    def _run_trials(self, x, rngs, sense):
        per_trial = False
        for op in self.ops:
            executor = getattr(op, "executor", None)
            if self._stochastic(executor):
                read = executor.forward_scores_trials \
                    if isinstance(op, OutputLayerOp) \
                    else executor.forward_bits_trials
                x = read(x, rngs, sense=sense)
                per_trial = True
            elif per_trial:
                # Deterministic op downstream of a noisy one: the trials
                # have already diverged, so it maps over the trial axis.
                x = np.stack([op.run(x[t]) for t in range(len(rngs))])
            else:
                # Deterministic op on still-shared activations (front
                # end, periphery, packed/reference or noise-free RRAM
                # layers): run once, stay shared.
                x = op.run(x)
        if not per_trial:
            # Fully deterministic plan: every trial coincides.
            x = np.broadcast_to(x[None], (len(rngs),) + x.shape).copy()
        return x

    # -- introspection ---------------------------------------------------
    def summary(self) -> str:
        """Human-readable plan listing (one line per op)."""
        header = f"CompiledModel on backend {self.backend.name!r}"
        lines = [header, "-" * len(header)]
        lines += [f"{i:2d}. {op.describe()}"
                  for i, op in enumerate(self.ops)]
        placements = self.placements
        if placements:
            macros = sum(p.n_macros for p in placements)
            paths = {getattr(getattr(op.executor, "controller", None),
                             "fast_path", None)
                     for op in self.layer_ops}
            paths.discard(None)
            labels = {True: "fast path", False: "noisy per-shard path"}
            via = ", ".join(labels[p] for p in sorted(paths, reverse=True))
            remapped = sum(len(p.remapped) for p in placements)
            spares = sum(p.spare_macros for p in placements)
            degraded = ""
            if remapped or spares:
                degraded = (f"; {remapped} dead macro(s) remapped onto "
                            f"spares ({spares} provisioned)")
            tenants = sorted({p.tenant for p in placements
                              if p.tenant is not None})
            tenant_tag = f" [model {', '.join(tenants)}]" if tenants \
                else ""
            lines.append(f"    placed on {macros} macros "
                         f"({placements[0].macro.rows}x"
                         f"{placements[0].macro.cols}) across "
                         f"{len(placements)} layers"
                         + (f" via {via}" if via else "") + degraded
                         + tenant_tag)
        codes = {getattr(getattr(op.executor, "controller", None),
                         "code", None) for op in self.layer_ops}
        codes.discard(None)
        if codes:
            code = next(iter(codes))
            kind = "SECDED" if code.extended else "SEC"
            lines.append(f"    ECC: ({code.n},{code.k}) {kind}, "
                         f"{code.redundancy:.2f}x stored-bit redundancy")
        return "\n".join(lines)

    @property
    def placements(self):
        """Floorplan placements of the substrate ops, in plan order.

        Non-empty exactly when the backend executes a shard map (the
        ``sharded`` backend); each entry is the
        :class:`~repro.rram.floorplan.LayerPlacement` its layer's
        :class:`~repro.rram.accelerator.ShardedController` was built from.
        """
        placements = []
        for op in self.layer_ops:
            controller = getattr(op.executor, "controller", None)
            placement = getattr(controller, "placement", None)
            if placement is not None:
                placements.append(placement)
        return placements

    def floorplan(self, energy=None):
        """The plan's :class:`~repro.rram.floorplan.ChipFloorplan`.

        Available for plans whose backend carries placements (sharded
        multi-macro execution); raises otherwise.  ``energy`` overrides
        the cost model (defaults to the backend's, or the shared
        constants).
        """
        from repro.rram.energy import EnergyModel
        from repro.rram.floorplan import ChipFloorplan

        placements = self.placements
        if not placements:
            raise ValueError(
                f"backend {self.backend.name!r} does not place layers on "
                "macros; compile with the 'sharded' backend for a "
                "floorplan")
        energy = energy or getattr(self.backend, "energy", None) \
            or EnergyModel()
        return ChipFloorplan(placements, energy)

    @property
    def layer_ops(self) -> list[PlanOp]:
        """The substrate-executed ops (excludes the digital periphery)."""
        return [op for op in self.ops
                if isinstance(op, (BitLayerOp, OutputLayerOp))]

    # -- persistence -----------------------------------------------------
    def save(self, path, *, overwrite: bool = False,
             allow_external_front_end: bool = False):
        """Write this plan as a deployment artifact (see
        :func:`repro.io.save_plan`).

        The artifact is backend-independent — it holds the folded weight
        words, integer thresholds and periphery specs, not the prepared
        executors — so :func:`repro.io.load_compiled` can rebind it to
        any registered backend without the original model.
        """
        from repro.io import save_plan
        return save_plan(self, path, overwrite=overwrite,
                         allow_external_front_end=allow_external_front_end)

    def __repr__(self) -> str:
        return (f"CompiledModel(backend={self.backend.name!r}, "
                f"ops={len(self.ops)})")


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------
def compile(model, backend="reference", *, lower_features: bool | str = "auto",
            front_end=None) -> CompiledModel:
    """Compile a trained model into an executable plan on ``backend``.

    Parameters
    ----------
    model:
        A trained model following the classifier convention (and, for
        feature lowering, the conv-stage hooks of the EEG/ECG models).
        Switched to eval mode — folding uses the running statistics.
    backend:
        Backend name (``"reference"``, ``"packed"``, ``"rram"`` or any
        :func:`~repro.runtime.register_backend` plug-in) or a configured
        :class:`~repro.runtime.Backend` instance — e.g.
        ``RRAMBackend(config, fast_path=False)``; ``fast_path`` (default
        ``True``) dispatches deterministic RRAM configurations to the
        packed uint64 kernels at program time, ``False`` keeps every
        read on the simulated devices.
    lower_features:
        ``"auto"`` lowers binary feature convolutions onto the backend
        when the model supports it (fully binarized EEG/ECG networks);
        ``True`` requires lowering (raises if unsupported); ``False``
        keeps all features in the float front-end.
    front_end:
        Optional replacement for the plan's default front-end: a callable
        mapping raw inputs to the activation bits expected by the first
        lowered op (e.g. a stochastic stream encoder for the first
        convolution).
    """
    backend = resolve_backend(backend)
    if lower_features not in (True, False, "auto"):
        raise ValueError("lower_features must be True, False or 'auto'")
    backend.begin_plan()
    model.eval()

    want_lowering = lower_features in (True, "auto") \
        and getattr(model, "mode", None) is BinarizationMode.FULL_BINARY
    ops: list[PlanOp] = []
    if want_lowering and hasattr(model, "conv_stages"):
        ops += _lowered_conv1d_ops(model, backend, front_end)
    elif want_lowering and hasattr(model, "conv_space"):
        ops += _lowered_eeg_ops(model, backend, front_end)
    elif lower_features is True:
        raise ValueError(
            f"{type(model).__name__} does not support feature lowering "
            "(needs FULL_BINARY mode and zero-padding conv stages)")
    else:
        ops.append(_default_front_end(model, front_end))

    ops += _classifier_ops(*fold_classifier_stack(model), backend)
    return CompiledModel(ops, backend, model=model)


def plan_from_folded(hidden, output, backend="reference",
                     in_features: int | None = None) -> CompiledModel:
    """Build an executable plan directly from folded classifier layers.

    The model-free companion of :func:`compile`: the plan's front-end is
    an activation-bit passthrough (the classic memory-controller input
    contract), so inputs are ``(N, in_features)`` uint8 bits — exactly
    what :func:`repro.rram.classifier_input_bits` produces.  Used
    anywhere a classifier exists only as weight words + thresholds;
    ``plan_from_folded(*fold_classifier_stack(model), backend=...)``
    deploys a model's classifier alone without switching the model to
    eval mode, and :func:`repro.io.save_plan` on that plan writes the
    classifier-only deployment artifact.
    """
    backend = resolve_backend(backend)
    backend.begin_plan()
    if in_features is None:
        in_features = hidden[0].in_features if hidden \
            else output.in_features
    front = build_front_end(
        {"op": "bits", "params": {"in_features": int(in_features),
                                  "input_shape": [int(in_features)]}})
    return CompiledModel([front] + _classifier_ops(hidden, output, backend),
                         backend)


def _classifier_ops(hidden, output, backend: Backend) -> list[PlanOp]:
    """The folded classifier on ``backend``: hidden dense layers, then the
    output layer (prepared in that order — the rram backend's shared
    programming stream depends on it)."""
    ops: list[PlanOp] = [BitLayerOp(
        backend.prepare_dense(folded), folded,
        f"dense fc{index} {folded.in_features}->{folded.out_features} "
        f"(popcount-threshold)")
        for index, folded in enumerate(hidden, start=1)]
    ops.append(OutputLayerOp(
        backend.prepare_output(output), output,
        f"output fc {output.in_features}->{len(output.scale)} "
        f"(popcount-affine, argmax)"))
    return ops


def _input_shape(model) -> list[int] | None:
    """Per-sample input geometry, when the model convention exposes it."""
    if hasattr(model, "n_channels") and hasattr(model, "n_samples"):
        return [int(model.n_channels), int(model.n_samples)]
    if hasattr(model, "n_leads") and hasattr(model, "n_samples"):
        return [int(model.n_leads), int(model.n_samples)]
    config = getattr(model, "config", None)
    if config is not None and hasattr(config, "image_size"):
        channels = int(getattr(config, "in_channels", 3))
        return [channels, int(config.image_size), int(config.image_size)]
    return None


def _default_front_end(model, front_end) -> FrontEndOp:
    """Feature extractor + binarization in the float stack.

    This op closes over the live model, so it persists only as an
    ``external`` spec: a reloaded artifact needs a caller-supplied
    ``front_end`` (or the model itself) to rebuild it.
    """
    spec = {"op": "external",
            "params": {"input_shape": _input_shape(model)}}
    if front_end is not None:
        return FrontEndOp(front_end, "custom front-end", spec=spec)

    return FrontEndOp(lambda inputs: classifier_input_bits(model, inputs),
                      "float features + binarize", spec=spec)


# -- ECG-style 1-D conv stacks ----------------------------------------------
def _lowered_conv1d_ops(model, backend: Backend, front_end) -> list[PlanOp]:
    """Lower a 1-D conv stack (``conv_stages`` hook): the first, analog-
    facing stage stays in the front-end; every later stage runs as a
    folded binary convolution on the backend.

    Every op is built from a declarative spec
    (:mod:`repro.runtime.serialize`), so the whole lowered plan persists
    as a self-contained artifact and reloads without the model.
    """
    stages = model.conv_stages()
    first_conv, first_bn, first_pool = stages[0]

    if front_end is None:
        bn_params, arrays = bn_payload(first_bn)
        params = {"in_channels": int(first_conv.in_channels),
                  "stride": int(first_conv.stride),
                  "padding": int(first_conv.padding),
                  "pool_kernel": int(first_pool.kernel_size)
                  if first_pool is not None else None,
                  "pool_stride": int(first_pool.stride)
                  if first_pool is not None else None,
                  "input_shape": _input_shape(model), **bn_params}
        arrays["weight_bits"] = to_bits(first_conv.weight.data)
        arrays["norm_mean"] = np.array(model.input_norm.mean,
                                       dtype=np.float64)
        arrays["norm_std"] = np.array(model.input_norm.std,
                                      dtype=np.float64)
        ops: list[PlanOp] = [build_front_end(
            {"op": "conv1d_front", "params": params}, arrays)]
    else:
        ops = [_default_front_end(model, front_end)]

    for index, (conv, bn, pool) in enumerate(stages[1:], start=1):
        folded = fold_conv1d_batchnorm_sign(conv, bn)
        ops.append(BitLayerOp(
            backend.prepare_conv1d(folded), folded,
            f"conv1d stage {index} {folded.in_channels}->"
            f"{folded.out_channels} k={folded.kernel_size}"))
        if pool is not None:
            ops.append(build_transform(
                {"op": "max_pool1d",
                 "params": {"kernel": int(pool.kernel_size),
                            "stride": int(pool.stride)}},
                label=f"max-pool bits k={pool.kernel_size} (logical OR)"))
    ops.append(build_transform({"op": "flatten", "params": {}}))
    ops.append(_sign_remap_op(model))
    return ops


def _sign_remap_op(model) -> BitTransformOp:
    """The pre-classifier ``BatchNorm + Sign`` over ±1 inputs.

    An elementwise monotone map of a two-valued input is fully described
    by its images of -1 and +1; both rows are precomputed here, so at run
    time the op is a single select — a two-row lookup in hardware (and
    two uint8 rows in the artifact).
    """
    n_features = model.fc1.in_features
    with no_grad():
        minus = model.pre_classifier(Tensor(-np.ones((1, n_features))))
        plus = model.pre_classifier(Tensor(np.ones((1, n_features))))
    return build_transform(
        {"op": "two_row_lookup", "params": {}},
        {"bit_for_0": to_bits(minus.data)[0],
         "bit_for_1": to_bits(plus.data)[0]})


# -- EEG: temporal front + spatial conv on the fabric -----------------------
def _lowered_eeg_ops(model, backend: Backend, front_end) -> list[PlanOp]:
    """Lower the EEG network: the temporal convolution (analog input)
    stays in the front-end; the spatial convolution executes on the
    backend; pooling + pre-classifier bridge through the periphery.

    Front-end and bridge are spec-built (serializable) like the ECG path.
    """
    if front_end is None:
        bn_params, arrays = bn_payload(model.bn_time)
        params = {"n_channels": int(model.n_channels),
                  "n_samples": int(model.n_samples),
                  "stride": [int(s) for s in model.conv_time.stride],
                  "padding": [int(p) for p in model.conv_time.padding],
                  "input_shape": _input_shape(model), **bn_params}
        arrays["weight_bits"] = to_bits(model.conv_time.weight.data)
        ops: list[PlanOp] = [build_front_end(
            {"op": "conv2d_front", "params": params}, arrays)]
    else:
        ops = [_default_front_end(model, front_end)]

    folded = fold_conv2d_batchnorm_sign(model.conv_space, model.bn_space)
    ops.append(BitLayerOp(
        backend.prepare_conv2d(folded), folded,
        f"conv2d spatial {folded.in_channels}->{folded.out_channels} "
        f"k={folded.kernel_size}"))

    pre_bn = next(iter(model.pre_classifier))
    bn_params, arrays = bn_payload(pre_bn)
    ops.append(build_transform(
        {"op": "avg_pool_bridge",
         "params": {"pool_kernel": int(model.pool.kernel_size),
                    "pool_stride": int(model.pool.stride), **bn_params}},
        arrays))
    return ops
