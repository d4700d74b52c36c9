"""Execution backends: one substrate per class, one protocol for all.

A backend turns substrate-independent folded layers (the output of the
batch-norm folding of Eq. 3) into executors with ``forward_bits`` /
``forward_scores`` methods.  All expensive preparation — packing weight
bits into uint64 words, programming 2T2R tiles — happens in the
``prepare_*`` calls at compile time, never per batch.  The ``rram`` and
``sharded`` backends are the one place an in-memory layer's controller
is built: a noisy one is read by ``InMemory*Layer(folded, controller)``,
a deterministic one runs a :class:`MeteredPackedLayer`.

The registry (:func:`register_backend` / :func:`resolve_backend`) is the
extension point: a sharded multi-macro backend or an async sweep executor
plugs in by name without touching the compiler.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.nn.binary import FoldedBinaryDense, FoldedOutputDense
from repro.nn.bitops import (PackedBinaryConv1d, PackedBinaryConv2d,
                             PackedBinaryDense, PackedOutputDense)
from repro.rram.accelerator import (AcceleratorConfig, InMemoryDenseLayer,
                                    InMemoryOutputLayer, MemoryController,
                                    ShardedController)
from repro.rram.conv import FoldedBinaryConv1d, InMemoryConv1dLayer
from repro.rram.conv2d import FoldedBinaryConv2d, InMemoryConv2dLayer
from repro.rram.ecc import EccMemoryController, HammingCode
from repro.rram.energy import EnergyModel
from repro.rram.faults import FaultMap
from repro.rram.floorplan import ChipFloorplan, LayerPlacement, MacroGeometry
from repro.rram.reliability import LifetimeConfig

__all__ = ["Backend", "ReferenceBackend", "PackedBackend", "RRAMBackend",
           "ShardedRRAMBackend", "register_backend", "resolve_backend",
           "available_backends", "resolve_ecc"]


def resolve_ecc(spec) -> HammingCode | None:
    """Accept an ECC spec: ``None``, a code name or a built code.

    Names: ``"secded"`` — the (72, 64) extended Hamming code of server
    memories; ``"rate-half"`` — the (8, 4) code matching 2T2R's 2x
    redundancy.
    """
    if spec is None or isinstance(spec, HammingCode):
        return spec
    if isinstance(spec, str):
        name = spec.lower().replace("_", "-")
        if name in ("none", ""):
            return None
        if name == "secded":
            return HammingCode.secded_72_64()
        if name == "rate-half":
            return HammingCode.rate_half()
        raise ValueError(
            f"unknown ECC code {spec!r}; known: secded, rate-half, none")
    raise TypeError(f"ecc must be None, a name or a HammingCode, "
                    f"got {type(spec)}")

class Backend:
    """Protocol for inference substrates.

    Subclasses override the ``prepare_*`` hooks for the layer types they
    support; the defaults raise so an unsupported lowering fails at
    compile time, not mid-inference.
    """

    name = "abstract"

    def begin_plan(self) -> None:
        """Called once by ``compile`` before any ``prepare_*`` call.

        Stateful backends reset per-plan bookkeeping here (the sharded
        backend clears its recorded placements) so reusing one backend
        instance across compiles never leaks state between plans.
        """

    def prepare_dense(self, folded: FoldedBinaryDense):
        raise NotImplementedError(
            f"backend {self.name!r} does not execute dense layers")

    def prepare_output(self, folded: FoldedOutputDense):
        raise NotImplementedError(
            f"backend {self.name!r} does not execute output layers")

    def prepare_conv1d(self, folded: FoldedBinaryConv1d):
        raise NotImplementedError(
            f"backend {self.name!r} does not execute 1-D convolutions")

    def prepare_conv2d(self, folded: FoldedBinaryConv2d):
        raise NotImplementedError(
            f"backend {self.name!r} does not execute 2-D convolutions")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ReferenceBackend(Backend):
    """The integer matmul formulation of Eq. 3 — the verification golden
    model.  Folded layers already execute themselves, so preparation is
    the identity."""

    name = "reference"

    def prepare_dense(self, folded: FoldedBinaryDense):
        return folded

    def prepare_output(self, folded: FoldedOutputDense):
        return folded

    def prepare_conv1d(self, folded: FoldedBinaryConv1d):
        return folded

    def prepare_conv2d(self, folded: FoldedBinaryConv2d):
        return folded


class PackedBackend(Backend):
    """Packed-word XNOR-popcount kernels (64 synapses per machine word).

    Dense layers and convolutions (bit-packed im2col; bit-sliced kernels
    for depthwise) — the software mirror of the paper's §II-A argument
    that XNOR gates replace multipliers.
    """

    name = "packed"

    def prepare_dense(self, folded: FoldedBinaryDense):
        return PackedBinaryDense(folded)

    def prepare_output(self, folded: FoldedOutputDense):
        return PackedOutputDense(folded)

    def prepare_conv1d(self, folded: FoldedBinaryConv1d):
        return PackedBinaryConv1d(folded)

    def prepare_conv2d(self, folded: FoldedBinaryConv2d):
        return PackedBinaryConv2d(folded)


class MeteredPackedLayer:
    """A noise-free in-memory layer: the chip senses exactly its
    effective bits, so it is the ``Packed*`` executor over them.  Each
    call meters one scan per output position (``N`` rows, times the
    output positions of a convolution) on the controller, as the
    physical read does; a depthwise convolution reads no controller.
    With no ``forward_*_trials``, a plan runs it once for all trials.
    """

    def __init__(self, executor, controller, metered: bool = True):
        self.executor = executor
        self.controller = controller
        self.metered = metered

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        return self._meter(self.executor.forward_bits(x_bits))

    def forward_scores(self, x_bits: np.ndarray) -> np.ndarray:
        return self._meter(self.executor.forward_scores(x_bits))

    def _meter(self, out: np.ndarray) -> np.ndarray:
        if self.metered:
            self.controller.meter_reads(out.size // out.shape[1], trials=1)
        return out


class _InMemoryBackend(Backend):
    """The ``prepare_*`` hooks shared by the RRAM backends.

    Each hook wraps the controller that :meth:`_controller` programs
    with the layer's weight bits; the backends differ only in how that
    controller is built.  ``kind`` names the layer class for placement
    labels (``fc``, ``out``, ``conv``).
    """

    def _controller(self, kind: str, weight_bits: np.ndarray):
        raise NotImplementedError

    def _prepare(self, kind: str, folded, packed, in_memory):
        controller = self._controller(kind, folded.weight_bits)
        if not controller.fast_path:
            return in_memory(folded, controller)
        return MeteredPackedLayer(
            packed(replace(folded, weight_bits=controller.effective_bits)),
            controller, metered=not getattr(folded, "depthwise", False))

    def prepare_dense(self, folded: FoldedBinaryDense):
        return self._prepare("fc", folded, PackedBinaryDense,
                             InMemoryDenseLayer)

    def prepare_output(self, folded: FoldedOutputDense):
        return self._prepare("out", folded, PackedOutputDense,
                             InMemoryOutputLayer)

    def prepare_conv1d(self, folded: FoldedBinaryConv1d):
        return self._prepare("conv", folded, PackedBinaryConv1d,
                             InMemoryConv1dLayer)

    def prepare_conv2d(self, folded: FoldedBinaryConv2d):
        return self._prepare("conv", folded, PackedBinaryConv2d,
                             InMemoryConv2dLayer)


class RRAMBackend(_InMemoryBackend):
    """The Fig. 5 in-memory architecture on simulated 2T2R macros.

    Preparation programs the weight bits into
    :class:`~repro.rram.accelerator.MemoryController` tile grids; layers
    then execute with vectorized word-line scanning and batched activation
    broadcast.  One shared ``rng`` keeps deployment deterministic per
    config seed.  With ``ecc`` set, each layer is stored behind that
    Hamming code (:class:`~repro.rram.ecc.EccMemoryController`).

    ``fast_path=True`` (default) builds no device state exactly when
    the config has zero device variability and zero sense offset and no
    retention aging applies: the layer is then a
    :class:`MeteredPackedLayer` over the controller's effective bits
    (stuck cells applied, or the ECC decode), bit-exact with the
    physical path and metered like it.  ``False`` forces full device
    simulation.

    Every noisy layer also exposes the Monte-Carlo trial axis
    (``forward_bits_trials`` / ``forward_scores_trials``): a compiled
    plan on this backend evaluates ``T`` noisy trials in one
    trial-batched pass via
    :meth:`~repro.runtime.compile.CompiledModel.scores_trials`, with
    per-trial child RNG streams making the stack bit-identical to a
    serial per-trial loop (see :mod:`repro.rram.mc`).
    """

    name = "rram"

    def __init__(self, config: AcceleratorConfig | None = None,
                 rng: np.random.Generator | None = None,
                 fast_path: bool = True,
                 ecc=None,
                 lifetime: LifetimeConfig | None = None,
                 fault_map: FaultMap | None = None):
        self.config = config or AcceleratorConfig()
        self.rng = rng or np.random.default_rng(self.config.seed)
        self.fast_path = fast_path
        self.ecc = resolve_ecc(ecc)
        self.lifetime = lifetime
        self.fault_map = fault_map
        self._layer_index = 0

    def begin_plan(self) -> None:
        self._layer_index = 0

    def _controller(self, kind: str, weight_bits: np.ndarray):
        """Program one layer's weights.  Layer ``i`` of a plan keys its
        fault sites by ``(i,)``; without a fault map the key is unused,
        so every layer draws from the shared ``rng`` in plan order."""
        key = (self._layer_index,)
        self._layer_index += 1
        if self.ecc is not None:
            return EccMemoryController(
                weight_bits, self.config, self.rng, code=self.ecc,
                fast_path=self.fast_path, lifetime=self.lifetime,
                fault_map=self.fault_map, fault_key=key)
        return MemoryController(
            weight_bits, self.config, self.rng, self.fast_path,
            lifetime=self.lifetime, fault_map=self.fault_map,
            fault_key=key)

    def __repr__(self) -> str:
        extras = ""
        if self.ecc is not None:
            extras += f", ecc=({self.ecc.n},{self.ecc.k})"
        if self.lifetime is not None and self.lifetime.active:
            extras += f", lifetime={self.lifetime.hours:g}h"
        if self.fault_map is not None and not self.fault_map.empty:
            extras += ", faults"
        return (f"RRAMBackend(config={self.config!r}, "
                f"fast_path={self.fast_path!r}{extras})")


class ShardedRRAMBackend(_InMemoryBackend):
    """Multi-macro execution: every folded layer split across simulated
    RRAM *chips* by its floorplan placement.

    The monolithic :class:`RRAMBackend` cannot place a layer wider than
    one controller's array at realistic macro geometries; this backend
    executes the :class:`~repro.rram.floorplan.LayerPlacement` shard map
    instead — one fixed-geometry macro chip per shard, fan-in slices
    producing partial popcounts that a digital reduction stage sums before
    the single integer threshold (fan-out stripes are concatenated for
    wide layers).  Noise-free configurations are bit-identical to the
    monolithic backend *and* to reference/packed; noisy configurations
    draw per-shard independent sense noise through the
    :func:`repro.rram.mc.shard_streams` contract, so Monte-Carlo trial
    batching (``scores_trials`` / ``evaluate_compiled(trials=)``) stays
    chunk-invariant on the sharded path.

    Placements are recorded per prepared layer (in plan order) and exposed
    as a :class:`~repro.rram.floorplan.ChipFloorplan`, so a compiled plan
    reports per-macro utilization, area and programming/scan energy from
    the existing floorplan cost model.

    ``fast_path`` has the :class:`RRAMBackend` meaning: with ``True``
    (default) every layer that reads deterministically is a
    :class:`MeteredPackedLayer` over the effective bits stitched from
    its chips instead of the per-shard loop.  Reloaded plan artifacts
    (:func:`repro.io.load_compiled`) rebind through the same
    ``prepare_*`` hooks, so they take the fast path too.
    """

    name = "sharded"

    def __init__(self, config: AcceleratorConfig | None = None,
                 macro: MacroGeometry | None = None,
                 rng: np.random.Generator | None = None,
                 fast_path: bool = True,
                 energy: EnergyModel | None = None,
                 lifetime: LifetimeConfig | None = None,
                 fault_map: FaultMap | None = None,
                 spares: int | str = "auto",
                 tenant: str | None = None):
        self.config = config or AcceleratorConfig()
        self.macro = macro or MacroGeometry(self.config.tile_rows,
                                            self.config.tile_cols)
        self.rng = rng or np.random.default_rng(self.config.seed)
        self.fast_path = fast_path
        self.energy = energy or EnergyModel()
        self.lifetime = lifetime
        self.fault_map = fault_map
        self.spares = spares
        #: Model name stamped on every placement this backend prepares —
        #: multi-tenant deploys label each tenant's layers so merged
        #: floorplans report per-tenant occupancy.
        self.tenant = tenant
        self.placements: list[LayerPlacement] = []
        self._macro_offset = 0

    def begin_plan(self) -> None:
        self.placements = []
        self._macro_offset = 0

    def _controller(self, kind: str, weight_bits) -> ShardedController:
        count = sum(1 for p in self.placements if p.name.startswith(kind))
        name = f"{kind}{count + 1}"
        placement = LayerPlacement(name, weight_bits.shape[0],
                                   weight_bits.shape[1], self.macro,
                                   tenant=self.tenant)
        layer_index = len(self.placements)
        # The fault map's dead-macro indices are chip-global: rebase them
        # onto this layer's shard map (macros are assigned to layers in
        # plan order, matching the floorplan's macro count walk).
        local_map = self.fault_map
        if local_map is not None:
            local_map = local_map.rebased(placement.n_macros,
                                          self._macro_offset)
        self._macro_offset += placement.n_macros
        controller = ShardedController(weight_bits, placement, self.config,
                                       self.rng, self.fast_path,
                                       lifetime=self.lifetime,
                                       fault_map=local_map,
                                       fault_key=(layer_index,),
                                       spares=self.spares)
        self.placements.append(placement)
        return controller

    def floorplan(self) -> ChipFloorplan:
        """The aggregate chip plan of the most recent compile (placements
        reset at each ``begin_plan``)."""
        if not self.placements:
            raise ValueError("no layers prepared yet; compile a model "
                             "with this backend first")
        return ChipFloorplan(list(self.placements), self.energy)

    def __repr__(self) -> str:
        extras = ""
        if self.lifetime is not None and self.lifetime.active:
            extras += f", lifetime={self.lifetime.hours:g}h"
        if self.fault_map is not None and not self.fault_map.empty:
            extras += ", faults"
        return (f"ShardedRRAMBackend(macro={self.macro.rows}x"
                f"{self.macro.cols}, layers={len(self.placements)}, "
                f"fast_path={self.fast_path!r}{extras})")


_BACKENDS: dict[str, Callable[[], Backend]] = {
    ReferenceBackend.name: ReferenceBackend,
    PackedBackend.name: PackedBackend,
    RRAMBackend.name: RRAMBackend,
    ShardedRRAMBackend.name: ShardedRRAMBackend,
}


def register_backend(name: str, factory: Callable[[], Backend],
                     overwrite: bool = False) -> None:
    """Register a new substrate under ``name``.

    ``factory`` is called with no arguments when the backend is requested
    by name; pass configured instances to :func:`resolve_backend` directly
    when construction needs parameters.  Re-registering an existing name
    raises unless ``overwrite=True`` — silently shadowing a substrate
    (including the built-ins) is almost always a bug in plug-in code.
    """
    if not callable(factory):
        raise TypeError("factory must be callable")
    if name in _BACKENDS and not overwrite:
        raise ValueError(
            f"backend {name!r} is already registered; pass overwrite=True "
            "to replace it")
    _BACKENDS[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names currently registered, in registration order."""
    return tuple(_BACKENDS)


def resolve_backend(spec) -> Backend:
    """Accept a backend name or an already-built :class:`Backend`."""
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        try:
            return _BACKENDS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; registered: "
                f"{', '.join(_BACKENDS)}") from None
    raise TypeError(f"backend must be a name or Backend, got {type(spec)}")
