"""In-memory BNN inference architecture (paper Fig. 5).

The Fig. 5 block implements a fully connected BNN layer with minimal data
movement: trained weights are programmed once into 2T2R arrays by a memory
controller; at inference the input data controller broadcasts activation
bits onto the XNOR inputs of the sense amplifiers, word lines are scanned,
and shared popcount logic accumulates the per-neuron counts, which threshold
units compare to the folded batch-norm thresholds (Eq. 3).

This module provides that architecture end to end:

* :class:`MemoryController` — tiles an arbitrary weight-bit matrix over
  kilobit :class:`~repro.rram.array.RRAMArray` macros and programs them;
* :class:`ShardedController` — the multi-chip variant: executes a
  floorplan shard map (:meth:`~repro.rram.floorplan.LayerPlacement.
  shards`) as one fixed-geometry macro chip per shard, with fan-in
  slicing, per-chip partial popcounts and a digital reduction stage;
* :class:`InMemoryDenseLayer` / :class:`InMemoryOutputLayer` — noisy
  hardware execution of hidden (sign) and output (argmax) binary dense
  layers (the ``rram`` backend's executors on the physical read path:
  deploy a trained model with :func:`repro.runtime.compile`);
* :func:`classifier_input_bits` — the digital front-end that turns real
  feature vectors into the activation bits fed to the first binary layer.

All device and sense non-idealities live in the array model.  A
noise-free controller builds none: it exposes the ``effective_bits`` it
would sense, which the backends run on the packed executors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.nn.binary import (FoldedBinaryDense, FoldedOutputDense,
                             threshold_bits, to_bits)
from repro.rram.array import RRAMArray
from repro.rram.device import DeviceParameters
from repro.rram.faults import FaultMap
from repro.rram.floorplan import LayerPlacement, MacroGeometry
from repro.rram.mc import READ_CHUNK_ELEMS, shard_streams
from repro.rram.reliability import LifetimeConfig
from repro.rram.sense import SenseParameters
from repro.tensor import Tensor, no_grad

__all__ = ["AcceleratorConfig", "MemoryController", "ShardedController",
           "InMemoryDenseLayer", "InMemoryOutputLayer",
           "classifier_input_bits"]


@dataclass
class AcceleratorConfig:
    """Hardware build parameters.

    ``tile_rows`` x ``tile_cols`` matches the paper's 1K-synapse macro.
    Setting ``ideal=True`` zeroes all variability (fresh devices, no sense
    offset), producing bit-exact digital behaviour — used to verify Eq. 3
    equivalence.
    """

    tile_rows: int = 32
    tile_cols: int = 32
    device: DeviceParameters = field(default_factory=DeviceParameters)
    sense: SenseParameters = field(default_factory=SenseParameters)
    seed: int = 0
    ideal: bool = False

    def resolved(self) -> "AcceleratorConfig":
        if not self.ideal:
            return self
        device = DeviceParameters(
            median_lrs=self.device.median_lrs,
            median_hrs=self.device.median_hrs,
            sigma_lrs0=0.0, sigma_hrs0=0.0, broadening=0.0, hrs_drift=0.0,
            device_mismatch=1.0)
        sense = SenseParameters(offset_sigma=0.0,
                                energy_fj=self.sense.energy_fj)
        return AcceleratorConfig(self.tile_rows, self.tile_cols, device,
                                 sense, self.seed, ideal=False)


def _noise_free(config: AcceleratorConfig) -> bool:
    """True when every read is deterministic: no device variability, no
    HRS drift with wear, no sense-amplifier offset, and a correctly ordered
    resistance window.  Under these conditions the sensed weight equals
    the programmed bit for every cell, always."""
    device, sense = config.device, config.sense
    return (device.sigma_lrs0 == 0.0 and device.sigma_hrs0 == 0.0
            and device.hrs_drift == 0.0 and sense.offset_sigma == 0.0
            and device.median_hrs > device.median_lrs)


def _resolve_fast_path(fast_path: bool, config: AcceleratorConfig,
                       lifetime: LifetimeConfig | None) -> bool:
    """Validate a controller's ``fast_path`` request and resolve it.

    ``True`` takes the packed path exactly when reads are deterministic
    (noise-free configuration, no retention aging); ``False`` always
    simulates devices.
    """
    if not isinstance(fast_path, bool):
        raise ValueError(f"fast_path must be True or False, "
                         f"got {fast_path!r}")
    return fast_path and _noise_free(config) and lifetime is None


def _single_batch(x_bits: np.ndarray, ndim: int) -> np.ndarray:
    """Check the rank of a single-read batch before it runs as a
    one-trial scan, so a ``(1, N, ...)`` stack is refused instead of
    being read as one trial's activations."""
    x_bits = np.asarray(x_bits, dtype=np.uint8)
    if x_bits.ndim != ndim:
        raise ValueError(
            f"expected a {ndim}-D batch, got input shape {x_bits.shape}")
    return x_bits


def _validate_trial_input(x_bits: np.ndarray, n_trials: int,
                          in_features: int) -> bool:
    """Check a trial-batched activation stack; returns ``shared``.

    ``x_bits`` is either a shared ``(N, in_features)`` batch or a
    per-trial ``(n_trials, N, in_features)`` stack.  Both controller
    flavours accept exactly these shapes, through this one check.
    """
    shared = x_bits.ndim == 2
    if (shared and x_bits.shape[1] != in_features) or \
            (not shared and (x_bits.ndim != 3
                             or x_bits.shape[0] != n_trials
                             or x_bits.shape[2] != in_features)):
        raise ValueError(
            f"input shape {x_bits.shape} != (N, {in_features}) "
            f"or ({n_trials}, N, {in_features})")
    return shared


def _refuse_deterministic(controller) -> None:
    """A deterministic controller has no device state to read: refuse
    before any meter moves."""
    if controller.fast_path:
        raise ValueError(
            f"{type(controller).__name__} is deterministic and holds no "
            "device state to read; run its effective_bits on the packed "
            "executors, or build it with fast_path=False for physical "
            "reads")


class MemoryController:
    """Programs a weight-bit matrix across a grid of RRAM tiles.

    The matrix is laid out row = output neuron, column = input; tiles pad
    the ragged edges, and padded columns are masked out of the popcount so
    they never contribute.

    ``fast_path`` decides at program time whether device state is
    built:

    * **deterministic** (``fast_path=True``, the default, on a noise-free
      configuration with no retention aging): every read would return
      the stored bits, so no tile is built.  The backends run
      ``effective_bits`` (stuck cells applied) on the packed executors
      and account the reads with :meth:`meter_reads`; direct reads
      refuse;
    * **noisy** (the physical read): tiles are programmed as
      :class:`~repro.rram.array.RRAMArray` macros, their differential
      sense margins are stacked into one ``(out, in)`` matrix, and a scan
      draws fresh per-read offsets for one block of batch rows at a time
      and reduces over every tile in a single vectorized pass (no
      per-tile Python loop).  Trials run one after another through the
      same scratch: one float64 offset buffer and one bool buffer of at
      most ``read_chunk_elems`` elements, filled in place, so a scan's
      memory does not grow with the trial count.

    Thread reentrancy: the meters take ``_meter_lock``, so concurrent
    :meth:`meter_reads` calls from deterministic layers keep the counters
    exact (the serving daemon relies on this; pinned by
    ``tests/rram/test_thread_reentrancy.py``).  The noisy scan is
    single-caller by contract: each scan consumes the controller's
    ``self.rng`` stream, so concurrent noisy reads would interleave
    draws nondeterministically — callers that need noisy concurrency
    pass explicit per-trial ``rng`` streams (the MC engine) or serialize.
    """

    read_chunk_elems = READ_CHUNK_ELEMS   # one trial's offset scratch

    def __init__(self, weight_bits: np.ndarray,
                 config: AcceleratorConfig | None = None,
                 rng: np.random.Generator | None = None,
                 fast_path: bool = True,
                 lifetime: LifetimeConfig | None = None,
                 fault_map: FaultMap | None = None,
                 fault_key: int | tuple[int, ...] = ()):
        config = (config or AcceleratorConfig()).resolved()
        self.config = config
        self.rng = rng or np.random.default_rng(config.seed)
        weight_bits = np.asarray(weight_bits, dtype=np.uint8)
        if weight_bits.ndim != 2:
            raise ValueError(f"weight bits must be 2-D, got {weight_bits.shape}")
        self.out_features, self.in_features = weight_bits.shape
        tr, tc = config.tile_rows, config.tile_cols
        self.grid_rows = -(-self.out_features // tr)
        self.grid_cols = -(-self.in_features // tc)
        # Valid-column count per tile column block (for popcount masking).
        self._valid_cols = [min(tc, self.in_features - j * tc)
                            for j in range(self.grid_cols)]
        self.popcount_bit_ops = 0
        self._extra_sense_ops = 0
        # Concurrent deterministic reads mutate only the meters.
        self._meter_lock = threading.Lock()

        # Lifetime and fault state: inactive configurations normalize to
        # None so the constructor (and every read) is byte-identical to
        # the pre-fault-layer behaviour — no extra draws, no extra state.
        if lifetime is not None and not lifetime.active:
            lifetime = None
        self.lifetime = lifetime
        if fault_map is not None and not fault_map.has_cell_faults:
            fault_map = None
        self.fault_map = fault_map
        self.fault_key = (int(fault_key),) if isinstance(fault_key, int) \
            else tuple(int(k) for k in fault_key)

        self.fast_path = _resolve_fast_path(fast_path, config, lifetime)

        # Stuck-at faults are keyed, not streamed: drawing them consumes
        # the map's own site stream, never the program generator.
        stuck_one = stuck_zero = None
        if fault_map is not None:
            stuck_one, stuck_zero = fault_map.cell_masks(
                weight_bits.shape, self.fault_key)
        self.n_stuck_cells = 0 if stuck_one is None \
            else int(stuck_one.sum() + stuck_zero.sum())

        self.tiles: list[list[RRAMArray]] = []
        self._margins: np.ndarray | None = None
        #: ``(out, in)`` bits a deterministic read senses, else None.
        self.effective_bits: np.ndarray | None = None
        if self.fast_path:
            # Deterministic reads: the stored bits are all that matters,
            # so skip device state.  Stuck cells read their stuck value,
            # so they fold into the effective bits here (faults are
            # hard, hence deterministic).
            effective = np.array(weight_bits, copy=True)
            if stuck_one is not None:
                effective[stuck_one] = 1
                effective[stuck_zero] = 0
            self.effective_bits = effective
            return
        padded = np.zeros((self.grid_rows * tr, self.grid_cols * tc),
                          dtype=np.uint8)
        padded[:self.out_features, :self.in_features] = weight_bits
        pad_one = pad_zero = None
        if stuck_one is not None:
            pad_one = np.zeros(padded.shape, dtype=bool)
            pad_zero = np.zeros(padded.shape, dtype=bool)
            pad_one[:self.out_features, :self.in_features] = stuck_one
            pad_zero[:self.out_features, :self.in_features] = stuck_zero
        for i in range(self.grid_rows):
            row_tiles = []
            for j in range(self.grid_cols):
                tile = RRAMArray(tr, tc, params=config.device,
                                 sense=config.sense, rng=self.rng)
                tile.program(padded[i * tr:(i + 1) * tr,
                                    j * tc:(j + 1) * tc])
                if pad_one is not None:
                    tile.inject_stuck(
                        pad_one[i * tr:(i + 1) * tr, j * tc:(j + 1) * tc],
                        pad_zero[i * tr:(i + 1) * tr, j * tc:(j + 1) * tc])
                row_tiles.append(tile)
            self.tiles.append(row_tiles)
        if lifetime is not None:
            # Aging is a *program-time* transformation of device state:
            # drift draws come from the root generator (tiles in row-major
            # order, after all programming), so read-time trial streams
            # stay untouched and batched == serial is preserved verbatim.
            bake = lifetime.bake_hours()
            for row_tiles in self.tiles:
                for tile in row_tiles:
                    tile.age(bake, lifetime.retention, self.rng)

    @property
    def n_tiles(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def n_devices(self) -> int:
        per_cell = 2   # 2T2R
        return self.n_tiles * self.config.tile_rows * self.config.tile_cols \
            * per_cell

    @property
    def sense_ops(self) -> int:
        return sum(t.sense_ops for row in self.tiles for t in row) \
            + self._extra_sense_ops

    def wear(self, cycles: int) -> None:
        """Age every device (endurance studies on deployed weights).

        A no-op on a deterministic controller: wear only manifests
        through the variability parameters, which a noise-free
        configuration zeroes.
        """
        for row in self.tiles:
            for tile in row:
                tile.wear(cycles)

    def reprogram(self) -> None:
        """Re-program stored weights (refresh); re-draws all resistances.

        A refresh writes fresh filaments, so retention aging restarts
        from zero; stuck-at defects persist (they are not healed by
        programming).
        """
        for row in self.tiles:
            for tile in row:
                tile.program(tile.weight_bits)
        self._margins = None

    def _stacked_margins(self) -> np.ndarray:
        """Tile sense margins as one ``(out_padded, in_features)`` matrix.

        Assembled lazily from the tile grid and cached until the next
        reprogram (margins are fixed by the programmed resistances; only
        per-read offsets vary).  Padded columns are dropped here, which is
        what masks them out of every popcount.  The meter lock guards the
        lazy build so a concurrent first read never sees a half-filled
        cache (the noisy *scan* itself is still single-caller: it
        consumes ``self.rng``, see :meth:`popcounts`).
        """
        with self._meter_lock:
            return self._stacked_margins_locked()

    def _stacked_margins_locked(self) -> np.ndarray:
        if self._margins is None:
            tr, tc = self.config.tile_rows, self.config.tile_cols
            full = np.empty((self.grid_rows * tr, self.grid_cols * tc))
            for i, row_tiles in enumerate(self.tiles):
                for j, tile in enumerate(row_tiles):
                    full[i * tr:(i + 1) * tr, j * tc:(j + 1) * tc] = \
                        tile._sense_margin()
            valid = np.concatenate(
                [np.arange(j * tc, j * tc + self._valid_cols[j])
                 for j in range(self.grid_cols)])
            self._margins = np.ascontiguousarray(full[:, valid])
        return self._margins

    def popcounts(self, x_bits: np.ndarray,
                  rng: np.random.Generator | None = None,
                  sense: SenseParameters | None = None) -> np.ndarray:
        """XNOR-popcount of a batch against every stored row.

        ``x_bits``: ``(N, in_features)``; returns ``(N, out_features)``
        integer popcounts.  A single scan is a one-trial
        :meth:`popcounts_trials` scan reading from ``rng`` (the
        controller's generator by default) — the Monte-Carlo per-trial
        stream hook.  ``sense`` overrides the sense parameters (margins
        never depend on them, so a cached programmed controller can be
        read at any offset sigma).
        """
        return self.popcounts_trials(_single_batch(x_bits, 2),
                                     [rng or self.rng], sense=sense)[0]

    def meter_reads(self, n: int, trials: int) -> None:
        """Account ``trials`` scans of an ``n``-row batch on the
        popcount/sense-op meters: every scan senses the full padded tile
        grid and counts every stored row's fan-in.

        Locked: ``+=`` on a Python int is read-modify-write, so two
        threads reading one deterministic layer concurrently (the
        serving daemon's transport thread racing its executor) would
        otherwise drop counts."""
        tr, tc = self.config.tile_rows, self.config.tile_cols
        out_p = self.grid_rows * tr
        with self._meter_lock:
            self.popcount_bit_ops += trials * n * out_p * self.in_features
            self._extra_sense_ops += trials * n * out_p \
                * self.grid_cols * tc

    def __getstate__(self):
        """Process-pool workers rebuild controllers rather than shipping
        them, but keep pickling possible: drop the (unpicklable) meter
        lock and restore a fresh one on load."""
        state = self.__dict__.copy()
        del state["_meter_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._meter_lock = threading.Lock()

    def popcounts_trials(self, x_bits: np.ndarray, rngs,
                         sense: SenseParameters | None = None) -> np.ndarray:
        """Trial-batched XNOR-popcounts: ``T`` noisy scans in one call.

        ``x_bits`` is either a shared ``(N, in_features)`` batch (every
        trial sees the same activations — the Monte-Carlo case) or a
        per-trial ``(T, N, in_features)`` stack (mid-network, where
        earlier noisy layers already diverged the trials).  ``rngs`` holds
        one generator per trial (:func:`repro.rram.mc.trial_streams`);
        returns ``(T, N, out_features)`` counts.

        This is the controller's only scan (:meth:`popcounts` is a
        one-trial call).  Trial ``t`` draws every offset from ``rngs[t]``
        alone, rows in order, so the result is bit-identical to
        ``[popcounts(x[t], rng=rngs[t]) for t in range(T)]`` (numpy
        normal draws are split-stable; see :mod:`repro.rram.mc`).

        The noisy scan runs in place: each block of rows draws its
        offsets into one reused float64 buffer of at most
        ``read_chunk_elems`` elements, compares them against the negated
        margins into one reused bool buffer, XNORs the inputs into the
        same buffer and counts agreements.  ``offset > -margin`` decides
        exactly like ``margin + offset > 0``, because rounding a
        two-term sum keeps its sign (also for infinite margins).  Every
        trial reuses the same scratch, so memory does not grow with
        ``T``.
        """
        _refuse_deterministic(self)
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        n_trials = len(rngs)
        shared = _validate_trial_input(x_bits, n_trials, self.in_features)
        n = x_bits.shape[0] if shared else x_bits.shape[1]
        self.meter_reads(n, trials=n_trials)
        margins = self._stacked_margins()
        neg_margins = np.negative(margins)
        x_bool = x_bits.astype(bool)
        counts = np.empty((n_trials, n, len(margins)), dtype=np.int64)
        sense = sense or self.config.sense
        chunk = max(1, min(n, self.read_chunk_elems // max(1, margins.size)))
        offsets = np.empty((chunk,) + margins.shape)
        hit = np.empty(offsets.shape, dtype=bool)
        for t, rng in enumerate(rngs):
            xt = x_bool if shared else x_bool[t]
            for start in range(0, n, chunk):
                rows = min(chunk, n - start)
                block = sense.offset(rng, (rows,) + margins.shape,
                                     out=offsets[:rows])
                read = np.greater(block, neg_margins, out=hit[:rows])
                np.equal(read, xt[start:start + rows, None, :], out=read)
                counts[t, start:start + rows] = np.count_nonzero(read,
                                                                 axis=2)
        return counts[:, :, :self.out_features]


class ShardedController:
    """One folded layer split across a grid of simulated macro *chips*.

    Where :class:`MemoryController` simulates a layer as one monolithic
    array (tiling internally but sensing and reducing as a single device),
    this controller executes the layer's
    :meth:`~repro.rram.floorplan.LayerPlacement.shards` map: every
    :class:`~repro.rram.floorplan.MacroShard` becomes its own fixed-
    geometry chip — a single-macro :class:`MemoryController` holding the
    shard's row/column slice of the weight matrix, padded to the macro
    geometry exactly like a real partially-filled edge macro.

    The dataflow is shard-and-reduce:

    * **fan-in sharding**: the activation bits are sliced per shard
      column range; each chip XNOR-scans its word lines against its slice
      and emits *partial popcounts* over its own fan-in columns;
    * **reduction**: partial popcounts of the shards in one fan-out
      stripe are summed digitally (the inter-chip accumulator); stripes
      are concatenated for wide layers (fan-out sharding).  The caller
      applies the integer threshold once, on the reduced counts — so on
      noise-free configurations the result is bit-identical to the
      monolithic controller (popcounts decompose exactly over column
      slices).

    Randomness follows the sharded stream contract of
    :func:`repro.rram.mc.shard_streams`: programming spawns one child of
    the root generator per shard (chips have independent devices), and
    every noisy scan spawns one child per shard from the read stream —
    per-trial, per-shard independent sense noise, chunk-invariant and
    bit-identical between trial-batched and serial per-trial execution.

    Noise-free configurations build no device state, like the
    monolithic controller: a deterministic chip senses exactly its
    effective bits (stored bits with its stuck cells overridden; a
    remapped shard's spare chip is healthy), and partial popcounts
    decompose exactly over the shard map, so the layer's
    ``effective_bits`` are the chips' stitched once at construction, and
    :meth:`meter_reads` accounts every chip's scans.  The noisy path
    always scans shard by shard (the RNG stream contract requires
    per-chip draws).

    The same read API as :class:`MemoryController` (``popcounts`` /
    ``popcounts_trials`` / ``effective_bits`` / meters), so the
    in-memory layer classes accept either via their ``controller``
    parameter.
    """

    def __init__(self, weight_bits: np.ndarray,
                 placement: LayerPlacement | None = None,
                 config: AcceleratorConfig | None = None,
                 rng: np.random.Generator | None = None,
                 fast_path: bool = True,
                 macro: MacroGeometry | None = None,
                 name: str = "layer",
                 lifetime: LifetimeConfig | None = None,
                 fault_map: FaultMap | None = None,
                 fault_key: int | tuple[int, ...] = (),
                 spares: int | str = "auto"):
        config = (config or AcceleratorConfig()).resolved()
        self.config = config
        self.rng = rng or np.random.default_rng(config.seed)
        weight_bits = np.asarray(weight_bits, dtype=np.uint8)
        if weight_bits.ndim != 2:
            raise ValueError(
                f"weight bits must be 2-D, got {weight_bits.shape}")
        self.out_features, self.in_features = weight_bits.shape
        if placement is None:
            macro = macro or MacroGeometry(config.tile_rows, config.tile_cols)
            placement = LayerPlacement(name, self.out_features,
                                       self.in_features, macro)
        if (placement.out_features, placement.in_features) \
                != weight_bits.shape:
            raise ValueError(
                f"placement {placement.name!r} is for "
                f"({placement.out_features}, {placement.in_features}) "
                f"weights, got {weight_bits.shape}")
        self.placement = placement
        self.macro = placement.macro
        self.shard_map = placement.shards()
        self.lifetime = lifetime if lifetime is not None \
            and lifetime.active else None
        self.fault_map = fault_map
        fault_key = (int(fault_key),) if isinstance(fault_key, int) \
            else tuple(int(k) for k in fault_key)
        self.fault_key = fault_key

        # Dead macros -> spare remap.  A dead shard's weights are
        # programmed onto a provisioned spare chip instead: the spare is
        # a healthy macro (no cell faults), holding exactly the slice the
        # dead chip would have, so the reduction is unchanged and the
        # layer *completes* instead of raising.
        dead = () if fault_map is None else \
            fault_map.dead_local(len(self.shard_map))
        if fault_map is not None and any(
                m >= len(self.shard_map) for m in fault_map.dead_macros):
            raise ValueError(
                f"dead macro indices {fault_map.dead_macros} exceed the "
                f"{len(self.shard_map)}-shard map of layer "
                f"{placement.name!r}; rebase a chip-global map with "
                "FaultMap.rebased() first")
        if spares == "auto":
            provisioned = max(len(dead),
                              -(-len(self.shard_map) // 20)) if dead else 0
        elif isinstance(spares, int) and spares >= 0:
            provisioned = spares
        else:
            raise ValueError(f"spares must be 'auto' or an int >= 0, "
                             f"got {spares!r}")
        if len(dead) > provisioned:
            raise RuntimeError(
                f"layer {placement.name!r}: {len(dead)} dead macro(s) "
                f"{tuple(dead)} but only {provisioned} spare(s) "
                "provisioned; increase spares= (or use spares='auto')")
        self.remapped_shards = list(dead)
        self.spare_macros = provisioned
        placement.spare_macros = provisioned
        placement.remapped = tuple(dead)

        # Every chip is a full macro: tail shards pad to the fixed
        # geometry, exactly like the floorplan provisions them.
        shard_config = replace(config, tile_rows=self.macro.rows,
                               tile_cols=self.macro.cols)
        program_streams = self.rng.spawn(len(self.shard_map))
        dead_set = set(dead)
        cell_faults = fault_map if fault_map is not None \
            and fault_map.has_cell_faults else None
        self.shards = [
            MemoryController(
                weight_bits[s.row_start:s.row_stop,
                            s.col_start:s.col_stop],
                shard_config, program_streams[s.index], fast_path,
                lifetime=lifetime,
                # A remapped shard lives on a spare: a healthy chip
                # (the dead chip's cell faults died with it).
                fault_map=None if s.index in dead_set else cell_faults,
                fault_key=fault_key + (s.index,))
            for s in self.shard_map]
        self.fast_path = self.shards[0].fast_path
        self.effective_bits = None
        if self.fast_path:
            # Each chip already folded its stuck cells into its effective
            # bits (a remapped shard's spare has none): stitch them into
            # the layer's.
            self.effective_bits = np.empty_like(weight_bits)
            for s, shard in zip(self.shard_map, self.shards):
                self.effective_bits[s.row_start:s.row_stop,
                                    s.col_start:s.col_stop] = \
                    shard.effective_bits

    # -- geometry / meters ----------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_macros(self) -> int:
        return len(self.shards)

    @property
    def degraded(self) -> bool:
        """True when dead macros forced shards onto spares."""
        return bool(self.remapped_shards)

    @property
    def n_devices(self) -> int:
        return sum(shard.n_devices for shard in self.shards)

    @property
    def sense_ops(self) -> int:
        return sum(shard.sense_ops for shard in self.shards)

    @property
    def popcount_bit_ops(self) -> int:
        return sum(shard.popcount_bit_ops for shard in self.shards)

    def wear(self, cycles: int) -> None:
        """Age every chip's devices (endurance studies)."""
        for shard in self.shards:
            shard.wear(cycles)

    def reprogram(self) -> None:
        """Refresh every chip (re-draws all shard resistances)."""
        for shard in self.shards:
            shard.reprogram()

    # -- reads -----------------------------------------------------------
    def meter_reads(self, n: int, trials: int) -> None:
        """Account ``trials`` scans of an ``n``-row batch on every chip's
        meters — what ``trials`` per-shard physical scans record (each
        chip senses its full macro per scan)."""
        for shard in self.shards:
            shard.meter_reads(n, trials)

    def popcounts(self, x_bits: np.ndarray,
                  rng: np.random.Generator | None = None,
                  sense: SenseParameters | None = None) -> np.ndarray:
        """Shard-and-reduce XNOR-popcount of a batch: ``(N, in)`` bits in,
        ``(N, out_features)`` reduced counts out.

        A one-trial :meth:`popcounts_trials` scan reading from ``rng``
        (the controller's root generator by default): each shard scans
        its fan-in slice with its own spawned child of that stream, and
        partial popcounts are summed per fan-out stripe.
        """
        return self.popcounts_trials(_single_batch(x_bits, 2),
                                     [rng or self.rng], sense=sense)[0]

    def popcounts_trials(self, x_bits: np.ndarray, rngs,
                         sense: SenseParameters | None = None) -> np.ndarray:
        """Trial-batched shard-and-reduce: ``(T, N, out_features)`` counts.

        Shard ``s`` of trial ``t`` draws from child ``(t, s)`` of the
        trial streams (:func:`repro.rram.mc.shard_streams`), so the stack
        is bit-identical to ``[popcounts(x[t], rng=rngs[t]) for t in
        range(T)]`` — this is the controller's only scan, and a single
        read is a one-trial call.
        """
        _refuse_deterministic(self)
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        n_trials = len(rngs)
        shared = _validate_trial_input(x_bits, n_trials, self.in_features)
        n = x_bits.shape[0] if shared else x_bits.shape[1]
        streams = shard_streams(rngs, self.n_shards)
        counts = np.zeros((n_trials, n, self.out_features), dtype=np.int64)
        for spec, shard, shard_rngs in zip(self.shard_map, self.shards,
                                           streams):
            xs = x_bits[:, spec.col_start:spec.col_stop] if shared \
                else x_bits[:, :, spec.col_start:spec.col_stop]
            counts[:, :, spec.row_start:spec.row_stop] += \
                shard.popcounts_trials(xs, shard_rngs, sense=sense)
        return counts

    def __repr__(self) -> str:
        rows, cols = self.placement.tile_grid
        degraded = f", remapped={tuple(self.remapped_shards)}" \
            if self.degraded else ""
        return (f"ShardedController({self.out_features}x{self.in_features} "
                f"on {rows}x{cols} macros of "
                f"{self.macro.rows}x{self.macro.cols}, "
                f"fast_path={self.fast_path}{degraded})")


class InMemoryDenseLayer:
    """A hidden binary dense layer read from noisy RRAM tiles.

    Thresholding implements ``sign(BN(.))`` folded per Eq. 3; output is the
    next layer's activation bits.  ``controller`` holds the weights on
    noisy devices (a :class:`MemoryController`, :class:`ShardedController`
    or ECC controller); the ``rram`` and ``sharded`` backends build it.
    """

    def __init__(self, folded: FoldedBinaryDense, controller):
        self.folded = folded
        self.controller = controller

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """One read from the controller's own stream: ``(N, in)`` bits
        in, ``(N, out)`` bits out — a one-trial
        :meth:`forward_bits_trials` call."""
        return self.forward_bits_trials(
            _single_batch(x_bits, 2), [self.controller.rng])[0]

    def forward_bits_trials(self, x_bits: np.ndarray, rngs,
                            sense: SenseParameters | None = None
                            ) -> np.ndarray:
        """Trial-batched forward: ``(N, in)`` or ``(T, N, in)`` bits in,
        ``(T, N, out)`` bits out; trial ``t`` reads with ``rngs[t]``."""
        pc = self.controller.popcounts_trials(x_bits, rngs, sense=sense)
        f = self.folded
        dot = 2 * pc - f.in_features
        return threshold_bits(dot, f.theta[None, :], f.gamma_sign[None, :],
                              f.beta_sign[None, :])


class InMemoryOutputLayer:
    """The final binary dense layer: popcount in noisy memory, affine +
    argmax in the shared digital logic (no sign follows the last layer)."""

    def __init__(self, folded: FoldedOutputDense, controller):
        self.folded = folded
        self.controller = controller

    def forward_scores(self, x_bits: np.ndarray) -> np.ndarray:
        """One read from the controller's own stream: ``(N, classes)``
        scores — a one-trial :meth:`forward_scores_trials` call."""
        return self.forward_scores_trials(
            _single_batch(x_bits, 2), [self.controller.rng])[0]

    def forward_scores_trials(self, x_bits: np.ndarray, rngs,
                              sense: SenseParameters | None = None
                              ) -> np.ndarray:
        """Trial-batched scores: ``(T, N, classes)``; trial ``t`` reads
        with ``rngs[t]``."""
        pc = self.controller.popcounts_trials(x_bits, rngs, sense=sense)
        dot = 2 * pc - self.folded.in_features
        return dot * self.folded.scale[None, :] + self.folded.offset[None, :]


def classifier_input_bits(model, inputs: np.ndarray) -> np.ndarray:
    """Digital front-end: run the feature extractor and binarize.

    Returns the activation bits that the input data controller of Fig. 5
    streams into the first in-memory layer.  The model must be in eval mode
    with fitted batch-norm statistics.
    """
    with no_grad():
        feats = model.features(Tensor(np.asarray(inputs)))
        pre = model.pre_classifier(feats)
    return to_bits(pre.data)
