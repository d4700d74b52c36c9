"""Noise-free in-memory layers run the packed executors, metered.

A noise-free chip senses exactly its effective bits, so the ``rram`` and
``sharded`` backends run a deterministic controller's layer as the
matching ``Packed*`` executor over ``controller.effective_bits``, inside
a :class:`~repro.runtime.backends.MeteredPackedLayer` that records the
reads on the controller.  Contracts under test:

* noise-free configs (bare, ECC and sharded) get the wrapper over the
  matching ``Packed*`` class; noisy configs and ``fast_path=False`` get
  the ``InMemory*Layer``;
* the meters of every layer kind equal the physical read path's, pinned
  on the golden fixtures at batch 37;
* an ECC store's ``sense_ops`` stay at its one program-time fetch, and a
  depthwise convolution reads no controller, so it records nothing.
"""

import pathlib

import numpy as np
import pytest

from repro.io import load_compiled, load_plan
from repro.nn.binary import FoldedBinaryDense, FoldedOutputDense
from repro.nn.bitops import (PackedBinaryConv1d, PackedBinaryConv2d,
                             PackedBinaryDense, PackedOutputDense)
from repro.rram import AcceleratorConfig, InMemoryDenseLayer, \
    InMemoryOutputLayer
from repro.rram.conv import FoldedBinaryConv1d, InMemoryConv1dLayer
from repro.rram.conv2d import FoldedBinaryConv2d, InMemoryConv2dLayer
from repro.runtime import RRAMBackend, ShardedRRAMBackend, resolve_backend
from repro.runtime.backends import MeteredPackedLayer

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "plans"
IDEAL = AcceleratorConfig(ideal=True)

#: (sense ops, popcount bit ops) per layer after one batch-37 call, as
#: the physical read path records them.
METERS = {
    "eeg": [(2_462_720, 2_462_720), (37_888, 14_208), (37_888, 18_944)],
    "ecg": [(6_365_184, 4_376_064), (2_576_384, 1_449_216),
            (1_060_864, 928_256), (909_312, 568_320),
            (113_664, 113_664), (37_888, 18_944)],
}

#: Popcount bit ops per layer of a SECDED plan after one batch-37 call.
ECC_POPCOUNT_OPS = {
    "eeg": [307_840, 7_104, 1_184],
    "ecg": [547_008, 181_152, 116_032, 71_040, 56_832, 1_184],
}


def _meters(plan):
    return [(op.executor.controller.sense_ops,
             op.executor.controller.popcount_bit_ops)
            for op in plan.layer_ops]


def _batch(artifact, n):
    return np.random.default_rng(0).standard_normal(
        (n,) + artifact.input_shape)


def _layers(rng):
    """One folded layer of every kind, with the classes each prepares
    to: ``(prepare hook, folded, Packed* class, InMemory* class)``."""
    bits = lambda *shape: rng.integers(0, 2, shape).astype(np.uint8)
    ones = np.ones(4)
    return {
        "dense": ("prepare_dense",
                  FoldedBinaryDense(bits(4, 20), rng.standard_normal(4),
                                    ones, ones),
                  PackedBinaryDense, InMemoryDenseLayer),
        "output": ("prepare_output",
                   FoldedOutputDense(bits(4, 20), ones, np.zeros(4)),
                   PackedOutputDense, InMemoryOutputLayer),
        "conv1d": ("prepare_conv1d",
                   FoldedBinaryConv1d(bits(4, 3 * 5), 3, 5, 1,
                                      rng.standard_normal(4), ones, ones),
                   PackedBinaryConv1d, InMemoryConv1dLayer),
        "conv2d": ("prepare_conv2d",
                   FoldedBinaryConv2d(bits(4, 3 * 9), 3, (3, 3), (1, 1),
                                      rng.standard_normal(4), ones, ones),
                   PackedBinaryConv2d, InMemoryConv2dLayer),
    }


def _input(kind, rng):
    shape = {"dense": (5, 20), "output": (5, 20), "conv1d": (5, 3, 12),
             "conv2d": (5, 3, 6, 6)}[kind]
    return rng.integers(0, 2, shape).astype(np.uint8)


BACKENDS = {
    "rram": lambda config, fast_path: RRAMBackend(config,
                                                  fast_path=fast_path),
    "secded": lambda config, fast_path: RRAMBackend(
        config, fast_path=fast_path, ecc="secded"),
    "sharded": lambda config, fast_path: ShardedRRAMBackend(
        config, fast_path=fast_path),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kind", ["dense", "output", "conv1d", "conv2d"])
class TestPreparedExecutor:
    def test_noise_free_runs_the_packed_executor(self, backend, kind):
        rng = np.random.default_rng(3)
        hook, folded, packed, _ = _layers(rng)[kind]
        layer = getattr(BACKENDS[backend](IDEAL, True), hook)(folded)
        assert type(layer) is MeteredPackedLayer
        assert type(layer.executor) is packed
        assert layer.controller.fast_path
        x = _input(kind, rng)
        run = "forward_scores" if kind == "output" else "forward_bits"
        assert np.array_equal(getattr(layer, run)(x),
                              getattr(folded, run)(x))

    @pytest.mark.parametrize("config, fast_path",
                             [(AcceleratorConfig(), True), (IDEAL, False)],
                             ids=["noisy", "physical"])
    def test_noisy_or_physical_keeps_the_in_memory_layer(
            self, backend, kind, config, fast_path):
        hook, folded, _, in_memory = _layers(np.random.default_rng(3))[kind]
        layer = getattr(BACKENDS[backend](config, fast_path), hook)(folded)
        assert type(layer) is in_memory
        assert not layer.controller.fast_path


class TestMeterContract:
    @pytest.mark.parametrize("backend", [RRAMBackend, ShardedRRAMBackend])
    @pytest.mark.parametrize("name", sorted(METERS))
    def test_golden_meters_per_layer_kind(self, name, backend):
        artifact = load_plan(FIXTURES / f"{name}_full_binary.npz")
        plan = load_compiled(artifact, backend=backend(IDEAL))
        assert all(type(op.executor) is MeteredPackedLayer
                   for op in plan.layer_ops)
        assert _meters(plan) == [(0, 0)] * len(METERS[name])
        plan.scores(_batch(artifact, 37))
        assert _meters(plan) == METERS[name]

    @pytest.mark.parametrize("backend", [RRAMBackend, ShardedRRAMBackend])
    @pytest.mark.parametrize("name", sorted(METERS))
    def test_meters_equal_the_physical_read(self, name, backend):
        artifact = load_plan(FIXTURES / f"{name}_full_binary.npz")
        fast = load_compiled(artifact, backend=backend(IDEAL))
        physical = load_compiled(artifact,
                                 backend=backend(IDEAL, fast_path=False))
        x = _batch(artifact, 3)
        assert np.array_equal(fast.scores(x), physical.scores(x))
        assert _meters(fast) == _meters(physical)

    @pytest.mark.parametrize("name", sorted(METERS))
    def test_ecc_sense_ops_stay_at_the_stored_size(self, name):
        artifact = load_plan(FIXTURES / f"{name}_full_binary.npz")
        plan = load_compiled(artifact,
                             backend=RRAMBackend(IDEAL, ecc="secded"))
        controllers = [op.executor.controller for op in plan.layer_ops]
        stored = [c.out_features * c.stored_cols for c in controllers]
        assert [c.sense_ops for c in controllers] == stored
        plan.scores(_batch(artifact, 37))
        assert [c.sense_ops for c in controllers] == stored
        assert [c.popcount_bit_ops for c in controllers] \
            == ECC_POPCOUNT_OPS[name]

    @pytest.mark.parametrize("backend", [RRAMBackend, ShardedRRAMBackend])
    def test_depthwise_conv2d_records_no_reads(self, backend):
        rng = np.random.default_rng(5)
        ones = np.ones(3)
        folded = FoldedBinaryConv2d(
            rng.integers(0, 2, (3, 9)).astype(np.uint8), 3, (3, 3), (1, 1),
            rng.standard_normal(3), ones, ones, depthwise=True)
        layer = backend(IDEAL).prepare_conv2d(folded)
        assert type(layer) is MeteredPackedLayer
        x = rng.integers(0, 2, (4, 3, 6, 6)).astype(np.uint8)
        assert np.array_equal(layer.forward_bits(x), folded.forward_bits(x))
        assert (layer.controller.sense_ops,
                layer.controller.popcount_bit_ops) == (0, 0)


@pytest.mark.parametrize("backend", ["packed", "rram", "sharded"])
@pytest.mark.parametrize("kind", ["dense", "output"])
def test_dense_layers_refuse_a_batch_of_the_wrong_width(backend, kind):
    """21 bits pack into the same single word as the layer's 20: the
    batch is refused like the folded layer refuses it, never scored, and
    a metered layer's meters stay where they were."""
    hook, folded, packed, _ = _layers(np.random.default_rng(3))[kind]
    if backend == "packed":
        layer = getattr(resolve_backend("packed"), hook)(folded)
        assert type(layer) is packed
    else:
        layer = getattr(BACKENDS[backend](IDEAL, True), hook)(folded)
        assert type(layer) is MeteredPackedLayer
        meters = (layer.controller.sense_ops,
                  layer.controller.popcount_bit_ops)
    x = np.random.default_rng(4).integers(0, 2, (3, 21)).astype(np.uint8)
    run = "forward_scores" if kind == "output" else "forward_bits"
    with pytest.raises(ValueError, match="bit-width mismatch"):
        getattr(folded, run)(x)
    with pytest.raises(ValueError, match="bit-width mismatch"):
        getattr(layer, run)(x)
    if backend != "packed":
        assert (layer.controller.sense_ops,
                layer.controller.popcount_bit_ops) == meters
