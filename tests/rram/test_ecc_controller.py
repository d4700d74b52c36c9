"""ECC-protected weight storage (repro.rram.ecc.EccMemoryController).

The executable form of the digital alternative the paper argues against:
weights stored as SECDED codewords on real simulated devices, fetched
through the decoder once per scan. Contracts under test:

* noise-free, fault-free stores are bit-identical to the bare
  MemoryController (the code is systematic — data bits round-trip), and
  a deterministic store's decoded ``effective_bits`` run on the packed
  executors;
* sparse stuck-at faults are fully corrected where bare storage shows
  count errors, and the correction meters record the work;
* the trial-stream contract holds on the noisy path (batched == serial);
* geometry/metering: redundancy, stored columns and device counts follow
  the (n, k) code.
"""

import numpy as np
import pytest

from repro.nn.binary import FoldedOutputDense, xnor_popcount
from repro.rram import (AcceleratorConfig, EccMemoryController, FaultMap,
                        HammingCode, LifetimeConfig, MemoryController,
                        trial_streams)
from repro.runtime import RRAMBackend, plan_from_folded


@pytest.fixture
def weights(rng):
    return rng.integers(0, 2, (16, 130)).astype(np.uint8)


@pytest.fixture
def x_bits(rng):
    return rng.integers(0, 2, (6, 130)).astype(np.uint8)


class TestGeometry:
    def test_stored_columns_and_redundancy(self, weights):
        ecc = EccMemoryController(weights, AcceleratorConfig(ideal=True))
        code = ecc.code
        assert (code.n, code.k) == (72, 64)
        words = -(-130 // 64)
        assert ecc.n_code_words == words
        assert ecc.stored_cols == words * 72
        assert ecc.redundancy == pytest.approx(words * 72 / 130)
        assert ecc.n_devices == 2 * 16 * ecc.stored_cols

    def test_rate_half_code(self, weights):
        ecc = EccMemoryController(weights, AcceleratorConfig(ideal=True),
                                  code=HammingCode.rate_half())
        assert ecc.code.redundancy == pytest.approx(2.0)


class TestFaultFreeIdentity:
    def test_fast_path_matches_bare_controller(self, weights, x_bits):
        config = AcceleratorConfig(ideal=True)
        bare = MemoryController(weights, config)
        ecc = EccMemoryController(weights, config)
        assert ecc.fast_path
        assert np.array_equal(ecc.effective_bits, bare.effective_bits)
        assert np.array_equal(xnor_popcount(x_bits, ecc.effective_bits),
                              xnor_popcount(x_bits, weights))
        assert ecc.ecc_words_corrected == 0

    def test_noisy_ideal_physical_matches_too(self, weights, x_bits):
        """fast_path=False with a noise-free config: real arrays, zero
        sigma — the decode must still be exact."""
        config = AcceleratorConfig(ideal=True)
        bare = MemoryController(weights, config, fast_path=False)
        ecc = EccMemoryController(weights, config, fast_path=False)
        out = ecc.popcounts(x_bits, rng=np.random.default_rng(0))
        assert np.array_equal(out, bare.popcounts(x_bits))


class TestCorrection:
    def test_sparse_stuck_faults_fully_corrected(self, weights, x_bits):
        """Sparse defects (at most one per 72-bit word at this rate and
        seed): bare storage shows count errors, the SECDED store corrects
        every one."""
        config = AcceleratorConfig(ideal=True)
        fm = FaultMap(stuck_lrs=0.0015, stuck_hrs=0.0015, seed=0)
        truth = xnor_popcount(x_bits, weights)
        bare = MemoryController(weights, config, fault_map=fm,
                                fault_key=(0,))
        ecc = EccMemoryController(weights, config, fault_map=fm,
                                  fault_key=(0,))
        assert ecc.n_stuck_cells > 0
        bare_errors = int(
            (xnor_popcount(x_bits, bare.effective_bits) != truth).sum())
        ecc_errors = int(
            (xnor_popcount(x_bits, ecc.effective_bits) != truth).sum())
        assert bare_errors > 0
        assert ecc_errors == 0
        assert ecc.ecc_words_corrected > 0

    def test_meters_accumulate(self, weights, x_bits):
        config = AcceleratorConfig()
        ecc = EccMemoryController(weights, config,
                                  rng=np.random.default_rng(1))
        before = ecc.ecc_words_decoded
        ecc.popcounts(x_bits, rng=np.random.default_rng(2))
        assert ecc.ecc_words_decoded == before + 16 * ecc.n_code_words
        assert ecc.ecc_bits_decoded == ecc.ecc_words_decoded * 72
        assert ecc.popcount_bit_ops > 0


class TestTrialContract:
    def test_noisy_batched_equals_serial(self, weights, x_bits):
        config = AcceleratorConfig()
        make = lambda: EccMemoryController(
            weights, config, np.random.default_rng(4),
            lifetime=LifetimeConfig.years(1, temp_c=125.0))
        batched = make().popcounts_trials(x_bits, trial_streams(2, 3))
        serial = np.stack([make().popcounts(x_bits, rng=r)
                           for r in trial_streams(2, 3)])
        assert np.array_equal(batched, serial)

    def test_fast_shared_input_broadcast(self, weights, x_bits):
        """A deterministic store runs once on the packed executors and
        its plan broadcasts the result over the trial axis."""
        folded = FoldedOutputDense(weights, scale=np.ones(16),
                                   offset=np.zeros(16))
        plan = plan_from_folded([], folded, RRAMBackend(
            AcceleratorConfig(ideal=True), ecc="secded"))
        out = plan.scores_trials(x_bits, trials=3)
        assert out.shape == (3, 6, 16)
        assert np.array_equal(out[0], out[2])
        assert np.array_equal(
            out[0], plan_from_folded([], folded, "packed").scores(x_bits))


class TestLifetimeInteraction:
    def test_lifetime_disables_fast_path(self, weights):
        lt = LifetimeConfig.years(5, temp_c=125.0)
        ecc = EccMemoryController(weights, AcceleratorConfig(ideal=True),
                                  lifetime=lt)
        assert not ecc.fast_path

    def test_ecc_beats_bare_storage_when_aged(self, weights, x_bits):
        """The acceptance claim in miniature: an aged realistic store
        makes fewer count errors behind SECDED than bare."""
        config = AcceleratorConfig()
        lt = LifetimeConfig.years(10, temp_c=125.0)
        truth = xnor_popcount(x_bits, weights)
        bare = MemoryController(weights, config,
                                np.random.default_rng(0), lifetime=lt)
        ecc = EccMemoryController(weights, config,
                                  np.random.default_rng(0), lifetime=lt)
        read = np.random.default_rng(1)
        bare_err = int((bare.popcounts(x_bits, rng=read) != truth).sum())
        read = np.random.default_rng(1)
        ecc_err = int((ecc.popcounts(x_bits, rng=read) != truth).sum())
        assert ecc_err < bare_err
