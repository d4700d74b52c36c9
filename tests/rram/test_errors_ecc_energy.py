"""Endurance experiment, fault injection, Hamming ECC, energy model."""

import dataclasses

import numpy as np
import pytest

from repro.nn.binary import FoldedBinaryDense, FoldedOutputDense
from repro.rram import (DeviceParameters, EnduranceExperiment, EnergyModel,
                        HammingCode, analytic_ber_1t1r, analytic_ber_2t2r,
                        corrupt_folded, inject_bit_errors,
                        simulate_protected_storage)


class TestEnduranceExperiment:
    def test_matches_analytic_model(self):
        exp = EnduranceExperiment(trials=400_000, seed=3,
                                  checkpoints=np.array([3e8, 7e8]))
        res = exp.run()
        ana_bl = analytic_ber_1t1r(exp.device, res.cycles)
        ana_2t = analytic_ber_2t2r(
            exp.device, res.cycles,
            sense_offset_sigma=exp.sense.offset_sigma)
        assert np.allclose(res.ber_1t1r_bl, ana_bl, rtol=0.35)
        assert np.allclose(res.ber_2t2r, ana_2t, rtol=0.6, atol=2e-5)

    def test_curves_ordered(self):
        res = EnduranceExperiment(trials=300_000, seed=1).run()
        assert np.all(res.ber_2t2r <= res.ber_1t1r_bl)
        assert np.all(res.ber_2t2r <= res.ber_1t1r_blb)

    def test_window_budget_leaves_results_bit_identical(self, monkeypatch):
        # One budget knob, bound at import like the arrays' and the
        # controllers': a class attribute, not a field or an argument.
        names = {f.name for f in dataclasses.fields(EnduranceExperiment)}
        assert "read_chunk_elems" not in names
        with pytest.raises(TypeError):
            EnduranceExperiment(read_chunk_elems=8)
        exp = EnduranceExperiment(trials=5_001, seed=7,
                                  checkpoints=np.array([2e8, 6e8]))
        whole = exp.run()
        # 37 trials per window: a ragged last window at every checkpoint.
        monkeypatch.setattr(EnduranceExperiment, "read_chunk_elems",
                            37 * EnduranceExperiment._ELEMS_PER_TRIAL)
        windowed = exp.run()
        for field in dataclasses.fields(whole):
            assert np.array_equal(getattr(windowed, field.name),
                                  getattr(whole, field.name)), field.name
        assert whole.ber_1t1r_bl.max() > 0

    def test_rows_format(self):
        res = EnduranceExperiment(
            trials=1000, checkpoints=np.array([1e8])).run()
        rows = res.rows()
        assert len(rows) == 1 and len(rows[0]) == 4


class TestFaultInjection:
    def test_zero_ber_is_identity(self, rng):
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        assert np.array_equal(inject_bit_errors(bits, 0.0, rng), bits)

    def test_flip_rate_matches_ber(self, rng):
        bits = np.zeros(200_000, dtype=np.uint8)
        flipped = inject_bit_errors(bits, 0.01, rng)
        assert abs(flipped.mean() - 0.01) < 0.002

    def test_ber_validation(self, rng):
        with pytest.raises(ValueError):
            inject_bit_errors(np.zeros(4, np.uint8), 1.5, rng)

    def test_corrupt_folded_preserves_metadata(self, rng):
        folded = FoldedBinaryDense(
            weight_bits=rng.integers(0, 2, (4, 8)).astype(np.uint8),
            theta=rng.standard_normal(4),
            gamma_sign=np.ones(4), beta_sign=np.ones(4))
        bad = corrupt_folded(folded, 0.5, rng)
        assert isinstance(bad, FoldedBinaryDense)
        assert np.array_equal(bad.theta, folded.theta)
        out = corrupt_folded(FoldedOutputDense(
            folded.weight_bits, np.ones(4), np.zeros(4)), 0.1, rng)
        assert isinstance(out, FoldedOutputDense)


class TestHammingCode:
    @pytest.mark.parametrize("code", [
        HammingCode(3), HammingCode(4), HammingCode(5),
        HammingCode(3, data_bits=4, extended=True),
        HammingCode.secded_72_64(),
    ], ids=["(7,4)", "(15,11)", "(31,26)", "(8,4)ext", "secded(72,64)"])
    def test_clean_roundtrip(self, rng, code):
        data = rng.integers(0, 2, (100, code.k)).astype(np.uint8)
        decoded, double = code.decode(code.encode(data))
        assert np.array_equal(decoded, data)
        assert not double.any()

    @pytest.mark.parametrize("code", [
        HammingCode(4), HammingCode.secded_72_64(), HammingCode.rate_half(),
    ], ids=["(15,11)", "secded", "rate-half"])
    def test_corrects_every_single_error(self, rng, code):
        data = rng.integers(0, 2, (1, code.k)).astype(np.uint8)
        word = code.encode(data)
        for position in range(code.n):
            corrupted = word.copy()
            corrupted[0, position] ^= 1
            decoded, double = code.decode(corrupted)
            assert np.array_equal(decoded, data), f"pos {position}"
            assert not double.any()

    def test_secded_detects_double_errors(self, rng):
        code = HammingCode.secded_72_64()
        data = rng.integers(0, 2, (200, 64)).astype(np.uint8)
        words = code.encode(data)
        # Flip two distinct random bits per word.
        for w in range(len(words)):
            i, j = rng.choice(code.n, size=2, replace=False)
            words[w, i] ^= 1
            words[w, j] ^= 1
        _, double = code.decode(words)
        assert double.mean() > 0.9   # most double errors flagged

    def test_redundancy_values(self):
        assert np.isclose(HammingCode.secded_72_64().redundancy, 72 / 64)
        assert np.isclose(HammingCode.rate_half().redundancy, 2.0)

    def test_residual_ber_below_raw(self, rng):
        code = HammingCode.secded_72_64()
        data = rng.integers(0, 2, (5000, 64)).astype(np.uint8)
        _, residual = simulate_protected_storage(data, code, 1e-3, rng)
        assert residual < 1e-3 / 3

    def test_validation(self):
        with pytest.raises(ValueError):
            HammingCode(1)
        with pytest.raises(ValueError):
            HammingCode(3, data_bits=10)
        code = HammingCode(3)
        with pytest.raises(ValueError):
            code.encode(np.zeros((2, 3), np.uint8))
        with pytest.raises(ValueError):
            code.decode(np.zeros((2, 3), np.uint8))


class TestEnergyModel:
    LAYERS = [(75, 5152), (2, 75)]   # the ECG classifier

    def test_in_memory_has_zero_movement_and_ecc(self):
        cost = EnergyModel().in_memory_inference(self.LAYERS)
        assert cost.data_movement_pj == 0.0
        assert cost.ecc_energy_pj == 0.0
        assert cost.total_pj > 0

    def test_digital_sram_ecc_costs_more(self):
        model = EnergyModel()
        inmem = model.in_memory_inference(self.LAYERS)
        digital = model.digital_inference(self.LAYERS, "sram", use_ecc=True)
        assert digital.total_pj > inmem.total_pj

    def test_dram_much_worse_than_sram(self):
        model = EnergyModel()
        sram = model.digital_inference(self.LAYERS, "sram")
        dram = model.digital_inference(self.LAYERS, "dram")
        assert dram.total_pj > 10 * sram.total_pj

    def test_ecc_adds_energy(self):
        model = EnergyModel()
        with_ecc = model.digital_inference(self.LAYERS, "sram", use_ecc=True)
        without = model.digital_inference(self.LAYERS, "sram", use_ecc=False)
        assert with_ecc.total_pj > without.total_pj
        assert with_ecc.ecc_energy_pj > 0

    def test_programming_energy_scales_with_bits(self):
        model = EnergyModel()
        assert model.programming_energy_pj(200) == 2 * model.programming_energy_pj(100)

    def test_storage_area_2t2r_vs_rate_half_1t1r(self):
        areas = EnergyModel().storage_area_comparison(1_000_000)
        # 2T2R pays 2x cell area; rate-1/2 ECC pays 2x cells + decoder, so
        # at equal redundancy the 2T2R storage is not larger.
        assert areas["2t2r_mm2"] <= areas["1t1r_rate_half_mm2"] * 1.05

    def test_unknown_memory_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().digital_inference(self.LAYERS, "tape")
