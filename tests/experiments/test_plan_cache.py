"""Programmed-plan cache and trial-batched workloads
(repro.experiments.executor.cached_plan + repro.experiments.workloads)."""

import numpy as np
import pytest

from repro.experiments import (RateProgress, Sweep, cached_plan,
                               clear_plan_cache, plan_cache_stats)
from repro.experiments.workloads import (_cell_geometry, ber_point,
                                         rram_inference_point,
                                         sharded_robustness_point)
from repro.rram import MemoryController, RRAMArray


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestCachedPlan:
    def test_builds_once_per_key(self):
        calls = []
        assert cached_plan("k", lambda: calls.append(1) or "v") == "v"
        assert cached_plan("k", lambda: calls.append(1) or "v") == "v"
        assert calls == [1]
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_capacity_bounded_lru(self):
        from repro.experiments import executor
        for i in range(executor._PLAN_CACHE_CAPACITY + 3):
            cached_plan(("key", i), lambda i=i: i)
        assert plan_cache_stats()["size"] == executor._PLAN_CACHE_CAPACITY
        # The oldest keys were evicted, the newest survive.
        assert ("key", 0) not in executor._PLAN_CACHE
        assert ("key", executor._PLAN_CACHE_CAPACITY + 2) \
            in executor._PLAN_CACHE

    def test_clear_resets_counters(self):
        cached_plan("k", lambda: 1)
        clear_plan_cache()
        assert plan_cache_stats() == {"hits": 0, "misses": 0, "size": 0}


class TestCellGeometry:
    def test_square_counts_stay_square(self):
        assert _cell_geometry(4096) == (64, 64)
        assert _cell_geometry(1) == (1, 1)

    def test_non_square_counts_keep_every_cell(self):
        for n in (10, 17, 4097):
            rows, cols = _cell_geometry(n)
            assert rows * cols == n

    def test_validates_count(self):
        with pytest.raises(ValueError, match="n_cells"):
            _cell_geometry(0)


class TestBerPoint:
    def test_non_square_cells_counted_exactly(self):
        # Regression: int(sqrt(n)) silently dropped cells (4097 -> 4096).
        point = ber_point(1e8, n_cells=4097, trials=2)
        assert point["cells"] == 4097.0

    def test_trial_batched_matches_serial_read_loop(self):
        from repro.rram import trial_streams

        params = dict(cycles=5e8, mode="1T1R", n_cells=100, seed=3)
        batched = ber_point(**params, trials=6)
        rng = np.random.default_rng(3)
        array = RRAMArray(10, 10, rng=rng, mode="1T1R")
        array.wear(int(5e8) - 1)
        bits = rng.integers(0, 2, (10, 10)).astype(np.uint8)
        array.program(bits)
        per_trial = np.array([(array.read_all(rng=r) != bits).mean()
                              for r in trial_streams(3, 6)])
        assert batched["ber"] == float(per_trial.mean())
        assert batched["ber_std"] == float(per_trial.std())

    def test_trial_chunk_never_changes_results(self, monkeypatch):
        params = dict(cycles=3e8, mode="2T2R", n_cells=64, seed=1, trials=5)
        reference = ber_point(**params)
        for chunk in (1, 2, 5):
            clear_plan_cache()
            # Windows of ``chunk`` trials over the 64-cell array.
            monkeypatch.setattr(RRAMArray, "read_chunk_elems", chunk * 64)
            assert ber_point(**params) == reference

    def test_cached_equals_cold(self):
        params = dict(cycles=2e8, mode="2T2R", n_cells=81, seed=2, trials=4)
        cold = ber_point(**params)
        assert plan_cache_stats()["misses"] == 1
        warm = ber_point(**params)
        assert plan_cache_stats()["hits"] == 1
        assert warm == cold


class TestRramInferencePoint:
    def test_zero_sigma_agrees_exactly(self):
        assert rram_inference_point(0.0, trials=3)["agreement"] == 1.0

    def test_sigma_series_shares_one_plan(self):
        for sigma in (0.0, 0.5, 1.0, 2.0):
            rram_inference_point(sigma, trials=2)
        stats = plan_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 3

    def test_cached_sweep_byte_identical_to_cold(self, tmp_path):
        points = [{"sigma": round(s, 2), "seed": 0, "trials": 3}
                  for s in (0.0, 0.8, 1.6)]
        cold = Sweep(tmp_path / "cold.jsonl", rram_inference_point)
        cold.run_all(points)
        warm = Sweep(tmp_path / "warm.jsonl", rram_inference_point)
        warm.run_all(points)          # plan cache already programmed
        assert plan_cache_stats()["hits"] > 0
        assert (tmp_path / "warm.jsonl").read_bytes() == \
            (tmp_path / "cold.jsonl").read_bytes()

    def test_agreement_degrades_with_sigma(self):
        quiet = rram_inference_point(0.1, trials=4)["agreement"]
        loud = rram_inference_point(2.5, trials=4)["agreement"]
        assert loud < quiet


class TestShardedRobustnessPoint:
    def test_zero_sigma_reduction_is_exact(self):
        point = sharded_robustness_point(16, sigma=0.0, trials=3)
        assert point["agreement"] == 1.0

    def test_reports_shard_grid_metrics(self):
        point = sharded_robustness_point(16, macro_rows=8, trials=2)
        # 131 prime columns on 16-wide macros, 10 rows on 8-tall macros:
        # ceil(10/8) * ceil(131/16) chips, tails included.
        assert point["n_macros"] == 2 * 9
        assert 0 < point["utilization"] <= 1.0

    def test_geometry_series_caches_per_geometry(self):
        for cols in (8, 16, 8, 16):
            sharded_robustness_point(cols, trials=2)
        stats = plan_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 2

    def test_cached_sweep_byte_identical_to_cold(self, tmp_path):
        points = [{"macro_cols": c, "sigma": s, "seed": 0, "trials": 2}
                  for c in (8, 16) for s in (0.5, 1.5)]
        cold = Sweep(tmp_path / "cold.jsonl", sharded_robustness_point)
        cold.run_all(points)
        warm = Sweep(tmp_path / "warm.jsonl", sharded_robustness_point)
        warm.run_all(points)          # shard grids already programmed
        assert plan_cache_stats()["hits"] > 0
        assert (tmp_path / "warm.jsonl").read_bytes() == \
            (tmp_path / "cold.jsonl").read_bytes()

    def test_trial_chunk_never_changes_the_record(self, monkeypatch):
        whole = sharded_robustness_point(16, trials=4)
        clear_plan_cache()
        # One batch row per noisy block on every chip.
        monkeypatch.setattr(MemoryController, "read_chunk_elems", 1)
        assert sharded_robustness_point(16, trials=4) == whole


class TestRateProgressTrials:
    def test_reports_trials_per_sec(self):
        messages = []
        progress = RateProgress(2, sink=messages.append,
                                trials_per_point=32)
        progress("completed p0")
        assert "points/sec" in messages[0]
        assert "trials/sec" in messages[0]
        # rate is sampled live, so compare through one snapshot only.
        assert progress.trial_rate > progress.rate

    def test_single_trial_keeps_legacy_format(self):
        messages = []
        RateProgress(1, sink=messages.append)("completed p0")
        assert "trials/sec" not in messages[0]
