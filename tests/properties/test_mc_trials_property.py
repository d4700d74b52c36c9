"""Property-based contracts of the Monte-Carlo engine.

Two invariants the trial-batched engine must hold for *every* parameter
combination, not just the benchmarked ones:

* trial-batched noisy reads are bit-identical to the serial per-trial
  loop under fixed child-seed streams, for any geometry, mode, wear,
  trial count and trial window;
* the programmed-plan cache never leaks state between points: any
  interleaving of sweep points evaluated against a warm cache yields
  byte-identical records to cold, isolated evaluations.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import clear_plan_cache
from repro.experiments.workloads import ber_point, rram_inference_point
from repro.rram import RRAMArray, read_bit_errors, trial_streams


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(2, 12),
       st.sampled_from(["2T2R", "1T1R"]),
       st.integers(0, 2 ** 31), st.integers(1, 6),
       st.one_of(st.none(), st.integers(1, 7)))
def test_trial_batched_reads_equal_per_trial_loop(rows, cols, mode, seed,
                                                  trials, trial_chunk):
    rng = np.random.default_rng(seed)
    array = RRAMArray(rows, cols, rng=rng, mode=mode)
    array.wear(int(rng.integers(0, 10 ** 9)))
    bits = rng.integers(0, 2, (rows, cols)).astype(np.uint8)
    array.program(bits)

    batched = array.read_all_trials(trial_streams(seed, trials))
    serial = np.stack([array.read_all(rng=r)
                       for r in trial_streams(seed, trials)])
    assert np.array_equal(batched, serial)

    if trial_chunk is not None:         # windows of trial_chunk trials
        array.read_chunk_elems = trial_chunk * bits.size
    errors = read_bit_errors(array, bits, trial_streams(seed, trials))
    assert np.array_equal(errors,
                          (serial != bits[None]).sum(axis=(1, 2)))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 4),
       st.permutations([0.0, 0.5, 1.0, 1.8]))
def test_plan_cache_never_leaks_between_points(seed, trials, sigmas):
    # Cold: every point evaluated against an empty cache, in isolation.
    cold = []
    for sigma in sigmas:
        clear_plan_cache()
        cold.append(json.dumps(
            rram_inference_point(sigma, seed=seed, trials=trials),
            sort_keys=True))
    # Warm: the whole (permuted) series shares one cache; records must be
    # byte-identical to the cold ones regardless of evaluation order.
    clear_plan_cache()
    warm = [json.dumps(
        rram_inference_point(sigma, seed=seed, trials=trials),
        sort_keys=True) for sigma in sigmas]
    assert warm == cold
    clear_plan_cache()


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 120), st.integers(0, 2 ** 16), st.integers(1, 4))
def test_ber_point_counts_every_cell(n_cells, seed, trials):
    clear_plan_cache()
    point = ber_point(2e8, n_cells=n_cells, seed=seed, trials=trials)
    assert point["cells"] == float(n_cells)
    assert 0.0 <= point["ber"] <= 1.0
    clear_plan_cache()
