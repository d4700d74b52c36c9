"""Trial-batched Monte-Carlo engine for noisy RRAM reads.

The paper's robustness evidence (Fig. 4 bit-error rate vs endurance,
§II-B sense-offset tolerance) is Monte-Carlo: many noisy read trials over
the *same* programmed weights.  Simulating that one trial at a time pays
the full program/fold/build cost per trial; this module provides the two
primitives that let the whole repository amortize it:

* **deterministic per-trial RNG streams** — :func:`trial_streams` spawns
  one independent child generator per trial from a single root seed
  (``numpy.random.SeedSequence.spawn``).  Trial ``t`` always reads the
  same noise no matter how trials are grouped, because every draw for
  trial ``t`` comes from stream ``t`` and numpy ``Generator`` draws are
  *split-stable*: drawing ``normal(size=a)`` then ``normal(size=b)``
  yields the same values as one ``normal(size=a + b)`` draw.  Batched
  execution is therefore bit-identical to a serial per-trial loop over
  the same streams — the engine's core contract, enforced by the
  property tests;
* **trial-batched evaluation** — the noisy read paths of
  :class:`~repro.rram.array.RRAMArray` and
  :class:`~repro.rram.accelerator.MemoryController` accept a stack of
  trial streams and return every trial's result along a leading
  ``(T, ...)`` axis.  Programming, margins and bookkeeping are shared;
  each trial's offsets are drawn in place into one reused buffer
  (``SenseParameters.offset(rng, shape, out=buf)``), so no
  trial-stacked noise tensor is ever built.  A controller's
  ``read_chunk_elems`` bounds that buffer — one trial's scratch, split
  into blocks of batch rows.

The RNG-stream contract, in one line: *the root seed programs, child
stream* ``t`` *reads trial* ``t``.  Programming (device resistance
sampling) consumes only the root generator; every read-time draw for a
trial consumes only that trial's child stream.  Structural state (margins,
packed words) is therefore reusable across trials and across sweep points
— which is what the programmed-plan cache in
:mod:`repro.experiments.executor` exploits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["READ_CHUNK_ELEMS", "trial_streams", "trial_chunks",
           "shard_streams", "site_stream", "read_bit_errors"]

#: Shared element budget for noisy-read scratch: a controller scan's
#: reused offset buffer (one trial's block of batch rows), the trial
#: windows of :func:`read_bit_errors` and the endurance windows stay
#: within this many elements.  Chunking never changes results — streams
#: are split-stable — so this is purely a peak-memory knob.
READ_CHUNK_ELEMS = 1 << 22


def trial_streams(seed, trials: int) -> list[np.random.Generator]:
    """One independent child generator per Monte-Carlo trial.

    ``seed`` feeds a :class:`numpy.random.SeedSequence` whose first
    ``trials`` spawned children become the per-trial streams.  The same
    ``(seed, t)`` pair always yields the same stream, independent of the
    total trial count's *batching* — stream ``t`` of ``trial_streams(s,
    8)`` equals stream ``t`` of ``trial_streams(s, 64)`` for ``t < 8`` —
    so a study can grow its trial budget without invalidating earlier
    trials.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seed_seq.spawn(trials)]


def shard_streams(rngs, n_shards: int) -> list[list[np.random.Generator]]:
    """Per-(shard, trial) child streams for a sharded multi-macro scan.

    Extends the per-trial stream contract to a second axis: a sharded
    controller reading trial ``t`` across ``n_shards`` chips gives shard
    ``s`` the ``s``-th spawned child of trial stream ``t``, so every
    ``(shard, trial)`` pair draws from its own independent generator —
    chips have independent sense amplifiers, and neither trial chunking
    nor shard scan order can couple their noise.

    Returns ``streams[s][t]`` (shard-major), ready to hand each shard its
    own per-trial stream list.  Spawning consumes each trial stream's
    spawn counter exactly once, in trial order, so the stack is
    bit-identical to a serial per-trial loop that spawns ``n_shards``
    children from its single trial stream — the sharded analogue of the
    split-stable-draw contract above.
    """
    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    children = [rng.spawn(n_shards) for rng in rngs]
    return [[children[t][s] for t in range(len(rngs))]
            for s in range(n_shards)]


def site_stream(seed, *key: int) -> np.random.Generator:
    """One independent generator for a *named* draw site.

    The keyed complement of the order-based :func:`trial_streams` /
    :func:`shard_streams` spawning: ``SeedSequence(seed, spawn_key=key)``
    derives the child stream directly from the ``(seed, key)`` pair, so
    the same site always reads the same noise no matter when — or in
    which worker process — it is materialized.  ``site_stream(s, i)`` is
    by construction the ``i``-th child of ``SeedSequence(s).spawn(...)``,
    so keyed and order-based derivations of the same tree coincide.

    Use this for draws that must be reproducible across chunking, worker
    counts and call order without threading generator objects through
    the call graph: fault-map sampling, weight corruption, per-(layer,
    shard) fault sites.  Keys are small non-negative integers.
    """
    key = tuple(int(k) for k in key)
    if any(k < 0 for k in key):
        raise ValueError(f"site keys must be non-negative, got {key}")
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed_seq.entropy,
                               spawn_key=seed_seq.spawn_key + key))


def trial_chunks(n_trials: int, per_trial_elems: int, budget: int):
    """Yield ``(start, stop)`` trial windows whose stacked noise tensor
    stays inside ``budget`` elements (at least one trial per window).

    Results never depend on the chunking — only peak memory does —
    because every trial draws from its own stream (see module docstring).
    """
    window = max(1, min(int(budget) // max(1, int(per_trial_elems)),
                        int(n_trials)))
    for start in range(0, int(n_trials), window):
        yield start, min(start + window, int(n_trials))


def read_bit_errors(array, expected_bits: np.ndarray,
                    rngs: list[np.random.Generator]) -> np.ndarray:
    """Per-trial read-back error counts of one programmed array.

    The Fig. 4 inner loop as an engine primitive: ``T`` noisy full-array
    reads of ``array`` (one per stream in ``rngs``), each compared against
    ``expected_bits``; returns an ``(T,)`` int64 error-count vector.  The
    array is programmed once by the caller and never mutated here, so the
    cost per extra trial is one in-place offset draw plus one vectorized
    compare.  Trial windows of the array's ``read_chunk_elems`` bound the
    uint8 read stack.

    Bit-identical to ``[int((array.read_all(rng=r) != expected_bits).sum())
    for r in rngs]`` for any window size.
    """
    expected_bits = np.asarray(expected_bits, dtype=np.uint8)
    if expected_bits.shape != (array.n_rows, array.n_cols):
        raise ValueError(
            f"expected bits shape {expected_bits.shape} != array "
            f"{array.n_rows}x{array.n_cols}")
    errors = np.empty(len(rngs), dtype=np.int64)
    per_trial = array.n_rows * array.n_cols
    budget = getattr(array, "read_chunk_elems", READ_CHUNK_ELEMS)
    for start, stop in trial_chunks(len(rngs), per_trial, budget):
        read = array.read_all_trials(rngs[start:stop])
        errors[start:stop] = (read != expected_bits[None]).sum(
            axis=(1, 2), dtype=np.int64)
    return errors
