"""Hamming error-correcting codes — the digital alternative the paper argues
against.

§II-B: conventional designs suppress RRAM bit errors with ECC, but "the
computation of error detection and correction is more complicated than the
one of binarized neural network" and it breaks the in-memory paradigm.  The
paper further reports that 2T2R gives error-rate benefits "similar to the
one of formal single error correction of equivalent redundancy".  To test
that claim quantitatively (benchmark XTRA1), this module implements:

* :class:`HammingCode` — single-error-correcting (SEC) Hamming codes of any
  number of parity bits, with optional shortening and an optional extended
  parity bit (SECDED).  ``HammingCode.secded_72_64()`` is the classic DRAM
  code; ``HammingCode(r=4)`` is the (15, 11) code; a rate-1/2 shortened code
  matches 2T2R's 2x redundancy.
* vectorized :meth:`encode` / :meth:`decode` over batches of data words;
* :func:`simulate_protected_storage` — push words through a binary
  symmetric channel at the measured raw BER and decode, returning the
  residual (post-correction) bit error rate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HammingCode", "EccMemoryController",
           "simulate_protected_storage"]


class HammingCode:
    """Systematic Hamming SEC / SECDED code.

    Parameters
    ----------
    r:
        Number of Hamming parity bits; the base code is
        ``(2^r - 1, 2^r - 1 - r)``.
    data_bits:
        Shorten the code to carry only this many data bits (``k``); the
        dropped positions are fixed at zero and never transmitted.
    extended:
        Add an overall parity bit, upgrading SEC to SECDED (detects, but
        does not correct, double errors).
    """

    def __init__(self, r: int, data_bits: int | None = None,
                 extended: bool = False):
        if r < 2:
            raise ValueError(f"need at least 2 parity bits, got {r}")
        self.r = r
        n_full = 2 ** r - 1
        k_full = n_full - r
        self.k = k_full if data_bits is None else int(data_bits)
        if not 1 <= self.k <= k_full:
            raise ValueError(
                f"data_bits must be in [1, {k_full}], got {data_bits}")
        self.extended = extended
        # Positions 1..n_full; powers of two are parity positions.
        positions = np.arange(1, n_full + 1)
        is_parity = (positions & (positions - 1)) == 0
        data_positions = positions[~is_parity][:self.k]
        parity_positions = positions[is_parity]
        self.n = self.k + self.r + (1 if extended else 0)
        self._data_positions = data_positions
        self._parity_positions = parity_positions
        # Map used positions to codeword indices 0..n-1 (shortened layout:
        # kept positions in ascending order).
        used = np.sort(np.concatenate([data_positions, parity_positions]))
        self._used_positions = used
        self._pos_to_index = {int(p): i for i, p in enumerate(used)}
        # Parity-check relationships: parity bit i covers positions whose
        # i-th binary digit is 1.
        self._coverage = [(used & (1 << i)) != 0 for i in range(r)]

    @property
    def redundancy(self) -> float:
        """Stored bits per data bit (2T2R has redundancy exactly 2.0)."""
        return self.n / self.k

    @property
    def data_indices(self) -> list[int]:
        """Codeword indices (0..n-1) holding the ``k`` data bits, in data
        order — the systematic view of the shortened layout."""
        return [self._pos_to_index[int(p)] for p in self._data_positions]

    @staticmethod
    def secded_72_64() -> "HammingCode":
        """The (72, 64) extended Hamming code of server memories."""
        return HammingCode(r=7, data_bits=64, extended=True)

    @staticmethod
    def rate_half(k: int = 4) -> "HammingCode":
        """A shortened SEC code with redundancy as close to 2x as Hamming
        allows — the 'equivalent redundancy' comparison point for 2T2R.
        ``k=4`` with r=3 gives (7, 4) extended to (8, 4): exactly 2x."""
        return HammingCode(r=3, data_bits=k, extended=True)

    # ------------------------------------------------------------------
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(..., k)`` data bits into ``(..., n)`` codewords."""
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[-1] != self.k:
            raise ValueError(f"expected {self.k} data bits, got "
                             f"{data.shape[-1]}")
        lead = data.shape[:-1]
        hamming_len = self.k + self.r
        code = np.zeros(lead + (hamming_len,), dtype=np.uint8)
        code[..., self.data_indices] = data
        for i, covered in enumerate(self._coverage):
            parity_index = self._pos_to_index[1 << i]
            mask = covered.copy()
            mask[parity_index] = False
            code[..., parity_index] = code[..., mask].sum(axis=-1) % 2
        if self.extended:
            overall = code.sum(axis=-1, keepdims=True) % 2
            code = np.concatenate([code, overall.astype(np.uint8)], axis=-1)
        return code

    def decode(self, code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode ``(..., n)`` codewords.

        Returns ``(data, double_error_detected)``: the corrected data bits
        and, for SECDED codes, a boolean flag per word marking detected
        uncorrectable double errors (flags are all-False for plain SEC).
        """
        code = np.asarray(code, dtype=np.uint8)
        if code.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} code bits, got "
                             f"{code.shape[-1]}")
        if self.extended:
            body = code[..., :-1].copy()
            overall = code[..., -1]
        else:
            body = code.copy()
            overall = None
        # Syndrome: for each parity relation, XOR of covered bits.
        syndrome = np.zeros(body.shape[:-1], dtype=np.int64)
        for i, covered in enumerate(self._coverage):
            bit = body[..., covered].sum(axis=-1) % 2
            syndrome += bit.astype(np.int64) << i
        error_position = syndrome          # 1-based position, 0 = no error
        if self.extended:
            parity_ok = (body.sum(axis=-1) + overall) % 2 == 0
            double_error = (error_position != 0) & parity_ok
        else:
            double_error = np.zeros(body.shape[:-1], dtype=bool)
        # Correct single errors (skip where a double error was flagged and
        # where the syndrome points at a shortened/unused position).
        flat_body = body.reshape(-1, body.shape[-1])
        flat_pos = error_position.reshape(-1)
        flat_double = double_error.reshape(-1)
        for w in np.flatnonzero((flat_pos != 0) & ~flat_double):
            index = self._pos_to_index.get(int(flat_pos[w]))
            if index is not None:
                flat_body[w, index] ^= 1
        body = flat_body.reshape(body.shape)
        return body[..., self.data_indices], double_error


class EccMemoryController:
    """A weight store that keeps the folded weights behind SECDED ECC.

    The digital alternative the paper argues against, made executable so
    the lifetime studies can compare it against bare 2T2R quantitatively:
    each output neuron's fan-in bits are chopped into ``code.k``-bit words,
    encoded to ``code.n`` stored bits, and programmed onto one RRAM array
    of ``out_features x stored_cols`` devices.  Reads fetch the stored
    words through the decoder into a digital buffer *once per scan* — the
    von Neumann pattern ECC forces — and the XNOR-popcount then runs
    digitally over the corrected weights.

    The API mirrors :class:`~repro.rram.accelerator.MemoryController`
    (``popcounts`` / ``popcounts_trials`` / ``effective_bits`` /
    meters), so the runtime layers accept either interchangeably; the
    per-trial stream contract holds because trial ``t``'s single weight
    fetch draws only from ``rngs[t]``.

    Noise-free configurations with no retention aging build no device
    state: stuck-at faults are applied and the store is decoded once at
    program time into ``effective_bits``, which the backends run on the
    packed executors; direct reads are refused.
    """

    def __init__(self, weight_bits: np.ndarray,
                 config=None,
                 rng: np.random.Generator | None = None,
                 code: HammingCode | None = None,
                 fast_path: bool = True,
                 lifetime=None,
                 fault_map=None,
                 fault_key: int | tuple[int, ...] = ()):
        from repro.rram.accelerator import (AcceleratorConfig,
                                            _resolve_fast_path)
        config = (config or AcceleratorConfig()).resolved()
        self.config = config
        self.rng = rng or np.random.default_rng(config.seed)
        self.code = code or HammingCode.secded_72_64()
        weight_bits = np.asarray(weight_bits, dtype=np.uint8)
        if weight_bits.ndim != 2:
            raise ValueError(
                f"weight bits must be 2-D, got {weight_bits.shape}")
        self.out_features, self.in_features = weight_bits.shape
        self.n_code_words = -(-self.in_features // self.code.k)
        #: Stored bit-line columns per output row (data + parity).
        self.stored_cols = self.n_code_words * self.code.n

        if lifetime is not None and not lifetime.active:
            lifetime = None
        self.lifetime = lifetime
        if fault_map is not None and not fault_map.has_cell_faults:
            fault_map = None
        self.fault_map = fault_map
        self.fault_key = (int(fault_key),) if isinstance(fault_key, int) \
            else tuple(int(k) for k in fault_key)

        self.fast_path = _resolve_fast_path(fast_path, config, lifetime)

        # ECC decode meters (per stored word of ``code.n`` bits).
        self.ecc_words_decoded = 0
        self.ecc_words_corrected = 0
        self.ecc_double_errors = 0
        self.popcount_bit_ops = 0
        self._extra_sense_ops = 0

        # Encode: pad each fan-in row to a whole number of data words.
        padded = np.zeros((self.out_features, self.n_code_words * self.code.k),
                          dtype=np.uint8)
        padded[:, :self.in_features] = weight_bits
        stored = self.code.encode(
            padded.reshape(self.out_features, self.n_code_words, self.code.k)
        ).reshape(self.out_features, self.stored_cols)

        # Stuck-at faults land on the *stored* grid — parity devices are
        # as mortal as data devices, which is the point of measuring ECC
        # under the same defect population as the bare store.
        stuck_one = stuck_zero = None
        if fault_map is not None:
            stuck_one, stuck_zero = fault_map.cell_masks(
                (self.out_features, self.stored_cols), self.fault_key)
        self.n_stuck_cells = 0 if stuck_one is None \
            else int(stuck_one.sum() + stuck_zero.sum())

        self.array = None
        #: Decoded ``(out, in)`` bits of a deterministic store, else None.
        self.effective_bits = None
        if self.fast_path:
            if stuck_one is not None:
                stored = np.array(stored, copy=True)
                stored[stuck_one] = 1
                stored[stuck_zero] = 0
            self.effective_bits = self._decode_stored(stored)
            self._extra_sense_ops += stored.size   # one program-time fetch
            return
        from repro.rram.array import RRAMArray
        self.array = RRAMArray(self.out_features, self.stored_cols,
                               params=config.device, sense=config.sense,
                               rng=self.rng)
        self.array.program(stored)
        if stuck_one is not None:
            self.array.inject_stuck(stuck_one, stuck_zero)
        if lifetime is not None:
            self.array.age(lifetime.bake_hours(), lifetime.retention,
                           self.rng)

    # -- geometry / meters ----------------------------------------------
    @property
    def redundancy(self) -> float:
        """Stored devices per weight bit (the ECC overhead the occupancy
        reports meter; bare 2T2R is 1.0 on this scale — both store two
        devices per *stored* bit)."""
        return self.stored_cols / self.in_features

    @property
    def n_devices(self) -> int:
        return 2 * self.out_features * self.stored_cols

    @property
    def sense_ops(self) -> int:
        ops = self._extra_sense_ops
        if self.array is not None:
            ops += self.array.sense_ops
        return ops

    @property
    def ecc_bits_decoded(self) -> int:
        """Stored bits pushed through the decoder (energy metering hook:
        multiply by ``EnergyModel.ecc_decode_fj_per_bit``)."""
        return self.ecc_words_decoded * self.code.n

    def wear(self, cycles: int) -> None:
        if self.array is not None:
            self.array.wear(cycles)

    def reprogram(self) -> None:
        """Refresh the stored codewords (re-draws all resistances; aging
        restarts, stuck defects persist)."""
        if self.array is not None:
            self.array.program(self.array.weight_bits)

    # -- decode ----------------------------------------------------------
    def _decode_stored(self, stored_bits: np.ndarray) -> np.ndarray:
        """Decode one full fetch of the stored grid; meters every word."""
        words = stored_bits.reshape(self.out_features, self.n_code_words,
                                    self.code.n)
        decoded, double = self.code.decode(words)
        raw = words[..., self.code.data_indices]
        self.ecc_words_decoded += self.out_features * self.n_code_words
        self.ecc_words_corrected += int(
            ((decoded != raw).any(axis=-1) & ~double).sum())
        self.ecc_double_errors += int(double.sum())
        return np.ascontiguousarray(
            decoded.reshape(self.out_features, -1)[:, :self.in_features])

    # -- reads -----------------------------------------------------------
    def meter_reads(self, n: int, trials: int) -> None:
        """Account ``trials`` digital popcounts of an ``n``-row batch
        against the decoded weights (fetches meter themselves)."""
        self.popcount_bit_ops += \
            trials * n * self.out_features * self.in_features

    def popcounts(self, x_bits: np.ndarray,
                  rng: np.random.Generator | None = None,
                  sense=None) -> np.ndarray:
        """XNOR-popcount against the ECC-protected store.

        One weight fetch through the decoder per scan, then a digital
        packed-kernel popcount over the corrected bits — the whole batch
        reuses the single fetched buffer (that is ECC's trade: correction
        power for the in-memory locality the paper's 2T2R design keeps).
        A one-trial :meth:`popcounts_trials` scan reading from ``rng``
        (the controller's generator by default).
        """
        from repro.rram.accelerator import _single_batch
        return self.popcounts_trials(_single_batch(x_bits, 2),
                                     [rng or self.rng], sense=sense)[0]

    def popcounts_trials(self, x_bits: np.ndarray, rngs,
                         sense=None) -> np.ndarray:
        """Trial-batched scans: ``(T, N, out_features)`` counts.

        The controller's only scan.  Trial ``t`` performs exactly one
        noisy fetch of the whole store (:meth:`~repro.rram.array.
        RRAMArray.read_all` with ``rngs[t]``) and decodes it, so the loop
        is trivially bit-identical to
        ``[popcounts(x[t], rng=rngs[t]) for t in range(T)]``.
        """
        from repro.rram.accelerator import (_refuse_deterministic,
                                            _validate_trial_input)
        from repro.nn.bitops import pack_bits, packed_xnor_popcount
        _refuse_deterministic(self)
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        n_trials = len(rngs)
        shared = _validate_trial_input(x_bits, n_trials, self.in_features)
        n = x_bits.shape[0] if shared else x_bits.shape[1]
        self.meter_reads(n, trials=n_trials)
        counts = np.empty((n_trials, n, self.out_features), dtype=np.int64)
        for t, rng in enumerate(rngs):
            weights = pack_bits(self._decode_stored(
                self.array.read_all(rng, sense=sense)))
            xs = x_bits if shared else x_bits[t]
            counts[t] = packed_xnor_popcount(pack_bits(xs), weights,
                                             self.in_features)
        return counts

    def __repr__(self) -> str:
        return (f"EccMemoryController({self.out_features}x"
                f"{self.in_features} data bits in "
                f"({self.code.n},{self.code.k}) words, "
                f"stored_cols={self.stored_cols}, "
                f"fast_path={self.fast_path})")


def simulate_protected_storage(data: np.ndarray, code: HammingCode,
                               raw_ber: float, rng: np.random.Generator
                               ) -> tuple[np.ndarray, float]:
    """Store words through a noisy medium with ECC protection.

    ``data``: ``(words, k)`` bits.  Each stored bit flips independently
    with probability ``raw_ber`` (binary symmetric channel — the standard
    abstraction of RRAM read errors).  Returns the decoded data and the
    residual data-bit error rate after correction.
    """
    data = np.asarray(data, dtype=np.uint8)
    stored = code.encode(data)
    flips = (rng.random(stored.shape) < raw_ber).astype(np.uint8)
    decoded, _ = code.decode(stored ^ flips)
    residual = float(np.mean(decoded != data))
    return decoded, residual
