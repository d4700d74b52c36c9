"""Kilobit RRAM memory array (paper Fig. 2a).

The fabricated macro organizes 2T2R synapses in 32 word lines x 32 bit-line
pairs (1K synapses / 2K devices), with a row decoder selecting the word
line, column decoders selecting bit-line pairs, and one precharge sense
amplifier per column.  This module models that structure with vectorized
device sampling: programming draws fresh resistances from the
wear-dependent distribution of every addressed device, and every read
passes through the (noisy) sense amplifiers.

A ``mode='1T1R'`` array models the single-ended baseline used for
comparison in Fig. 4.
"""

from __future__ import annotations

import numpy as np

from repro.rram.device import DeviceParameters
from repro.rram.mc import READ_CHUNK_ELEMS
from repro.rram.sense import SenseParameters

__all__ = ["RRAMArray"]

# Resistance overrides for hard stuck-at defects: a metallic short and a
# broken filament.  The resulting ln-margins (~±27.6) are beyond any
# realistic sense offset or retention drift, so a stuck cell's sensed
# value never varies.
_STUCK_LRS_OHMS = 1.0
_STUCK_HRS_OHMS = 1e12


class RRAMArray:
    """A rows x cols array of binary synapses with on-chip sensing.

    Parameters
    ----------
    n_rows, n_cols:
        Array geometry; defaults match the paper's 1K-synapse macro.
    mode:
        ``'2T2R'`` (differential, the paper's design) or ``'1T1R'``
        (single-ended baseline).
    """

    read_chunk_elems = READ_CHUNK_ELEMS   # read-stack budget per MC window

    def __init__(self, n_rows: int = 32, n_cols: int = 32,
                 params: DeviceParameters | None = None,
                 sense: SenseParameters | None = None,
                 rng: np.random.Generator | None = None,
                 mode: str = "2T2R"):
        if mode not in ("2T2R", "1T1R"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.mode = mode
        self.params = params or DeviceParameters()
        self.rng = rng or np.random.default_rng()
        self.sense = sense or SenseParameters()
        self.sense_ops = 0   # sense operations performed by reads

        shape = (self.n_rows, self.n_cols)
        self.weight_bits = np.zeros(shape, dtype=np.uint8)
        self.cycles = np.zeros(shape, dtype=np.int64)
        self.r_bl = np.full(shape, np.nan)
        self.r_blb = np.full(shape, np.nan)   # unused in 1T1R mode
        self.program_ops = 0
        self._programmed = np.zeros(shape, dtype=bool)
        self._margin_cache: np.ndarray | None = None
        self._stuck_one: np.ndarray | None = None
        self._stuck_zero: np.ndarray | None = None
        self.aged_hours = 0.0

    # ------------------------------------------------------------------
    # Decoders
    # ------------------------------------------------------------------
    def _decode_row(self, row: int) -> int:
        if not 0 <= row < self.n_rows:
            raise IndexError(f"word line {row} outside [0, {self.n_rows})")
        return int(row)

    def _decode_cols(self, cols) -> np.ndarray:
        cols = np.arange(self.n_cols) if cols is None \
            else np.atleast_1d(np.asarray(cols, dtype=np.int64))
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise IndexError(f"bit line index outside [0, {self.n_cols})")
        return cols

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def program(self, bits: np.ndarray) -> None:
        """Program the whole array with a bit matrix (memory controller
        write path).  Each write cycles every device once."""
        bits = np.asarray(bits)
        if bits.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"bits shape {bits.shape} != array {self.n_rows}x{self.n_cols}")
        for row in range(self.n_rows):
            self.program_row(row, bits[row])

    def program_row(self, row: int, bits: np.ndarray, cols=None) -> None:
        """Program one word line (optionally a subset of columns)."""
        row = self._decode_row(row)
        cols = self._decode_cols(cols)
        bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
        if bits.size != cols.size:
            raise ValueError(f"{bits.size} bits for {cols.size} columns")
        self.cycles[row, cols] += 1
        self.weight_bits[row, cols] = bits
        self._programmed[row, cols] = True
        self._margin_cache = None
        self.program_ops += bits.size
        cyc = self.cycles[row, cols]
        if self.mode == "2T2R":
            # +1 -> (LRS, HRS); -1/0 -> (HRS, LRS).
            self.r_bl[row, cols] = self.params.sample_resistance(
                bits == 1, cyc, self.rng)
            self.r_blb[row, cols] = self.params.sample_resistance(
                bits == 0, cyc, self.rng,
                mismatch=self.params.device_mismatch)
        else:
            self.r_bl[row, cols] = self.params.sample_resistance(
                bits == 1, cyc, self.rng)
        if self._stuck_one is not None:
            self._apply_stuck()

    def wear(self, cycles: int) -> None:
        """Age every device by ``cycles`` additional program cycles."""
        self.cycles += int(cycles)

    def inject_stuck(self, stuck_one: np.ndarray,
                     stuck_zero: np.ndarray) -> None:
        """Pin cells to hard stuck-at defects (program-time injection).

        ``stuck_one`` cells always sense 1, ``stuck_zero`` cells always
        sense 0, whatever is programmed — modelled as extreme resistance
        overrides that survive reprogramming and aging (the masks are
        persistent: every later :meth:`program_row` / :meth:`age` call
        re-applies them, because a defective filament does not heal).
        """
        shape = (self.n_rows, self.n_cols)
        stuck_one = np.asarray(stuck_one, dtype=bool)
        stuck_zero = np.asarray(stuck_zero, dtype=bool)
        if stuck_one.shape != shape or stuck_zero.shape != shape:
            raise ValueError(
                f"stuck masks must be {shape}, got {stuck_one.shape} "
                f"and {stuck_zero.shape}")
        if (stuck_one & stuck_zero).any():
            raise ValueError("a cell cannot be stuck at both values")
        self._stuck_one = stuck_one
        self._stuck_zero = stuck_zero
        self._apply_stuck()

    @property
    def n_stuck_cells(self) -> int:
        if self._stuck_one is None:
            return 0
        return int(self._stuck_one.sum() + self._stuck_zero.sum())

    def _apply_stuck(self) -> None:
        """Overwrite resistances at the persistent stuck sites."""
        one, zero = self._stuck_one, self._stuck_zero
        self.r_bl[one] = _STUCK_LRS_OHMS
        self.r_bl[zero] = _STUCK_HRS_OHMS
        if self.mode == "2T2R":
            self.r_blb[one] = _STUCK_HRS_OHMS
            self.r_blb[zero] = _STUCK_LRS_OHMS
        self._margin_cache = None

    def age(self, hours: float, retention, rng=None) -> None:
        """Relax every programmed resistance by ``hours`` of storage.

        ``retention`` is a :class:`~repro.rram.reliability.RetentionModel`
        (bake-calibrated; convert field time with
        :meth:`~repro.rram.reliability.LifetimeConfig.bake_hours` first).
        Drift draws come from ``rng`` (the array's own generator by
        default) in BL-then-BLb order — the *program-time* stream, never
        a read stream, so trial-batched reads of an aged array keep the
        batched == serial contract untouched.  Stuck cells stay stuck.
        """
        hours = float(hours)
        if hours < 0:
            raise ValueError(f"hours must be >= 0, got {hours}")
        if hours == 0:
            return
        self._check_programmed()
        rng = rng or self.rng
        is_lrs_bl = self.weight_bits == 1
        self.r_bl = retention.apply(self.r_bl, is_lrs_bl, hours, rng)
        if self.mode == "2T2R":
            self.r_blb = retention.apply(self.r_blb, ~is_lrs_bl, hours,
                                         rng)
        self.aged_hours += hours
        self._margin_cache = None
        if self._stuck_one is not None:
            self._apply_stuck()

    def _sense_margin(self) -> np.ndarray:
        """Differential log-resistance margin of every 2T2R cell.

        The margin is fixed by the programmed resistances — only the
        per-read sense-amplifier offset varies — so it is computed once
        and cached until the next program event redraws the resistances.
        """
        if self._margin_cache is None:
            self._margin_cache = np.log(self.r_blb) - np.log(self.r_bl)
        return self._margin_cache

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read_margin(self) -> np.ndarray:
        """Offset-free decision margin of every cell for a plain read
        (differential in 2T2R mode, against the reference in 1T1R)."""
        if self.mode == "2T2R":
            return self._sense_margin()
        return np.log(self.params.reference_resistance) - np.log(self.r_bl)

    def read_all(self, rng: np.random.Generator | None = None,
                 sense: SenseParameters | None = None) -> np.ndarray:
        """Read every word line; returns the sensed bit matrix.

        Vectorized scan: one offset draw covers the whole array, one
        sense operation per cell.  ``rng`` overrides the array's
        generator and ``sense`` its sense parameters for this read only
        — the hooks the Monte-Carlo engine (:mod:`repro.rram.mc`) and
        the ECC store's per-scan fetch use to read a programmed array
        with a trial's own stream at any offset sigma, without touching
        shared state.
        """
        self._check_programmed()
        offsets = (sense or self.sense).offset(
            rng or self.rng, (self.n_rows, self.n_cols))
        self.sense_ops += self.n_rows * self.n_cols
        return (self._read_margin() + offsets > 0).astype(np.uint8)

    def read_all_trials(self, rngs) -> np.ndarray:
        """Trial-batched full-array reads: one noisy read per stream.

        ``rngs`` is a sequence of per-trial generators (see
        :func:`repro.rram.mc.trial_streams`); returns ``(T, rows, cols)``
        sensed bits.  Trial ``t`` draws its offsets from ``rngs[t]``
        alone, so the stack is bit-identical to ``[read_all(rng=r) for r
        in rngs]``.  Each trial draws into one reused offset buffer and
        writes ``offset > -margin`` (exactly ``margin + offset > 0``:
        rounding a two-term sum keeps its sign) straight into its slice
        of the returned stack, so no trial-stacked float tensor exists.
        """
        self._check_programmed()
        shape = (self.n_rows, self.n_cols)
        neg_margin = np.negative(self._read_margin())
        bits = np.empty((len(rngs),) + shape, dtype=np.uint8)
        decided = bits.view(bool)
        offsets = np.empty(shape)
        for t, rng in enumerate(rngs):
            self.sense.offset(rng, shape, out=offsets)
            np.greater(offsets, neg_margin, out=decided[t])
        self.sense_ops += bits.size
        return bits

    # ------------------------------------------------------------------
    def _check_programmed(self) -> None:
        if not self._programmed.all():
            raise RuntimeError("reading unprogrammed cells")

    def __repr__(self) -> str:
        return (f"RRAMArray({self.n_rows}x{self.n_cols}, mode={self.mode}, "
                f"programmed={int(self._programmed.sum())})")
