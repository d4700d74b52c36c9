"""Precharge sense amplifiers (paper Fig. 3).

The PCSA compares the discharge rates of two precharged branches; the branch
with the lower resistance wins the latch race.  Its decision is corrupted by
a random input-referred offset (transistor mismatch), modelled as a
log-normal factor on the resistance ratio — equivalently an additive
Gaussian offset in ln-resistance units.

Two variants are modelled, matching Fig. 3:

* :class:`PrechargeSenseAmplifier` — plain differential read of a 2T2R pair
  (Fig. 3a), or single-ended read against a reference resistance for 1T1R.
* :class:`XnorPCSA` — the paper's key circuit trick (Fig. 3b): four extra
  transistors swap the two branches under control of the input bit, so the
  latched value is directly XNOR(weight, input), performing the binary
  multiplication of Eq. (3) *inside the sense amplifier*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SenseParameters", "PrechargeSenseAmplifier", "XnorPCSA"]


@dataclass
class SenseParameters:
    """PCSA non-idealities.

    ``offset_sigma`` is the input-referred offset in ln-resistance units
    (0.15 ~ a few percent resistance mismatch); ``energy_fj`` is consumed
    per sense operation and feeds the energy model.
    """

    offset_sigma: float = 0.15
    energy_fj: float = 7.0

    def offset(self, rng: np.random.Generator, shape=(),
               out: np.ndarray | None = None) -> np.ndarray:
        """Draw one input-referred offset per sense operation.

        ``out`` (a C-contiguous float64 array of ``shape``) receives the
        draws in place: ``standard_normal(out=out)`` then ``out *=
        sigma``.  numpy's ``normal(0, s)`` is ``0.0 + s * z`` on the same
        stream, so both forms consume the generator identically and
        agree value for value (the ``0.0 +`` only turns ``-0.0`` into
        ``+0.0``, which no comparison can see).  A zero sigma draws
        nothing either way.
        """
        if out is None:
            if self.offset_sigma == 0:
                return np.zeros(shape)
            return rng.normal(0.0, self.offset_sigma, size=shape)
        shape = np.broadcast_shapes(shape)
        if out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        if self.offset_sigma == 0:
            out.fill(0.0)
            return out
        rng.standard_normal(out=out)
        out *= self.offset_sigma
        return out


class PrechargeSenseAmplifier:
    """Differential resistance comparator with random offset.

    Convention: ``sense(r_bl, r_blb) == 1`` iff the BL device is the *less*
    resistive one (LRS on BL / HRS on BLb), which the paper defines as
    weight +1.
    """

    def __init__(self, params: SenseParameters | None = None,
                 rng: np.random.Generator | None = None):
        self.params = params or SenseParameters()
        self.rng = rng or np.random.default_rng()
        self.sense_count = 0

    def sense(self, r_bl: np.ndarray, r_blb: np.ndarray) -> np.ndarray:
        """Latch a (vector of) 2T2R comparison(s); returns uint8 bits."""
        r_bl = np.asarray(r_bl, dtype=float)
        r_blb = np.asarray(r_blb, dtype=float)
        offset = self.params.offset(self.rng, np.broadcast(r_bl, r_blb).shape)
        self.sense_count += int(np.prod(np.broadcast(r_bl, r_blb).shape) or 1)
        decision = np.log(r_blb) - np.log(r_bl) + offset
        return (decision > 0).astype(np.uint8)

    def sense_single_ended(self, resistance: np.ndarray,
                           reference: float) -> np.ndarray:
        """1T1R read: compare one device against a reference (bit 1 = LRS)."""
        resistance = np.asarray(resistance, dtype=float)
        offset = self.params.offset(self.rng, resistance.shape)
        self.sense_count += int(resistance.size or 1)
        decision = math.log(reference) - np.log(resistance) + offset
        return (decision > 0).astype(np.uint8)


class XnorPCSA(PrechargeSenseAmplifier):
    """PCSA augmented with an XNOR input stage (Fig. 3b).

    The input bit steers which branch connects to which output node; the
    latched result is XNOR(stored weight bit, input bit).  Energy per sense
    is marginally higher than the plain PCSA (four extra transistors).
    """

    def __init__(self, params: SenseParameters | None = None,
                 rng: np.random.Generator | None = None):
        params = params or SenseParameters(energy_fj=8.0)
        super().__init__(params, rng)

    def sense_xnor(self, r_bl: np.ndarray, r_blb: np.ndarray,
                   input_bits: np.ndarray) -> np.ndarray:
        """Read the weight and multiply by the input in one sense operation."""
        weight_bits = self.sense(r_bl, r_blb)
        input_bits = np.asarray(input_bits, dtype=np.uint8)
        return np.logical_not(np.logical_xor(weight_bits, input_bits)) \
            .astype(np.uint8)
