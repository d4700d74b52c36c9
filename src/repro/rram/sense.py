"""Precharge sense amplifier parameters (paper Fig. 3).

The PCSA compares the discharge rates of two precharged branches; the branch
with the lower resistance wins the latch race, so a 2T2R read senses
weight +1 iff the BL device is the less resistive one.  Its decision is
corrupted by a random input-referred offset (transistor mismatch),
modelled as a log-normal factor on the resistance ratio — equivalently an
additive Gaussian offset in ln-resistance units.  The Fig. 3b XNOR stage
swaps the two branches under control of the input bit, so the latched
value is directly XNOR(weight, input): the binary multiplication of
Eq. (3) happens *inside the sense amplifier*.

:class:`SenseParameters` holds those non-idealities and draws the
per-read offsets; :class:`~repro.rram.array.RRAMArray` and the memory
controllers of :mod:`repro.rram.accelerator` apply them to the cells'
differential margins (``margin + offset > 0``) and meter every decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SenseParameters"]


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

