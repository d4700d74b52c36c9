"""Plain-text plotting for the benchmark harnesses.

The repository regenerates every figure of the paper, but matplotlib is not
available offline — so the benches render figures as ASCII plots instead.
:func:`line_plot` draws multi-series curves with optional log axes (Fig. 4's
log-BER curves, Fig. 7's accuracy-vs-augmentation, Fig. 8's training
curves).
"""

from repro.viz.plot import line_plot

__all__ = ["line_plot"]
