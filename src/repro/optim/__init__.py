"""Gradient-descent optimizers used by the paper's training recipes.

The EEG and ECG models are trained with Adam (§III-A, §III-B) and the
MobileNet model with SGD + momentum (§IV).
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam

__all__ = ["Optimizer", "SGD", "Adam"]
