"""repro — In-Memory Resistive RAM Implementation of Binarized Neural
Networks for Medical Applications (Penkovsky et al., DATE 2020).

A complete offline reproduction of the paper's system:

* :mod:`repro.tensor` / :mod:`repro.nn` / :mod:`repro.optim` — a
  from-scratch deep-learning stack (reverse-mode autodiff over numpy) with
  real and binarized layers, the straight-through estimator, and the
  XNOR-popcount arithmetic of Eq. (3);
* :mod:`repro.data` — synthetic EEG motor-imagery, 12-lead ECG
  electrode-inversion, and image datasets standing in for the paper's
  corpora (see DESIGN.md for the substitution arguments);
* :mod:`repro.models` — the paper's three architectures (Tables I, II;
  MobileNet V1) with REAL / FULL_BINARY / BINARY_CLASSIFIER modes;
* :mod:`repro.rram` — the hardware substrate: HfO2 device statistics,
  1T1R/2T2R cells, precharge sense amplifiers with the in-SA XNOR, kilobit
  arrays, the Fig. 5 in-memory BNN accelerator, endurance/BER experiments,
  Hamming ECC, and energy/area accounting;
* :mod:`repro.analysis` — memory-footprint accounting (Table IV) and the
  8-bit quantization reference;
* :mod:`repro.experiments` — cross-validated training harness and
  benchmark scales;
* :mod:`repro.runtime` — the compile-once inference runtime: one
  ``compile(model, backend=...)`` step targeting interchangeable
  reference / packed-CPU / RRAM substrates.

Quick start::

    from repro.models import ECGNet, BinarizationMode
    from repro.data import make_ecg_dataset
    from repro.rram import deploy_classifier, classifier_input_bits

See ``examples/quickstart.py`` for an end-to-end train-and-deploy run.

Subpackages load on first access (PEP 562), so ``import repro`` costs
nothing and loading a plan imports only the inference stack — numpy, not
the training, data or analysis code and not scipy (DESIGN.md, "Import
surface").
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = ("analysis", "data", "experiments", "io", "metrics", "models",
                "nn", "optim", "rram", "runtime", "tensor", "viz")

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        # import_module binds the submodule as a package attribute, so
        # this hook runs at most once per subpackage.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBPACKAGES})
