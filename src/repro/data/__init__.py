"""Datasets, cross-validation and the synthetic signal generators.

The paper's corpora (PhysioNet EEG Motor Movement/Imagery, Challenge-Data
ECG electrode inversion, ImageNet-1K) cannot ship with an offline
reproduction; each is replaced by a generator producing the same
discriminative structure — see the module docstrings of :mod:`repro.data.eeg`,
:mod:`repro.data.ecg` and :mod:`repro.data.images`, and the substitution
table in ``DESIGN.md``.
"""

from repro.data.dataset import Dataset, ArrayDataset
from repro.data.crossval import stratified_kfold_indices
from repro.data.transforms import GaussianNoiseAugment
from repro.data.eeg import EEGConfig, make_eeg_dataset
from repro.data.ecg import ECGConfig, make_ecg_dataset, derive_leads
from repro.data.images import ImageConfig, make_image_dataset
from repro.data.filters import (EEG_BANDS, band_power, notch_filter,
                                remove_baseline_wander)
from repro.data.windows import window_count, sliding_windows
from repro.data.seizure import (SeizureConfig, make_seizure_dataset,
                                spike_wave_train)

__all__ = [
    "Dataset", "ArrayDataset",
    "stratified_kfold_indices",
    "GaussianNoiseAugment",
    "EEGConfig", "make_eeg_dataset",
    "ECGConfig", "make_ecg_dataset", "derive_leads",
    "ImageConfig", "make_image_dataset",
    "EEG_BANDS", "notch_filter", "remove_baseline_wander", "band_power",
    "window_count", "sliding_windows",
    "SeizureConfig", "make_seizure_dataset", "spike_wave_train",
]
