"""Windowing of continuous recordings into fixed-length model inputs.

The paper's models consume fixed-length trials (six seconds of EEG, three
seconds of ECG), but a deployed monitor sees one *continuous* multichannel
stream.  The standard bridge is sliding-window epoching: cut the stream
into overlapping windows and classify each.  This module provides:

* :func:`sliding_windows` — strided views over ``(channels, time)`` or
  batched recordings, with hop control (overlap);
* :func:`window_count` — how many windows a recording yields.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_count", "sliding_windows"]


def window_count(n_samples: int, window: int, hop: int) -> int:
    """Number of complete windows in ``n_samples`` (0 when too short)."""
    if window <= 0 or hop <= 0:
        raise ValueError(f"window and hop must be positive, got "
                         f"{window}, {hop}")
    if n_samples < window:
        return 0
    return (n_samples - window) // hop + 1


def sliding_windows(recording: np.ndarray, window: int,
                    hop: int | None = None) -> np.ndarray:
    """Cut a recording into complete fixed-length windows.

    ``recording`` is ``(channels, time)`` → returns ``(n_windows,
    channels, window)``; a trailing partial window is dropped (a deployed
    classifier waits for a full buffer).  ``hop`` defaults to ``window``
    (no overlap).  The result is a copy, safe to mutate.
    """
    recording = np.asarray(recording)
    if recording.ndim != 2:
        raise ValueError(
            f"expected (channels, time), got shape {recording.shape}")
    hop = window if hop is None else hop
    count = window_count(recording.shape[-1], window, hop)
    if count == 0:
        raise ValueError(
            f"recording of {recording.shape[-1]} samples is shorter than "
            f"one {window}-sample window")
    channels = recording.shape[0]
    sc, st = recording.strides
    views = np.lib.stride_tricks.as_strided(
        recording, shape=(count, channels, window),
        strides=(st * hop, sc, st), writeable=False)
    return views.copy()
