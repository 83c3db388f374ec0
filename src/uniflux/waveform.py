"""Uniformly sampled waveforms.

The container used throughout the package: a 1-D array of real samples plus
a sample rate in gigasamples per second. Every waveform the package builds is
a physical signal (a drive, a flux baseband, a DAC composite); complex
envelopes stay plain arrays inside the synthesizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NOT_FINITE = "samples must be finite"


@dataclass(frozen=True)
class Waveform:
    """A uniformly sampled real signal.

    Parameters
    ----------
    samples :
        1-D array of finite real samples, stored as a read-only float
        array. Complex samples are refused.
    sample_rate :
        Sample rate in GS/s; strictly positive and finite.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(
                f"sample_rate must be positive and finite, got {self.sample_rate}"
            )
        arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=True)
        if not np.all(np.isfinite(arr)):
            raise ValueError(NOT_FINITE)
        if np.iscomplexobj(arr):
            raise ValueError("samples must be real")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_ns(self) -> float:
        return len(self.samples) / self.sample_rate

    def with_samples(self, samples: np.ndarray) -> "Waveform":
        """Same rate, new samples."""
        return Waveform(samples, self.sample_rate)
