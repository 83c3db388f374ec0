"""Control-line transfer functions and compensation filters.

Four parts live here:

* analytic transfer-function descriptors — the Gaussian low-pass model of the
  cryogenic filter, the bounded inverse used for pre-distortion
  (H_inv(f) = H_qubit / max[H_gauss(f), 10^(-G_max/20)] * W(f)), and the
  flat response of an ideal line — plus frequency-domain application to
  waveforms;
* linear-phase FIR synthesis (frequency sampling + least squares on the
  symmetric half) with 16-bit quantization for fixed-point hardware;
* first-order IIR correction sections that invert measured multi-exponential
  settling tails on the baseband flux path;
* design files: ``design_document`` writes them, ``read_design`` reads them.

Frequencies are GHz, times ns, sample rates GS/s throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonInvertibleError
from .waveform import Waveform


# ---------------------------------------------------------------------------
# transfer-function descriptors
# ---------------------------------------------------------------------------


class TransferFunction:
    """Base class for frequency-response descriptors.

    ``response(f)`` evaluates the descriptor on frequencies in GHz. Every kind
    is zero-phase and even in f, so filtered real signals stay real.
    """

    kind = "abstract"

    def response(self, f):
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianLowpass(TransferFunction):
    """H(f) = exp(-(f sigma)^2 / 2) with |H(f_c)|^2 = 1/2.

    The 3-dB convention fixes sigma = sqrt(ln 2) / f_c.
    """

    f_c: float
    kind = "gaussian-lowpass"

    def __post_init__(self):
        if not 0 < self.f_c < math.inf:
            raise ValueError("f_c must be positive and finite")

    @property
    def sigma(self) -> float:
        return math.sqrt(math.log(2.0)) / self.f_c

    def response(self, f):
        f = np.asarray(f, dtype=float)
        return np.exp(-((f * self.sigma) ** 2) / 2.0)


@dataclass(frozen=True)
class FlatResponse(TransferFunction):
    """All-ones response: an ideal, distortion-free line."""

    kind = "flat"

    def response(self, f):
        return np.ones_like(np.asarray(f, dtype=float))


@dataclass(frozen=True)
class BoundedInverse(TransferFunction):
    """Gain-capped inverse of a Gaussian channel, windowed at high frequency.

    H_inv(f) = H_qubit / max[H_gauss(f), 10^(-g_max_db/20)] * W(f), where
    H_qubit = H_gauss(f_q) normalizes the passband so the compensated channel
    has unit relative gain at the qubit frequency, the cap bounds the inverse
    where the channel rolls off into the noise, and W is a Gaussian window
    (3-dB cutoff ``window_cutoff``) that tapers the boosted high end.
    """

    gauss: GaussianLowpass
    f_q: float
    g_max_db: float = 50.0
    window_cutoff: float = 1.0
    kind = "bounded-inverse"

    def __post_init__(self):
        if not isinstance(self.gauss, GaussianLowpass):
            raise ValueError("pre-distortion requires a Gaussian low-pass channel, "
                             f"got {self.gauss!r}")
        for name in ("f_q", "g_max_db", "window_cutoff"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def window(self) -> GaussianLowpass:
        return GaussianLowpass(self.window_cutoff)

    @property
    def h_qubit(self) -> float:
        return float(self.gauss.response(self.f_q))

    @property
    def floor(self) -> float:
        return 10.0 ** (-self.g_max_db / 20.0)

    def response(self, f):
        f = np.asarray(f, dtype=float)
        denom = np.maximum(self.gauss.response(f), self.floor)
        return self.h_qubit / denom * self.window.response(f)


def gaussian_lowpass(f_c: float) -> GaussianLowpass:
    """Gaussian low-pass descriptor with 3-dB cutoff ``f_c`` (GHz)."""
    return GaussianLowpass(f_c)


def bounded_inverse(
    gauss: GaussianLowpass,
    f_q: float,
    g_max_db: float = 50.0,
    window_cutoff: float = 1.0,
) -> BoundedInverse:
    """Bounded-inverse pre-distortion descriptor for a Gaussian channel."""
    return BoundedInverse(gauss=gauss, f_q=f_q, g_max_db=g_max_db, window_cutoff=window_cutoff)


def apply_transfer(w: Waveform, h: TransferFunction) -> Waveform:
    """Apply a transfer function to a real waveform in the frequency domain.

    The waveform is zero-padded to at least 4x its length (next power of two)
    to suppress circular-convolution wraparound, multiplied by the response
    on the DFT grid, and trimmed back to the input length. Callers should
    embed pulses with quiet margins; zero-phase filtering rings
    symmetrically.
    """
    if len(w) < 2:
        raise ValueError("waveform must have at least 2 samples")
    n = len(w)
    nfft = 1 << max(3, int(np.ceil(np.log2(4 * n))))
    freqs = np.fft.rfftfreq(nfft, d=1.0 / w.sample_rate)  # GHz
    spectrum = np.fft.rfft(w.samples, nfft) * h.response(freqs)
    out = np.fft.irfft(spectrum, nfft)[:n]
    return Waveform(out, w.sample_rate)


# ---------------------------------------------------------------------------
# FIR synthesis and quantization
# ---------------------------------------------------------------------------

INT16_FULL_SCALE = 32767


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR taps, float and (optionally) quantized int16."""

    taps_float: np.ndarray
    sample_rate: float
    taps_int16: np.ndarray = None
    kind = "fir"

    def __post_init__(self):
        taps = np.asarray(self.taps_float, dtype=float)
        object.__setattr__(self, "taps_float", taps)
        if self.taps_int16 is not None:
            q = np.asarray(self.taps_int16, dtype=np.int64)
            object.__setattr__(self, "taps_int16", q)
        if not np.all(np.isfinite(taps)):
            raise ValueError("FIR taps must be finite")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")


def synthesize_fir(target: TransferFunction, n_taps: int, sample_rate: float) -> FirFilter:
    """Design an even-length (Type-II) linear-phase FIR matching |target|.

    The target magnitude is sampled on 512 points from dc to Nyquist with
    the Nyquist point forced to zero (a Type-II response vanishes there
    structurally), and the symmetric half-taps are solved by least squares
    against the real amplitude response. The returned float taps are exactly
    symmetric by construction.
    """
    if not 0 < sample_rate < math.inf:
        raise ValueError("sample_rate must be positive and finite")
    if n_taps % 2 != 0 or n_taps < 2:
        raise ValueError("n_taps must be even: Type-II linear-phase design")
    if isinstance(target, BoundedInverse) and not sample_rate > 2.0 * target.f_q:
        raise ValueError(
            f"sample_rate {sample_rate} GS/s cannot represent the {target.f_q} GHz band"
        )
    grid = np.linspace(0.0, sample_rate / 2.0, 512)
    gain = np.abs(target.response(grid))
    gain[-1] = 0.0  # Type-II constraint made explicit in the design target
    half = n_taps // 2
    delay = (n_taps - 1) / 2.0
    # amplitude response of a symmetric even-length filter:
    #   A(f) = sum_k 2 h[k] cos(2 pi f (delay - k) / fs), k = 0..half-1
    design = 2.0 * np.cos(
        2.0 * np.pi * np.outer(grid, delay - np.arange(half)) / sample_rate
    )
    half_taps, *_ = np.linalg.lstsq(design, gain, rcond=None)
    taps = np.concatenate([half_taps, half_taps[::-1]])
    return FirFilter(taps_float=taps, sample_rate=sample_rate)


def round_half_away(x: np.ndarray, dtype) -> np.ndarray:
    """Round half away from zero: the ``dtype`` cast truncates x + copysign(0.5, x)."""
    shifted = np.copysign(0.5, x)
    shifted += x
    return shifted.astype(dtype)


def quantize_taps(f: FirFilter) -> FirFilter:
    """Normalize to max |tap| and quantize to signed 16-bit integers.

    Rounds half away from zero. Idempotent: re-quantizing quantized taps is a
    fixed point, and positive rescaling of the float taps does not change the
    result.
    """
    taps = f.taps_float
    peak = np.max(np.abs(taps))
    if peak == 0:
        raise ValueError("cannot quantize all-zero taps")
    scaled = taps / peak * INT16_FULL_SCALE
    q = round_half_away(scaled, np.int64)
    return FirFilter(taps_float=taps, sample_rate=f.sample_rate, taps_int16=q)


# ---------------------------------------------------------------------------
# IIR settling correction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IirSection:
    """First-order section y[n] = b0 x[n] + b1 x[n-1] - a1 y[n-1]."""

    b0: float
    b1: float
    a1: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b0, self.b1, self.a1))):
            raise ValueError("IIR section coefficients must be finite")
        if not abs(self.a1) < 1.0:
            raise ValueError(f"IIR section pole {-self.a1} must lie inside the unit circle")


@dataclass(frozen=True)
class IirCorrector:
    """Cascade of first-order sections inverting exponential settling tails."""

    sections: tuple
    sample_rate: float
    source_exponentials: tuple
    kind = "iir"

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")

    def direct_form(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Collapse the cascade to one direct-form filter.

        Returns (b, a, coefficient_count), where the count excludes the
        leading unit a[0] — the number of multipliers a direct-form hardware
        block needs. No claim is made about any vendor's tap-counting
        convention.
        """
        b = np.array([1.0])
        a = np.array([1.0])
        for s in self.sections:
            b = np.polymul(b, [s.b0, s.b1])
            a = np.polymul(a, [1.0, s.a1])
        return b, a, len(b) + len(a) - 1


def design_iir_corrector(exponentials: Sequence[tuple], sample_rate: float) -> IirCorrector:
    """One first-order correction section per exponential settling term.

    For a channel whose unit step acquires a tail A exp(-t/tau), the sampled
    step response is inverted exactly in the discrete domain: with
    lam = exp(-T/tau) the section is

        b0 = 1/(1+A),  b1 = -lam/(1+A),  a1 = -(lam+A)/(1+A),

    i.e. a zero matched at lam and a pole at (lam+A)/(1+A); dc gain is
    exactly 1. Per-section composition with the matching distortion is the
    exact discrete identity; a multi-term cascade inverts the summed model to
    first order in the amplitudes.
    """
    if not 0 < sample_rate < math.inf:
        raise ValueError("sample_rate must be positive and finite")
    sections = []
    for amp, tau in exponentials:
        if not (math.isfinite(amp) and math.isfinite(tau)):
            raise ValueError(f"settling term (A={amp}, tau={tau} ns) must be finite")
        if abs(amp) >= 1.0:
            raise NonInvertibleError(
                f"settling amplitude {amp} has magnitude >= 1; step response "
                "crosses zero and cannot be stably inverted"
            )
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        lam = math.exp(-1.0 / (sample_rate * tau))
        a1 = -(lam + amp) / (1.0 + amp)
        if abs(a1) >= 1.0:
            raise NonInvertibleError(
                f"term (A={amp}, tau={tau} ns) yields an unstable corrector pole "
                f"at {-a1:.6f} for sample rate {sample_rate} GS/s"
            )
        sections.append(IirSection(b0=1.0 / (1.0 + amp), b1=-lam / (1.0 + amp), a1=a1))
    return IirCorrector(
        sections=tuple(sections),
        sample_rate=sample_rate,
        source_exponentials=tuple((float(a), float(t)) for a, t in exponentials),
    )


def apply_iir(w: Waveform, c: IirCorrector) -> Waveform:
    """Run a waveform through the section cascade (causal, zero initial state).

    The whole cascade is one ``sosfilt`` pass: section (b0, b1, a1) is the
    biquad row [b0, b1, 0, 1, a1, 0]. ``sosfilt`` and a chain of one
    ``lfilter`` per section are both direct form II transposed with the same
    order of operations, so the samples are the same bit for bit. A
    zero-length waveform is returned as it is (``sosfilt`` cannot reshape it).
    """
    if w.sample_rate != c.sample_rate:
        raise ValueError(
            f"waveform rate {w.sample_rate} GS/s does not match corrector rate "
            f"{c.sample_rate} GS/s"
        )
    if not c.sections or len(w) == 0:
        return w
    from scipy.signal import sosfilt

    sos = [[s.b0, s.b1, 0.0, 1.0, s.a1, 0.0] for s in c.sections]
    return Waveform(sosfilt(sos, w.samples), w.sample_rate)


# ---------------------------------------------------------------------------
# design documents
# ---------------------------------------------------------------------------


def design_document(obj, provenance: str = "") -> dict:
    """Serializable record of a designed filter."""
    fir = isinstance(obj, FirFilter)
    if fir:
        params = {"n_taps": len(obj.taps_float)}
    elif isinstance(obj, IirCorrector):
        b, a, count = obj.direct_form()
        params = {
            "source_exponentials": [list(t) for t in obj.source_exponentials],
            "sections": [[s.b0, s.b1, s.a1] for s in obj.sections],
            "direct_form_b": [float(x) for x in b],
            "direct_form_a": [float(x) for x in a],
            "direct_form_coefficient_count": count,
        }
    elif isinstance(obj, GaussianLowpass):
        params = {"f_c_ghz": obj.f_c}
    elif isinstance(obj, BoundedInverse):
        params = {
            "f_c_ghz": obj.gauss.f_c,
            "f_q_ghz": obj.f_q,
            "g_max_db": obj.g_max_db,
            "window_cutoff_ghz": obj.window_cutoff,
        }
    else:
        raise ValueError(f"no design-document form for {type(obj).__name__}")
    int16 = obj.taps_int16 if fir else None
    return {
        "kind": obj.kind,
        "parameters": params,
        "taps_float": [float(t) for t in obj.taps_float] if fir else None,
        "taps_int16": None if int16 is None else [int(t) for t in int16],
        "sample_rate_gsps": getattr(obj, "sample_rate", None),
        "provenance": provenance,
    }


def read_design(text: str, kind: str):
    """The filter of a design file's JSON ``text``, which must be of ``kind``.
    Of a FIR file's taps only the structure is checked, not their values."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("design file must hold a JSON object")
    if doc.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} design file, got {doc.get('kind')!r}")
    if kind == FirFilter.kind:
        taps, int16 = doc["taps_float"], doc["taps_int16"]
        if not (isinstance(taps, list) and taps and all(type(t) in (int, float) for t in taps)):
            raise ValueError("taps_float must be a non-empty list of numbers")
        if int16 is not None and not (isinstance(int16, list) and len(int16) == len(taps) and all(
                type(q) is int and -32768 <= q <= INT16_FULL_SCALE for q in int16)):
            raise ValueError("taps_int16 must be null or one integer in [-32768, 32767] "
                             "per float tap")
        return FirFilter(taps_int16=int16, taps_float=taps, sample_rate=doc["sample_rate_gsps"])
    params = doc["parameters"]
    sections = tuple(IirSection(*coeffs) for coeffs in params["sections"])
    exponentials = tuple(tuple(pair) for pair in params["source_exponentials"])
    return IirCorrector(sections, doc["sample_rate_gsps"], exponentials)
