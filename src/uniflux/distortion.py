"""Flux-line settling models and their fits.

A falling flux edge leaves a residual tail r(t) = sum_k A_k exp(-t/tau_k)
(fractions of the reference amplitude). The measurement that characterizes it
parks a short probe pulse a delay d after the edge and reads out the
window-averaged residual ("tail over ref"); for exponentials that average has
a closed form, so both simulation and fitting work directly in tail-over-ref
units. Converting a measured probe phase into these units requires one
flux-to-phase scale factor that the instrument calibration must supply; this
module takes the data already scaled.

The companion single-exponential fit covers the cross-quadrature microwave
tail: a short coherent distortion that rings down within a couple of
nanoseconds. It is assessed (amplitude, timescale, negligibility against the
gate duration) and deliberately not corrected.

Both fits run on ``analysis._least_squares_fit``, whose SVD covariance gives
a rank-deficient fit (say, a tau run off to infinity) huge, unclipped sigmas.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import _least_squares_fit
from .errors import FitError
from .waveform import Waveform

DEFAULT_PROBE_WINDOW_NS = 20.0
DEFAULT_REFERENCE_LENGTH_NS = 2000.0
DEFAULT_GATE_DURATION_NS = 20.0
DEGENERATE_TAU_RATIO = 1.5
UNRESOLVED_TAU_SPAN = 100.0  # a fitted tau this many times the longest delay is unresolved


@dataclass(frozen=True)
class ExponentialTailModel:
    """Post-edge residual r(t) = sum_k A_k exp(-t/tau_k), canonical tau order."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(a), float(t)) for a, t in self.terms)
        for _, tau in terms:
            if not tau > 0:
                raise ValueError(f"tau must be positive, got {tau}")
        if sum(abs(a) for a, _ in terms) >= 1.0:
            raise ValueError("total settling amplitude must stay below 1 (physical settling)")
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda t: t[1])))

    @property
    def amplitudes(self) -> tuple:
        return tuple(a for a, _ in self.terms)

    @property
    def taus(self) -> tuple:
        return tuple(t for _, t in self.terms)

    def residual(self, t):
        """r(t) for t >= 0 (vectorized)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a, tau in self.terms:
            out += a * np.exp(-t / tau)
        return out


@dataclass(frozen=True)
class TailProbeRecord:
    delay: float
    tail_over_ref: float


def distorted_step(model: ExponentialTailModel, t_grid, edge_time: float) -> Waveform:
    """Unit step falling at ``edge_time`` with the model's residual tail after it."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("time grid must be a 1-D array of at least 2 points")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform")
    after = t >= edge_time
    out = np.where(after, 0.0, 1.0)
    out[after] += model.residual(t[after] - edge_time)
    return Waveform(out, 1.0 / dt[0])


def windowed_tail(model: ExponentialTailModel, delay, probe_window: float):
    """Closed-form window-averaged residual (1/w) * int_d^{d+w} r(t) dt.

    For one exponential the average is A (tau/w) e^{-d/tau} (1 - e^{-w/tau}).
    """
    if not probe_window > 0:
        raise ValueError("probe_window must be positive")
    d = np.asarray(delay, dtype=float)
    out = np.zeros_like(d)
    for a, tau in model.terms:
        out += a * (tau / probe_window) * np.exp(-d / tau) * -np.expm1(-probe_window / tau)
    return out


def simulate_tail_probe(
    model: ExponentialTailModel,
    delays: Sequence[float],
    probe_window: float = DEFAULT_PROBE_WINDOW_NS,
) -> list:
    """Tail-over-ref records the probe measurement would produce (noiseless)."""
    delays = np.asarray(delays, dtype=float)
    if np.any(np.diff(delays) <= 0):
        raise ValueError("delays must be strictly increasing")
    values = windowed_tail(model, delays, probe_window)
    return [TailProbeRecord(float(d), float(v)) for d, v in zip(delays, values)]


# ---------------------------------------------------------------------------
# multi-exponential fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailFitResult:
    model: ExponentialTailModel
    amplitude_sigmas: tuple
    tau_sigmas: tuple
    residual_norm: float
    degenerate_taus: bool
    n_starts: int

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"amplitude": a, "tau_ns": t, "amplitude_sigma": sa, "tau_sigma_ns": st}
                for (a, t), sa, st in zip(
                    self.model.terms, self.amplitude_sigmas, self.tau_sigmas
                )
            ],
            "residual_norm": self.residual_norm,
            "degenerate_taus": self.degenerate_taus,
            "n_starts": self.n_starts,
        }


def _probe_design_matrix(delays, taus, window):
    """Columns g_k(d) = (tau_k/w) e^{-d/tau_k} (1 - e^{-w/tau_k})."""
    cols = [
        (tau / window) * np.exp(-delays / tau) * -np.expm1(-window / tau) for tau in taus
    ]
    return np.stack(cols, axis=1)


def _probe_model_and_jacobian(theta, delays, window, n_terms):
    amps = theta[:n_terms]
    taus = np.exp(theta[n_terms:])
    g = _probe_design_matrix(delays, taus, window)
    y = g @ amps
    # d g / d log tau = (1/w) [ (1 + d/tau) e^{-d/tau} - (1 + (d+w)/tau) e^{-(d+w)/tau} ] * tau
    jac = np.empty((len(delays), 2 * n_terms))
    jac[:, :n_terms] = g
    for k, tau in enumerate(taus):
        e0 = np.exp(-delays / tau)
        e1 = np.exp(-(delays + window) / tau)
        dg_dtau = ((1.0 + delays / tau) * e0 - (1.0 + (delays + window) / tau) * e1) / window
        jac[:, n_terms + k] = amps[k] * dg_dtau * tau
    return y, jac


def fit_multi_exponential(
    data: Sequence[TailProbeRecord],
    n_terms: int,
    probe_window: float = DEFAULT_PROBE_WINDOW_NS,
    n_starts: int = 16,
) -> TailFitResult:
    """Fit window-averaged multi-exponential settling to probe records.

    Levenberg-Marquardt with an analytic Jacobian in (A_k, log tau_k).
    Starts are seeded by log-spaced/log-uniform tau draws over the delay span
    with amplitudes solved linearly per seed; the best converged start wins.
    ``probe_window`` must be the window the records were measured with —
    omitting the window model biases fast-tau amplitudes by O(w/tau).
    ``degenerate_taus`` is set, with a warning, when neighbouring taus are
    nearly equal or when a term has collapsed to a tau beyond
    ``UNRESOLVED_TAU_SPAN`` times the longest delay; the fitted numbers are
    returned either way.
    """
    if not 1 <= n_terms <= 4:
        raise ValueError("n_terms must be between 1 and 4")
    if len(data) < 4 * n_terms:
        raise ValueError(f"need at least {4 * n_terms} records to fit {n_terms} terms")
    delays = np.array([r.delay for r in data], dtype=float)
    values = np.array([r.tail_over_ref for r in data], dtype=float)
    if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(values))):
        raise ValueError("probe delays and values must be finite")
    lo = max(np.min(delays), probe_window / 10.0, 1e-3)
    hi = max(np.max(delays), lo * 10.0)
    rng = np.random.default_rng(1357)

    starts = []
    for start in range(n_starts):
        if start == 0:
            log_taus = np.linspace(math.log(lo), math.log(hi), n_terms + 2)[1:-1]
        else:
            log_taus = np.sort(rng.uniform(math.log(lo), math.log(hi), size=n_terms))
        g = _probe_design_matrix(delays, np.exp(log_taus), probe_window)
        amps, *_ = np.linalg.lstsq(g, values, rcond=None)
        starts.append(np.concatenate([amps, log_taus]))

    def residuals(theta):
        y, _ = _probe_model_and_jacobian(theta, delays, probe_window, n_terms)
        return y - values

    def jacobian(theta):
        _, j = _probe_model_and_jacobian(theta, delays, probe_window, n_terms)
        return j

    theta, cov, sse = _least_squares_fit(residuals, starts, jac=jacobian, xtol=1e-14)
    cost = math.sqrt(sse)
    amps = theta[:n_terms]
    taus = np.exp(theta[n_terms:])
    if sum(abs(a) for a in amps) >= 1.0:
        raise FitError(
            f"best fit is unphysical (total amplitude {sum(abs(a) for a in amps):.3f} >= 1), "
            f"residual norm {cost:.3g}"
        )

    # 1-sigma in (A_k, log tau_k), chain-ruled back to tau
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    amp_sig = sig[:n_terms]
    tau_sig = sig[n_terms:] * taus  # d tau = tau * d log tau

    order = np.argsort(taus)
    model = ExponentialTailModel(tuple(zip(amps[order], taus[order])))
    taus_sorted = taus[order]
    degenerate = any(
        taus_sorted[i + 1] / taus_sorted[i] < DEGENERATE_TAU_RATIO
        for i in range(n_terms - 1)
    )
    if degenerate:
        warnings.warn(
            "fitted settling times are nearly degenerate (ratio < "
            f"{DEGENERATE_TAU_RATIO}); amplitudes are poorly determined",
            stacklevel=2,
        )
    longest = float(np.max(delays))
    unresolved = taus_sorted[-1] > UNRESOLVED_TAU_SPAN * longest
    if unresolved:
        warnings.warn(
            f"fitted settling time {taus_sorted[-1]:.3g} ns exceeds {UNRESOLVED_TAU_SPAN:g}x "
            f"the longest probe delay ({longest:.3g} ns); the term is unresolved",
            stacklevel=2,
        )
    return TailFitResult(
        model=model,
        amplitude_sigmas=tuple(amp_sig[order]),
        tau_sigmas=tuple(tau_sig[order]),
        residual_norm=cost,
        degenerate_taus=bool(degenerate or unresolved),
        n_starts=n_starts,
    )


# ---------------------------------------------------------------------------
# cross-quadrature microwave tail
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossQuadratureFit:
    amplitude: float
    tau_ns: float
    amplitude_sigma: float
    tau_sigma_ns: float
    identifiable: bool
    negligible: bool

    def to_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "tau_ns": self.tau_ns,
            "amplitude_sigma": self.amplitude_sigma,
            "tau_sigma_ns": self.tau_sigma_ns,
            "identifiable": self.identifiable,
            "negligible": self.negligible,
        }


def fit_single_exponential(
    delays: Sequence[float],
    phase: Sequence[float],
    negligible_below: float = DEFAULT_GATE_DURATION_NS,
) -> CrossQuadratureFit:
    """Fit p(d) = a exp(-d/tau) and judge whether the tail needs correcting.

    ``negligible`` is true when the fitted tau is shorter than
    ``negligible_below`` (default: one gate duration) — the situation where
    the distortion rings down inside a single gate and no correction is
    applied.
    """
    delays = np.asarray(delays, dtype=float)
    phase = np.asarray(phase, dtype=float)
    if len(delays) < 6:
        raise ValueError("need at least 6 points")
    if delays.shape != phase.shape:
        raise ValueError("delays and phase must have matching shapes")
    if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(phase))):
        raise ValueError("delays and phase must be finite")

    scale = np.max(np.abs(phase))
    if scale == 0.0:
        return CrossQuadratureFit(0.0, math.nan, 0.0, math.nan, False, True)

    # crude log-linear seed on the usable (same-sign, nonzero) points
    a0 = phase[0] if phase[0] != 0 else float(np.sign(phase[np.argmax(np.abs(phase))]) * scale)
    usable = np.abs(phase) > 1e-3 * scale
    if np.count_nonzero(usable) >= 2:
        slope = np.polyfit(delays[usable], np.log(np.abs(phase[usable])), 1)[0]
        tau0 = -1.0 / slope if slope < 0 else float(delays[-1] - delays[0])
    else:
        tau0 = float(delays[-1] - delays[0])
    tau0 = max(tau0, 1e-3)

    def residuals(theta):
        a, logtau = theta
        return a * np.exp(-delays / math.exp(logtau)) - phase

    def jacobian(theta):
        a, logtau = theta
        tau = math.exp(logtau)
        e = np.exp(-delays / tau)
        return np.stack([e, a * e * delays / tau], axis=1)

    (a, logtau), cov, _ = _least_squares_fit(
        residuals, [(a0, math.log(tau0))], jac=jacobian, xtol=1e-14
    )
    tau = math.exp(logtau)
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return CrossQuadratureFit(
        amplitude=float(a),
        tau_ns=float(tau),
        amplitude_sigma=float(sig[0]),
        tau_sigma_ns=float(sig[1] * tau),
        identifiable=True,
        negligible=tau < negligible_below,
    )


# ---------------------------------------------------------------------------
# dataset IO
# ---------------------------------------------------------------------------

_CSV_HEADER = ["delay_ns", "tail_over_ref"]


def dump_probe_records(records: Sequence[TailProbeRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in records:
            writer.writerow([repr(r.delay), repr(r.tail_over_ref)])


def load_probe_records(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _CSV_HEADER:
            raise ValueError(f"expected header {_CSV_HEADER}, got {header}")
        records = [TailProbeRecord(float(d), float(v)) for d, v in reader]
    delays = [r.delay for r in records]
    if any(b <= a for a, b in zip(delays, delays[1:])):
        raise ValueError("delays must be strictly increasing")
    return records
