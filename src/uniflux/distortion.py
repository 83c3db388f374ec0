"""Flux-line settling model and its fit.

A falling flux edge leaves a residual tail r(t) = sum_k A_k exp(-t/tau_k)
(fractions of the reference amplitude). The measurement that characterizes it
parks a short probe pulse a delay d after the edge and reads out the
window-averaged residual ("tail over ref"); for exponentials that average has
a closed form, so the fit works directly in tail-over-ref units. Converting a
measured probe phase into these units requires one flux-to-phase scale factor
that the instrument calibration must supply; this module takes the data
already scaled. The fitted terms are what `filters.design_iir_corrector`
inverts.

The fit runs on ``analysis._least_squares_fit``, the lockstep trust-region
kernel every fit shares, unbounded; its SVD covariance gives a rank-deficient
fit (say, a collapsed term) huge, unclipped sigmas.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import _least_squares_fit, _paired
from .errors import FitError

DEFAULT_PROBE_WINDOW_NS = 20.0
DEGENERATE_TAU_RATIO = 1.5
UNRESOLVED_TAU_SPAN = 100.0  # a fitted tau this many times the longest delay is unresolved
_TOL = 1e-10  # ftol = xtol = gtol; at 1e-8 a tau below the first delay is 1.3e-9 off


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


@dataclass(frozen=True)
class TailProbeRecord:
    delay: float
    tail_over_ref: float


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


def _probe_design_matrix(delays, taus, window):
    """Columns g_k(d) = (tau_k/w) e^{-d/tau_k} (1 - e^{-w/tau_k}), one broadcast
    of the (m,) delays against the (..., k) taus: (..., m, k)."""
    taus = taus[..., None, :]
    return (taus / window) * np.exp(-delays[:, None] / taus) * -np.expm1(-window / taus)


def fit_multi_exponential(
    data: Sequence[TailProbeRecord],
    n_terms: int,
    probe_window: float = DEFAULT_PROBE_WINDOW_NS,
    n_starts: int = 16,
) -> TailFitResult:
    """Fit window-averaged multi-exponential settling to probe records.

    Unbounded least squares in (A_k, log tau_k) on the shared trust-region
    kernel, every start in lockstep. Starts are seeded by
    log-spaced/log-uniform tau draws over the delay span with amplitudes
    solved linearly per seed; the best converged start wins.
    ``probe_window`` must be the window the records were measured with —
    omitting the window model biases fast-tau amplitudes by O(w/tau).
    ``degenerate_taus`` is set, with a warning, when neighbouring taus are
    nearly equal or when a term has collapsed out of the probed span: to a
    tau beyond ``UNRESOLVED_TAU_SPAN`` times the longest delay, or below the
    shortest delay, where the data hold only the term's tail. The fitted
    numbers are returned either way.
    """
    if not 1 <= n_terms <= 4:
        raise ValueError("n_terms must be between 1 and 4")
    if len(data) < 4 * n_terms:
        raise ValueError(f"need at least {4 * n_terms} records to fit {n_terms} terms")
    delays, values = _paired([r.delay for r in data], [r.tail_over_ref for r in data],
                             "probe delays and values")
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
        # (2 n_terms, k) -> (k, m), summed term by term: no matmul mixes columns
        terms = _probe_design_matrix(delays, np.exp(theta[n_terms:]).T, probe_window)
        terms *= theta[:n_terms].T[:, None, :]
        fitted = terms[..., 0]
        for k in range(1, n_terms):
            fitted = fitted + terms[..., k]
        return fitted - values

    theta, cov, sse = _least_squares_fit(residuals, starts, tol=_TOL)
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
    shortest, longest = float(np.min(delays)), float(np.max(delays))
    unresolved = []
    if taus_sorted[-1] > UNRESOLVED_TAU_SPAN * longest:
        unresolved.append(f"{taus_sorted[-1]:.3g} ns exceeds {UNRESOLVED_TAU_SPAN:g}x the "
                          f"longest probe delay ({longest:.3g} ns)")
    if taus_sorted[0] < shortest:
        unresolved.append(f"{taus_sorted[0]:.3g} ns is below the shortest probe delay "
                          f"({shortest:.3g} ns)")
    for what in unresolved:
        warnings.warn(f"fitted settling time {what}; the term is unresolved", stacklevel=2)
    return TailFitResult(
        model=model,
        amplitude_sigmas=tuple(amp_sig[order]),
        tau_sigmas=tuple(tau_sig[order]),
        residual_norm=cost,
        degenerate_taus=bool(degenerate or unresolved),
    )
