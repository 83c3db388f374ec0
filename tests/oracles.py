"""Independent oracles used by the test suite.

Everything in this file is deliberately implemented with *different* numerics
than the package (finite-difference grid instead of oscillator basis, direct
LTI simulation instead of analytic inversion, adaptive quadrature instead of
closed forms) so that agreement is meaningful.

The last section holds checkers and readers of the package's outputs (FIR
responses, the Clifford closure table, a program serializer, the waveform
binary reader); the package itself never calls them.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import warnings
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import curve_fit, least_squares
from scipy.signal import lfilter, sosfilt

from uniflux import pulsec
from uniflux.distortion import DEFAULT_PROBE_WINDOW_NS, ExponentialTailModel, TailProbeRecord
from uniflux.dynamics import (
    CLIFFORD_COUNT,
    DRIVE_SAMPLE_RATE,
    VZ_EMISSION_SIGN,
    X90_PHASE_OFFSET,
    Calibration,
    DriveScenario,
    _CHUNK_STEPS,
    _Rotations,
    _SOLVE_STEPS,
    _SOLVE_TOL,
    _chebyshev_fit,
    _chebyshev_steps,
    _check_bracket,
    _clifford_table,
    _maximize_transfer,
    _multiply_planes,
    _net_carrier_gain,
    _prepare,
    _qubit_frame,
    _rwa_pi_amplitude,
    _tree_product,
    build_rb_program,
    cosine_drive,
    evolve,
    predistort_drive,
    rotating_frame,
)
from uniflux.errors import (
    CalibrationError,
    FitError,
    NoSolutionError,
    NumericalError,
    SaturationError,
    ScheduleError,
    _is_integer,
)
from uniflux.filters import apply_iir, round_half_away
from uniflux.fluxonium import TAIL_DIVISOR, ResetFlux, _f01, _flux_free_terms, eigensystem
from uniflux.pulsec import (
    EDGE,
    ENVELOPE,
    CompiledProgram,
    Delay,
    FrameSegment,
    PlayXY,
    PlayZ,
    PulsePrimitive,
    PulseProgram,
    Repeat,
    SetCarrier,
    VirtualZ,
    _sample_count,
)
from uniflux.waveform import Waveform


def phase_grid_spectrum(ej, ec, el, phi_ext_phi0, n_levels=6, npts=30001):
    """Diagonalize the fluxonium Hamiltonian on a real-space phase grid.

    H = -4 E_C d^2/dphi^2 + 0.5 E_L (phi - phi_ext)^2 - E_J cos(phi),
    discretized with second-order central differences (tridiagonal form).
    Returns (levels relative to ground, matrix |<i|phi|j>| as a callable).
    """
    phext = 2.0 * np.pi * phi_ext_phi0
    # Window centered on the inductive minimum, wide enough that the
    # retained levels are deep inside the quadratic confinement.
    span = 5.0 * np.pi + 3.0 * (8.0 * ec / el) ** 0.25
    phi = np.linspace(phext - span, phext + span, npts)
    h = phi[1] - phi[0]
    v = 0.5 * el * (phi - phext) ** 2 - ej * np.cos(phi)
    diag = 8.0 * ec / h**2 + v
    off = np.full(npts - 1, -4.0 * ec / h**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    vecs = vecs / np.sqrt(h)

    def element(i, j):
        return abs(np.sum(vecs[:, i] * phi * vecs[:, j]) * h)

    return vals - vals[0], element


def phase_operator(params):
    """Phase operator (relative to the inductive minimum) in the oscillator basis."""
    n = params.basis_size
    ladder = np.diag(np.sqrt(np.arange(1, n)), 1)
    return (ladder + ladder.T) * (params.phi_zpf)


def operator_phase_matrix(params, spectrum):
    """<i|phi|j> on the retained eigenstates as V^T phi_op V with the n x n
    phase operator; the package forms V^T a V from the ladder alone."""
    vecs = spectrum._vectors
    return vecs.T @ phase_operator(params.replace(basis_size=len(vecs))) @ vecs


def loop_sign_fix(vecs):
    """Reference eigenvector sign fix, one column at a time: each column's
    largest-magnitude component made positive. Changes ``vecs`` in place."""
    for k in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, k]))
        if vecs[lead, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return vecs


def eigh_eigensystem(h, n_levels: int):
    """The package's eigensolve as scipy.linalg.eigh gives it: (levels above the
    ground state, vectors, tails) of the lowest ``n_levels`` states of ``h``.

    Each vector is signed so that its largest-magnitude component is positive;
    tails are the vectors' weights in the top dim // TAIL_DIVISOR oscillator
    states. The package calls LAPACK itself and must match this bit for bit.
    """
    dim = h.shape[0]
    vals, vecs = scipy.linalg.eigh(h, subset_by_index=(0, n_levels - 1))
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n_levels)]
    vecs *= np.where(lead < 0, -1.0, 1.0)
    tails = np.sum(vecs[dim - dim // TAIL_DIVISOR:] ** 2, axis=0)
    return vals - vals[0], vecs, tails


def tridiagonal_flux_free_terms(params):
    """Reference flux-free terms: one eigendecomposition per circuit.

    The package scales the eigenbasis of a + a^dagger it shares across every
    circuit of one basis size; this path decomposes each circuit's own
    phase operator.
    """
    import scipy.linalg

    phi_op = phase_operator(params)
    w, v = scipy.linalg.eigh_tridiagonal(np.diag(phi_op), np.diag(phi_op, 1))
    lc = (np.arange(params.basis_size) + 0.5) * params.plasma_frequency
    return lc, (v * np.cos(w)) @ v.T, (v * np.sin(w)) @ v.T


def cosm_hamiltonian(params):
    """Reference fluxonium Hamiltonian: the matrix cosine at every flux.

    The package builds the same matrix from cos(phi_op) and sin(phi_op),
    computed once per circuit; this path takes ``scipy.linalg.cosm`` of the
    shifted phase operator directly.
    """
    n = params.basis_size
    phi_op = phase_operator(params)
    phi_dc = 2.0 * np.pi * params.phi_ext
    lc = np.diag((np.arange(n) + 0.5) * params.plasma_frequency)
    h = lc - params.e_j * scipy.linalg.cosm(phi_op - phi_dc * np.eye(n))
    return (h + h.T) / 2.0


def scanned_reset_flux(params, f_target: float, scan_points: int = 160):
    """Reference reset-flux search: f01 on the whole grid, then the first bracket.

    The package stops its scan at the first bracket; this path evaluates
    every grid point before checking the band and bracketing the crossing
    closest to 0.5.
    """
    from scipy.optimize import brentq

    terms = {}
    grid = np.linspace(0.5, 1e-3, scan_points)
    f01s = np.array([_f01(params, terms, g) for g in grid])
    lo, hi = f01s[0], float(f01s.max())
    if not (lo <= f_target <= hi):
        raise NoSolutionError(
            f"f_target={f_target} GHz outside attainable band "
            f"[{lo:.4f}, {hi:.4f}] GHz on flux in (0, 0.5]"
        )
    if f_target == lo:
        return ResetFlux(0.5, 0.0)
    # first bracket scanning away from 0.5
    for k in range(len(grid) - 1):
        if (f01s[k] - f_target) * (f01s[k + 1] - f_target) <= 0:
            root = brentq(
                lambda x: _f01(params, terms, x) - f_target, grid[k + 1], grid[k], xtol=1e-10
            )
            return ResetFlux(float(root), 0.5 - float(root))
    raise NoSolutionError(  # pragma: no cover - guarded by band check
        f"no crossing found for f_target={f_target} GHz"
    )


# The fixed-basis flux paths: every flux point solved at params.basis_size.
# The package climbs a ladder of basis sizes per point instead; these keep
# the single-basis sweep and reset search it replaced, as references.


def _fixed_basis_assemble(params, terms) -> np.ndarray:
    """H at ``params.phi_ext`` from the flux-free terms of the same circuit."""
    lc, cos_phi, sin_phi = terms
    phi_dc = 2.0 * np.pi * params.phi_ext
    h = np.diag(lc) - params.e_j * (cos_phi * np.cos(phi_dc) + sin_phi * np.sin(phi_dc))
    return (h + h.T) / 2.0


def fixed_basis_spectrum_sweep(params, flux_grid, n_levels: int = 6):
    """Eigensystem at each flux in ``flux_grid``; rows are independent.

    The flux-free terms of H are computed once for the whole grid.
    """
    flux_grid = list(flux_grid)
    if not flux_grid:
        raise ValueError("flux_grid must be non-empty")
    terms = _flux_free_terms(params)
    rows = []
    for idx, flux in enumerate(flux_grid):
        try:
            spec = eigensystem(_fixed_basis_assemble(params.replace(phi_ext=flux), terms), n_levels)
        except NumericalError as exc:
            raise NumericalError(f"sweep row {idx} (flux={flux}): {exc}") from exc
        rows.append((float(flux), spec))
    return rows


def _fixed_basis_f01(params, terms, flux: float) -> float:
    spec = eigensystem(_fixed_basis_assemble(params.replace(phi_ext=flux), terms), 2)
    return float(spec.levels[1])


def fixed_basis_reset_flux(params, f_target: float, scan_points: int = 160):
    """Flux phi* in (0, 0.5) nearest 0.5 where f01(phi*) equals ``f_target``.

    Walks a dense grid from 0.5 downward and stops at the first grid step
    that brackets the target, the crossing closest to the sweet spot, then
    refines it with a bracketing root-finder; the scan and every root-finder
    evaluation share one set of flux-free terms. The whole grid is evaluated
    only when no step brackets the target: then NoSolutionError names the
    attainable band, f01(0.5) up to the grid's largest f01. A non-finite
    ``f_target``, or a ``scan_points`` that is not an integer >= 2, raises
    ValueError before any eigensolve.
    """
    if not np.isfinite(f_target):
        raise ValueError(f"f_target must be finite, got {f_target}")
    if not _is_integer(scan_points) or scan_points < 2:
        raise ValueError(f"scan_points must be an integer >= 2, got {scan_points!r}")
    from scipy.optimize import brentq

    terms = _flux_free_terms(params)
    grid = np.linspace(0.5, 1e-3, scan_points)
    lo = _fixed_basis_f01(params, terms, grid[0])
    if f_target == lo:
        return ResetFlux(0.5, 0.0)
    f01s = [lo]
    for k in range(len(grid) - 1):
        f01s.append(_fixed_basis_f01(params, terms, grid[k + 1]))
        # below the sweet-spot minimum no bracket counts
        if lo <= f_target and (f01s[k] - f_target) * (f01s[k + 1] - f_target) <= 0:
            root = brentq(
                lambda x: _fixed_basis_f01(params, terms, x) - f_target,
                grid[k + 1], grid[k], xtol=1e-10,
            )
            return ResetFlux(float(root), 0.5 - float(root))
    raise NoSolutionError(
        f"f_target={f_target} GHz outside attainable band "
        f"[{lo:.4f}, {max(f01s):.4f}] GHz on flux in (0, 0.5]"
    )


BOLTZMANN = 1.380649e-23  # J / K, exact since the 2019 SI


def johnson_psd(temperature: float, z0: float) -> float:
    """Double-sided Johnson-Nyquist voltage PSD 2 k_B T Z0 (V^2/Hz), the
    noise `linebudget.tradeoff_sweep` leaves out of its budget."""
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if z0 < 0:
        raise ValueError("z0 must be non-negative")
    return 2.0 * BOLTZMANN * temperature * z0


def lti_distorted(samples, amplitudes, taus_ns, sample_rate_gsps):
    """Pass a waveform through the multi-exponential step-distortion system.

    Direct simulation of y = x + sum_k A_k * F_k x with
    F_k(z) = (1 - z^-1) / (1 - exp(-T/tau_k) z^-1), the step-invariant
    discretization of a unit step acquiring an A_k exp(-t/tau_k) tail.
    """
    t = 1.0 / sample_rate_gsps
    out = np.asarray(samples, dtype=float).copy()
    for a_k, tau in zip(amplitudes, taus_ns):
        lam = np.exp(-t / tau)
        out += a_k * lfilter([1.0, -1.0], [1.0, -lam], samples)
    return out


def sosfilt_blocks(c, blocks) -> list:
    """An IIR corrector's output block by block through ``scipy.signal.sosfilt``
    with its state carried in ``zi`` (``filters.iir_blocks`` before it ran
    sosfilt's kernel alone)."""
    sos = np.array([[s.b0, s.b1, 0.0, 1.0, s.a1, 0.0] for s in c.sections])
    state = np.zeros((len(sos), 2))
    out = []
    for x in blocks:
        y, state = sosfilt(sos, x, zi=state)
        out.append(y)
    return out


def sectionwise_iir(w: Waveform, c) -> np.ndarray:
    """An IIR corrector's output, one ``lfilter`` per section in cascade order
    (the scheme ``filters.apply_iir`` replaced by a single ``sosfilt`` pass)."""
    out = w.samples
    for s in c.sections:
        out = lfilter([s.b0, s.b1], [1.0, s.a1], out)
    return out


def windowed_tail_quad(amplitudes, taus_ns, delay_ns, window_ns):
    """Window-averaged residual tail by adaptive quadrature (no closed form)."""

    def r(t):
        return sum(a * np.exp(-t / tau) for a, tau in zip(amplitudes, taus_ns))

    val, _ = quad(r, delay_ns, delay_ns + window_ns, limit=200)
    return val / window_ns


def depolarized_survival(p, m):
    """Closed-form RB survival for perfect Cliffords + depolarizing channel."""
    return 0.5 + 0.5 * p**m


def density_matrix_survival(indices, interleaved, p, recovery) -> float:
    """RB survival by walking the 2x2 density matrix: depolarizing of
    strength ``p`` after each random Clifford of ``indices``, the
    ``interleaved`` Clifford (or None) after each of those, then the
    ``recovery`` Clifford, all as exact table unitaries."""
    table = _clifford_table()
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2) / 2.0
    for index in indices:
        mat = table[index][1]
        rho = p * (mat @ rho @ mat.conj().T) + (1.0 - p) * eye
        if interleaved is not None:
            mat = table[interleaved][1]
            rho = mat @ rho @ mat.conj().T
    mat = table[recovery][1]
    rho = mat @ rho @ mat.conj().T
    return float(rho[0, 0].real)


def double_exp_population(t, a, b, t_exp, t_qp, n_qp):
    """Relaxation with a quasiparticle burst term (generator for synthetics)."""
    t = np.asarray(t, dtype=float)
    return a * np.exp(-t / t_exp) * np.exp(n_qp * (np.exp(-t / t_qp) - 1.0)) + b


def one_over_e_crossing(a, b, t_exp, t_qp, n_qp):
    """1/e crossing of the double-exponential curve by Brent root finding.

    Independent of the package's bisection: same definition (the time where
    the curve reaches a/e + b), different root finder.
    """
    from scipy.optimize import brentq

    target = a / np.e + b

    def excess(t):
        return double_exp_population(t, a, b, t_exp, t_qp, n_qp) - target

    return brentq(excess, 1e-9, 1e5, xtol=1e-12, rtol=8.9e-16)


def dephasing_envelope(t, c, d, t1_de, t_phi_exp, t_phi_g):
    """Exponential-plus-Gaussian dephasing envelope (generator for synthetics)."""
    t = np.asarray(t, dtype=float)
    exp_rate = 0.0 if np.isinf(t_phi_exp) else 1.0 / t_phi_exp
    return (
        c
        * np.exp(-t / (2.0 * t1_de))
        * np.exp(-t * exp_rate - (t / t_phi_g) ** 2)
        + d
    )


def multi_start_curve_fit(model, t, values, starts, bounds):
    """Reference multi-start fit: ``curve_fit`` from each start, lowest SSE wins.

    The package's fit kernel calls ``least_squares`` directly and must give
    the same (popt, pcov, sse) as this path on the same starts and bounds.
    """
    best = None
    for p0 in starts:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                popt, pcov = curve_fit(
                    model, t, values, p0=p0, bounds=bounds, maxfev=20000
                )
        except (RuntimeError, ValueError):
            continue
        sse = float(np.sum((model(t, *popt) - values) ** 2))
        if best is None or sse < best[2]:
            best = (popt, pcov, sse)
    if best is None:
        raise FitError("least-squares fit did not converge from any start")
    return best


def per_start_least_squares(residuals, starts, bounds, **solver):
    """Reference multi-start kernel: ``least_squares`` from each start, one
    start after another, as ``analysis._least_squares_fit`` ran its starts
    before they advanced in lockstep. Each start's OptimizeResult, or None
    where least_squares raised ValueError or FloatingPointError (a start
    outside the bounds, residuals not finite at the start). The Jacobian is
    least_squares' own 2-point rule, which the kernel's forward difference
    equals bit for bit."""
    results = []
    for x0 in starts:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                results.append(least_squares(residuals, x0, bounds=bounds, **solver))
        except (ValueError, FloatingPointError):
            results.append(None)
    return results


def least_squares_winner(solutions):
    """(x, covariance, sse) of the ``per_start_least_squares`` solutions: the
    lowest sum of squares among the starts that converged, the first on a
    tie, and the curve-fit covariance through ``scipy.linalg.svd``."""
    best = None
    for sol in solutions:
        if sol is None or not sol.success:
            continue
        sse = float(np.sum(sol.fun**2))
        if best is None or sse < best[1]:
            best = (sol, sse)
    if best is None:
        raise FitError("least-squares fit did not converge from any start")
    sol, sse = best
    m, n = sol.jac.shape
    _, s, vt = scipy.linalg.svd(sol.jac, full_matrices=False)
    s = s[s > np.finfo(float).eps * max(m, n) * s[0]]
    cov = np.dot(vt[: s.size].T / s**2, vt[: s.size])
    if m > n and not np.isnan(cov).any():
        cov = cov * (2 * sol.cost / (m - n))
    else:
        cov.fill(np.inf)
    return sol.x, cov, sse


def argmin_mixture_inits(x: np.ndarray) -> tuple:
    """The reset EM's 16 starts as first written: Lloyd steps that assign by
    argmin over an (n, 2) distance array and stop on ``np.allclose``, and one
    percentile call per quantile pair. The package must match it bit for bit."""
    starts = []
    centers = np.percentile(x, [5.0, 95.0])
    for _ in range(64):
        assign = np.abs(x[:, None] - centers[None, :]).argmin(axis=1)
        updated = np.array([
            x[assign == k].mean() if np.any(assign == k) else centers[k]
            for k in range(2)
        ])
        if np.allclose(updated, centers, rtol=0, atol=1e-12):
            break
        centers = updated
    starts.append(np.sort(centers))
    for q in np.linspace(0.02, 0.98, 15):
        starts.append(np.percentile(x, [50.0 * q, 50.0 + 50.0 * q]))

    weights, means, variances = [], [], []
    overall_var = max(float(np.var(x)), 1e-12)
    for lo_c, hi_c in starts:
        threshold = 0.5 * (lo_c + hi_c)
        mask = x > threshold
        frac = min(max(float(mask.mean()), 1e-3), 1.0 - 1e-3)
        lo = x[~mask] if np.any(~mask) else x
        hi = x[mask] if np.any(mask) else x
        weights.append([1.0 - frac, frac])
        means.append([float(lo.mean()), float(hi.mean())])
        variances.append([
            max(float(lo.var()), 1e-3 * overall_var),
            max(float(hi.var()), 1e-3 * overall_var),
        ])
    return np.array(weights), np.array(means), np.array(variances)


def fresh_array_em(x: np.ndarray, cx: np.ndarray, cw: np.ndarray, floor: float,
                   max_iter: int = 300):
    """The reset EM as first written: every iteration builds its (restarts, 2,
    bins) arrays afresh and squares (cx - mu) in both the E- and the M-step.
    Same return as ``analysis._em_all_restarts``, bit for bit."""
    w, mu, var = argmin_mixture_inits(x)
    total = cw.sum()
    prev_ll = np.full(len(w), -np.inf)
    ll = prev_ll
    for _ in range(max_iter):
        log_comp = (
            -0.5 * (np.log(2.0 * np.pi * var[:, :, None])
                    + (cx[None, None, :] - mu[:, :, None]) ** 2 / var[:, :, None])
            + np.log(w[:, :, None])
        )
        lse = np.logaddexp(log_comp[:, 0, :], log_comp[:, 1, :])
        ll = (cw[None, :] * lse).sum(axis=1)
        resp = np.exp(log_comp - lse[:, None, :]) * cw[None, None, :]
        bulk = np.maximum(resp.sum(axis=2), 1e-300)
        w = bulk / total
        mu = (resp * cx[None, None, :]).sum(axis=2) / bulk
        var = (resp * (cx[None, None, :] - mu[:, :, None]) ** 2).sum(axis=2) / bulk
        var = np.maximum(var, floor)
        w = np.clip(w, 1e-12, 1.0 - 1e-12)
        w /= w.sum(axis=1, keepdims=True)
        if np.all(np.abs(ll - prev_ll) < 1e-10 * (np.abs(ll) + 1.0)):
            break
        prev_ll = ll
    best = int(np.argmax(ll))
    converged = abs(ll[best] - prev_ll[best]) < 1e-7 * (abs(ll[best]) + 1.0)
    return w[best], mu[best], var[best], float(ll[best]), converged


def per_term_design_matrix(delays, taus, window):
    """The settling fit's design matrix built one tau at a time and stacked:
    g_k(d) = (tau_k/w) e^{-d/tau_k} (1 - e^{-w/tau_k})."""
    cols = [
        (tau / window) * np.exp(-delays / tau) * -np.expm1(-window / tau) for tau in taus
    ]
    return np.stack(cols, axis=1)


def per_term_jacobian(theta, delays, window):
    """The settling fit's Jacobian in (A_k, log tau_k), one tau at a time, with
    e^{-d/tau_k} evaluated again for each block."""
    n_terms = theta.size // 2
    taus = np.exp(theta[n_terms:])
    jac = np.empty((len(delays), 2 * n_terms))
    jac[:, :n_terms] = per_term_design_matrix(delays, taus, window)
    for k, tau in enumerate(taus):
        e0 = np.exp(-delays / tau)
        e1 = np.exp(-(delays + window) / tau)
        dg_dtau = ((1.0 + delays / tau) * e0 - (1.0 + (delays + window) / tau) * e1) / window
        jac[:, n_terms + k] = theta[k] * dg_dtau * tau
    return jac


def lm_tail_fit(delays, values, window, starts):
    """The settling-tail fit as the package first ran it: MINPACK
    Levenberg-Marquardt (``least_squares(method="lm")``) from each start,
    with the per-term design matrix and Jacobian and xtol 1e-14, then
    ``least_squares_winner``'s (x, covariance, sse). Raises FitError when no
    start converges, and also, as the package does, when the winner's total
    amplitude is at least 1. Its result may depend on the process's heap
    layout; it is a reference for the residual norm, not for bits."""
    n = len(starts[0]) // 2

    def residuals(theta):
        return per_term_design_matrix(delays, np.exp(theta[n:]), window) @ theta[:n] - values

    x, cov, sse = least_squares_winner(per_start_least_squares(
        residuals, starts, (-np.inf, np.inf), method="lm",
        jac=lambda theta: per_term_jacobian(theta, delays, window), xtol=1e-14))
    if np.sum(np.abs(x[:n])) >= 1.0:
        raise FitError("best fit is unphysical")
    return x, cov, sse


def upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited interpolation by rfft zero-padding (real input)."""
    if factor == 1:
        return np.asarray(x, dtype=float)
    n = len(x)
    spec = np.fft.rfft(x)
    if n % 2 == 0:
        spec = spec.copy()
        spec[-1] *= 0.5  # split the Nyquist bin, now an interior frequency
    return np.fft.irfft(spec, n * factor) * factor


def sequential_populations(samples):
    """Ground-start populations at every sample boundary, by walking the
    state column through the (d, d, n) per-sample propagators one by one."""
    column = np.eye(samples.shape[0], dtype=complex)[:, 0]
    columns = [column]
    for sample in np.moveaxis(samples, 2, 0):
        column = sample.dot(column)
        columns.append(column)
    return np.abs(np.array(columns)) ** 2


def prefix_scan(samples):
    """Ground-start populations at every boundary of the (d, d, n) per-sample
    propagators, and their ordered product U.

    A reduce-then-scan over blocks of about sqrt(n) samples, the last one
    padded with identities: `_tree_product` gives each block's product, a
    walk over those gives the state entering each block, and then all blocks
    advance their states together, one sample position at a time. That is
    about 2 sqrt(n) batched steps and, besides the tree products, O(n d^2)
    work; a full-matrix parallel prefix (Hillis-Steele) would take
    O(n log n d^3). The last row is read off U, so populations[-1] is
    |U[:, 0]|^2 exactly.
    """
    dim, _, n = samples.shape
    length = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) samples per block
    blocks = -(-n // length)
    padded = np.empty((dim, dim, blocks * length), complex)
    padded[:, :, :n] = samples
    padded[:, :, n:] = np.eye(dim)[:, :, None]
    planes = padded.reshape(dim, dim, blocks, length).transpose(0, 1, 3, 2)
    totals = _tree_product(planes)
    states = np.empty((length + 1, dim, 1, blocks), complex)  # [position, :, :, block]
    states[0, :, :, 0] = np.eye(dim)[:, :1]
    for b in range(1, blocks):
        states[0, :, :, b] = totals[:, :, b - 1] @ states[0, :, :, b - 1]
    for pos in range(length):
        _multiply_planes(planes[:, :, pos], states[pos], states[pos + 1])
    unitary = _tree_product(totals)
    pops = np.empty((n + 1, dim))
    pops[0] = np.eye(dim)[0]
    pops[1:] = np.abs(states[1:, :, 0].transpose(2, 0, 1).reshape(-1, dim)[:n]) ** 2
    pops[-1] = np.abs(unitary[:, 0]) ** 2
    return pops, unitary


def scanned_trajectory(scenario: DriveScenario, w: Waveform):
    """The trajectory `evolve` no longer keeps: (populations of a ground-state
    start at every input-sample boundary, U, the largest population of the
    top retained level over them).

    The package's own steps (`_prepare`, `_chebyshev_steps`) are grouped by
    input sample: chunks hold whole samples and at most _CHUNK_STEPS steps,
    each sample's steps are multiplied by `_tree_product`, and `prefix_scan`
    walks the samples (reduce, then scan; Blelloch, "Prefix sums and their
    applications", CMU-CS-90-190 (1990)). Populations are clipped at 1, as
    the package clips them.
    """
    shape = _prepare(scenario, w)
    levels, phi_mat, phi_norm = _qubit_frame(scenario.qubit, scenario.levels)
    e_l, h, k = scenario.qubit.e_l, scenario.time_step, shape.steps_per_sample
    dim = len(levels)
    static = 2.0 * np.pi * np.diag(levels).astype(complex)
    coupling = 2.0 * np.pi * (-e_l) * phi_mat
    coupling_norm = 2.0 * np.pi * abs(e_l) * phi_norm
    chunk = max(1, _CHUNK_STEPS // k) * k
    samples = []
    for start in range(0, len(shape.mids), chunk):
        xs = shape.mids[start:start + chunk].reshape(-1, k)
        fit = _chebyshev_fit(static, coupling, coupling_norm, h, float(xs.min()), float(xs.max()))
        steps = _chebyshev_steps(fit, xs.T.ravel())
        samples.append(_tree_product(steps.reshape(dim, dim, *xs.T.shape)))
    pops, unitary = prefix_scan(np.concatenate(samples, axis=2))
    np.minimum(pops, 1.0, out=pops)
    return pops, unitary, float(pops[:, -1].max())


def chunk_tree_propagate(levels: np.ndarray, phi_mat: np.ndarray, phi_norm: float, e_l: float,
                         dphi_mid: np.ndarray, h: float):
    """Midpoint-exponential propagation; returns (U, the largest Chebyshev
    node count of any chunk); ``phi_norm`` is ||phi_mat||_2.

    Each chunk of at most _CHUNK_STEPS steps, in step order, gets its steps
    from `_chebyshev_steps` and their product from one `_tree_product`; U is
    the product of the chunk products, the last chunk's leftmost. This is
    the package's own `_propagate` grouped as before it reduced each chunk
    in blocks: the same fit per chunk, one tree over the whole chunk.
    """
    static = 2.0 * np.pi * np.diag(levels).astype(complex)
    coupling = 2.0 * np.pi * (-e_l) * phi_mat
    coupling_norm = 2.0 * np.pi * abs(e_l) * phi_norm
    unitary, nodes = np.eye(len(levels), dtype=complex), 1
    for start in range(0, len(dphi_mid), _CHUNK_STEPS):
        xs = dphi_mid[start:start + _CHUNK_STEPS]
        fit = _chebyshev_fit(static, coupling, coupling_norm, h, float(xs.min()), float(xs.max()))
        unitary = _tree_product(_chebyshev_steps(fit, xs)) @ unitary
        nodes = max(nodes, fit[3])
    return unitary, nodes


def midpoint_propagate(levels, phi_mat, e_l, dphi_mid, h, record_every):
    """Reference per-step midpoint integrator: one exact exponential per step.

    Every step exp(-i h (D + x C)) comes from its own eigendecomposition and
    is multiplied onto the propagator one at a time, recording the
    ground-start populations every ``record_every`` steps. Returns
    (boundary populations, U).
    """
    dim = len(levels)
    static = 2.0 * np.pi * np.diag(levels).astype(complex)
    coupling = 2.0 * np.pi * (-e_l) * phi_mat
    chunk = 65536  # steps per batched eigh
    unitary = np.eye(dim, dtype=complex)
    pops = [np.abs(unitary[:, 0]) ** 2]
    done = 0
    while done < len(dphi_mid):
        xs = dphi_mid[done:done + chunk]
        hams = static[None, :, :] + xs[:, None, None] * coupling[None, :, :]
        vals, vecs = np.linalg.eigh(hams)
        steps = np.einsum(
            "nij,nj,nkj->nik", vecs, np.exp(-1j * vals * h), vecs.conj()
        )
        for m in range(len(xs)):
            unitary = steps[m] @ unitary
            if (done + m + 1) % record_every == 0:
                pops.append(np.abs(unitary[:, 0]) ** 2)
        done += len(xs)
    return np.array(pops), unitary


# ---------------------------------------------------------------------------
# calibration: search the excited population
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def drive_pulse(scenario: DriveScenario, amplitude_v: float, duration_ns: float,
                frequency_ghz: float, predistortion: bool = True) -> Waveform:
    """One cosine pulse at the AWG, pre-distorted for the scenario channel
    when asked: the drive built whole at its amplitude, before the channel,
    where the package's `_prepare` compensates a unit shape itself."""
    w = cosine_drive(duration_ns, amplitude_v, frequency_ghz)
    if predistortion:
        w = predistort_drive(w, scenario.channel,
                             _qubit_frame(scenario.qubit, scenario.levels)[0][1])
    return w


def _excited_population(scenario, amplitude_v, duration_ns, frequency_ghz,
                        predistortion) -> float:
    w = drive_pulse(scenario, amplitude_v, duration_ns, frequency_ghz, predistortion)
    return float(evolve(scenario, w).populations[-1, 1])


def golden_section_max(objective, lo: float, hi: float, value_tol: float,
                       max_iter: int = 120) -> float:
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(max_iter):
        if abs(fc - fd) < value_tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def population_calibrate_pi(scenario: DriveScenario, duration_ns: float,
                            predistortion: bool = True, *,
                            drive_frequency_ghz: float | None = None,
                            bracket: tuple[float, float] | None = None,
                            population_tol: float = 1e-5) -> float:
    """Pi-pulse amplitude (volts) by golden-section population maximization.

    A coarse scan over the bracket locates an interior maximum (a monotone
    response over the bracket raises CalibrationError); golden-section then
    refines to ``population_tol`` in the objective.
    """
    if duration_ns * DRIVE_SAMPLE_RATE < 4:
        raise ValueError("pulse duration must cover at least 4 samples")
    levels = _qubit_frame(scenario.qubit, scenario.levels)[0]
    f01 = levels[1]
    f_d = drive_frequency_ghz if drive_frequency_ghz is not None else f01

    if bracket is None:
        gain = _net_carrier_gain(scenario, predistortion, f01, f_d)
        estimate = _rwa_pi_amplitude(scenario, duration_ns, gain)
        bracket = (0.3 * estimate, 2.2 * estimate)
    lo, hi = bracket
    if not 0 <= lo < hi:
        raise ValueError("bracket must satisfy 0 <= lo < hi")

    def objective(a):
        return _excited_population(scenario, a, duration_ns, f_d, predistortion)

    coarse = np.linspace(lo, hi, 17)
    values = [objective(a) for a in coarse]
    peak = int(np.argmax(values))
    if peak == 0 or peak == len(coarse) - 1:
        raise CalibrationError(
            "population is monotone over the amplitude bracket "
            f"[{lo:.4g}, {hi:.4g}] V; no interior maximum to refine"
        )
    return golden_section_max(objective, coarse[peak - 1], coarse[peak + 1],
                              population_tol)


def population_calibrate_drive_frequency(scenario: DriveScenario, duration_ns: float,
                                         predistortion: bool = True, *,
                                         bracket_ghz: tuple[float, float] | None = None) -> float:
    """Drive frequency maximizing calibrated transfer (Bloch-Siegert trim).

    The lab-frame drive shifts the effective resonance upward by a
    Omega^2-scale amount (measured trim ~2.2 MHz for a 20 ns pi pulse at
    f01 = 224 MHz, falling off as 1/duration^2); this searches the trimmed
    frequency by golden section, re-optimizing the amplitude at each point.
    """
    levels = _qubit_frame(scenario.qubit, scenario.levels)[0]
    f01 = levels[1]
    if bracket_ghz is None:
        span = 2.6e-3 * (20.0 / duration_ns) ** 2 + 4e-4
        bracket_ghz = (f01, f01 + span)

    gain = _net_carrier_gain(scenario, predistortion, f01, f01)
    estimate = _rwa_pi_amplitude(scenario, duration_ns, gain)

    def best_population(f_d):
        def objective(a):
            return _excited_population(scenario, a, duration_ns, f_d, predistortion)
        amp = golden_section_max(objective, 0.8 * estimate, 1.3 * estimate, 1e-6)
        return objective(amp)

    return golden_section_max(best_population, bracket_ghz[0], bracket_ghz[1],
                              1e-7)


# ---------------------------------------------------------------------------
# calibration: one waveform per amplitude, frequency trim around a pi solve
# ---------------------------------------------------------------------------


def drive_frame_unitary(scenario: DriveScenario, w: Waveform,
                        frequency_ghz: float) -> np.ndarray:
    """Propagator of ``w`` in the frame rotating with the drive (level 1 at
    ``frequency_ghz``)."""
    frame = _qubit_frame(scenario.qubit, scenario.levels)[0].copy()
    frame[1] = frequency_ghz
    return rotating_frame(evolve(scenario, w).final_unitary, frame, len(w) / w.sample_rate)


def waveform_rotation(scenario, amplitude_v, duration_ns, frequency_ghz,
                      predistortion) -> tuple[float, float, np.ndarray]:
    """(theta, n_z, loss) of one pulse, synthesized, filtered and evolved at
    its own amplitude. theta and n_z describe its {0,1} block, normalized to
    SU(2), with the lead and tail precession at the detuning divided out;
    |loss|^2 = 1 - P1."""
    w = drive_pulse(scenario, amplitude_v, duration_ns, frequency_ghz, predistortion)
    unitary = drive_frame_unitary(scenario, w, frequency_ghz)
    detuning = _qubit_frame(scenario.qubit, scenario.levels)[0][1] - frequency_ghz
    u = np.exp(1j * np.pi * detuning * (len(w) / w.sample_rate - duration_ns))
    block = unitary[:2, :2] * np.array([[1.0, u], [u, u * u]])
    v = block / np.sqrt(np.linalg.det(block))
    theta = 2.0 * math.acos(min(1.0, max(-1.0, 0.5 * v.trace().real)))
    n_z = -(v[0, 0] - v[1, 1]).imag / (2.0 * math.sin(0.5 * theta))
    return theta, n_z, np.delete(unitary[:, 0], 1)


def _secant(residual, x0: float, r0: float, x1: float, lo: float, hi: float,
            what: str) -> float:
    """Root of ``residual`` to 1e-10 by secant steps from (x0, r0) and x1.
    An iterate outside [lo, hi] or a step cap reached raises CalibrationError."""
    for _ in range(_SOLVE_STEPS):
        _check_bracket(x1, lo, hi, what)
        r1 = residual(x1)
        if abs(r1) < _SOLVE_TOL:
            return x1
        if r1 == r0:
            break
        x0, x1, r0 = x1, x1 - r1 * (x1 - x0) / (r1 - r0), r1
    raise CalibrationError(f"{what} solve did not converge in {_SOLVE_STEPS} steps")


def theta_first_calibrate_pi(scenario: DriveScenario, duration_ns: float,
                             predistortion: bool = True) -> Calibration:
    """The pi pulse of largest transfer at f01, found as `calibrate_pi` found
    it before it went straight for the maximum: theta = pi solved to 1e-10 by
    secant steps from (0, -pi) and the start (`_Rotations`), then Newton steps
    (`_maximize_transfer`) from every pulse that solve propagated."""
    rotations = _Rotations(scenario, duration_ns, predistortion)
    f01 = rotations.frequencies[0]
    tried = []

    def excess(a):
        tried.append(rotations(a, f01))
        return tried[-1].theta - math.pi

    _secant(excess, 0.0, -math.pi, rotations.start, *rotations.amplitudes, "amplitude")
    return _maximize_transfer(tried, lambda a: rotations(a, f01))


def nested_calibrate_drive_frequency(scenario: DriveScenario, duration_ns: float,
                                     predistortion: bool = True, *,
                                     bracket_ghz: tuple[float, float] | None = None
                                     ) -> tuple[float, float]:
    """(amplitude, drive frequency) of the untilted pi pulse, by secant steps
    on n_z from the two ends of the bracket, each step around a full secant
    solve of theta = pi warm-started from the last one. The amplitude is that
    inner solve's root at the returned frequency."""
    levels = _qubit_frame(scenario.qubit, scenario.levels)[0]
    f01 = levels[1]
    lo, hi = bracket_ghz or (f01, f01 + 2.6e-3 * (20.0 / duration_ns) ** 2 + 4e-4)
    estimate = _rwa_pi_amplitude(scenario, duration_ns,
                                 _net_carrier_gain(scenario, predistortion, f01, f01))
    a_lo, a_hi = 0.3 * estimate, 2.2 * estimate
    amplitude = [estimate]  # warm start of the next amplitude solve

    def tilt(f_d):
        tried = []

        def excess(a):
            tried.append((a, *waveform_rotation(scenario, a, duration_ns, f_d, predistortion)))
            return tried[-1][1] - math.pi

        _secant(excess, 0.0, -math.pi, min(max(amplitude[0], a_lo), a_hi), a_lo, a_hi,
                "amplitude")
        amplitude[0], _, n_z, _ = tried[-1]
        return n_z

    frequency = _secant(tilt, lo, tilt(lo), hi, lo, hi, "drive-frequency")
    return amplitude[0], frequency


# ---------------------------------------------------------------------------
# randomized benchmarking: a sequence played with margins of any width
# ---------------------------------------------------------------------------


def padded_rb_survivals(scenario: DriveScenario, gate, length: int, sequences: int,
                        seed: int, quiet_ns: float) -> list:
    """Ground-state survivals of ``sequences`` random sequences of ``length``
    Cliffords, drawn from ``seed`` as waveform-mode `run_rb` draws them (no
    interleaving) and closed by the recovery the rounded-key lookup finds.
    Each program is compiled and synthesized at DRIVE_SAMPLE_RATE, scaled to
    ``awg_vmax`` and evolved with ``quiet_ns`` of zeros before and after it."""
    f01 = _qubit_frame(scenario.qubit, scenario.levels)[0][1]
    carrier = f01 if gate.drive_frequency_ghz is None else gate.drive_frequency_ghz
    config = pulsec.SynthesisConfig(sample_rate=DRIVE_SAMPLE_RATE)
    quiet = np.zeros(int(round(quiet_ns * DRIVE_SAMPLE_RATE)))
    rng = np.random.default_rng(seed)
    survivals = []
    for _ in range(sequences):
        indices = [int(i) for i in rng.integers(0, CLIFFORD_COUNT, size=length)]
        total = np.eye(2, dtype=complex)
        for i in indices:
            total = clifford_matrix(i) @ total
        program = build_rb_program(indices + [clifford_index_of(total.conj().T)], gate,
                                   DRIVE_SAMPLE_RATE, carrier)
        played = pulsec.synthesize(pulsec.compile(program, config), config).samples
        volts = np.concatenate([quiet, played * scenario.line.awg_vmax, quiet])
        survivals.append(float(evolve(scenario, Waveform(volts, DRIVE_SAMPLE_RATE))
                               .populations[-1, 0]))
    return survivals


def interleaved_rb_survivals(scenario: DriveScenario, gate, length: int, sequences: int,
                            seed: int, interleaved: int, quiet_ns: float) -> list:
    """Ground-state survivals of waveform-mode interleaved RB, each sequence
    built explicitly: ``length`` Cliffords drawn from ``seed`` as `run_rb`
    draws them, ``interleaved`` after each one, and the recovery that
    `matrix_recovery_index` finds. Each program is played as
    `padded_rb_survivals` plays it."""
    f01 = _qubit_frame(scenario.qubit, scenario.levels)[0][1]
    carrier = f01 if gate.drive_frequency_ghz is None else gate.drive_frequency_ghz
    config = pulsec.SynthesisConfig(sample_rate=DRIVE_SAMPLE_RATE)
    quiet = np.zeros(int(round(quiet_ns * DRIVE_SAMPLE_RATE)))
    rng = np.random.default_rng(seed)
    survivals = []
    for _ in range(sequences):
        drawn = [int(i) for i in rng.integers(0, CLIFFORD_COUNT, size=length)]
        applied = [index for i in drawn for index in (i, interleaved)]
        program = build_rb_program(applied + [matrix_recovery_index(applied)], gate,
                                   DRIVE_SAMPLE_RATE, carrier)
        played = pulsec.synthesize(pulsec.compile(program, config), config).samples
        volts = np.concatenate([quiet, played * scenario.line.awg_vmax, quiet])
        survivals.append(float(evolve(scenario, Waveform(volts, DRIVE_SAMPLE_RATE))
                               .populations[-1, 0]))
    return survivals


def matrix_recovery_index(indices) -> int:
    """Index of the Clifford inverting the composition T of ``indices`` in
    order, by multiplying their 2x2 matrices one by one: the table entry C
    with |tr(C T)| = 2, where any other has |tr(C T)| <= sqrt(2)."""
    table = _clifford_table()
    total = np.eye(2, dtype=complex)
    for i in indices:
        total = table[i][1] @ total
    mats = np.array([mat for _, mat in table])
    return int(np.argmax(np.abs(np.einsum("kij,ji->k", mats, total))))


def instruction_rb_program(indices, gate, sample_rate: float,
                           carrier_ghz: float) -> PulseProgram:
    """`build_rb_program` built one instruction at a time: the carrier, then a
    fresh PlayXY per X_pi/2 and a fresh VirtualZ per virtual-Z op of every
    Clifford."""
    primitive = PulsePrimitive(
        id="x90",
        samples=tuple(pulsec.cosine_envelope(gate.duration_ns, sample_rate)),
        sample_rate=sample_rate,
        kind="envelope",
    )
    instructions = [SetCarrier(carrier_ghz)]
    for index in indices:
        for op in _clifford_table()[index][0]:
            if op[0] == "vz":
                instructions.append(VirtualZ(phase=VZ_EMISSION_SIGN * op[1] * math.pi / 2.0))
            else:
                instructions.append(PlayXY("x90", amplitude=gate.amplitude_dac,
                                           phase_offset=X90_PHASE_OFFSET))
    return PulseProgram(
        instructions=tuple(instructions),
        primitives={"x90": primitive},
    )


# ---------------------------------------------------------------------------
# pulse compiler: one instruction at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimelineProgram:
    """A compiled program as two aligned sample timelines: a complex XY
    envelope and the Z baseband (the form ``pulsec.compile`` returned before
    it kept the XY play schedule)."""

    xy_envelope: np.ndarray  # complex, one entry per sample of z_baseband
    z_baseband: Waveform
    frame_segments: tuple

    @property
    def sample_rate(self) -> float:
        return self.z_baseband.sample_rate

    def __len__(self) -> int:
        return len(self.xy_envelope)


def xy_timeline(compiled: CompiledProgram) -> np.ndarray:
    """The complex XY envelope of a play schedule, one scatter per primitive:
    out[start + k] = scale * samples[k].

    The product is one flat array: numpy rounds a signed zero of a
    one-element 2-D product differently from ``scale * samples``.
    """
    out = np.zeros(len(compiled), dtype=complex)
    for index, samples in enumerate(compiled.primitives):
        mine = compiled.xy_primitives == index
        count, length = int(mine.sum()), len(samples)
        at = compiled.xy_starts[mine, None] + np.arange(length)
        out[at.ravel()] = np.repeat(compiled.xy_scales[mine], length) * np.tile(samples, count)
    return out


def z_timeline(compiled: CompiledProgram) -> Waveform:
    """The Z path of a Z schedule as one sample timeline (the form
    ``pulsec.compile`` returned before it kept the schedule): one scatter per
    edge primitive, out[start + k] = level * samples[k], then one fill of the
    holds."""
    z = np.zeros(len(compiled))
    edges, holds = compiled.z_edges, compiled.z_holds
    starts = edges[:, 0].astype(np.int64)
    for index, samples in enumerate(compiled.primitives):
        mine = edges[:, 1] == index
        count, length = int(mine.sum()), len(samples)
        at = starts[mine, None] + np.arange(length)
        z[at.ravel()] = np.repeat(edges[mine, 2], length) * np.tile(samples, count)
    counts = holds[:, 1].astype(np.int64)
    first = np.cumsum(counts) - counts  # each hold's first place in the fill
    fill = np.arange(counts.sum()) + np.repeat(holds[:, 0].astype(np.int64) - first, counts)
    z[fill] = np.repeat(holds[:, 2], counts)
    return Waveform(z, compiled.sample_rate)


def timelines(compiled: CompiledProgram) -> TimelineProgram:
    return TimelineProgram(
        xy_envelope=xy_timeline(compiled),
        z_baseband=z_timeline(compiled),
        frame_segments=compiled.frame_segments,
    )


def _whole_array_xy(compiled: CompiledProgram, fir) -> np.ndarray:
    """The XY sum over the whole program: for each (primitive, carrier)
    group in key order and each k in order, every play of the group adds
    Re(c * m[k]) at its start + k; the sum is cut at the end."""
    n, rate, starts = len(compiled), compiled.sample_rate, compiled.xy_starts
    segments = np.array([(s.start_index, s.carrier_ghz, s.carrier_phase_rad)
                         for s in compiled.frame_segments])
    seg_start, freq, phase0 = segments[np.searchsorted(segments[:, 0], starts, side="right") - 1].T
    last = starts - 1 + np.array([len(p) for p in compiled.primitives])[compiled.xy_primitives]
    with np.errstate(over="ignore", invalid="ignore"):
        theta = phase0 + 2.0 * math.pi * freq * (np.stack([starts, last]) - seg_start) / rate
    finite = np.isfinite(theta).all(axis=0)
    if not finite.all():
        raise ScheduleError(
            f"xy play {int(np.argmin(finite))} in program order: carrier phase is not finite"
        )
    gain = compiled.xy_scales * np.exp(-1j * theta[0])
    taps = np.ones(1) if fir is None else fir.taps_float
    out = np.zeros(n + max(map(len, compiled.primitives), default=0) + len(taps) - 1)
    carriers, carrier = np.unique(freq, return_inverse=True)
    keys, group = np.unique(compiled.xy_primitives * len(carriers) + carrier, return_inverse=True)
    for g, key in enumerate(keys.tolist()):
        samples, f = compiled.primitives[key // len(carriers)], carriers[key % len(carriers)]
        omega_k = 2.0 * math.pi * f * np.arange(len(samples)) / rate
        m = np.convolve(samples * np.exp(-1j * omega_k), taps)
        at, c = starts[group == g], gain[group == g]
        for k, (re, im) in enumerate(zip(m.real.tolist(), m.imag.tolist())):
            out[at + k] += c.real * re - c.imag * im
    return out[:n]


def whole_array_synthesize(compiled: CompiledProgram, config) -> Waveform:
    """The composite computed over whole arrays (the arithmetic
    ``pulsec.synthesize`` ran before it rendered blocks): the Z timeline
    through ``apply_iir`` in one pass, plus the whole XY sum, checked at its
    largest |sample|. The block renderer must match it byte for byte and
    raise what it raises."""
    if config.sample_rate != compiled.sample_rate:
        raise ValueError("config sample rate does not match the compiled program")
    z = z_timeline(compiled)
    if config.z_iir is not None:
        z = apply_iir(z, config.z_iir)
    composite = _whole_array_xy(compiled, config.xy_fir)
    composite += z.samples
    if len(composite) and max(composite.max(), -composite.min()) > pulsec.FULL_SCALE:
        index = int(np.argmax(np.abs(composite)))
        peak = float(abs(composite[index]))
        raise SaturationError(f"peak {peak!r} at sample {index} exceeds full scale",
                              peak=peak, index=index)
    return Waveform(composite, config.sample_rate)


def whole_array_payload(compiled: CompiledProgram, config) -> bytes:
    """The little-endian int16 DAC payload of ``whole_array_synthesize``:
    int32 codes rounded half away from zero, then cast."""
    w = whole_array_synthesize(compiled, config)
    codes = round_half_away(w.samples * float(2 ** (config.dac_bits - 1) - 1), np.int32)
    return codes.astype("<i2").tobytes()


def carrier_phase(compiled) -> np.ndarray:
    """Accumulated carrier phase theta[n] (radians) for every sample."""
    n_total = len(compiled)
    theta = np.empty(n_total)
    segments = compiled.frame_segments
    for i, seg in enumerate(segments):
        end = segments[i + 1].start_index if i + 1 < len(segments) else n_total
        idx = np.arange(seg.start_index, end)
        theta[idx] = seg.carrier_phase_rad + (
            2.0 * math.pi * seg.carrier_ghz * (idx - seg.start_index)
            / compiled.sample_rate
        )
    return theta


def timeline_synthesize(compiled, config) -> Waveform:
    """Reference synthesizer: modulate, condition, and sum the two timelines.

    xy_real[n] = Re{env[n] e^{-i theta[n]}} with theta the phase-continuous
    accumulated carrier phase; the FIR acts on the modulated XY signal and the
    IIR corrector on the Z baseband; their sum must stay within DAC full
    scale. A ``pulsec`` schedule is first written out as timelines.
    """
    if isinstance(compiled, CompiledProgram):
        compiled = timelines(compiled)
    if config.sample_rate != compiled.sample_rate:
        raise ValueError("config sample rate does not match the compiled program")
    if len(compiled) == 0:
        return Waveform(np.zeros(0), config.sample_rate)
    theta = carrier_phase(compiled)
    xy_real = np.real(compiled.xy_envelope * np.exp(-1j * theta))
    if config.xy_fir is not None:
        xy_real = lfilter(config.xy_fir.taps_float, [1.0], xy_real)
    z = compiled.z_baseband
    if config.z_iir is not None:
        z = Waveform(sectionwise_iir(z, config.z_iir), z.sample_rate)
    composite = xy_real + z.samples
    peak_index = int(np.argmax(np.abs(composite)))
    peak = float(abs(composite[peak_index]))
    if peak > 1.0 + 1e-12:
        raise SaturationError(
            f"composite peak {peak:.6f} at sample {peak_index} exceeds full scale",
            peak=peak,
            index=peak_index,
        )
    return Waveform(composite, config.sample_rate)


class _Compiler:
    def __init__(self, program: PulseProgram, rate: float):
        self.program = program
        self.rate = rate
        self.xy: list = []
        self.z: list = []
        self.n = 0
        self.frame_phase = 0.0
        self.z_level = 0.0
        self.in_hold = False
        self.segments = [FrameSegment(0, 0.0, 0.0)]

    # -- timeline ----------------------------------------------------------

    def _advance(self, count: int, xy_chunk=None, z_chunk=None):
        if count == 0:
            return
        self.xy.append(
            np.zeros(count, dtype=complex) if xy_chunk is None else xy_chunk
        )
        self.z.append(
            np.full(count, self.z_level) if z_chunk is None else z_chunk
        )
        self.n += count

    def _primitive(self, pid: str, want_kind: str) -> PulsePrimitive:
        prim = self.program.primitives[pid]
        if prim.kind != want_kind:
            raise ValueError(
                f"primitive {pid!r} has kind {prim.kind!r}; this instruction needs "
                f"{want_kind!r}"
            )
        if prim.sample_rate != self.rate:
            raise ValueError(
                f"primitive {pid!r} was stored at {prim.sample_rate} GS/s, engine "
                f"runs at {self.rate} GS/s"
            )
        return prim

    # -- instructions --------------------------------------------------------

    def run(self, instructions):
        for instr in instructions:
            if isinstance(instr, PlayXY):
                self._play_xy(instr)
            elif isinstance(instr, PlayZ):
                self._play_z(instr)
            elif isinstance(instr, VirtualZ):
                self.frame_phase += instr.phase
            elif isinstance(instr, SetCarrier):
                self._set_carrier(instr.frequency)
            elif isinstance(instr, Delay):
                self._advance(_sample_count(instr.duration, self.rate, "delay"))
            elif isinstance(instr, Repeat):
                for _ in range(instr.count):
                    self.run(instr.body)
            else:
                raise TypeError(f"unknown instruction {type(instr).__name__}")

    def _play_xy(self, instr: PlayXY):
        prim = self._primitive(instr.primitive_id, ENVELOPE)
        rotor = complex(
            math.cos(instr.phase_offset + self.frame_phase),
            math.sin(instr.phase_offset + self.frame_phase),
        )
        # (a + 0j) * rotor, the rule xy_scales follows; a bare float * complex
        # keeps signed zeros differently from Python 3.14 on
        chunk = complex(instr.amplitude) * rotor * np.asarray(prim.samples)
        self._advance(len(prim.samples), xy_chunk=chunk.astype(complex))

    def _play_z(self, instr: PlayZ):
        if self.in_hold:
            raise ScheduleError("nested Z emission inside a Z hold is not allowed")
        rise = self._primitive(instr.rise_primitive_id, EDGE)
        fall = self._primitive(instr.fall_primitive_id, EDGE)
        amp = instr.hold_amplitude
        hold_samples = _sample_count(instr.hold_duration, self.rate, "Z hold")

        self._advance(len(rise.samples), z_chunk=amp * np.asarray(rise.samples))
        self.z_level = amp
        self.in_hold = True
        start = self.n
        try:
            self.run(instr.body)
        finally:
            self.in_hold = False
        used = self.n - start
        if used > hold_samples:
            raise ScheduleError(
                f"Z-hold body lasts {used / self.rate} ns, longer than the "
                f"{instr.hold_duration} ns hold"
            )
        self.in_hold = True
        self._advance(hold_samples - used)
        self.in_hold = False
        self.z_level = 0.0
        self._advance(len(fall.samples), z_chunk=amp * np.asarray(fall.samples))

    def _set_carrier(self, frequency: float):
        seg = self.segments[-1]
        phase_now = seg.carrier_phase_rad + (
            2.0 * math.pi * seg.carrier_ghz * (self.n - seg.start_index) / self.rate
        )
        if seg.start_index == self.n:
            self.segments[-1] = FrameSegment(self.n, frequency, phase_now)
        else:
            self.segments.append(FrameSegment(self.n, frequency, phase_now))

    def finish(self) -> TimelineProgram:
        xy = np.concatenate(self.xy) if self.xy else np.zeros(0, dtype=complex)
        z = np.concatenate(self.z) if self.z else np.zeros(0)
        return TimelineProgram(
            xy_envelope=xy.astype(complex),
            z_baseband=Waveform(z, self.rate),
            frame_segments=tuple(self.segments),
        )


def unrolled_compile(program, config):
    """Reference compiler: walks every unrolled instruction in program order.

    Each play, Z edge, hold and delay appends its own chunk to the timelines
    and each virtual Z adds to a running frame phase; ``pulsec.compile``
    must give the same samples (its XY plays written out by ``xy_timeline``),
    frame segments, final frame and errors.
    """
    compiler = _Compiler(program, config.sample_rate)
    compiler.run(program.instructions)
    return compiler.finish()


# ---------------------------------------------------------------------------
# checkers and readers of package outputs
# ---------------------------------------------------------------------------


def hex_fields(value):
    """``value`` with every float, at any depth of dataclasses, tuples and
    arrays, written as ``float.hex``: two results compare equal only if they
    agree bit for bit, signed zeros included."""
    if is_dataclass(value):
        return {f.name: hex_fields(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [hex_fields(item) for item in value]
    if isinstance(value, float):
        return float(value).hex()
    return value


def floor_frequency(inverse) -> float:
    """Frequency (GHz) where a bounded inverse's gain cap engages: H_gauss(f) = floor."""
    return math.sqrt(2.0 * math.log(1.0 / inverse.floor)) / inverse.gauss.sigma


def fir_response(f, grid) -> np.ndarray:
    """Complex response sum_k h[k] exp(-2 pi i f k / fs) on ``grid`` (GHz).

    Uses the quantized taps when present, otherwise the float taps.
    """
    taps = f.taps_int16 if f.taps_int16 is not None else f.taps_float
    grid = np.asarray(grid, dtype=float)
    phases = np.exp(-2j * np.pi * np.outer(grid, np.arange(len(taps))) / f.sample_rate)
    return phases @ np.asarray(taps, dtype=float)


def simulate_tail_probe(model, delays, probe_window: float = DEFAULT_PROBE_WINDOW_NS) -> list:
    """Noiseless tail-over-ref records: the closed form the settling fit inverts."""
    delays = np.asarray(delays, dtype=float)
    amps, taus = np.array(model.terms).T
    values = per_term_design_matrix(delays, taus, probe_window) @ amps
    return [TailProbeRecord(float(d), float(v)) for d, v in zip(delays, values)]


def four_term_tail_records(seed: int) -> list:
    """A four-term settling tail with mixed signs, drawn from
    ``default_rng(seed)`` in this order: a ratio r ~ U(1.5, 10), taus
    5 r^k U(1, 1.2) ns for k = 0-3, amplitudes U(-0.8, 0.8)/4, then
    N(0, 2e-5) noise on each of 60 records from 2 to 6000 ns (20 ns window)."""
    rng = np.random.default_rng(seed)
    ratio = rng.uniform(1.5, 10.0)
    taus = 5.0 * ratio ** np.arange(4) * rng.uniform(1.0, 1.2, 4)
    amps = rng.uniform(-0.8, 0.8, 4) / 4
    clean = simulate_tail_probe(ExponentialTailModel(tuple(zip(amps, taus))),
                                np.geomspace(2.0, 6000.0, 60))
    return [TailProbeRecord(r.delay, r.tail_over_ref + rng.normal(0.0, 2e-5)) for r in clean]


def clifford_matrix(index: int) -> np.ndarray:
    return _clifford_table()[index][1].copy()


def _canonical_key(mat: np.ndarray) -> tuple:
    """The matrix with the phase of its first non-zero entry divided out,
    rounded to 1e-6: equal for two unitaries that differ by a global phase."""
    flat = mat.flatten()
    lead = flat[np.argmax(np.abs(flat) > 1e-9)]
    normed = mat * np.exp(-1j * np.angle(lead))
    return tuple(np.round(normed.flatten(), 6).view(float))


@lru_cache(maxsize=1)
def _clifford_keys() -> dict:
    return {_canonical_key(mat): i for i, (_, mat) in enumerate(_clifford_table())}


def clifford_index_of(mat: np.ndarray) -> int:
    """Table index of a 2x2 unitary, up to global phase, by rounded-key lookup."""
    index = _clifford_keys().get(_canonical_key(np.asarray(mat, complex)))
    if index is None:
        raise ValueError("matrix is not a Clifford-group element of the table")
    return index


def clifford_closure_table() -> np.ndarray:
    """24x24 composition table c[i, j] = index of C_i C_j (exhaustive)."""
    table = _clifford_table()
    out = np.empty((CLIFFORD_COUNT, CLIFFORD_COUNT), dtype=int)
    for i, (_, a) in enumerate(table):
        for j, (_, b) in enumerate(table):
            out[i, j] = clifford_index_of(a @ b)
    return out


def raised_cosine_edge(duration_ns: float, sample_rate: float, falling: bool = False) -> np.ndarray:
    """Smooth 0->1 flux edge (time-reversed when falling)."""
    n = _sample_count(duration_ns, sample_rate, "edge duration")
    if n < 2:
        raise ValueError("edge needs at least 2 samples")
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
    return ramp[::-1].copy() if falling else ramp


def dac_dequantize(codes, config, sample_rate: float) -> Waveform:
    full = float(2 ** (config.dac_bits - 1) - 1)
    return Waveform(np.asarray(codes, dtype=float) / full, sample_rate)


def load_waveform_binary(path) -> tuple:
    """Read samples + sidecar written by ``pulsec.dump_waveform_binary``,
    verifying length and checksum."""
    path = pathlib.Path(path)
    payload = path.read_bytes()
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if hashlib.sha256(payload).hexdigest() != meta["sha256"]:
        raise ValueError(f"checksum mismatch for {path}")
    codes = np.frombuffer(payload, dtype="<i2").astype(np.int32)
    if len(codes) != meta["length"]:
        raise ValueError(f"length mismatch for {path}")
    return codes, meta


def _serialize_instruction(instr, lines, indent):
    pad = "  " * indent
    if isinstance(instr, PlayXY):
        lines.append(
            f"{pad}xy {instr.primitive_id} amp={instr.amplitude!r} "
            f"phase={instr.phase_offset!r}"
        )
    elif isinstance(instr, VirtualZ):
        lines.append(f"{pad}vz {instr.phase!r}")
    elif isinstance(instr, SetCarrier):
        lines.append(f"{pad}carrier {instr.frequency!r}")
    elif isinstance(instr, Delay):
        lines.append(f"{pad}delay {instr.duration!r}")
    elif isinstance(instr, PlayZ):
        head = (
            f"{pad}z rise={instr.rise_primitive_id} "
            f"hold={instr.hold_amplitude!r},{instr.hold_duration!r} "
            f"fall={instr.fall_primitive_id}"
        )
        if instr.body:
            lines.append(head + " {")
            for sub in instr.body:
                _serialize_instruction(sub, lines, indent + 1)
            lines.append(f"{pad}}}")
        else:
            lines.append(head)
    elif isinstance(instr, Repeat):
        lines.append(f"{pad}repeat {instr.count} {{")
        for sub in instr.body:
            _serialize_instruction(sub, lines, indent + 1)
        lines.append(f"{pad}}}")
    else:
        raise TypeError(f"cannot serialize {type(instr).__name__}")


def serialize_program(program) -> str:
    """Inverse of ``pulsec.parse_program`` (primitives are always emitted inline)."""
    lines = []
    for prim in program.primitives.values():
        values = " ".join(repr(s) for s in prim.samples)
        lines.append(f"prim {prim.id} {prim.kind} {values}")
    for instr in program.instructions:
        _serialize_instruction(instr, lines, 0)
    return "\n".join(lines) + "\n"
