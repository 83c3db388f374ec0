"""Fit models for relaxation, dephasing, RB decays, and reset histograms.

Times are microseconds throughout. Each fitter is a bounded nonlinear least
squares with a small multi-start ladder (decay problems are mildly
multi-modal in the time constants); results carry the parameter covariance
of the winning start, a sum-of-squares diagnostic, and string flags for the
degenerate regimes a caller should know about (unidentifiable decay,
exchange degeneracy, component collapse).

These fits and the settling-tail fit in ``distortion`` share one
multi-start kernel, ``_least_squares_fit``, with one solver, one winner rule
and one covariance rule. It runs SciPy's ``trf_bounds`` (Branch, Coleman &
Li, SIAM J. Sci. Comput. 21, 1 (1999)), ported from SciPy 1.17.1 operation
for operation, with one Python generator per start; the starts advance in
lockstep and share one residual call per round, so every bounded start's
result is least_squares' bit for bit. An unbounded fit runs the same rule
with unit Coleman-Li scaling, which is not SciPy's ``trf_no_bounds``. The
residual takes a trailing batch axis: an (n, k) stack of parameter vectors
gives the (k, m) residuals of its k columns. Every SVD is LAPACK's dgesdd
from SciPy's LAPACK extension, loaded alone, so these fits import neither
scipy.optimize nor scipy.linalg.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitError, _scipy_extension

_RATE_CAP = 1e3  # 1/us; fastest representable decay rate in the fits
_EPS = np.finfo(float).eps
_FD_STEP = math.sqrt(_EPS)  # SciPy's relative 2-point step
_TOL = 1e-8  # least_squares' default ftol, xtol and gtol
_RESET_BINS = 512  # equal-width histogram bins the reset mixture is fitted on


# ---------------------------------------------------------------------------
# relaxation: exponential with a quasiparticle-burst factor
# ---------------------------------------------------------------------------


def relaxation_model(t, a, b, t_exp, t_qp, n_qp):
    """P_e(t) = A exp(-t/T_exp) exp{n_qp [exp(-t/T_qp) - 1]} + B."""
    t = np.asarray(t, dtype=float)
    return a * np.exp(-t / t_exp) * np.exp(n_qp * (np.exp(-t / t_qp) - 1.0)) + b


class _FrozenCovariance:
    """A fit record's ``covariance`` becomes a read-only float array. The base
    has no fields, so a record's fields and their order are its own."""

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class RelaxationFit(_FrozenCovariance):
    """Double-exponential relaxation parameters plus the 1/e time."""

    a: float
    b: float
    t_exp: float
    t_qp: float
    n_qp: float
    t1_eff: float  # us; nan when the curve never reaches 1/e (see flags)
    covariance: np.ndarray
    sse: float
    flags: tuple = ()


def _paired(x, y, names: str):
    """``x`` and ``y`` as float arrays, refused unless both are 1-D, of equal
    length and finite; ``names`` starts each message."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"{names} must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{names} must be finite")
    return x, y


def _validate_decay_input(t, values, min_points):
    """The checked (t, values) of a decay, and where its fit starts: the span
    t.max(), the tail (the mean of the last three values) and the amplitude
    (the mean of the first three less the tail, at least 1e-3)."""
    t, values = _paired(t, values, "t and values")
    if len(t) < min_points:
        raise ValueError(f"need at least {min_points} samples, got {len(t)}")
    if np.any(np.diff(t) <= 0) or t[0] < 0:
        raise ValueError("time samples must be non-negative and increasing")
    head, tail = float(np.mean(values[:3])), float(np.mean(values[-3:]))
    return t, values, float(t.max()), tail, max(head - tail, 1e-3)


def _svd(a):
    """(U, s, Vt) of a real (m, n) matrix with full_matrices=False: the dgesdd
    call scipy.linalg.svd makes, with the workspace it queries, so the bits
    are its. A matrix that is not finite raises svd's ValueError."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    lapack = _scipy_extension("linalg", "_flapack")
    lwork = int(lapack.dgesdd_lwork(*a.shape, compute_uv=1, full_matrices=0)[0].real)
    u, s, vt, info = lapack.dgesdd(a, compute_uv=1, lwork=lwork, full_matrices=0)
    if info:
        raise np.linalg.LinAlgError(f"SVD did not converge (LAPACK info={info})")
    return u, s, vt


def _norm(v):
    """numpy.linalg.norm(v) of a 1-D v, which is this root of a dot product."""
    return np.float64(math.sqrt(np.dot(v, v)))


def _forward_difference(x, lb, ub):
    """SciPy's bounded 2-point Jacobian at each row of the (k, n) x:
    (stack, jacobians). The (n, k (n + 1)) parameter stack holds each row and
    then its n stepped copies; ``jacobians`` turns their k (n + 1) residual
    rows into the k Jacobians, each (m, n) and Fortran-ordered, as SciPy's.

    The step is sqrt(eps) * sign(x) * max(1, |x|), with sign(0) = +1. A step
    that leaves the box flips if it fits on the other side, and otherwise
    goes to the farther bound. J = (f_i - f_0) / ((x_i + h_i) - x_i). Every
    operation is elementwise, so a row's bits do not depend on the others.
    """
    h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    lower, upper = x - lb, ub - x
    fits = np.abs(h) <= np.maximum(lower, upper)
    stepped = x + h
    leaves = (stepped < lb) | (stepped > ub)
    if leaves.any() or not fits.all():
        h = np.where(leaves & fits, -h, h)
        stepped = x + np.where(fits, h, np.where(upper >= lower, upper, -lower))
    k, n = x.shape
    stack = np.repeat(x, n + 1, axis=0).reshape(k, n + 1, n)
    stack[:, np.arange(1, n + 1), np.arange(n)] = stepped

    def jacobians(f):
        f = f.reshape(k, n + 1, f.shape[-1])
        return ((f[:, 1:] - f[:, :1]) / (stepped - x)[:, :, None]).transpose(0, 2, 1)

    return stack.reshape(k * (n + 1), n).T, jacobians


# The helpers below port those of scipy/optimize/_lsq/common.py (SciPy
# 1.17.1) that trf_bounds runs with tr_solver="exact", a linear loss and
# x_scale=1, operation for operation; each carries SciPy's name in its
# docstring. numpy.linalg.norm(v) is written _norm(v), and norm(v, inf) is
# np.abs(v).max(), which is how numpy computes both.


def _strictly_feasible(x, lb, ub, rstep):
    """make_strictly_feasible: x at least a relative ``rstep`` inside the
    bounds, or the next double inside them when ``rstep`` is 0; a bound
    pair too close for that gives its midpoint."""
    if rstep == 0:  # find_active_constraints(x, lb, ub, rtol=0)
        if ((lb < x) & (x < ub)).all():
            return x.copy()  # strictly inside: no constraint is active
        x_new = x.copy()
        lower, upper = x <= lb, x >= ub
        lower &= ~upper
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:  # find_active_constraints(x, lb, ub, rtol=rstep)
        x_new = x.copy()
        lower_dist, upper_dist = x - lb, ub - x
        lower = np.isfinite(lb) & (lower_dist <= np.minimum(
            upper_dist, rstep * np.maximum(1, np.abs(lb))))
        upper = np.isfinite(ub) & (upper_dist <= np.minimum(
            lower_dist, rstep * np.maximum(1, np.abs(ub))))
        lower &= ~upper
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _in_bounds(x, lb, ub):
    """in_bounds."""
    return ((x >= lb) & (x <= ub)).all()


def _coleman_li_scaling(x, g, lb, ub):
    """CL_scaling_vector: (v, dv), with v the distance to the bound the
    gradient points away from (1 where there is none) and dv its
    derivative."""
    to_upper = (g < 0) & np.isfinite(ub)
    to_lower = (g > 0) & np.isfinite(lb)
    v = np.where(to_lower, x - lb, np.where(to_upper, ub - x, 1.0))
    return v, to_lower - to_upper.astype(float)


def _step_to_bound(x, s, lb, ub):
    """step_size_to_bound: the least t >= 0 that puts x + t s on a bound,
    and per parameter -1, 0 or 1 for the lower, no or upper bound hit."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _trust_region_crossing(x, s, delta):
    """intersect_trust_region: the roots t of |x + s t| = delta, smaller
    first; ValueError when s is zero or x lies outside."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + math.copysign(d, b))
    t1, t2 = q / a, c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _quadratic_along(j, g, s, diag, s0=None):
    """build_quadratic_1d: (a, b) or, from s0, (a, b, c) of the quadratic
    0.5 (s0 + s t)^T (J^T J + diag) (s0 + s t) + g^T (s0 + s t) in t."""
    v = j.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = j.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic(a, b, lb, ub, c=0):
    """minimize_quadratic_1d: (t, value) at the least of t (a t + b) + c
    over the bounds and the interior extremum."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _quadratic_value(j, g, s, diag):
    """evaluate_quadratic of one step: 0.5 s^T (J^T J + diag) s + g^T s."""
    js = j.dot(s)
    q = np.dot(js, js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _trust_region_step(n, m, uf, s, v, delta, alpha, rtol=0.01, max_iter=10):
    """solve_lsq_trust_region: (p, alpha) minimizing |J p + f| within
    |p| <= delta, from J's SVD (uf = U^T f), by More's iteration on the
    Levenberg-Marquardt parameter alpha, started at the previous one."""

    def phi_and_derivative(alpha):
        denom = s2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - delta, -(suf2 / denom**3).sum() / p_norm

    suf = s * uf
    s2, suf2 = s**2, suf**2
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -v.dot(uf / s)
        if _norm(p) <= delta:
            return p, 0.0
    alpha_upper = _norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < rtol * delta:
            break
    p = -v.dot(suf / (s2 + alpha))
    p *= delta / _norm(p)
    return p, alpha


def _select_step(x, j_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta):
    """select_step: (step, step in the scaled variables, predicted cost
    reduction), the best of the trust-region step, its reflection off the
    first bound it crosses and the scaled anti-gradient, each kept strictly
    inside the bounds."""
    if _in_bounds(x + p, lb, ub):
        return p, p_h, -_quadratic_value(j_h, g_h, p_h, diag_h)
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    _, to_tr = _trust_region_crossing(p_h, r_h, delta)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_along(j_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    p *= theta
    p_h *= theta
    p_value = _quadratic_value(j_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_along(j_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _trf(x0, lb, ub, max_nfev, tol):
    """SciPy's trf_bounds from the strictly feasible start x0 (Branch,
    Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999)), with tr_solver="exact",
    a linear loss, x_scale=1 and ftol = xtol = gtol = ``tol``, statement for
    statement, as a generator: where SciPy calls fun(x) or jac(x) it yields
    ("f", x) or ("J", x) and takes back x's residual row or its
    ``_forward_difference`` Jacobian. Returns (x, cost, fun, jac, status, nfev),
    as least_squares reports them, or None for a start whose residuals are
    not finite, which least_squares refuses.
    """
    f = yield "f", x0
    if not np.isfinite(f).all():
        return None
    J = yield "J", x0
    x, nfev = x0, 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, _ = _coleman_li_scaling(x, g, lb, ub)
    delta = _norm(x0 / v**0.5)
    if delta == 0:
        delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0
    status = None
    while True:
        v, dv = _coleman_li_scaling(x, g, lb, ub)
        g_norm = np.abs(g * v).max()
        if g_norm < tol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region_step(n, m, uf, s, V, delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = yield "f", x_new
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            # update_tr_radius
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * delta:
                delta_new *= 2.0
            # check_termination
            ftol_satisfied = actual_reduction < tol * cost and ratio > 0.25
            xtol_satisfied = _norm(step) < tol * (tol + _norm(x))
            if ftol_satisfied or xtol_satisfied:
                status = 4 if ftol_satisfied and xtol_satisfied else 2 if ftol_satisfied else 3
                break
            alpha *= delta / delta_new
            delta = delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = yield "J", x
            g = J.T.dot(f)
    return x, cost, f, J, status or 0, nfev


_Start = collections.namedtuple("_Start", "x cost fun jac status nfev")


def _answers(residuals, asks, lb, ub):
    """The answer to each ("f", x) or ("J", x) ask of ``_trf``, x's residual
    row or its Jacobian, from one residual call on the columns they need:
    one per "f", then n + 1 per "J" from one ``_forward_difference``."""
    points = [i for i, (kind, _) in enumerate(asks) if kind == "f"]
    steps = [i for i, (kind, _) in enumerate(asks) if kind == "J"]
    at = np.array([x for _, x in asks])
    stack, jacobians = _forward_difference(at[steps], lb, ub)
    rows = residuals(np.hstack([at[points].T, stack]))
    answers = [None] * len(asks)
    for i, answer in zip(points + steps, [*rows[: len(points)], *jacobians(rows[len(points):])]):
        answers[i] = answer
    return answers


def _answer_or_error(residuals, ask, lb, ub):
    """One ask's answer, or the ValueError or FloatingPointError its residual
    call raised."""
    try:
        return _answers(residuals, [ask], lb, ub)[0]
    except (ValueError, FloatingPointError) as error:
        return error


def _lockstep(residuals, starts, bounds, max_nfev=None, tol=_TOL):
    """Each start's ``_Start`` from ``_trf`` with ftol = xtol = gtol = ``tol``,
    or None where least_squares raises, with every start run at once. Within
    bounds that is least_squares(method="trf")'s result, bit for bit.

    As least_squares does, a start outside the bounds is refused, and the
    others are moved strictly inside them (a relative 1e-10) before ``_trf``
    runs. Each round answers what every live start asks for from one call
    of ``residuals`` (``_answers``). A start drops out when it, or the
    residuals of its own columns, raise ValueError or FloatingPointError, as
    least_squares would.
    """
    x0 = np.asarray(starts, dtype=float)
    lb, ub = (np.broadcast_to(np.asarray(b, dtype=float), x0.shape[1:]) for b in bounds)
    if max_nfev is None:
        max_nfev = 100 * x0.shape[1]
    results = [None] * len(x0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runs = {i: _trf(_strictly_feasible(x, lb, ub, rstep=1e-10), lb, ub, max_nfev, tol)
                for i, x in enumerate(x0) if _in_bounds(x, lb, ub)}
        asks = {i: next(run) for i, run in runs.items()}
        while asks:
            try:
                answers = _answers(residuals, list(asks.values()), lb, ub)
            except (ValueError, FloatingPointError):  # find the starts that raise
                answers = [_answer_or_error(residuals, ask, lb, ub) for ask in asks.values()]
            for (i, run), answer in zip(list(runs.items()), answers):
                try:
                    if isinstance(answer, Exception):
                        raise answer
                    asks[i] = run.send(answer)
                    continue
                except StopIteration as done:
                    results[i] = None if done.value is None else _Start(*done.value)
                except (ValueError, FloatingPointError):
                    pass
                del runs[i], asks[i]
    return results


def _least_squares_fit(residuals, starts, bounds=(-np.inf, np.inf), max_nfev=None, tol=_TOL):
    """Multi-start least squares: (x, covariance, sse) of the best start.

    Every start runs at once through ``_lockstep``, which shares one call of
    ``residuals`` per round, so ``residuals`` must take a trailing batch
    axis: an (n, k) parameter stack gives (k, m) residuals. A bounded fit is
    SciPy's least_squares with its default ``trf`` method, bit for bit, for
    the same ``max_nfev`` and ftol = xtol = gtol = ``tol``. Starts that
    raise or do not converge are skipped, and the lowest sum of squares
    wins, the first start on a tie. SciPy refuses a start outside the
    bounds unsolved, so data that put every start there raise ValueError
    naming the first start's first such parameter (counted from 1 in the
    model's order), its value and its bounds. The covariance is SciPy's
    curve-fit rule: the SVD pseudo-inverse of J^T J (singular values below
    eps * max(m, n) * s_0 dropped) times sse / (m - n), and inf when m <= n.
    """
    solutions = _lockstep(residuals, starts, bounds, max_nfev, tol)
    best = None
    for sol in solutions:
        if sol is None or sol.status <= 0:
            continue
        sse = float(np.sum(sol.fun**2))
        if best is None or sse < best[1]:
            best = (sol, sse)
    if best is None:
        x = np.asarray(starts, dtype=float)
        lb, ub = (np.broadcast_to(b, x.shape[1:]) for b in np.asarray(bounds, dtype=float))
        outside = (x < lb) | (x > ub)
        if outside.any(axis=1).all():
            i = int(np.argmax(outside[0]))
            raise ValueError(f"the data put every start outside the fit's bounds: parameter "
                             f"{i + 1} starts at {x[0, i]:.6g}, outside [{lb[i]:g}, {ub[i]:g}]")
        raise FitError("least-squares fit did not converge from any start")
    sol, sse = best
    m, n = sol.jac.shape
    _, s, vt = _svd(sol.jac)
    s = s[s > _EPS * max(m, n) * s[0]]
    cov = np.dot(vt[: s.size].T / s**2, vt[: s.size])
    if m > n and not np.isnan(cov).any():
        cov = cov * (2 * sol.cost / (m - n))
    else:
        cov.fill(np.inf)
    return sol.x, cov, sse


def _one_over_e_bisection(a, b, t_exp, t_qp, n_qp, t_hi):
    """Bisection for the time where the fitted curve reaches a/e + b."""
    target = a / math.e + b
    if relaxation_model(t_hi, a, b, t_exp, t_qp, n_qp) > target:
        return math.nan  # never decays to 1/e inside the allowed span
    lo, hi = 0.0, float(t_hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if relaxation_model(mid, a, b, t_exp, t_qp, n_qp) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def fit_t1_double_exponential(t_us, p_e) -> RelaxationFit:
    """Fit the relaxation model and extract the effective (1/e) T1.

    Requires >= 10 samples whose time axis spans at least two decades. The
    time constants are multi-started; the 1/e time is solved by bisection on
    the fitted curve and flagged (nan) if the curve stays above 1/e out to
    ten times the data span.
    """
    t, values, span, tail, a0 = _validate_decay_input(t_us, p_e, min_points=10)
    positive = t[t > 0]
    if len(positive) == 0 or t.max() / positive.min() < 100.0:
        raise ValueError("time samples must span at least two decades")

    starts = [
        (a0, tail, te, tq, nq)
        for te in (span / 10.0, span / 3.0, span)
        for tq in (span / 50.0, span / 12.0, span / 4.0)
        for nq in (0.2, 1.5)
    ]
    bounds = (
        [1e-12, -1.0, 1e-6, 1e-6, 0.0],
        [10.0, 1.0, 1e7, 1e7, 50.0],
    )
    popt, pcov, sse = _least_squares_fit(
        lambda p: relaxation_model(t, *p[..., None]) - values, starts, bounds, max_nfev=20000
    )
    a, b, t_exp, t_qp, n_qp = (float(x) for x in popt)

    flags = ()
    t1_eff = _one_over_e_bisection(a, b, t_exp, t_qp, n_qp, 10.0 * span)
    if math.isnan(t1_eff):
        flags = ("one-over-e-unreached",)
    return RelaxationFit(a=a, b=b, t_exp=t_exp, t_qp=t_qp, n_qp=n_qp,
                         t1_eff=t1_eff, covariance=pcov, sse=sse, flags=flags)


# ---------------------------------------------------------------------------
# dephasing: exponential-plus-Gaussian envelope under fixed T1
# ---------------------------------------------------------------------------


def dephasing_model(t, c, d, t1_de, gamma_exp, gamma_g):
    """C exp(-t/(2 T1)) exp(-gamma_exp t - (gamma_g t)^2) + D."""
    t = np.asarray(t, dtype=float)
    return c * np.exp(-t / (2.0 * t1_de)) * np.exp(-gamma_exp * t - (gamma_g * t) ** 2) + d


@dataclass(frozen=True)
class DephasingFit(_FrozenCovariance):
    """Envelope fit; t_phi_g is the headline pure-dephasing time."""

    c: float
    d: float
    t1_de: float  # fixed input, echoed for the report
    t_phi_exp: float  # may be inf when the exponential term vanishes
    t_phi_g: float
    covariance: np.ndarray
    sse: float
    flags: tuple = ()


def fit_dephasing_envelope(t_us, env, t1_de) -> DephasingFit:
    """Fit (C, D, exponential rate, Gaussian rate) with T1 held fixed.

    Rates are fitted (not times) so a vanishing exponential component lands
    on the closed boundary and reports t_phi_exp = inf, flagged
    ``exponential-rate-vanished``. A correlation above
    0.95 between the two rates marks the exchange-degenerate regime.
    """
    t, values, span, tail, c0 = _validate_decay_input(t_us, env, min_points=6)
    if not t1_de > 0:
        raise ValueError("t1_de must be positive")

    starts = [
        (c0, tail, ge, gg)
        for ge in (0.0, 1.0 / span, 5.0 / span)
        for gg in (1.0 / span, 3.0 / span, 10.0 / span)
    ]
    bounds = ([1e-12, -1.0, 0.0, 1e-9], [10.0, 1.0, _RATE_CAP, _RATE_CAP])
    popt, pcov, sse = _least_squares_fit(
        lambda p: dephasing_model(t, *p[:2, ..., None], t1_de, *p[2:, ..., None]) - values,
        starts, bounds, max_nfev=20000,
    )
    c, d, gamma_exp, gamma_g = (float(x) for x in popt)

    flags = ()
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = math.sqrt(abs(pcov[2, 2] * pcov[3, 3]))
        corr = pcov[2, 3] / denom if denom > 0 else 0.0
    if np.isfinite(corr) and abs(corr) > 0.95:
        flags += ("exchange-degeneracy",)
    if gamma_exp < 1e-12:
        flags += ("exponential-rate-vanished",)

    t_phi_exp = math.inf if gamma_exp < 1e-12 else 1.0 / gamma_exp
    return DephasingFit(c=c, d=d, t1_de=float(t1_de), t_phi_exp=t_phi_exp,
                        t_phi_g=1.0 / gamma_g, covariance=pcov, sse=sse,
                        flags=flags)


# ---------------------------------------------------------------------------
# randomized-benchmarking decay
# ---------------------------------------------------------------------------


def rb_model(m, a, b, p):
    return a * np.power(p, np.asarray(m, dtype=float)) + b


@dataclass(frozen=True)
class RbFit(_FrozenCovariance):
    """A p^m + B decay; f_avg = 1 - (1 - p)/2."""

    a: float
    b: float
    p: float
    f_avg: float
    covariance: np.ndarray
    sse: float
    interleaved: dict | None = None
    flags: tuple = ()


def fit_rb_decay(lengths, survivals) -> RbFit:
    """Fit the exponential Clifford decay; reject unidentifiable data.

    Sequence lengths may repeat (several random sequences per length); at
    least three distinct lengths are required. A survival trace constant at
    full amplitude is the perfect-gate limit (p = 1); constant anywhere else
    leaves p unidentifiable and raises FitError, as does a fitted decay
    amplitude too small to pin the rate. Three lengths leave the covariance
    undetermined (inf), flagged ``covariance-undetermined``. A fitted p
    within 1e-9 of its upper bound 1, as survivals that rise with length
    give, is flagged ``no-decay``.
    """
    m, s = _paired(lengths, survivals, "lengths and survivals")
    if len(np.unique(m)) < 3:
        raise ValueError("need at least 3 distinct sequence lengths")
    if np.any(m < 1):
        raise ValueError("sequence lengths must be >= 1")

    if np.ptp(s) < 1e-9:
        if np.mean(s) > 1.0 - 1e-6:
            return RbFit(a=0.5, b=0.5, p=1.0, f_avg=1.0,
                         covariance=np.zeros((3, 3)), sse=0.0,
                         flags=("constant-survival",))
        raise FitError(
            "survival is constant below full amplitude; decay rate unidentifiable"
        )

    starts = [(max(float(np.ptp(s)), 0.01), float(s.min()), p0)
              for p0 in (0.9, 0.99, 0.999, 0.9999)]
    bounds = ([0.0, 0.0, 1e-9], [1.0, 1.0, 1.0])
    popt, pcov, sse = _least_squares_fit(
        lambda p: rb_model(m, *p[..., None]) - s, starts, bounds, max_nfev=20000
    )
    a, b, p = (float(x) for x in popt)
    if a < 1e-6:
        raise FitError("decay amplitude vanished in the fit; p unidentifiable")
    flags = () if np.all(np.isfinite(pcov)) else ("covariance-undetermined",)
    if 1.0 - p < 1e-9:  # p at its upper bound: the survivals show no decay
        flags += ("no-decay",)
    return RbFit(a=a, b=b, p=p, f_avg=1.0 - (1.0 - p) / 2.0, covariance=pcov,
                 sse=sse, flags=flags)


def interleaved_fidelity(p_ref: float, p_int: float) -> float:
    """Interleaved-RB gate fidelity 1 - (1 - p_int/p_ref)/2.

    A p_int above p_ref is statistically inconsistent; it is reported as a
    negative gate error via a warning rather than clamped.
    """
    if not 0.0 < p_ref <= 1.0:
        raise ValueError("p_ref must lie in (0, 1]")
    if not 0.0 <= p_int <= 1.0:
        raise ValueError("p_int must lie in [0, 1]")
    error = (1.0 - p_int / p_ref) / 2.0
    if p_int > p_ref:
        warnings.warn(
            f"interleaved decay p_int={p_int} exceeds reference p_ref={p_ref}: "
            f"negative gate error {error:.3e}",
            stacklevel=2,
        )
    return 1.0 - error


def attach_interleaved(reference: RbFit, p_int: float) -> RbFit:
    """Combine a reference fit with an interleaved decay constant."""
    fidelity = interleaved_fidelity(reference.p, p_int)
    payload = {"p_int": float(p_int), "gate_fidelity": fidelity}
    return dataclasses.replace(reference, interleaved=payload)


# ---------------------------------------------------------------------------
# reset-fidelity estimation from readout histograms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResetEstimate:
    """Two-Gaussian decomposition of the rotated readout signal."""

    mu_g: float
    mu_e: float
    sigma_g: float
    sigma_e: float
    weight_e: float
    fidelity: float
    flags: tuple = ()


def _mixture_inits(x: np.ndarray) -> tuple:
    """16 deterministic EM starting points: one k-means, 15 threshold splits.

    The quantile ladder reaches up to a 98/2 split, so a small excited blob
    gets at least one start already sitting on the right answer; best final
    log-likelihood picks the winner. The k-means 5/95 pair and the ladder's
    30 quantiles come from one percentile call. A Lloyd step puts a sample
    in the upper cluster only where it is strictly nearer the upper centre
    (argmin's tie rule) and stops once neither centre moves by over 1e-12.
    """
    q = np.linspace(0.02, 0.98, 15)
    quantiles = np.percentile(x, np.concatenate([[5.0, 95.0], 50.0 * q, 50.0 + 50.0 * q]))
    centers = quantiles[:2]
    for _ in range(64):  # Lloyd iterations on a line
        upper = np.abs(x - centers[1]) < np.abs(x - centers[0])
        updated = np.array([x[m].mean() if m.any() else c
                            for m, c in zip((~upper, upper), centers)])
        if np.all(np.abs(updated - centers) <= 1e-12):
            break
        centers = updated
    starts = [np.sort(centers), *zip(quantiles[2:17], quantiles[17:])]

    weights, means, variances = [], [], []
    var_floor = 1e-3 * max(float(np.var(x)), 1e-12)
    for lo_c, hi_c in starts:
        mask = x > 0.5 * (lo_c + hi_c)
        frac = min(max(float(mask.mean()), 1e-3), 1.0 - 1e-3)
        parts = [part if part.size else x for part in (x[~mask], x[mask])]
        weights.append([1.0 - frac, frac])
        means.append([float(part.mean()) for part in parts])
        variances.append([max(float(part.var()), var_floor) for part in parts])
    return np.array(weights), np.array(means), np.array(variances)


def _em_all_restarts(x: np.ndarray, cx: np.ndarray, cw: np.ndarray,
                     floor: float, max_iter: int = 300):
    """Two-component 1-D EM on binned samples, all restarts in parallel.

    ``cx``/``cw`` are occupied histogram centers and counts; inits come from
    the raw samples. The (restarts, 2, bins) work arrays are allocated once,
    and the squared distances (cx - mu)^2 of each M-step serve the next
    E-step. Returns (weights, means, variances, log-likelihood) of the best
    restart and whether its likelihood had stopped moving.
    """
    w, mu, var = _mixture_inits(x)
    total = cw.sum()
    prev_ll = np.full(len(w), -np.inf)
    ll = prev_ll
    sq = np.square(cx - mu[:, :, None])
    log_comp = np.empty_like(sq)
    work = np.empty_like(sq)
    lse = np.empty((len(w), len(cx)))
    for _ in range(max_iter):
        # (restarts, 2, bins) responsibilities in the log domain
        np.divide(sq, var[:, :, None], out=log_comp)
        log_comp += np.log(2.0 * np.pi * var)[:, :, None]
        log_comp *= -0.5
        log_comp += np.log(w)[:, :, None]
        np.logaddexp(log_comp[:, 0, :], log_comp[:, 1, :], out=lse)
        log_comp -= lse[:, None, :]
        lse *= cw
        ll = lse.sum(axis=1)
        resp = np.exp(log_comp, out=log_comp)
        resp *= cw
        bulk = np.maximum(resp.sum(axis=2), 1e-300)
        w = bulk / total
        mu = np.multiply(resp, cx, out=work).sum(axis=2) / bulk
        np.square(np.subtract(cx, mu[:, :, None], out=sq), out=sq)
        var = np.maximum(np.multiply(resp, sq, out=work).sum(axis=2) / bulk, floor)
        w = np.clip(w, 1e-12, 1.0 - 1e-12)
        w /= w.sum(axis=1, keepdims=True)
        if np.all(np.abs(ll - prev_ll) < 1e-10 * (np.abs(ll) + 1.0)):
            break
        prev_ll = ll
    best = int(np.argmax(ll))
    # only the winning restart needs a settled likelihood; losing restarts
    # may still be crawling along degenerate plateaus
    converged = abs(ll[best] - prev_ll[best]) < 1e-7 * (abs(ll[best]) + 1.0)
    return w[best], mu[best], var[best], float(ll[best]), converged


def _single_gaussian_loglike(cx: np.ndarray, cw: np.ndarray, floor: float) -> tuple:
    total = cw.sum()
    mu = float((cw * cx).sum() / total)
    var = max(float((cw * (cx - mu) ** 2).sum() / total), floor)
    ll = float((cw * (-0.5 * (np.log(2.0 * np.pi * var) + (cx - mu) ** 2 / var))).sum())
    return mu, var, ll


def estimate_reset_fidelity(signal, excited_component: str = "upper") -> ResetEstimate:
    """Residual excited population by a two-component Gaussian mixture.

    Expectation-maximization with a k-means start plus a deterministic
    15-point threshold ladder (16 restarts, best log-likelihood wins); the
    component playing the excited state is chosen by center ordering
    (``excited_component`` is "upper" or "lower"). If a single Gaussian
    explains the data better (BIC), the residual population is reported as
    zero with an "unimodal" flag; a variance floor guards against component
    collapse, which is flagged. Samples that are not finite, whose moments
    overflow, or whose range cannot be cut into _RESET_BINS bins of increasing
    edges are refused with ValueError.
    """
    if excited_component not in ("upper", "lower"):
        raise ValueError('excited_component must be "upper" or "lower"')
    x = np.asarray(signal, dtype=float).ravel()
    if len(x) < 1000:
        raise ValueError(f"need at least 1000 samples, got {len(x)}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal samples must be finite")
    # every sum the mixture forms is at most n * max|x| or n * (max - min)^2
    lo, hi = float(x.min()), float(x.max())
    if not math.isfinite(len(x) * max(-lo, hi, (hi - lo) * (hi - lo))):
        raise ValueError(f"signal samples from {lo:.3g} to {hi:.3g} overflow the mixture's moments")
    cuts = np.linspace(lo, hi, _RESET_BINS + 1)  # the bin edges np.histogram takes
    if not np.all(cuts[:-1] < cuts[1:]):
        raise ValueError(f"signal samples from {lo!r} to {hi!r} span too little to cut into "
                         f"{_RESET_BINS} histogram bins")

    floor = 1e-6 * max(float(np.var(x)), 1e-12)
    counts, edges = np.histogram(x, bins=_RESET_BINS)
    centers = 0.5 * (edges[:-1] + edges[1:])
    occupied = counts > 0
    cx, cw = centers[occupied], counts[occupied].astype(float)

    w, mu, var, ll2, converged = _em_all_restarts(x, cx, cw, floor)
    if not converged:
        raise FitError("EM did not converge for the two-component mixture")
    mu1, var1, ll1 = _single_gaussian_loglike(cx, cw, floor)

    n = len(x)
    bic1 = -2.0 * ll1 + 2.0 * math.log(n)
    bic2 = -2.0 * ll2 + 5.0 * math.log(n)
    if bic1 <= bic2:
        sigma = math.sqrt(var1)
        return ResetEstimate(mu_g=mu1, mu_e=mu1, sigma_g=sigma, sigma_e=sigma,
                             weight_e=0.0, fidelity=1.0, flags=("unimodal",))

    sigmas = np.sqrt(var)
    lower, upper = np.argsort(mu)
    excited = upper if excited_component == "upper" else lower
    ground = lower if excited_component == "upper" else upper
    weight_upper = float(w[upper] / w.sum())
    weight_e = weight_upper if excited == upper else 1.0 - weight_upper

    flags = ()
    if np.any(var <= 1.5 * floor):
        flags = ("component-collapse",)
    return ResetEstimate(
        mu_g=float(mu[ground]),
        mu_e=float(mu[excited]),
        sigma_g=float(sigmas[ground]),
        sigma_e=float(sigmas[excited]),
        weight_e=weight_e,
        fidelity=1.0 - weight_e,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# dataset and report IO
# ---------------------------------------------------------------------------


def _check_rows(lines: list[str], width: int) -> None:
    """Raise for the first faulty row, in line order, naming its line."""
    for number, line in enumerate(lines[1:], start=2):
        content = line.split("#")[0]
        cells = content.split(",") if content.strip() else []
        if cells and len(cells) != width:
            raise ValueError(f"Line #{number} (got {len(cells)} columns instead of {width})")
        for column, cell in enumerate(cells, start=1):
            try:  # np.loadtxt reads what float reads, in ASCII and without "_"
                float(cell if cell.strip().isascii() and "_" not in cell else "_")
            except ValueError:
                raise ValueError(f"Line #{number} (column {column} is {cell.strip()!r}, "
                                 "not a number)") from None


def load_csv(lines) -> tuple[tuple[str, ...], np.ndarray]:
    """(column names, rows as a 2-D float array) of the lines of a CSV with a
    header line. All-blank lines are an empty file; the first row not of the
    header's width, or with a cell that is not a number, is named by its
    line; a string or a path is refused with TypeError."""
    if isinstance(lines, (str, os.PathLike)):
        raise TypeError(f"expected the lines of a CSV, not a {type(lines).__name__}")
    if not any(line.strip() for line in lines):
        raise ValueError("empty file")
    names = tuple(name.strip() for name in lines[0].split(","))
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError:
        _check_rows(lines, len(names))
        raise
    if body.shape[1] != len(names):
        _check_rows(lines, len(names))
        body = body.reshape(0, len(names))  # the widths hold, so there is no row
    return names, body


def load_time_series(lines) -> tuple[np.ndarray, np.ndarray]:
    """Read the lines of a `t_us,<value>` CSV into (t, values)."""
    names, body = load_csv(lines)
    if len(names) != 2 or names[0] != "t_us":
        raise ValueError("expected a two-column CSV with header t_us,<value>")
    return body[:, 0], body[:, 1]


def load_signal_samples(lines) -> np.ndarray:
    """Read the lines of a single-column `signal` CSV into samples."""
    names, body = load_csv(lines)
    if "signal" not in names:
        raise ValueError("expected a CSV with a `signal` column")
    return body[:, names.index("signal")]


def _json_value(value):
    """``value`` with arrays and tuples as lists and non-finite floats as None."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def fit_report(fit) -> dict:
    """Strict-JSON dict of any fit dataclass: arrays become lists, and each
    nan or inf becomes None (null). Each kind of null has its flag: an
    unreached 1/e time (``one-over-e-unreached``), a vanished exponential
    dephasing rate, t_phi_exp (``exponential-rate-vanished``), or an RB
    covariance that no more lengths than parameters leave undetermined
    (``covariance-undetermined``). An RB fit whose p sits at its upper
    bound, survivals that show no decay, is flagged ``no-decay``; its p and
    f_avg read as a perfect gate."""
    out = {key: _json_value(value) for key, value in dataclasses.asdict(fit).items()}
    out["model"] = type(fit).__name__
    return out
