import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uniflux import analysis
from uniflux.errors import FitError

T1_CANON = dict(a=1.0, b=0.0, t_exp=150.0, t_qp=30.0, n_qp=1.0)
T1_EFF_CANON = 39.801739957266  # us, Brent crossing of the canonical curve


def _t_grid(n=201, t_max=600.0):
    return np.linspace(0.0, t_max, n)


# ---------------------------------------------------------------------------
# relaxation fits
# ---------------------------------------------------------------------------


def test_relaxation_noiseless_roundtrip():
    t = _t_grid()
    p = oracles.double_exp_population(t, **T1_CANON)
    fit = analysis.fit_t1_double_exponential(t, p)
    assert fit.t_exp == pytest.approx(150.0, rel=0.02)
    assert fit.t_qp == pytest.approx(30.0, rel=0.02)
    assert fit.n_qp == pytest.approx(1.0, rel=0.02)
    assert fit.a == pytest.approx(1.0, abs=0.02)
    assert abs(fit.b) < 0.02
    assert fit.t1_eff == pytest.approx(T1_EFF_CANON, rel=1e-3)
    assert fit.sse < 1e-12
    assert fit.flags == ()


def test_t1_eff_matches_independent_crossing_of_fitted_curve():
    t = _t_grid()
    p = oracles.double_exp_population(t, **T1_CANON)
    fit = analysis.fit_t1_double_exponential(t, p)
    independent = oracles.one_over_e_crossing(
        fit.a, fit.b, fit.t_exp, fit.t_qp, fit.n_qp
    )
    assert fit.t1_eff == pytest.approx(independent, rel=1e-6)


@pytest.mark.slow
def test_relaxation_single_exponential_limit():
    t = _t_grid()
    p = oracles.double_exp_population(t, a=1.0, b=0.0, t_exp=150.0,
                                      t_qp=30.0, n_qp=0.0)
    fit = analysis.fit_t1_double_exponential(t, p)
    assert fit.t1_eff == pytest.approx(fit.t_exp, rel=1e-3)
    assert fit.t1_eff == pytest.approx(150.0, rel=1e-3)


@pytest.mark.slow
def test_relaxation_monte_carlo_bias():
    t = _t_grid(121)
    clean = oracles.double_exp_population(t, **T1_CANON)
    rng = np.random.default_rng(2026)
    estimates = []
    for _ in range(200):
        noisy = clean + 0.01 * rng.standard_normal(len(t))
        fit = analysis.fit_t1_double_exponential(t, noisy)
        estimates.append(fit.t1_eff)
    bias = abs(np.mean(estimates) / T1_EFF_CANON - 1.0)
    assert bias < 0.02


def test_relaxation_unreached_crossing_is_flagged():
    t = np.concatenate([[0.0, 1.0, 2.0, 5.0], np.linspace(10.0, 600.0, 20)])
    p = oracles.double_exp_population(t, a=1.0, b=0.0, t_exp=2e4,
                                      t_qp=30.0, n_qp=0.0)
    fit = analysis.fit_t1_double_exponential(t, p)
    assert "one-over-e-unreached" in fit.flags
    assert math.isnan(fit.t1_eff)


def test_relaxation_input_validation():
    with pytest.raises(ValueError):
        analysis.fit_t1_double_exponential([0, 1, 2], [1, 0.5, 0.3])
    t_bad = np.linspace(0, 600, 12)  # only spans one decade of time
    with pytest.raises(ValueError):
        analysis.fit_t1_double_exponential(t_bad, np.exp(-t_bad / 150))
    t = _t_grid(12)[::-1].copy()
    with pytest.raises(ValueError):
        analysis.fit_t1_double_exponential(t, np.ones(12))


# ---------------------------------------------------------------------------
# dephasing fits
# ---------------------------------------------------------------------------


def test_dephasing_model_at_zero_is_c_plus_d():
    value = analysis.dephasing_model(0.0, 0.8, 0.1, 100.0, 0.01, 0.02)
    assert value == pytest.approx(0.9, abs=1e-15)


def test_dephasing_pure_gaussian_recovery():
    t = np.linspace(0.0, 300.0, 121)
    env = oracles.dephasing_envelope(t, c=1.0, d=0.0, t1_de=200.0,
                                     t_phi_exp=math.inf, t_phi_g=128.0)
    fit = analysis.fit_dephasing_envelope(t, env, t1_de=200.0)
    assert fit.t_phi_g == pytest.approx(128.0, rel=0.02)
    assert fit.t_phi_exp > 1e4  # exponential component absent


def test_dephasing_mixed_roundtrip():
    t = np.linspace(0.0, 300.0, 121)
    env = oracles.dephasing_envelope(t, c=0.9, d=0.05, t1_de=180.0,
                                     t_phi_exp=90.0, t_phi_g=128.0)
    fit = analysis.fit_dephasing_envelope(t, env, t1_de=180.0)
    assert fit.c == pytest.approx(0.9, rel=0.02)
    assert fit.d == pytest.approx(0.05, abs=0.01)
    assert fit.t_phi_exp == pytest.approx(90.0, rel=0.02)
    assert fit.t_phi_g == pytest.approx(128.0, rel=0.02)
    assert fit.t1_de == 180.0


def test_dephasing_snr20_monte_carlo():
    t = np.linspace(0.0, 300.0, 121)
    clean = oracles.dephasing_envelope(t, c=1.0, d=0.0, t1_de=200.0,
                                       t_phi_exp=math.inf, t_phi_g=128.0)
    rng = np.random.default_rng(7)
    recovered = []
    for _ in range(25):
        noisy = clean + (1.0 / 20.0) * clean.max() * rng.standard_normal(len(t)) * 0.1
        fit = analysis.fit_dephasing_envelope(t, noisy, t1_de=200.0)
        recovered.append(fit.t_phi_g)
    assert np.mean(recovered) == pytest.approx(128.0, rel=0.05)


def test_dephasing_flags_a_vanished_exponential_rate():
    t = np.linspace(0.0, 300.0, 121)
    clean = oracles.dephasing_envelope(t, c=1.0, d=0.0, t1_de=200.0,
                                       t_phi_exp=math.inf, t_phi_g=128.0)
    noisy = clean + 0.005 * np.random.default_rng(42).standard_normal(len(t))
    fit = analysis.fit_dephasing_envelope(t, noisy, t1_de=200.0)
    assert fit.t_phi_exp == math.inf
    assert fit.flags == ("exponential-rate-vanished",)
    mixed = oracles.dephasing_envelope(t, c=0.9, d=0.05, t1_de=180.0,
                                       t_phi_exp=90.0, t_phi_g=128.0)
    assert analysis.fit_dephasing_envelope(t, mixed, t1_de=180.0).flags == ()


def test_dephasing_flags_exchange_degeneracy_on_a_short_window():
    # over 20 us, short of both dephasing times, the exponential and Gaussian
    # rates trade off (their correlation is above 0.95); over 300 us it is not
    for span, flags in ((20.0, ("exchange-degeneracy",)), (300.0, ())):
        t = np.linspace(0.0, span, 41)
        env = oracles.dephasing_envelope(t, c=0.9, d=0.05, t1_de=180.0,
                                         t_phi_exp=90.0, t_phi_g=128.0)
        assert analysis.fit_dephasing_envelope(t, env, t1_de=180.0).flags == flags


def test_dephasing_requires_positive_t1():
    t = np.linspace(0.0, 300.0, 40)
    with pytest.raises(ValueError):
        analysis.fit_dephasing_envelope(t, np.exp(-t / 100.0), t1_de=0.0)


# ---------------------------------------------------------------------------
# RB decay fits
# ---------------------------------------------------------------------------


RB_LENGTHS = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])


def test_rb_fit_recovers_decay_and_f_avg():
    p = 0.9998
    survivals = oracles.depolarized_survival(p, RB_LENGTHS)
    fit = analysis.fit_rb_decay(RB_LENGTHS, survivals)
    assert fit.p == pytest.approx(p, abs=1e-6)
    assert fit.f_avg == pytest.approx(0.9999, abs=1e-6)


def test_rb_fit_noisy_recovery_within_1e3():
    p = 0.99
    rng = np.random.default_rng(3)
    lengths = np.repeat(RB_LENGTHS[:9], 4)
    survivals = oracles.depolarized_survival(p, lengths)
    survivals = survivals + 0.002 * rng.standard_normal(len(lengths))
    fit = analysis.fit_rb_decay(lengths, survivals)
    assert fit.p == pytest.approx(p, abs=1e-3)


def test_rb_perfect_data_gives_unit_fidelity():
    fit = analysis.fit_rb_decay([1, 8, 64], [1.0, 1.0, 1.0])
    assert fit.p == 1.0
    assert fit.f_avg == 1.0
    assert "constant-survival" in fit.flags


def test_rb_flags_an_undetermined_covariance():
    fit = analysis.fit_rb_decay([1, 16, 256], [0.99, 0.9, 0.6])
    assert np.all(np.isinf(fit.covariance))
    assert fit.flags == ("covariance-undetermined",)
    fit = analysis.fit_rb_decay([1, 16, 64, 256], [0.99, 0.9, 0.75, 0.6])
    assert np.all(np.isfinite(fit.covariance)) and fit.flags == ()


def test_rb_flags_survivals_that_show_no_decay():
    # survivals that rise with length pin p at its upper bound; the numbers
    # read as a perfect gate, so the flag carries the warning
    fit = analysis.fit_rb_decay([1, 2, 4, 8], [0.5, 0.6, 0.7, 0.8])
    assert 1.0 - fit.p < 1e-9 and fit.f_avg == 1.0
    assert fit.flags == ("no-decay",)
    decay = oracles.depolarized_survival(0.9998, RB_LENGTHS)
    assert analysis.fit_rb_decay(RB_LENGTHS, decay).flags == ()


def test_rb_constant_baseline_rejected():
    with pytest.raises(FitError):
        analysis.fit_rb_decay([1, 8, 64], [0.5, 0.5, 0.5])


def test_rb_refuses_a_decay_whose_fitted_amplitude_vanishes():
    # survival varying by 1e-7, above the constant-trace cut, fits a < 1e-6
    with pytest.raises(FitError) as info:
        analysis.fit_rb_decay([1, 2, 4, 8], [0.5, 0.5, 0.5, 0.5000001])
    assert str(info.value) == "decay amplitude vanished in the fit; p unidentifiable"


def test_rb_needs_three_distinct_lengths():
    with pytest.raises(ValueError):
        analysis.fit_rb_decay([2, 2, 4, 4], [0.9, 0.91, 0.8, 0.81])


@pytest.mark.parametrize("fit, message", [
    (lambda: analysis.fit_t1_double_exponential(np.arange(10.0), np.ones(9)),
     "t and values must be 1-D arrays of equal length"),
    (lambda: analysis.fit_dephasing_envelope(np.ones((2, 5)), np.ones((2, 5)), t1_de=100.0),
     "t and values must be 1-D arrays of equal length"),
    (lambda: analysis.fit_rb_decay([1, 2, 4], [0.9, 0.8]),
     "lengths and survivals must be 1-D arrays of equal length"),
    (lambda: analysis.fit_rb_decay([0, 1, 2, 4], [0.99, 0.9, 0.8, 0.7]),
     "sequence lengths must be >= 1"),
], ids=["t1-shapes", "dephasing-2-d", "rb-shapes", "rb-length-0"])
def test_fits_refuse_inputs_of_the_wrong_shape_or_length(fit, message):
    with pytest.raises(ValueError) as info:
        fit()
    assert str(info.value) == message


_SPAN = np.concatenate(([0.0], np.geomspace(0.5, 300.0, 40)))
_ABOVE_ONE = 1.5 * np.exp(-_SPAN / 60.0) + 1.2  # its tail, the offset start, is 1.22419


@pytest.mark.parametrize("fit, message", [
    (lambda: analysis.fit_t1_double_exponential(_SPAN, _ABOVE_ONE),
     "parameter 2 starts at 1.22419, outside [-1, 1]"),
    (lambda: analysis.fit_dephasing_envelope(_SPAN, _ABOVE_ONE, t1_de=50.0),
     "parameter 2 starts at 1.22419, outside [-1, 1]"),
    (lambda: analysis.fit_rb_decay([1, 2, 4, 8, 16], [1.5, 1.4, 1.3, 1.2, 1.1]),
     "parameter 2 starts at 1.1, outside [0, 1]"),
    (lambda: analysis.fit_rb_decay([1, 2, 4, 8], [1.5, 1.0, 0.5, 0.0]),
     "parameter 1 starts at 1.5, outside [0, 1]"),
], ids=["t1-offset", "dephasing-offset", "rb-offset", "rb-amplitude"])
def test_fits_refuse_data_that_put_every_start_outside_the_bounds(fit, message):
    # SciPy refuses each such start unsolved; the refusal names the value and
    # the bound instead of reporting a fit that did not converge
    with pytest.raises(ValueError) as info:
        fit()
    assert str(info.value) == f"the data put every start outside the fit's bounds: {message}"


# ---------------------------------------------------------------------------
# the fit kernel against the curve_fit reference
# ---------------------------------------------------------------------------


def _record_kernel(monkeypatch):
    """Spy on the fit kernel: each call's starts, bounds and result."""
    calls = []
    kernel = analysis._least_squares_fit

    def spy(residuals, starts, bounds, **solver):
        result = kernel(residuals, starts, bounds, **solver)
        calls.append((starts, bounds, result))
        return result

    monkeypatch.setattr(analysis, "_least_squares_fit", spy)
    return calls


def _assert_matches_curve_fit(calls, fit, model, x, y):
    """The kernel's (popt, pcov, sse) equal curve_fit's bit for bit."""
    (starts, bounds, (popt, pcov, sse)), = calls
    calls.clear()
    ref_popt, ref_pcov, ref_sse = oracles.multi_start_curve_fit(
        model, x, y, starts, bounds
    )
    assert np.array_equal(popt, ref_popt)
    assert np.array_equal(pcov, ref_pcov)
    assert np.array_equal(fit.covariance, ref_pcov)
    assert sse == ref_sse == fit.sse


def test_t1_fit_matches_curve_fit_reference(monkeypatch):
    calls = _record_kernel(monkeypatch)
    t = _t_grid(121)
    clean = oracles.double_exp_population(t, **T1_CANON)
    rng = np.random.default_rng(41)
    for _ in range(3):
        noisy = clean + 0.01 * rng.standard_normal(len(t))
        fit = analysis.fit_t1_double_exponential(t, noisy)
        _assert_matches_curve_fit(calls, fit, analysis.relaxation_model, t, noisy)


def test_dephasing_fit_matches_curve_fit_reference(monkeypatch):
    calls = _record_kernel(monkeypatch)
    t = np.linspace(0.0, 300.0, 121)
    rng = np.random.default_rng(42)
    for t_phi_exp in (math.inf, 90.0, 400.0):
        clean = oracles.dephasing_envelope(t, c=1.0, d=0.0, t1_de=200.0,
                                           t_phi_exp=t_phi_exp, t_phi_g=128.0)
        noisy = clean + 0.005 * rng.standard_normal(len(t))
        fit = analysis.fit_dephasing_envelope(t, noisy, t1_de=200.0)

        def model(tt, c, d, gamma_exp, gamma_g):
            return analysis.dephasing_model(tt, c, d, 200.0, gamma_exp, gamma_g)

        _assert_matches_curve_fit(calls, fit, model, t, noisy)


def test_rb_fit_matches_curve_fit_reference(monkeypatch):
    calls = _record_kernel(monkeypatch)
    rng = np.random.default_rng(43)
    # three lengths for three parameters: curve_fit's covariance is all inf
    for lengths in (np.repeat(RB_LENGTHS[:9], 3), RB_LENGTHS[[0, 4, 8]]):
        m = lengths.astype(float)
        survivals = oracles.depolarized_survival(0.995, m)
        survivals = survivals + 0.002 * rng.standard_normal(len(m))
        fit = analysis.fit_rb_decay(lengths, survivals)
        _assert_matches_curve_fit(calls, fit, analysis.rb_model, m, survivals)
    assert np.all(np.isinf(fit.covariance))


def _compile_fit_t1(rng, n_qp):
    """A `fit t1` input as the compile_fit benchmark draws it, at a given n_qp."""
    a, b = rng.uniform(0.85, 0.95), rng.uniform(0.02, 0.06)
    t_exp, t_qp = rng.uniform(80.0, 200.0), rng.uniform(15.0, 40.0)
    t = np.concatenate([[0.0], np.geomspace(0.5, 4.0 * t_exp, 120)])
    clean = oracles.double_exp_population(t, a, b, t_exp, t_qp, n_qp)
    return t, clean + rng.normal(0.0, 0.003, len(t))


def test_compile_fit_shaped_t1_fits_match_curve_fit(monkeypatch):
    calls = _record_kernel(monkeypatch)
    rng = np.random.default_rng(44)
    for n_qp in (rng.uniform(0.5, 1.5), 0.0):
        t, noisy = _compile_fit_t1(rng, n_qp)
        fit = analysis.fit_t1_double_exponential(t, noisy)
        _assert_matches_curve_fit(calls, fit, analysis.relaxation_model, t, noisy)


def test_compile_fit_shaped_dephasing_and_rb_fits_match_curve_fit(monkeypatch):
    calls = _record_kernel(monkeypatch)
    rng = np.random.default_rng(45)
    t = np.linspace(0.0, 400.0, 81)
    for t_phi_exp in (rng.uniform(60.0, 150.0), math.inf):
        c, d, t1 = rng.uniform(0.85, 0.95), rng.uniform(0.02, 0.06), rng.uniform(120.0, 250.0)
        clean = oracles.dephasing_envelope(t, c, d, t1, t_phi_exp, rng.uniform(80.0, 200.0))
        noisy = clean + rng.normal(0.0, 0.003, len(t))
        fit = analysis.fit_dephasing_envelope(t, noisy, t1_de=t1)

        def model(tt, c, d, gamma_exp, gamma_g):
            return analysis.dephasing_model(tt, c, d, t1, gamma_exp, gamma_g)

        _assert_matches_curve_fit(calls, fit, model, t, noisy)
    lengths = np.repeat(2.0 ** np.arange(10), 2)
    for p in (rng.uniform(0.99, 0.998), 1.0):
        survivals = oracles.depolarized_survival(p, lengths)
        survivals = survivals + rng.normal(0.0, 0.002, len(lengths))
        fit = analysis.fit_rb_decay(lengths, survivals)
        _assert_matches_curve_fit(calls, fit, analysis.rb_model, lengths, survivals)


# ---------------------------------------------------------------------------
# the kernel's finite-difference Jacobian against SciPy's
# ---------------------------------------------------------------------------

T1_BOUNDS = ([1e-12, -1.0, 1e-6, 1e-6, 0.0], [10.0, 1.0, 1e7, 1e7, 50.0])
_STEP = math.sqrt(np.finfo(float).eps)


def _t1_residuals():
    t = np.concatenate([[0.0], np.geomspace(0.5, 600.0, 120)])
    values = oracles.double_exp_population(t, 0.9, 0.04, 150.0, 30.0, 1.0)
    return lambda p: analysis.relaxation_model(t, *p[..., None]) - values


@pytest.mark.parametrize("x, bounds", [
    # interior, with a negative and a zero parameter (sign(0) = +1)
    ([0.9, -0.05, 150.0, 30.0, 1.0], T1_BOUNDS),
    ([2.5, 0.0, 1e5, 0.3, 0.0], T1_BOUNDS),
    # within one step of the upper bound: the forward step flips
    ([10.0 - 1e-9, 1.0 - 1e-10, 1e7 - 1.0, 30.0, 50.0 - 1e-7], T1_BOUNDS),
    # within one step of the lower bound: the backward step of a negative x flips
    ([0.9, -1.0 + 1e-10, 150.0, 30.0, 1.0], T1_BOUNDS),
    # boxes narrower than the step: forward to the upper bound ...
    ([0.9 + 3e-11, 0.04, 150.0, 30.0, 1.0],
     ([0.9, -1.0, 1e-6, 1e-6, 0.0], [0.9 + 1e-10, 1.0, 1e7, 1e7, 50.0])),
    # ... and backward to the lower bound, on a negative parameter too
    ([0.9 + 7e-11, -0.04 + 1e-11, 150.0, 30.0, 1.0],
     ([0.9, -0.04, 1e-6, 1e-6, 0.0], [0.9 + 1e-10, -0.04 + 1.5e-11, 1e7, 1e7, 50.0])),
])
def test_forward_difference_equals_approx_derivative_bit_for_bit(x, bounds):
    from scipy.optimize._numdiff import approx_derivative

    residuals = _t1_residuals()
    x = np.array(x)
    got = analysis._forward_difference(residuals, bounds)(x)
    want = approx_derivative(residuals, x, method="2-point", bounds=bounds, f0=residuals(x))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.f_contiguous == want.flags.f_contiguous


def test_forward_difference_takes_each_step_rule_in_one_call():
    # a and b sit within one step of a bound, t_exp and t_qp in boxes
    # narrower than their step, n_qp at zero inside its box
    x = np.array([10.0 - 1e-9, -1.0 + 1e-10, 150.0 + 3e-7, 30.0, 0.0])
    bounds = ([1e-12, -1.0, 150.0, 30.0 - 3e-7, -1.0], [10.0, 1.0, 150.0 + 1e-6, 30.0 + 1e-7, 50.0])
    stacks = []

    def residuals(p):
        stacks.append(p)
        return _t1_residuals()(p)

    analysis._forward_difference(residuals, bounds)(x)
    (stack,) = stacks
    assert stack.shape == (5, 6)
    assert np.array_equal(stack[:, 0], x)
    steps = np.diag(stack[:, 1:]) - x
    assert steps[0] == pytest.approx(-_STEP * 10.0)  # flipped below the upper bound
    assert steps[1] == pytest.approx(_STEP)  # a negative x's step flipped above the lower bound
    assert steps[2] == pytest.approx(7e-7)  # forward to the farther, upper bound
    assert steps[3] == pytest.approx(-3e-7)  # backward to the farther, lower bound
    assert steps[4] == _STEP  # sign(0) = +1


def _captured_residuals(monkeypatch):
    """Spy on the fit kernel: each call's residuals, starts and solution."""
    captured = []
    kernel = analysis._least_squares_fit

    def spy(residuals, starts, bounds, **solver):
        result = kernel(residuals, starts, bounds, **solver)
        captured.append((residuals, starts, result[0]))
        return result

    monkeypatch.setattr(analysis, "_least_squares_fit", spy)
    return captured


def test_batched_residuals_equal_single_calls_row_by_row(monkeypatch):
    captured = _captured_residuals(monkeypatch)
    rng = np.random.default_rng(46)
    t, noisy = _compile_fit_t1(rng, 1.0)
    analysis.fit_t1_double_exponential(t, noisy)
    t = np.linspace(0.0, 400.0, 81)
    env = oracles.dephasing_envelope(t, 0.9, 0.04, 180.0, 90.0, 128.0)
    analysis.fit_dephasing_envelope(t, env + rng.normal(0.0, 0.003, len(t)), t1_de=180.0)
    lengths = np.repeat(2.0 ** np.arange(10), 2)
    survivals = oracles.depolarized_survival(0.995, lengths)
    analysis.fit_rb_decay(lengths, survivals + rng.normal(0.0, 0.002, len(lengths)))
    assert len(captured) == 3
    for residuals, starts, solution in captured:
        stack = np.column_stack([*starts, solution])
        batch = residuals(stack)
        assert batch.shape == (stack.shape[1], residuals(solution).size)
        for column, row in zip(stack.T, batch):
            assert row.tobytes() == residuals(column).tobytes()


def test_fits_reject_non_finite_data():
    t = _t_grid(40)
    p = oracles.double_exp_population(t, **T1_CANON)
    for bad in (math.nan, math.inf):
        values = p.copy()
        values[7] = bad
        with pytest.raises(ValueError, match="finite"):
            analysis.fit_t1_double_exponential(t, values)
        with pytest.raises(ValueError, match="finite"):
            analysis.fit_dephasing_envelope(t, values, t1_de=200.0)
        times = t.copy()
        times[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            analysis.fit_t1_double_exponential(times, p)
        survivals = oracles.depolarized_survival(0.99, RB_LENGTHS)
        survivals[3] = bad
        with pytest.raises(ValueError, match="finite"):
            analysis.fit_rb_decay(RB_LENGTHS, survivals)


# ---------------------------------------------------------------------------
# interleaved RB algebra
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0))
def test_interleaving_perfect_gate_is_exact_unity(p_ref):
    assert analysis.interleaved_fidelity(p_ref, p_ref) == 1.0


def test_interleaved_reference_point():
    fidelity = analysis.interleaved_fidelity(0.9990, 0.9988)
    error = 1.0 - fidelity
    assert error == pytest.approx(1.001e-4, rel=1e-3)
    assert round(fidelity, 4) == 0.9999


def test_interleaved_depolarized_limit():
    assert analysis.interleaved_fidelity(0.9, 0.0) == 0.5


def test_interleaved_inconsistency_warns_not_clamps():
    with pytest.warns(UserWarning, match="negative gate error"):
        fidelity = analysis.interleaved_fidelity(0.995, 0.999)
    assert fidelity > 1.0


@pytest.mark.parametrize("p_ref, p_int, message", [
    (0.0, 0.5, "p_ref must lie in (0, 1]"),
    (1.5, 0.5, "p_ref must lie in (0, 1]"),
    (0.9, -0.1, "p_int must lie in [0, 1]"),
    (0.9, 1.1, "p_int must lie in [0, 1]"),
])
def test_interleaved_fidelity_refuses_a_decay_outside_its_range(p_ref, p_int, message):
    with pytest.raises(ValueError) as info:
        analysis.interleaved_fidelity(p_ref, p_int)
    assert str(info.value) == message


def test_attach_interleaved_payload():
    survivals = oracles.depolarized_survival(0.999, RB_LENGTHS)
    fit = analysis.fit_rb_decay(RB_LENGTHS, survivals)
    combined = analysis.attach_interleaved(fit, 0.998)
    assert combined.interleaved["p_int"] == 0.998
    assert combined.interleaved["gate_fidelity"] == pytest.approx(
        analysis.interleaved_fidelity(fit.p, 0.998)
    )


# ---------------------------------------------------------------------------
# reset-fidelity estimator
# ---------------------------------------------------------------------------


def _readout_samples(rng, n, weight_e, separation=4.0):
    excited = rng.random(n) < weight_e
    return np.where(excited, separation, 0.0) + rng.standard_normal(n)


def test_reset_estimator_recovers_two_percent():
    rng = np.random.default_rng(11)
    samples = _readout_samples(rng, 20000, 0.02)
    est = analysis.estimate_reset_fidelity(samples)
    assert est.weight_e == pytest.approx(0.02, abs=0.003)
    assert est.fidelity == pytest.approx(0.98, abs=0.003)
    assert est.mu_e > est.mu_g
    assert est.sigma_g == pytest.approx(1.0, abs=0.1)


@pytest.mark.slow
def test_reset_estimator_monte_carlo_within_three_permille():
    rng = np.random.default_rng(2)
    errors = []
    for _ in range(100):
        samples = _readout_samples(rng, 10000, 0.02)
        est = analysis.estimate_reset_fidelity(samples)
        errors.append(est.weight_e - 0.02)
    assert abs(np.mean(errors)) < 0.003
    assert np.std(errors) < 0.003


def test_reset_null_case_reports_zero_population():
    rng = np.random.default_rng(5)
    est = analysis.estimate_reset_fidelity(rng.standard_normal(5000))
    assert est.weight_e < 0.002
    assert "unimodal" in est.flags


def test_reset_symmetric_mixture():
    rng = np.random.default_rng(9)
    samples = _readout_samples(rng, 4000, 0.5)
    est = analysis.estimate_reset_fidelity(samples)
    assert est.weight_e == pytest.approx(0.5, abs=0.02)


def test_reset_component_relabeling_flips_weight_exactly():
    rng = np.random.default_rng(13)
    samples = _readout_samples(rng, 4000, 0.2)
    upper = analysis.estimate_reset_fidelity(samples, excited_component="upper")
    lower = analysis.estimate_reset_fidelity(samples, excited_component="lower")
    assert upper.weight_e + lower.weight_e == 1.0
    assert upper.mu_e == lower.mu_g


def test_reset_estimator_validation():
    with pytest.raises(ValueError):
        analysis.estimate_reset_fidelity(np.zeros(100))
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        analysis.estimate_reset_fidelity(rng.standard_normal(2000),
                                         excited_component="middle")


_NORMAL = np.random.default_rng(3).standard_normal(1999)


@pytest.mark.parametrize("samples, match", [
    (np.append(_NORMAL, math.nan), "must be finite"),
    (np.append(_NORMAL, math.inf), "must be finite"),
    (np.append(_NORMAL, -math.inf), "must be finite"),
    # n * spread^2, the variance's sum, overflows
    (np.append(_NORMAL, -1e300), "overflow the mixture's moments"),
    # n * peak, the mean's sum, overflows although the samples all agree
    (np.full(2000, 1e306), "overflow the mixture's moments"),
], ids=["nan", "inf", "-inf", "wide", "large"])
def test_reset_estimator_refuses_samples_whose_moments_do_not_exist(samples, match):
    with pytest.raises(ValueError, match=match):
        analysis.estimate_reset_fidelity(samples)


@pytest.mark.parametrize("samples", [
    np.zeros(1000),
    np.full(1000, 1e17),
    # steps of 8 near 1e17, where the doubles lie 16 apart: 512 equal bins
    # of the range would be 15.6 wide, so some edges round onto each other
    1e17 + 8.0 * np.arange(1000),
], ids=["zeros", "1e17", "1e17-steps"])
def test_reset_estimator_refuses_samples_its_bins_cannot_resolve(samples):
    with pytest.raises(ValueError, match="span too little to cut into 512 histogram bins"):
        analysis.estimate_reset_fidelity(samples)


def test_reset_estimator_takes_samples_whose_bins_are_one_double_apart():
    # steps of 16, one double apart near 1e17: every bin edge is distinct
    estimate = analysis.estimate_reset_fidelity(1e17 + 16.0 * np.arange(1000))
    assert 1e17 < estimate.mu_g < 1e17 + 16000 and estimate.sigma_g > 0


def _assert_reset_matches_the_fresh_array_oracle(monkeypatch, samples, excited_component):
    """The EM's return, converged included, and every ResetEstimate field equal
    the oracle's by float.hex; the oracle path is the EM as first written."""
    assert oracles.hex_fields(analysis._mixture_inits(samples)) == oracles.hex_fields(
        oracles.argmin_mixture_inits(samples))
    got = _reset_outcome(monkeypatch, samples, excited_component, analysis._em_all_restarts)
    want = _reset_outcome(monkeypatch, samples, excited_component, oracles.fresh_array_em)
    assert got == want
    return got


def _reset_outcome(monkeypatch, samples, excited_component, em):
    """(the EM's return, the estimate or the FitError it raised), floats as
    float.hex, with ``em`` as the estimator's EM."""
    returned = []

    def spy(*args):
        returned.append(em(*args))
        return returned[-1]

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_em_all_restarts", spy)
        try:
            estimate = analysis.estimate_reset_fidelity(samples, excited_component)
        except FitError as exc:
            estimate = repr(exc)
    return oracles.hex_fields(returned), oracles.hex_fields(estimate)


def _readout_mixture(seed, n, weight_e, sigma, step=0.0):
    """Readout samples at 0 and 1 with ``weight_e`` excited; a ``step`` rounds
    them to a digitizer's grid, where a sample can sit exactly midway between
    two cluster centres."""
    rng = np.random.default_rng(seed)
    excited = rng.random(n) < weight_e
    x = np.where(excited, rng.normal(1.0, sigma, n), rng.normal(0.0, sigma, n))
    return np.round(x / step) * step if step else x


@pytest.mark.parametrize("seed, n, weight_e, sigma, flag", [
    (61, 5000, 0.0, 0.15, "unimodal"),
    (63, 4000, 0.5, 0.15, None),
    (64, 20000, 0.5, 0.5, None),
    (65, 10000, 0.01, 0.15, None),
    (66, 1000, 0.01, 0.1, None),
])
@pytest.mark.parametrize("step", [0.0, 0.125])
def test_reset_estimator_matches_the_fresh_array_oracle(monkeypatch, seed, n, weight_e,
                                                        sigma, flag, step):
    est = _assert_reset_matches_the_fresh_array_oracle(
        monkeypatch, _readout_mixture(seed, n, weight_e, sigma, step), "upper")
    if not step:
        assert est[1]["flags"] == ([flag] if flag else [])


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1000, 20000),
    weight_e=st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5)),
    sigma=st.floats(0.1, 0.5),
    step=st.sampled_from([0.0, 0.125, 0.25]),
    excited_component=st.sampled_from(["upper", "lower"]),
)
def test_reset_estimator_matches_the_fresh_array_oracle_property(seed, n, weight_e, sigma,
                                                                 step, excited_component):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_reset_matches_the_fresh_array_oracle(
            monkeypatch, _readout_mixture(seed, n, weight_e, sigma, step), excited_component)


# ---------------------------------------------------------------------------
# dataset and report IO
# ---------------------------------------------------------------------------


def test_time_series_csv_roundtrip():
    t, v = analysis.load_time_series(["t_us,value", "0.0,1.0", "1.0,0.5", "2.0,0.25"])
    np.testing.assert_allclose(t, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(v, [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        analysis.load_time_series(["x,y", "0,1"])


def test_csv_reader_names_a_ragged_line_and_takes_a_bare_header():
    names, body = analysis.load_csv(["t_us,p1"])
    assert names == ("t_us", "p1") and body.shape == (0, 2)
    names, body = analysis.load_csv(["length, survival", "1,0.5", "", "2,0.25  # late"])
    assert names == ("length", "survival")
    np.testing.assert_array_equal(body, [[1.0, 0.5], [2.0, 0.25]])
    with pytest.raises(ValueError, match="Line #3 "):
        analysis.load_csv(["t_us,p1", "0,1", "1,2,3"])
    with pytest.raises(ValueError, match="Line #2 "):
        analysis.load_csv(["t_us,p1", "0,1,2", "1,2,3"])


@pytest.mark.parametrize("rows, message", [
    (["t_us,p_e", "0,1", "1,abc"], "Line #3 (column 2 is 'abc', not a number)"),
    # blank and comment lines count: numpy's own message called this row 1
    (["t_us,p_e", "0,1", "", "# late", "1,abc"], "Line #5 (column 2 is 'abc', not a number)"),
    (["t_us,p_e", "0,"], "Line #2 (column 2 is '', not a number)"),
    # float reads these; np.loadtxt does not
    (["t_us,p_e", "1_0,1"], "Line #2 (column 1 is '1_0', not a number)"),
    (["t_us,p_e", "0,\uff11"], "Line #2 (column 2 is '\uff11', not a number)"),
    # np.loadtxt reads these, so the fault is further down
    (["t_us,p_e", " 1 ,\xa02", "+inf,-nan", ".5,1e3", "1,x"],
     "Line #5 (column 2 is 'x', not a number)"),
    # the first faulty line is named, whichever its fault
    (["t_us,p_e", "0,1", "1,x", "2,3,4"], "Line #3 (column 2 is 'x', not a number)"),
    (["t_us,p_e", "0,1,2", "1,x"], "Line #2 (got 3 columns instead of 2)"),
])
def test_csv_reader_names_the_line_and_column_of_a_cell_that_is_not_a_number(rows, message):
    with pytest.raises(ValueError) as info:
        analysis.load_csv(rows)
    assert str(info.value) == message


@pytest.mark.parametrize("lines", [[], ["  "], ["", " ", "\t"]])
def test_csv_reader_refuses_lines_that_are_all_blank_as_an_empty_file(lines):
    with pytest.raises(ValueError) as info:
        analysis.load_csv(lines)
    assert str(info.value) == "empty file"


def test_signal_csv_roundtrip():
    samples = analysis.load_signal_samples(["signal", *(str(x) for x in range(5))])
    np.testing.assert_allclose(samples, np.arange(5.0))
    with pytest.raises(ValueError):
        analysis.load_signal_samples(["value", "1"])


@pytest.mark.parametrize("path", ["t1.csv", pathlib.Path("t1.csv")])
@pytest.mark.parametrize(
    "reader", [analysis.load_csv, analysis.load_time_series, analysis.load_signal_samples]
)
def test_csv_readers_refuse_a_path_or_a_string(reader, path):
    # a string would be read as its characters, a path would not be read at all
    with pytest.raises(TypeError, match="expected the lines of a CSV"):
        reader(path)


def test_fit_report_is_json_ready():
    survivals = oracles.depolarized_survival(0.995, RB_LENGTHS)
    fit = analysis.fit_rb_decay(RB_LENGTHS, survivals)
    report = analysis.fit_report(fit)
    assert report["model"] == "RbFit"
    assert isinstance(report["covariance"], list)
    loaded = json.loads(json.dumps(report, indent=2))
    assert loaded["p"] == pytest.approx(0.995, abs=1e-9)
    vanished = analysis.DephasingFit(c=1.0, d=0.0, t1_de=200.0, t_phi_exp=math.inf,
                                     t_phi_g=128.0, covariance=np.full((4, 4), math.nan),
                                     sse=0.0)
    report = analysis.fit_report(vanished)
    assert report["t_phi_exp"] is None and report["covariance"] == [[None] * 4] * 4
    json.dumps(report, allow_nan=False)
