import json
import math

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


def test_rb_constant_baseline_rejected():
    with pytest.raises(FitError):
        analysis.fit_rb_decay([1, 8, 64], [0.5, 0.5, 0.5])


def test_rb_needs_three_distinct_lengths():
    with pytest.raises(ValueError):
        analysis.fit_rb_decay([2, 2, 4, 4], [0.9, 0.91, 0.8, 0.81])


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


# ---------------------------------------------------------------------------
# dataset and report IO
# ---------------------------------------------------------------------------


def test_time_series_csv_roundtrip(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("t_us,value\n0.0,1.0\n1.0,0.5\n2.0,0.25\n")
    t, v = analysis.load_time_series(path)
    np.testing.assert_allclose(t, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(v, [1.0, 0.5, 0.25])
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\n")
    with pytest.raises(ValueError):
        analysis.load_time_series(bad)


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


def test_signal_csv_roundtrip(tmp_path):
    path = tmp_path / "shots.csv"
    path.write_text("signal\n" + "\n".join(str(x) for x in range(5)) + "\n")
    samples = analysis.load_signal_samples(path)
    np.testing.assert_allclose(samples, np.arange(5.0))
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n1\n")
    with pytest.raises(ValueError):
        analysis.load_signal_samples(bad)


def test_fit_report_is_json_ready():
    survivals = oracles.depolarized_survival(0.995, RB_LENGTHS)
    fit = analysis.fit_rb_decay(RB_LENGTHS, survivals)
    report = analysis.fit_report(fit)
    assert report["model"] == "RbFit"
    assert isinstance(report["covariance"], list)
    loaded = json.loads(json.dumps(report, indent=2))
    assert loaded["p"] == pytest.approx(0.995, abs=1e-9)
