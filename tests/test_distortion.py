import math

import numpy as np
import pytest

from uniflux import distortion, filters
from uniflux.distortion import ExponentialTailModel, TailProbeRecord
from uniflux.errors import FitError

from oracles import lti_distorted, simulate_tail_probe, windowed_tail_quad

SETTLING_MODEL = ExponentialTailModel(
    terms=((-0.0174, 34.0), (-0.0189, 170.0), (-0.0158, 996.0))
)
AMPS, TAUS = zip(*SETTLING_MODEL.terms)


def test_model_canonical_order_and_validation():
    m = ExponentialTailModel(terms=((-0.01, 500.0), (-0.02, 30.0)))
    assert m.terms == ((-0.02, 30.0), (-0.01, 500.0))
    with pytest.raises(ValueError):
        ExponentialTailModel(terms=((-0.01, -5.0),))
    with pytest.raises(ValueError):
        ExponentialTailModel(terms=((0.6, 10.0), (0.5, 100.0)))


def test_probe_short_window_limit():
    # window of tau_min/100: the average collapses onto the pointwise residual
    # (evaluated at the window midpoint, where the first-order term vanishes)
    delays = np.linspace(5.0, 500.0, 40)
    window = 0.34
    records = simulate_tail_probe(SETTLING_MODEL, delays, probe_window=window)
    midpoints = delays + window / 2.0
    pointwise = sum(a * np.exp(-midpoints / tau) for a, tau in SETTLING_MODEL.terms)
    got = np.array([r.tail_over_ref for r in records])
    assert np.max(np.abs(got - pointwise)) < 1e-6


def test_probe_matches_quadrature_oracle():
    [record] = simulate_tail_probe(SETTLING_MODEL, [170.0], probe_window=10.0)
    got = record.tail_over_ref
    want = windowed_tail_quad(AMPS, TAUS, 170.0, 10.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_window_average_linearity():
    a = ExponentialTailModel(terms=((-0.02, 40.0),))
    b = ExponentialTailModel(terms=((-0.01, 300.0),))
    both = ExponentialTailModel(terms=a.terms + b.terms)
    d = np.linspace(1.0, 800.0, 64)

    def tail(model):
        return np.array([r.tail_over_ref for r in simulate_tail_probe(model, d, 20.0)])

    np.testing.assert_allclose(tail(both), tail(a) + tail(b), atol=1e-12)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def _synthetic_records(model, noise=0.0, rng=None, n=60):
    delays = np.geomspace(2.0, 6000.0, n)
    records = simulate_tail_probe(model, delays, probe_window=20.0)
    if noise:
        records = [
            TailProbeRecord(r.delay, r.tail_over_ref + rng.normal(0.0, noise))
            for r in records
        ]
    return records


def test_fit_three_term_noiseless():
    fit = distortion.fit_multi_exponential(_synthetic_records(SETTLING_MODEL), 3)
    for (a, tau), (a0, tau0) in zip(fit.model.terms, SETTLING_MODEL.terms):
        assert tau == pytest.approx(tau0, rel=0.02)
        assert a == pytest.approx(a0, abs=5e-4)
    assert not fit.degenerate_taus
    assert fit.residual_norm < 1e-8


def test_fit_single_term_exact():
    truth = ExponentialTailModel(terms=((-0.03, 120.0),))
    fit = distortion.fit_multi_exponential(_synthetic_records(truth, n=24), 1)
    [(amp, tau)] = fit.model.terms
    assert tau == pytest.approx(120.0, rel=1e-6)
    assert amp == pytest.approx(-0.03, rel=1e-6)


def test_fit_requires_window_model():
    # fitting records measured with a 20 ns window as if instantaneous
    # misestimates the fast-term amplitude by much more than the fit error
    records = _synthetic_records(SETTLING_MODEL)
    honest = distortion.fit_multi_exponential(records, 3, probe_window=20.0)
    tiny = distortion.fit_multi_exponential(records, 3, probe_window=1e-6)
    assert abs(honest.model.terms[0][0] - AMPS[0]) < 5e-4
    assert abs(tiny.model.terms[0][0] - AMPS[0]) > 2e-3


def test_fit_argument_validation():
    records = _synthetic_records(SETTLING_MODEL, n=10)
    with pytest.raises(ValueError):
        distortion.fit_multi_exponential(records, 0)
    with pytest.raises(ValueError):
        distortion.fit_multi_exponential(records, 5)
    with pytest.raises(ValueError):
        distortion.fit_multi_exponential(records[:7], 2)


def test_fit_degenerate_tau_flag():
    close = ExponentialTailModel(terms=((-0.02, 100.0), (-0.02, 125.0)))
    with pytest.warns(UserWarning, match="degenerate"):
        fit = distortion.fit_multi_exponential(_synthetic_records(close), 2)
    assert fit.degenerate_taus


def test_fit_flags_a_collapsed_term():
    # a single settling term plus noise, fitted with two: the second term is
    # unresolvable and runs off to a tau of ~7e13 ns with a tiny amplitude
    truth = ExponentialTailModel(terms=((-0.02, 80.0),))
    records = _synthetic_records(truth, noise=2e-5, rng=np.random.default_rng(2))
    with pytest.warns(UserWarning, match="unresolved"):
        fit = distortion.fit_multi_exponential(records, 2)
    assert fit.degenerate_taus
    assert fit.model.terms[1][1] > 100.0 * max(r.delay for r in records)
    assert fit.model.terms[0] == pytest.approx((-0.02, 80.0), rel=1e-2)


def test_fit_round_trip_records():
    records = _synthetic_records(SETTLING_MODEL)
    fit = distortion.fit_multi_exponential(records, 3)
    replayed = simulate_tail_probe(
        fit.model, [r.delay for r in records], probe_window=20.0
    )
    err = max(
        abs(a.tail_over_ref - b.tail_over_ref) for a, b in zip(records, replayed)
    )
    assert err < 1e-4


def test_fit_noisy_monte_carlo():
    # 0.1% additive noise, scaled to the signal (peak tail-over-ref ~ 0.046)
    clean = _synthetic_records(SETTLING_MODEL)
    sigma = 1e-3 * max(abs(r.tail_over_ref) for r in clean)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        records = _synthetic_records(SETTLING_MODEL, noise=sigma, rng=rng)
        try:
            fit = distortion.fit_multi_exponential(records, 3, n_starts=8)
        except FitError:
            continue
        ok = all(
            abs(tau - tau0) / tau0 < 0.15
            for (_, tau), tau0 in zip(fit.model.terms, TAUS)
        )
        hits += ok
    assert hits >= 90


def test_fit_feeds_corrector_design():
    # the fitted model, handed to the filter designer, flattens the true line
    fit = distortion.fit_multi_exponential(_synthetic_records(SETTLING_MODEL), 3)
    corrector = filters.design_iir_corrector(fit.model.terms, 1.0)
    step = np.ones(4000)
    from uniflux.waveform import Waveform

    pre = filters.apply_iir(Waveform(step, 1.0), corrector)
    out = lti_distorted(pre.samples, AMPS, TAUS, 1.0)
    assert np.max(np.abs(out[50:] - 1.0)) < 1e-3


def test_fits_reject_non_finite_data():
    records = _synthetic_records(SETTLING_MODEL, n=24)
    for bad in (math.nan, math.inf):
        broken = list(records)
        broken[5] = TailProbeRecord(broken[5].delay, bad)
        with pytest.raises(ValueError, match="finite"):
            distortion.fit_multi_exponential(broken, 2)
