import json
import math

import numpy as np
import pytest

from uniflux import distortion, filters
from uniflux.distortion import ExponentialTailModel, TailProbeRecord
from uniflux.errors import FitError

from oracles import lti_distorted, windowed_tail_quad

SETTLING_MODEL = ExponentialTailModel(
    terms=((-0.0174, 34.0), (-0.0189, 170.0), (-0.0158, 996.0))
)


def test_model_canonical_order_and_validation():
    m = ExponentialTailModel(terms=((-0.01, 500.0), (-0.02, 30.0)))
    assert m.taus == (30.0, 500.0)
    assert m.amplitudes == (-0.02, -0.01)
    with pytest.raises(ValueError):
        ExponentialTailModel(terms=((-0.01, -5.0),))
    with pytest.raises(ValueError):
        ExponentialTailModel(terms=((0.6, 10.0), (0.5, 100.0)))


def test_distorted_step_empty_model():
    t = np.arange(0.0, 100.0, 1.0)
    w = distortion.distorted_step(ExponentialTailModel(()), t, 50.0)
    assert np.array_equal(w.samples, np.where(t >= 50.0, 0.0, 1.0))


def test_distorted_step_edge_residual():
    t = np.arange(0.0, 12000.0, 1.0)
    w = distortion.distorted_step(SETTLING_MODEL, t, 100.0)
    assert w.samples[99] == 1.0
    assert w.samples[100] == pytest.approx(-0.0521, abs=1e-6)
    assert abs(w.samples[100 + 9960]) < 1e-4


def test_distorted_step_rejects_nonuniform_grid():
    with pytest.raises(ValueError):
        distortion.distorted_step(SETTLING_MODEL, np.array([0.0, 1.0, 3.0]), 1.0)


def test_probe_short_window_limit():
    # window of tau_min/100: the average collapses onto the pointwise residual
    # (evaluated at the window midpoint, where the first-order term vanishes)
    delays = np.linspace(5.0, 500.0, 40)
    window = 0.34
    records = distortion.simulate_tail_probe(SETTLING_MODEL, delays, probe_window=window)
    pointwise = SETTLING_MODEL.residual(delays + window / 2.0)
    got = np.array([r.tail_over_ref for r in records])
    assert np.max(np.abs(got - pointwise)) < 1e-6


def test_probe_zero_model():
    records = distortion.simulate_tail_probe(ExponentialTailModel(()), [1.0, 2.0])
    assert all(r.tail_over_ref == 0.0 for r in records)


def test_probe_matches_quadrature_oracle():
    got = distortion.windowed_tail(SETTLING_MODEL, 170.0, 10.0)
    want = windowed_tail_quad(
        SETTLING_MODEL.amplitudes, SETTLING_MODEL.taus, 170.0, 10.0
    )
    assert got == pytest.approx(want, abs=1e-9)


def test_probe_rejects_unordered_delays():
    with pytest.raises(ValueError):
        distortion.simulate_tail_probe(SETTLING_MODEL, [10.0, 10.0, 20.0])


def test_window_average_linearity():
    a = ExponentialTailModel(terms=((-0.02, 40.0),))
    b = ExponentialTailModel(terms=((-0.01, 300.0),))
    both = ExponentialTailModel(terms=a.terms + b.terms)
    d = np.linspace(1.0, 800.0, 64)
    np.testing.assert_allclose(
        distortion.windowed_tail(both, d, 20.0),
        distortion.windowed_tail(a, d, 20.0) + distortion.windowed_tail(b, d, 20.0),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def _synthetic_records(model, noise=0.0, rng=None, n=60):
    delays = np.geomspace(2.0, 6000.0, n)
    records = distortion.simulate_tail_probe(model, delays, probe_window=20.0)
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
    assert fit.model.taus[0] == pytest.approx(120.0, rel=1e-6)
    assert fit.model.amplitudes[0] == pytest.approx(-0.03, rel=1e-6)


def test_fit_requires_window_model():
    # fitting records measured with a 20 ns window as if instantaneous
    # misestimates the fast-term amplitude by much more than the fit error
    records = _synthetic_records(SETTLING_MODEL)
    honest = distortion.fit_multi_exponential(records, 3, probe_window=20.0)
    tiny = distortion.fit_multi_exponential(records, 3, probe_window=1e-6)
    assert abs(honest.model.amplitudes[0] - SETTLING_MODEL.amplitudes[0]) < 5e-4
    assert abs(tiny.model.amplitudes[0] - SETTLING_MODEL.amplitudes[0]) > 2e-3


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
    assert fit.model.taus[1] > 100.0 * max(r.delay for r in records)
    assert fit.model.terms[0] == pytest.approx((-0.02, 80.0), rel=1e-2)


def test_fit_round_trip_records():
    records = _synthetic_records(SETTLING_MODEL)
    fit = distortion.fit_multi_exponential(records, 3)
    replayed = distortion.simulate_tail_probe(
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
            for tau, tau0 in zip(fit.model.taus, SETTLING_MODEL.taus)
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
    out = lti_distorted(
        pre.samples, SETTLING_MODEL.amplitudes, SETTLING_MODEL.taus, 1.0
    )
    assert np.max(np.abs(out[50:] - 1.0)) < 1e-3


def test_fit_result_serializable():
    fit = distortion.fit_multi_exponential(_synthetic_records(SETTLING_MODEL), 3)
    doc = fit.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert len(doc["terms"]) == 3


# ---------------------------------------------------------------------------
# cross-quadrature tail
# ---------------------------------------------------------------------------


def test_single_exponential_recovery():
    d = np.arange(0.0, 8.0, 0.5)
    p = 0.02 * np.exp(-d / 1.37)
    fit = distortion.fit_single_exponential(d, p)
    assert fit.amplitude == pytest.approx(0.02, rel=0.01)
    assert fit.tau_ns == pytest.approx(1.37, rel=0.01)
    assert fit.identifiable


def test_single_exponential_negligibility():
    d = np.arange(0.0, 8.0, 0.5)
    fast = distortion.fit_single_exponential(d, 0.02 * np.exp(-d / 1.37))
    assert fast.negligible  # rings down well inside one gate
    d2 = np.arange(0.0, 300.0, 10.0)
    slow = distortion.fit_single_exponential(d2, 0.02 * np.exp(-d2 / 50.0))
    assert not slow.negligible


def test_single_exponential_zero_data():
    fit = distortion.fit_single_exponential(np.arange(6.0), np.zeros(6))
    assert fit.amplitude == 0.0
    assert not fit.identifiable
    assert fit.negligible
    assert math.isnan(fit.tau_ns)


def test_single_exponential_validation():
    with pytest.raises(ValueError):
        distortion.fit_single_exponential([0.0, 1.0], [1.0, 0.5])


def test_fits_reject_non_finite_data():
    records = _synthetic_records(SETTLING_MODEL, n=24)
    d = np.arange(0.0, 8.0, 0.5)
    p = 0.02 * np.exp(-d / 1.37)
    for bad in (math.nan, math.inf):
        broken = list(records)
        broken[5] = TailProbeRecord(broken[5].delay, bad)
        with pytest.raises(ValueError, match="finite"):
            distortion.fit_multi_exponential(broken, 2)
        q = p.copy()
        q[3] = bad
        with pytest.raises(ValueError, match="finite"):
            distortion.fit_single_exponential(d, q)


# ---------------------------------------------------------------------------
# dataset IO
# ---------------------------------------------------------------------------


def test_probe_csv_round_trip(tmp_path):
    records = distortion.simulate_tail_probe(
        SETTLING_MODEL, np.linspace(1.0, 900.0, 25)
    )
    path = tmp_path / "probe.csv"
    distortion.dump_probe_records(records, path)
    assert path.read_text().splitlines()[0] == "delay_ns,tail_over_ref"
    loaded = distortion.load_probe_records(path)
    assert loaded == records


def test_probe_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delay,tail\n1.0,0.1\n")
    with pytest.raises(ValueError):
        distortion.load_probe_records(path)
    path.write_text("delay_ns,tail_over_ref\n2.0,0.1\n1.0,0.2\n")
    with pytest.raises(ValueError):
        distortion.load_probe_records(path)
