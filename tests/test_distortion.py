import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uniflux import analysis, distortion, filters
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
    # a single settling term plus noise, fitted with two: the spare term is
    # unresolvable and collapses below the first delay, to ~1 ns with a tiny
    # amplitude. This local minimum's residual norm is 0.45 % above the one
    # Levenberg-Marquardt finds with the spare term run off to ~7e13 ns.
    truth = ExponentialTailModel(terms=((-0.02, 80.0),))
    records = _synthetic_records(truth, noise=2e-5, rng=np.random.default_rng(2))
    with pytest.warns(UserWarning) as caught:
        fit = distortion.fit_multi_exponential(records, 2)
    assert [str(w.message) for w in caught] == [
        "fitted settling time 1.06 ns is below the shortest probe delay (2 ns); "
        "the term is unresolved"]
    assert fit.degenerate_taus
    assert fit.model.terms[0] == pytest.approx((-0.00123, 1.065), rel=1e-3)
    assert fit.model.terms[1] == pytest.approx((-0.02, 80.0), rel=1e-2)


def test_fit_flags_a_term_faster_than_the_first_delay():
    # the first probe comes 2 ns after the edge: the 0.8 ns term is seen only
    # by its tail, so its amplitude and tau are extrapolated
    truth = ExponentialTailModel(terms=((-0.02, 0.8), (-0.02, 80.0)))
    with pytest.warns(UserWarning) as caught:
        fit = distortion.fit_multi_exponential(_synthetic_records(truth), 2)
    tau = fit.model.terms[0][1]
    assert [str(w.message) for w in caught] == [
        f"fitted settling time {tau:.3g} ns is below the shortest probe delay (2 ns); "
        "the term is unresolved"]
    assert fit.degenerate_taus
    assert tau == pytest.approx(0.8, rel=1e-9)


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


# ---------------------------------------------------------------------------
# the batched residual against the per-term oracle
# ---------------------------------------------------------------------------


def _per_term_residual(theta, delays, values, window):
    """The residual at one parameter vector from the per-term design matrix,
    summed term by term."""
    n = theta.size // 2
    g = oracles.per_term_design_matrix(delays, np.exp(theta[n:]), window)
    fitted = g[:, 0] * theta[0]
    for k in range(1, n):
        fitted = fitted + g[:, k] * theta[k]
    return fitted - values


def _oracle_checked_kernel(monkeypatch, records, probe_window):
    """Spy on the tail fit's kernel: every residual column the fit evaluates
    must equal the per-term oracle's bytes at that column. Returns the list
    of each call's starts and a one-item list counting its columns."""
    delays = np.array([r.delay for r in records])
    values = np.array([r.tail_over_ref for r in records])
    kernel = distortion._least_squares_fit
    calls = []

    def spy(residuals, starts, **solver):
        count = [0]
        calls.append((oracles.hex_fields(starts), count))

        def checked_residuals(stack):
            got = residuals(stack)
            assert got.shape == (stack.shape[1], delays.size)
            for theta, row in zip(stack.T, got):
                want = _per_term_residual(theta, delays, values, probe_window)
                assert row.tobytes() == want.tobytes()
            count[0] += stack.shape[1]
            return got

        return kernel(checked_residuals, starts, **solver)

    monkeypatch.setattr(distortion, "_least_squares_fit", spy)
    return calls


def _tail_outcome(records, n_terms, n_starts):
    """(every TailFitResult field as float.hex, or the FitError, and the
    warnings the fit gave)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = oracles.hex_fields(
                distortion.fit_multi_exponential(records, n_terms, n_starts=n_starts))
        except FitError as exc:
            result = repr(exc)
    return result, [str(w.message) for w in caught]


def _per_term_design_matrices(delays, taus, window):
    """``oracles.per_term_design_matrix`` over the leading axes of ``taus``."""
    taus = np.asarray(taus)
    if taus.ndim == 1:
        return oracles.per_term_design_matrix(delays, taus, window)
    return np.stack([_per_term_design_matrices(delays, t, window) for t in taus])


def _per_term_outcome(monkeypatch, records, n_terms, n_starts):
    with monkeypatch.context() as patch:
        patch.setattr(distortion, "_probe_design_matrix", _per_term_design_matrices)
        return _tail_outcome(records, n_terms, n_starts)


@pytest.mark.parametrize("terms, noise, n, n_terms, n_starts, flagged", [
    (((-0.03, 120.0),), 0.0, 24, 1, 16, False),
    (((-0.02, 30.0), (-0.015, 400.0)), 2e-5, 40, 2, 16, False),
    (SETTLING_MODEL.terms, 1e-5, 60, 3, 16, False),
    (((-0.01, 8.0), (-0.012, 60.0), (-0.015, 400.0), (-0.01, 2500.0)), 0.0, 60, 4, 4, False),
    # neighbouring taus 1.25 apart: degenerate
    (((-0.02, 100.0), (-0.02, 125.0)), 0.0, 60, 2, 16, True),
    # one term fitted with two: the second collapses to an unresolved tau
    (((-0.02, 80.0),), 2e-5, 60, 2, 16, True),
])
def test_tail_fit_matches_the_per_term_oracle_bit_for_bit(monkeypatch, terms, noise, n,
                                                          n_terms, n_starts, flagged):
    model = ExponentialTailModel(terms=terms)
    records = _synthetic_records(model, noise, np.random.default_rng(71), n)
    want = _per_term_outcome(monkeypatch, records, n_terms, n_starts)
    calls = _oracle_checked_kernel(monkeypatch, records, distortion.DEFAULT_PROBE_WINDOW_NS)
    got = _tail_outcome(records, n_terms, n_starts)
    assert got == want
    assert got[0]["degenerate_taus"] is flagged
    [(_, [evaluations])] = calls
    assert evaluations > n_starts


@settings(max_examples=10, deadline=None)
@given(
    n_terms=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.floats(1.05, 30.0),
    noise=st.sampled_from([0.0, 2e-5]),
    extra=st.booleans(),
)
def test_tail_fit_evaluates_what_the_per_term_oracle_does_property(n_terms, seed, ratio, noise,
                                                                    extra):
    # taus a geometric ladder ratio apart from 5 ns; ``extra`` fits one term
    # more than the data hold (capped at 4), so a term may collapse
    rng = np.random.default_rng(seed)
    taus = 5.0 * ratio ** np.arange(n_terms) * rng.uniform(1.0, 1.2, n_terms)
    amps = rng.uniform(-0.8, 0.8, n_terms) / n_terms
    records = _synthetic_records(ExponentialTailModel(tuple(zip(amps, taus))), noise, rng, 40)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _oracle_checked_kernel(monkeypatch, records, distortion.DEFAULT_PROBE_WINDOW_NS)
        fit_terms = min(n_terms + extra, 4)
        _tail_outcome(records, fit_terms, n_starts=2)
        oracle_starts = []

        def record_starts(residuals, starts, **solver):
            oracle_starts.append(oracles.hex_fields(starts))
            raise FitError("starts recorded")

        monkeypatch.setattr(distortion, "_least_squares_fit", record_starts)
        _per_term_outcome(monkeypatch, records, fit_terms, n_starts=2)
    [(starts, [evaluations])] = calls
    assert oracle_starts == [starts]
    assert evaluations > 0


@pytest.mark.parametrize("n_terms", [1, 2, 3, 4])
def test_tail_jacobian_matches_a_central_difference(n_terms):
    # The analytic Jacobian of the Levenberg-Marquardt reference fit
    # (``oracles.lm_tail_fit``) against the package's residual model.
    # The step h = eps^(1/3) max(1, |theta_j|) balances the central
    # difference's truncation error (h^2/6 times the third derivative) against
    # its rounding error (eps |r| / h); both are ~eps^(2/3) ~ 4e-11 of the
    # residual's scale, and over 200 random thetas the worst column was off by
    # 1e-8 of its largest entry. 1e-6 leaves a factor 100; a wrong factor or
    # sign in the Jacobian is off by order 1.
    rng = np.random.default_rng(80 + n_terms)
    delays = np.geomspace(2.0, 6000.0, 60)
    values = rng.normal(0.0, 0.01, delays.size)
    window = distortion.DEFAULT_PROBE_WINDOW_NS

    def residuals(theta):
        g = distortion._probe_design_matrix(delays, np.exp(theta[n_terms:]), window)
        return g @ theta[:n_terms] - values

    cbrt_eps = np.finfo(float).eps ** (1.0 / 3.0)
    for _ in range(5):
        taus = 5.0 * 4.0 ** np.arange(n_terms) * rng.uniform(1.0, 1.5, n_terms)
        theta = np.concatenate([rng.uniform(-0.3, 0.3, n_terms), np.log(taus)])
        jac = oracles.per_term_jacobian(theta, delays, window)
        assert jac.shape == (delays.size, 2 * n_terms)
        for j, h in enumerate(cbrt_eps * np.maximum(1.0, np.abs(theta))):
            step = np.zeros_like(theta)
            step[j] = h
            central = (residuals(theta + step) - residuals(theta - step)) / (2.0 * h)
            scale = np.max(np.abs(jac[:, j]))
            assert np.max(np.abs(central - jac[:, j])) <= 1e-6 * scale, j


# ---------------------------------------------------------------------------
# the tail fit on the lockstep kernel: alone or in company, in any process,
# and against the Levenberg-Marquardt reference
# ---------------------------------------------------------------------------


def _benchmark_shaped_records(rng):
    """A two-term tail as the `compile_fit` benchmark draws it: (U(-0.03,
    -0.01), U(20, 50) ns) and (U(-0.03, -0.01), U(200, 600) ns), 40 records
    from 5 to 3000 ns with N(0, 2e-5) noise."""
    amps, taus = zip(*((rng.uniform(-0.03, -0.01), rng.uniform(lo, hi))
                       for lo, hi in ((20.0, 50.0), (200.0, 600.0))))
    delays = np.geomspace(5.0, 3000.0, 40)
    clean = simulate_tail_probe(ExponentialTailModel(tuple(zip(amps, taus))), delays, 20.0)
    noise = rng.normal(0.0, 2e-5, delays.size)
    return [TailProbeRecord(r.delay, r.tail_over_ref + e) for r, e in zip(clean, noise)]


def _recorded_fit(records, n_terms):
    """(the kernel's residuals, starts and settings, and the fit's result or
    its FitError) of one tail fit."""
    calls = []
    kernel = distortion._least_squares_fit

    def record(residuals, starts, **solver):
        calls.append((residuals, starts, solver))
        return kernel(residuals, starts, **solver)

    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        monkeypatch.setattr(distortion, "_least_squares_fit", record)
        warnings.simplefilter("ignore")
        try:
            result = distortion.fit_multi_exponential(records, n_terms)
        except FitError as exc:
            result = exc
    [(residuals, starts, solver)] = calls
    return residuals, starts, solver, result


@pytest.mark.parametrize("records, n_terms", [
    (_benchmark_shaped_records(np.random.default_rng(5)), 2),
    (oracles.four_term_tail_records(17), 4),
])
def test_each_tail_fit_start_alone_equals_it_in_company(records, n_terms):
    # the batched residual is elementwise per column, so a start's bits do not
    # depend on which other starts are still running
    residuals, starts, solver, _ = _recorded_fit(records, n_terms)
    together = analysis._lockstep(residuals, starts, (-np.inf, np.inf), **solver)
    assert len({sol.nfev for sol in together if sol is not None}) > 1
    for start, mine in zip(starts, together):
        [alone] = analysis._lockstep(residuals, [start], (-np.inf, np.inf), **solver)
        assert oracles.hex_fields(alone) == oracles.hex_fields(mine)


@pytest.mark.slow
@pytest.mark.parametrize("records, n_terms", [
    *((records, 2) for records in map(_benchmark_shaped_records,
                                      np.random.default_rng(42).spawn(10))),
    *((oracles.four_term_tail_records(seed), 4) for seed in (1, 3, 11, 24, 34)),
])
def test_tail_fit_is_no_worse_than_levenberg_marquardt(records, n_terms):
    # the fit's first solver, kept as ``oracles.lm_tail_fit``, from the same
    # starts: the kernel's residual norm is at most the oracle's, to 1e-6,
    # and where the oracle raises (seed 1: an unphysical winner) it fits
    residuals, starts, _, result = _recorded_fit(records, n_terms)
    delays = np.array([r.delay for r in records])
    values = np.array([r.tail_over_ref for r in records])
    try:
        _, _, sse = oracles.lm_tail_fit(delays, values, distortion.DEFAULT_PROBE_WINDOW_NS,
                                        starts)
    except FitError:
        assert not isinstance(result, FitError)
        return
    assert not isinstance(result, FitError), result
    assert result.residual_norm <= math.sqrt(sse) * (1.0 + 1e-6)


# Runs the six four-term fits whose Levenberg-Marquardt results moved with
# the process's heap layout, and prints every result field as float.hex.
_HEAP_SENSITIVE_SEEDS = (3, 17, 18, 19, 24, 34)
_DETERMINISM_DRIVER = """
import json, sys, warnings
import oracles
from uniflux import distortion
warnings.simplefilter("ignore")
print(json.dumps([oracles.hex_fields(distortion.fit_multi_exponential(
    oracles.four_term_tail_records(int(seed)), 4)) for seed in sys.argv[1:]]))
"""


@pytest.mark.slow
def test_tail_fit_gives_the_same_bits_in_every_process():
    tests = pathlib.Path(__file__).parent
    src = pathlib.Path(distortion.__file__).parents[1]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _DETERMINISM_DRIVER, *map(str, _HEAP_SENSITIVE_SEEDS)],
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                     PYTHONPATH=os.pathsep.join([str(src), str(tests)])),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tests)
        for hash_seed in (0, 1, 2)
    ]
    outputs = [proc.communicate() for proc in procs]
    for proc, (_, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr
    first, *others = (json.loads(stdout) for stdout, _ in outputs)
    assert len(first) == len(_HEAP_SENSITIVE_SEEDS)
    assert others == [first, first]
