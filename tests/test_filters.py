import json
import math
import pathlib

import numpy as np
import pytest

from uniflux import filters
from uniflux.errors import NonInvertibleError
from uniflux.waveform import Waveform

from oracles import fir_response, floor_frequency, lti_distorted, sectionwise_iir, sosfilt_blocks

RECORD = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "fir_design_record.json").read_text()
)

# 16-tap reference coefficient set from the deployed control stack; synthesis
# is benchmarked against it (its DAC sample rate is not on record).
DEPLOYED_TAPS = np.array(RECORD["reference_taps_int16"], dtype=np.int64)

GAUSS = filters.gaussian_lowpass(0.092)
INVERSE = filters.bounded_inverse(GAUSS, f_q=0.208, g_max_db=50.0, window_cutoff=1.0)

# three-term settling model of the measured flux-line step response
SETTLING_TERMS = [(-0.0174, 34.0), (-0.0189, 170.0), (-0.0158, 996.0)]


# ---------------------------------------------------------------------------
# analytic descriptors
# ---------------------------------------------------------------------------


def test_gaussian_dc_and_cutoff():
    assert GAUSS.response(0.0) == 1.0
    assert GAUSS.response(0.092) == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_gaussian_at_qubit_frequency():
    # closed form gives 0.1701 (15.4 dB); measured hardware quotes ~18 dB —
    # the model states the ideal-Gaussian value and makes no reconciliation.
    val = float(GAUSS.response(0.208))
    assert val == pytest.approx(0.1701, abs=2e-4)
    assert -20.0 * math.log10(val) == pytest.approx(15.4, abs=0.05)


def test_gaussian_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        filters.gaussian_lowpass(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_descriptors_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="f_c must be positive and finite"):
        filters.gaussian_lowpass(bad)
    for name in ("f_q", "g_max_db", "window_cutoff"):
        kwargs = {"f_q": 0.208, "g_max_db": 50.0, "window_cutoff": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            filters.bounded_inverse(GAUSS, **kwargs)


def test_bounded_inverse_names_the_channel_it_cannot_invert():
    with pytest.raises(ValueError, match=r"^pre-distortion requires a Gaussian low-pass "
                       r"channel, got FlatResponse\(\)$"):
        filters.bounded_inverse(filters.FlatResponse(), f_q=0.208)


def test_bounded_inverse_passband_value():
    # numerator and denominator Gaussians cancel at f_q, leaving the window
    assert float(INVERSE.response(0.208)) == pytest.approx(
        float(INVERSE.window.response(0.208)), rel=1e-12
    )
    assert float(INVERSE.response(0.208)) == pytest.approx(0.9851, abs=2e-4)


def test_bounded_inverse_floor_frequency():
    assert floor_frequency(INVERSE) == pytest.approx(0.375, abs=1e-3)


def test_bounded_inverse_cap_never_exceeded():
    f = np.linspace(0.0, 3.0, 4096)
    pre_window = np.abs(INVERSE.response(f)) / INVERSE.window.response(f)
    bound = INVERSE.h_qubit * 10.0 ** (INVERSE.g_max_db / 20.0)
    assert np.all(pre_window <= bound * (1.0 + 1e-12))


def test_unbounded_cap_recovers_reciprocal():
    loose = filters.bounded_inverse(GAUSS, f_q=0.208, g_max_db=600.0, window_cutoff=1.0)
    f = np.linspace(0.01, 0.5, 50)
    expected = loose.h_qubit / GAUSS.response(f) * loose.window.response(f)
    np.testing.assert_allclose(loose.response(f), expected, rtol=1e-12)


def test_flat_band_identity_dense_grid():
    # wherever the cap is inactive, H_gauss * H_inv == H_gauss(f_q) * W(f)
    f = np.linspace(0.0, 2.0, 4096)
    prod = GAUSS.response(f) * INVERSE.response(f)
    target = INVERSE.h_qubit * INVERSE.window.response(f)
    active = GAUSS.response(f) >= INVERSE.floor
    assert np.max(np.abs(prod[active] - target[active])) < 1e-12


# ---------------------------------------------------------------------------
# frequency-domain application
# ---------------------------------------------------------------------------


def _carrier_pulse(sigma_ns, length_ns, rate, f_carrier=0.208):
    t = np.arange(int(length_ns * rate)) / rate
    t0 = length_ns / 2.0
    env = np.exp(-((t - t0) ** 2) / (2.0 * sigma_ns**2))
    return Waveform(env * np.cos(2.0 * np.pi * f_carrier * (t - t0)), rate)


def test_apply_identity_transfer():
    w = _carrier_pulse(4.0, 100.0, 1.0)
    out = filters.apply_transfer(w, filters.FlatResponse())
    np.testing.assert_allclose(out.samples, w.samples, atol=1e-12)


def test_apply_transfer_rejects_short_and_complex():
    with pytest.raises(ValueError):
        filters.apply_transfer(Waveform([1.0], 1.0), GAUSS)
    with pytest.raises(ValueError):
        filters.apply_transfer(Waveform(np.array([1.0 + 1j, 0.0]), 1.0), GAUSS)


def test_waveform_rejects_non_finite_samples():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Waveform([0.0, bad, 0.0], 1.0)
    with pytest.raises(ValueError, match="finite"):
        Waveform(np.array([0.0, complex(0.0, math.nan)]), 1.0)


def test_waveform_rejects_non_finite_sample_rate():
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform([0.0, 0.0], bad)


def test_waveform_refuses_samples_that_are_not_1_d():
    with pytest.raises(ValueError) as info:
        Waveform(np.zeros((2, 3)), 1.0)
    assert str(info.value) == "samples must be 1-D, got shape (2, 3)"


def test_round_trip_recovers_windowed_target():
    # predistort -> channel recovers H_qubit * (window-filtered input) for a
    # pulse whose spectrum sits below the cap-engagement frequency
    w = _carrier_pulse(6.0, 256.0, 1.0)
    pre = filters.apply_transfer(w, INVERSE)
    through = filters.apply_transfer(pre, GAUSS)
    target = filters.apply_transfer(w, INVERSE.window)
    np.testing.assert_allclose(
        through.samples, INVERSE.h_qubit * target.samples, atol=1e-9
    )


def test_round_trip_dft_domain_equality():
    w = _carrier_pulse(6.0, 256.0, 1.0)
    pre = filters.apply_transfer(w, INVERSE)
    through = filters.apply_transfer(pre, GAUSS)
    target = filters.apply_transfer(w, INVERSE.window)
    nfft = 4096
    freqs = np.fft.rfftfreq(nfft, 1.0)
    s1 = np.fft.rfft(through.samples, nfft)
    s2 = INVERSE.h_qubit * np.fft.rfft(target.samples, nfft)
    flat = GAUSS.response(freqs) >= INVERSE.floor
    scale = np.max(np.abs(s2))
    assert np.max(np.abs(s1[flat] - s2[flat])) < 1e-10 * scale


def test_uncompensated_pulse_loses_amplitude():
    # 20 ns cosine envelope on the qubit carrier, straight through the channel
    rate = 1.0
    t = np.arange(int(200 * rate)) / rate
    mask = (t >= 90.0) & (t < 110.0)
    env = np.where(mask, 0.5 * (1.0 - np.cos(2.0 * np.pi * (t - 90.0) / 20.0)), 0.0)
    w = Waveform(env * np.cos(2.0 * np.pi * 0.208 * t), rate)
    out = filters.apply_transfer(w, GAUSS)
    assert np.max(np.abs(out.samples)) / np.max(np.abs(w.samples)) < 0.95


# ---------------------------------------------------------------------------
# FIR synthesis and quantization
# ---------------------------------------------------------------------------


def test_synthesize_flat_target():
    f = filters.synthesize_fir(filters.FlatResponse(), 16, 1.0)
    resp = fir_response(f, [0.5])
    assert abs(resp[0]) < 1e-10
    mid = fir_response(f, [0.1])
    assert abs(mid[0]) == pytest.approx(1.0, abs=0.05)


def test_synthesized_taps_exactly_symmetric():
    f = filters.synthesize_fir(INVERSE, 16, 2.5)
    assert np.array_equal(f.taps_float, f.taps_float[::-1])


def test_synthesize_rejects_odd_taps_and_low_rate():
    with pytest.raises(ValueError, match="Type-II"):
        filters.synthesize_fir(INVERSE, 15, 2.5)
    with pytest.raises(ValueError):
        filters.synthesize_fir(INVERSE, 16, 0.4)  # cannot represent 0.208 GHz


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_synthesize_rejects_non_finite_rate(rate):
    with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
        filters.synthesize_fir(GAUSS, 16, rate)


def test_quantize_substitution_example():
    f = filters.FirFilter(taps_float=np.array([1.0, -0.5]), sample_rate=1.0)
    q = filters.quantize_taps(f)
    assert q.taps_int16.tolist() == [32767, -16384]


def test_quantize_scaling_invariance():
    rng = np.random.default_rng(20250819)
    taps = rng.normal(size=16)
    a = filters.quantize_taps(filters.FirFilter(taps, 1.0)).taps_int16
    b = filters.quantize_taps(filters.FirFilter(taps * 7.3, 1.0)).taps_int16
    np.testing.assert_array_equal(a, b)


def test_quantize_idempotent():
    f = filters.quantize_taps(filters.synthesize_fir(INVERSE, 16, 2.5))
    again = filters.quantize_taps(
        filters.FirFilter(f.taps_int16.astype(float), f.sample_rate)
    )
    np.testing.assert_array_equal(again.taps_int16, f.taps_int16)


def test_quantize_rejects_zero_taps():
    with pytest.raises(ValueError):
        filters.quantize_taps(filters.FirFilter(np.zeros(4), 1.0))


def _invariant_suite(taps_int, sample_rate):
    taps = np.asarray(taps_int, dtype=np.int64)
    assert np.max(np.abs(taps)) == 32767
    n = len(taps)
    assert all(abs(int(taps[i]) - int(taps[n - 1 - i])) <= 1 for i in range(n))
    f = filters.FirFilter(taps.astype(float), sample_rate, taps_int16=taps)
    grid = np.linspace(0.0, sample_rate / 2.0, 2048)
    mags = np.abs(fir_response(f, grid))
    assert mags[-1] < 1e-3 * np.max(mags)


def test_invariants_on_deployed_taps():
    _invariant_suite(DEPLOYED_TAPS, RECORD["best_sample_rate_gsps"])


def test_invariants_on_synthesized_taps():
    q = filters.quantize_taps(filters.synthesize_fir(INVERSE, 16, 2.5))
    _invariant_suite(q.taps_int16, 2.5)


def test_fir_single_tap_flat():
    f = filters.FirFilter(np.array([32767.0]), 1.0)
    resp = fir_response(f, np.linspace(0.0, 0.5, 32))
    np.testing.assert_allclose(np.abs(resp), 32767.0, rtol=1e-12)


def test_fir_correlation_record_reproducible():
    # the stored design record is the frozen outcome of this exact probe
    best = None
    for entry in RECORD["candidates"]:
        rate = entry["sample_rate_gsps"]
        q = filters.quantize_taps(filters.synthesize_fir(INVERSE, 16, rate))
        a = q.taps_int16.astype(float)
        b = DEPLOYED_TAPS.astype(float)
        rho = float(a @ b / math.sqrt((a @ a) * (b @ b)))
        assert rho == pytest.approx(entry["correlation"], abs=1e-3)
        if best is None or rho > best[0]:
            best = (rho, rate)
    assert best[1] == RECORD["best_sample_rate_gsps"]
    assert best[0] == pytest.approx(RECORD["best_correlation"], abs=1e-3)
    assert RECORD["correlation_target_met"] == (best[0] >= RECORD["correlation_target"])


def test_synthesized_response_boosts_high_frequencies():
    q = filters.quantize_taps(
        filters.synthesize_fir(INVERSE, 16, RECORD["best_sample_rate_gsps"])
    )
    resp = fir_response(q, [0.05, 0.3])
    assert abs(resp[1]) > abs(resp[0])


# ---------------------------------------------------------------------------
# IIR settling correction
# ---------------------------------------------------------------------------


def _step(n, rate):
    return Waveform(np.ones(n), rate)


def test_empty_corrector_is_identity():
    c = filters.design_iir_corrector([], 1.0)
    assert not c.sections
    w = _carrier_pulse(4.0, 64.0, 1.0)
    assert filters.apply_iir(w, c) is w


def test_single_term_exact_inversion():
    c = filters.design_iir_corrector([(-0.05, 100.0)], 1.0)
    w = _step(2000, 1.0)
    distorted = Waveform(
        lti_distorted(filters.apply_iir(w, c).samples, [-0.05], [100.0], 1.0), 1.0
    )
    assert np.max(np.abs(distorted.samples[5:] - 1.0)) < 1e-4
    # exact discrete inversion: residual is at floating-point level everywhere
    assert np.max(np.abs(distorted.samples - 1.0)) < 1e-12


def test_single_term_impulse_composition():
    c = filters.design_iir_corrector([(-0.05, 100.0)], 1.0)
    impulse = np.zeros(500)
    impulse[0] = 1.0
    out = lti_distorted(
        filters.apply_iir(Waveform(impulse, 1.0), c).samples, [-0.05], [100.0], 1.0
    )
    assert np.max(np.abs(out[1:])) < 1e-6
    assert out[0] == pytest.approx(1.0, abs=1e-6)


def test_three_term_step_residual():
    amps = [a for a, _ in SETTLING_TERMS]
    taus = [t for _, t in SETTLING_TERMS]
    c = filters.design_iir_corrector(SETTLING_TERMS, 1.0)
    w = _step(4000, 1.0)
    raw = lti_distorted(w.samples, amps, taus, 1.0)
    assert raw[0] - 1.0 == pytest.approx(-0.0521, abs=1e-4)  # sum of amplitudes
    corrected = lti_distorted(filters.apply_iir(w, c).samples, amps, taus, 1.0)
    assert np.max(np.abs(corrected[50:] - 1.0)) < 1e-3


def test_corrector_on_random_band_limited_signal():
    rng = np.random.default_rng(7)
    spectrum = np.zeros(513, dtype=complex)
    spectrum[1:80] = rng.normal(size=79) + 1j * rng.normal(size=79)
    x = np.fft.irfft(spectrum, 1024)
    x /= np.max(np.abs(x))
    amps = [a for a, _ in SETTLING_TERMS]
    taus = [t for _, t in SETTLING_TERMS]
    c = filters.design_iir_corrector(SETTLING_TERMS, 1.0)
    y = lti_distorted(filters.apply_iir(Waveform(x, 1.0), c).samples, amps, taus, 1.0)
    assert np.max(np.abs(y - x)) < 1e-3


def test_apply_iir_linearity():
    c = filters.design_iir_corrector(SETTLING_TERMS, 1.0)
    w = _carrier_pulse(4.0, 128.0, 1.0)
    scaled = filters.apply_iir(Waveform(3.7 * w.samples, 1.0), c)
    np.testing.assert_allclose(
        scaled.samples, 3.7 * filters.apply_iir(w, c).samples, atol=1e-12
    )


def test_apply_iir_rate_mismatch():
    c = filters.design_iir_corrector(SETTLING_TERMS, 1.0)
    with pytest.raises(ValueError):
        filters.apply_iir(_step(10, 2.0), c)


def _iir_signals(rng, n):
    """Noise, piecewise-constant holds and zeros, n samples each."""
    holds = np.zeros(n)
    for start in np.sort(rng.integers(0, n + 1, size=int(rng.integers(1, 8)))):
        holds[start:] = rng.uniform(-0.3, 0.3)
    return rng.normal(size=n), holds, np.zeros(n)


@pytest.mark.parametrize("rate", [1.0, 2.0, 2.5])
@pytest.mark.parametrize("n_sections", [1, 2, 3, 4])
def test_apply_iir_matches_the_sectionwise_oracle(rate, n_sections):
    rng = np.random.default_rng([n_sections, round(10 * rate)])
    for n in (0, 1, 2, *rng.integers(3, 5001, size=5).tolist(), 5000):
        terms = [(rng.uniform(-0.1, 0.1), 10.0 ** rng.uniform(0.0, 3.3))
                 for _ in range(n_sections)]
        c = filters.design_iir_corrector(terms, rate)
        for x in _iir_signals(rng, n):
            w = Waveform(x, rate)
            assert np.array_equal(filters.apply_iir(w, c).samples, sectionwise_iir(w, c))


@pytest.mark.parametrize("n_sections", [1, 3])
def test_iir_blocks_equal_sosfilt_block_by_block(n_sections):
    # the kernel run alone, with its state carried, against sosfilt with zi
    # carried, over blocks of uneven lengths, bit for bit
    rng = np.random.default_rng([n_sections, 49])
    terms = [(rng.uniform(-0.1, 0.1), 10.0 ** rng.uniform(0.0, 3.3)) for _ in range(n_sections)]
    c = filters.design_iir_corrector(terms, 2.0)
    for x in _iir_signals(rng, 20000):
        blocks = np.split(x, [1, 700, 6000, 19999])
        run = filters.iir_blocks(c)
        got = [run(block) for block in blocks]
        want = sosfilt_blocks(c, blocks)
        assert [y.tobytes() for y in got] == [y.tobytes() for y in want]
        assert np.concatenate(got).tobytes() == filters.apply_iir(Waveform(x, 2.0), c).samples.tobytes()


def test_sections_stable_and_minimum_phase():
    c = filters.design_iir_corrector(SETTLING_TERMS, 1.0)
    for s in c.sections:
        assert abs(s.a1) < 1.0
        assert abs(-s.b1 / s.b0) < 1.0  # zero inside the unit circle


def test_non_invertible_amplitude():
    with pytest.raises(NonInvertibleError):
        filters.design_iir_corrector([(-1.0, 50.0)], 1.0)
    with pytest.raises(NonInvertibleError):
        # deep fast undershoot puts the corrector pole outside the unit circle
        filters.design_iir_corrector([(-0.8, 0.5)], 1.0)


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_iir_design_rejects_non_finite_rate(rate):
    with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
        filters.design_iir_corrector(SETTLING_TERMS, rate)


@pytest.mark.parametrize("term", [(math.nan, 34.0), (-0.0174, math.inf), (-0.0174, math.nan)])
def test_iir_design_rejects_non_finite_terms(term):
    with pytest.raises(ValueError, match="must be finite"):
        filters.design_iir_corrector([term], 2.0)


def test_direct_form_equivalence_and_count():
    from scipy.signal import lfilter

    c = filters.design_iir_corrector(SETTLING_TERMS, 1.0)
    b, a, count = c.direct_form()
    assert count == 7
    w = _carrier_pulse(4.0, 256.0, 1.0)
    np.testing.assert_allclose(
        lfilter(b, a, w.samples),
        filters.apply_iir(w, c).samples,
        atol=1e-10,
    )


def test_design_documents():
    q = filters.quantize_taps(filters.synthesize_fir(INVERSE, 16, 2.5))
    doc = filters.design_document(q, provenance="unit test")
    assert doc["kind"] == "fir"
    assert all(isinstance(t, int) for t in doc["taps_int16"])
    assert json.loads(json.dumps(doc)) == doc
    c = filters.design_iir_corrector(SETTLING_TERMS, 1.0)
    doc = filters.design_document(c)
    assert doc["kind"] == "iir"
    assert doc["parameters"]["direct_form_coefficient_count"] == 7
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("tau", [0.0, -3.0])
def test_iir_design_refuses_a_settling_time_that_is_not_positive(tau):
    with pytest.raises(ValueError) as info:
        filters.design_iir_corrector([(0.1, tau)], 1.0)
    assert str(info.value) == f"tau must be positive, got {tau}"


def test_design_document_refuses_a_descriptor_with_no_document_form():
    with pytest.raises(ValueError) as info:
        filters.design_document(filters.FlatResponse())
    assert str(info.value) == "no design-document form for FlatResponse"
