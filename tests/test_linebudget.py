import json
import math
import pathlib

import numpy as np
import pytest

import oracles
from uniflux import fluxonium, linebudget

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "line_budget_hand.json").read_text()
)

LINE = linebudget.LineModel(
    mutual_inductance=2e-12,
    attenuation_db=0.0,
    awg_noise_dbm_per_hz=-130.0,
    awg_vmax=0.5,
)
FIG_PARAMS = fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, phi_ext=0.5)


def test_drive_amplitude_full_scale():
    assert linebudget.flux_drive_amplitude(LINE) == pytest.approx(60.78, abs=0.01)


def test_drive_amplitude_minus50db():
    line = LINE.replace(attenuation_db=-50.0)
    expected = FIXTURE["expected"]["dphi_rad"]
    assert linebudget.flux_drive_amplitude(line) == pytest.approx(expected, rel=1e-9)


def test_rabi_frequency_substitution():
    assert linebudget.rabi_frequency(0.5, 0.1, 1.0) == pytest.approx(50.0)
    assert linebudget.rabi_frequency(0.5, 0.0, 1.0) == 0.0


def test_rabi_frequency_hand_fixture():
    line = LINE.replace(attenuation_db=-50.0)
    dphi = linebudget.flux_drive_amplitude(line)
    m01 = FIXTURE["inputs"]["m01"]
    assert linebudget.rabi_frequency(0.5, dphi, m01) == pytest.approx(
        FIXTURE["expected"]["rabi_mhz"], rel=1e-9
    )


def test_awg_noise_psd():
    assert linebudget.awg_noise_psd(-130.0, 50.0) == pytest.approx(2.5e-15, rel=1e-12)
    assert linebudget.awg_noise_psd(-160.0, 50.0) == pytest.approx(2.5e-18, rel=1e-12)
    assert linebudget.awg_noise_psd(-130.0, 0.0) == 0.0


def test_johnson_psd():
    assert oracles.johnson_psd(300.0, 50.0) == pytest.approx(4.142e-19, rel=1e-3)
    assert oracles.johnson_psd(0.0, 50.0) == 0.0
    assert oracles.johnson_psd(300.0, 50.0) < linebudget.awg_noise_psd(-130.0, 50.0)


def test_t1_line_hand_fixture():
    line = LINE.replace(attenuation_db=-50.0)
    s_vv = linebudget.awg_noise_psd(-130.0, 50.0)
    t1 = linebudget.t1_line_limit(0.5, FIXTURE["inputs"]["m01"], line, s_vv)
    assert t1 == pytest.approx(FIXTURE["expected"]["t1_line_us"], rel=1e-6)


def test_t1_quadratic_scaling():
    s_vv = 2.5e-15
    t1a = linebudget.t1_line_limit(0.5, 2.0, LINE.replace(attenuation_db=-40.0), s_vv)
    # doubling alpha = +6.0205999... dB
    t1b = linebudget.t1_line_limit(
        0.5, 2.0, LINE.replace(attenuation_db=-40.0 + 20 * math.log10(2)), s_vv
    )
    assert t1b == pytest.approx(t1a / 4.0, rel=1e-12)


def test_t1_zero_noise_sentinel():
    assert linebudget.t1_line_limit(0.5, 2.0, LINE, 0.0) == math.inf


def test_t1_past_the_float_range():
    # a rate that underflows to 0 is as unlimited as a silent line; one that overflows reads 0
    faint = LINE.replace(attenuation_db=-4000.0)
    strong = LINE.replace(mutual_inductance=1e200)
    loud = linebudget.awg_noise_psd(4000.0, 50.0)
    assert loud == math.inf
    assert linebudget.awg_noise_psd(4000.0, 0.0) == 0.0
    assert linebudget.t1_line_limit(0.5, 2.0, faint, 2.5e-15) == math.inf
    assert linebudget.t1_line_limit(0.5, 2.0, strong, 2.5e-15) == 0.0
    assert linebudget.t1_line_limit(0.5, 2.0, LINE, loud) == 0.0
    # a coupling that squares to 0 carries none of an infinite floor
    assert linebudget.t1_line_limit(0.5, 2.0, faint, loud) == math.inf


def test_max_dc_excursion():
    line = LINE.replace(attenuation_db=-20.0)
    assert linebudget.max_dc_excursion(line) == pytest.approx(0.967, abs=5e-4)
    tiny = LINE.replace(attenuation_db=-80.0)
    assert linebudget.max_dc_excursion(tiny) == pytest.approx(
        linebudget.max_dc_excursion(line) / 1000.0, rel=1e-12
    )


def test_consistency_two_evaluation_routes():
    # closed-form drive rate versus composition through flux_drive_amplitude:
    # 1/T1 = (Omega_R[ per volt ] / m01 ... ) — both must agree to 1e-12.
    from uniflux.linebudget import HBAR, PHI0, PLANCK

    line = LINE.replace(attenuation_db=-37.0)
    s_vv = linebudget.awg_noise_psd(-130.0, 50.0)
    m01 = 2.1
    t1_direct = linebudget.t1_line_limit(0.5, m01, line, s_vv)
    # composition route: coupling per volt from the drive-amplitude chain
    dphi_per_volt = linebudget.flux_drive_amplitude(line) / line.awg_vmax
    coupling_si = 0.5 * 1e9 * PLANCK * dphi_per_volt * m01 / HBAR  # rad/s per volt
    rate = coupling_si**2 * s_vv
    assert t1_direct == pytest.approx(1e6 / rate, rel=1e-12)


def test_tradeoff_sweep_grid_and_monotonicity():
    grid = np.arange(-80.0, -19.0, 1.0)
    pts = linebudget.tradeoff_sweep(FIG_PARAMS, LINE, grid)
    assert len(pts) == len(grid)
    rabi = np.array([p.rabi_mhz for p in pts])
    t1 = np.array([p.t1_line_us for p in pts])
    assert np.all(np.diff(rabi) > 0)
    assert np.all(np.diff(t1) < 0)
    assert all(np.isfinite(p.t1_line_us) and p.t1_line_us > 0 for p in pts)


def test_tradeoff_sweep_loglog_slopes():
    pts = linebudget.tradeoff_sweep(FIG_PARAMS, LINE, [-60.0, -40.0])
    a = [10 ** (p.attenuation_db / 20) for p in pts]
    slope_t1 = (math.log(pts[1].t1_line_us) - math.log(pts[0].t1_line_us)) / (
        math.log(a[1]) - math.log(a[0])
    )
    slope_rabi = (math.log(pts[1].rabi_mhz) - math.log(pts[0].rabi_mhz)) / (
        math.log(a[1]) - math.log(a[0])
    )
    assert slope_t1 == pytest.approx(-2.0, abs=1e-6)
    assert slope_rabi == pytest.approx(1.0, abs=1e-6)


def test_tradeoff_single_point_equals_direct_calls():
    pts = linebudget.tradeoff_sweep(FIG_PARAMS, LINE, [-50.0])
    m01 = fluxonium.phase_matrix_element(FIG_PARAMS, 0, 1)
    line = LINE.replace(attenuation_db=-50.0)
    dphi = linebudget.flux_drive_amplitude(line)
    assert pts[0].rabi_mhz == pytest.approx(linebudget.rabi_frequency(0.5, dphi, m01))
    assert pts[0].max_dc_excursion_phi0 == pytest.approx(linebudget.max_dc_excursion(line))


def test_attenuation_sign_enforced():
    with pytest.raises(ValueError):
        LINE.replace(attenuation_db=3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["mutual_inductance", "attenuation_db", "awg_vmax", "line_impedance"]
)
def test_non_finite_line_parameters_rejected(name, bad):
    with pytest.raises(ValueError, match="finite"):
        LINE.replace(**{name: bad})


def test_noise_floor_may_be_minus_inf_only():
    silent = LINE.replace(awg_noise_dbm_per_hz=-math.inf)
    (point,) = linebudget.tradeoff_sweep(FIG_PARAMS, silent, [-30.0])
    assert point.t1_line_us == math.inf
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite or -inf"):
            LINE.replace(awg_noise_dbm_per_hz=bad)


@pytest.mark.parametrize("call, message", [
    (lambda: linebudget.rabi_frequency(-0.5, 1.0, 2.6), "inputs must be non-negative"),
    (lambda: linebudget.rabi_frequency(0.5, -1.0, 2.6), "inputs must be non-negative"),
    (lambda: linebudget.rabi_frequency(0.5, 1.0, -2.6), "inputs must be non-negative"),
    (lambda: linebudget.awg_noise_psd(-130.0, -50.0), "z0 must be non-negative"),
    (lambda: linebudget.t1_line_limit(0.5, 2.6, LINE, -1e-15), "s_vv must be non-negative"),
    (lambda: linebudget.t1_line_limit(0.5, 0.0, LINE, 1e-15), "m01 must be positive"),
    (lambda: linebudget.tradeoff_sweep(FIG_PARAMS, LINE, []),
     "attenuation grid must be non-empty"),
], ids=["rabi-e_l", "rabi-dphi", "rabi-m01", "psd-z0", "t1-s_vv", "t1-m01", "sweep-empty"])
def test_budget_functions_refuse_inputs_outside_their_domain(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
