"""Top-level acceptance checks, one test per headline property of the build.

Each test pins a single end-to-end claim at a stated tolerance, so the
verbose test listing reads as a pass/fail line per criterion. Checks that
state a runtime budget time themselves with perf_counter. Where a clause is
not attainable under this package's normalization, the test fails with the
measured numbers and the boundary where the clause would hold — it is not
weakened to pass.
"""

import hashlib
import json
import math
import pathlib
import time

import numpy as np
import pytest

import oracles
from uniflux import analysis, cli, dynamics, filters, fluxonium, linebudget, pulsec
from uniflux.waveform import Waveform

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

REFERENCE_QUBIT = fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, phi_ext=0.5)
REFERENCE_LINE = linebudget.LineModel(
    mutual_inductance=2e-12,
    attenuation_db=-30.0,
    awg_noise_dbm_per_hz=-130.0,
    awg_vmax=0.5,
)
GAUSS_CHANNEL = filters.gaussian_lowpass(0.092)

# Cheap scenario for calibration searches; fine scenario for verification.
SEARCH_SCENARIO = dynamics.DriveScenario(
    REFERENCE_QUBIT, REFERENCE_LINE, GAUSS_CHANNEL, levels=2, time_step=0.02
)
FINE_SCENARIO = dynamics.DriveScenario(
    REFERENCE_QUBIT, REFERENCE_LINE, GAUSS_CHANNEL, levels=4, time_step=0.005
)

X_PI = np.array([[0.0, -1.0j], [-1.0j, 0.0]])


def test_criterion_01_spectrum_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20260819)
    cases = [(4.5, 1.1, 0.5, 0.5)]
    for _ in range(10):
        cases.append(
            (
                rng.uniform(2.0, 9.0),
                rng.uniform(0.6, 2.0),
                rng.uniform(0.3, 1.8),
                rng.uniform(0.0, 0.5),
            )
        )
    for ej, ec, el, flux in cases:
        params = fluxonium.FluxoniumParams(e_j=ej, e_c=ec, e_l=el, phi_ext=flux)
        spec = fluxonium.eigensystem(fluxonium.build_hamiltonian(params), 3)
        oracle_levels, oracle_elem = oracles.phase_grid_spectrum(
            ej, ec, el, flux, n_levels=3
        )
        assert spec.levels[1] == pytest.approx(oracle_levels[1], rel=1e-4), (
            f"f01 disagrees with the phase-grid oracle at {params}"
        )
        m01 = abs(fluxonium.phase_matrix_element(params, 0, 1))
        assert m01 == pytest.approx(abs(oracle_elem(0, 1)), rel=1e-4), (
            f"|<0|phi|1>| disagrees with the phase-grid oracle at {params}"
        )
    f01_half = fluxonium.eigensystem(
        fluxonium.build_hamiltonian(REFERENCE_QUBIT), 2
    ).levels[1]
    assert 0.2 <= f01_half <= 0.4
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"spectrum equivalence took {elapsed:.2f} s (budget 5 s)"


def test_criterion_02_harmonic_limit_spacing():
    params = fluxonium.FluxoniumParams(e_j=0.0, e_c=1.1, e_l=0.5)
    spec = fluxonium.eigensystem(fluxonium.build_hamiltonian(params), 5)
    analytic = math.sqrt(8.0 * 1.1 * 0.5)
    assert analytic == pytest.approx(2.0976, abs=5e-5)
    np.testing.assert_allclose(np.diff(spec.levels), analytic, rtol=1e-6)


def test_criterion_03_tradeoff_regimes():
    started = time.perf_counter()
    grid = np.linspace(-80.0, -20.0, 61)
    points = linebudget.tradeoff_sweep(REFERENCE_QUBIT, REFERENCE_LINE, grid)
    alpha = np.array([p.attenuation_db for p in points])
    t1 = np.array([p.t1_line_us for p in points])
    excursion = np.array([p.max_dc_excursion_phi0 for p in points])
    rabi = np.array([p.rabi_mhz for p in points])

    failures = []

    # The coherence band edge alpha* comes from the hand evaluation of this
    # same budget, frozen before the implementation: T1_line scales as
    # 1/alpha^2, so the 100 us crossing is the hand point moved by
    # 10 log10(T1_hand / 100 us) dB.
    hand = json.loads((FIXTURES / "line_budget_hand.json").read_text())
    alpha_star = hand["inputs"]["attenuation_db"] + 10.0 * math.log10(
        hand["expected"]["t1_line_us"] / 100.0
    )
    coherent = alpha <= alpha_star
    if not -80.0 < alpha_star < -30.0:
        failures.append(
            f"clause 1: alpha* = {alpha_star:.2f} dB from the hand-evaluated "
            "line budget is outside (-80, -30) dB, so the coherence band is "
            "empty or overlaps the [-30, -20] dB excursion band"
        )
    elif not (np.all(t1[coherent] > 100.0) and np.all(t1[~coherent] <= 100.0)):
        failures.append(
            "clause 1 (T1_line > 100 us on [-80, alpha*] dB and <= 100 us "
            f"above it, alpha* = {alpha_star:.2f} dB from the hand-evaluated "
            f"line budget): T1_line is {t1[coherent].min():.4f} us at the last "
            f"grid point inside the band and {t1[~coherent].max():.4f} us at "
            "the first point above it"
        )

    excursion_band = (alpha >= -30.0) & (alpha <= -20.0)
    if not np.all(excursion[excursion_band] >= 0.3):
        failures.append(
            "clause 2 (excursion >= 0.3 Phi0 on [-30, -20] dB): min is "
            f"{excursion[excursion_band].min():.5f}"
        )

    amplitude = np.power(10.0, alpha / 20.0)

    def slope(values):
        y = np.log10(values)
        x = np.log10(amplitude)
        return (y[-1] - y[0]) / (x[-1] - x[0])

    if not math.isclose(slope(t1), -2.0, abs_tol=1e-6):
        failures.append(f"T1 log-log slope {slope(t1)!r} != -2.000")
    if not math.isclose(slope(excursion), 1.0, abs_tol=1e-6):
        failures.append(f"excursion log-log slope {slope(excursion)!r} != +1.000")
    if not math.isclose(slope(rabi), 1.0, abs_tol=1e-6):
        failures.append(f"drive-rate log-log slope {slope(rabi)!r} != +1.000")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"tradeoff sweep took {elapsed:.2f} s (budget 1 s)")

    assert not failures, "; ".join(failures)


def test_criterion_04_flat_band_identity_and_floor():
    inverse = filters.bounded_inverse(GAUSS_CHANNEL, f_q=0.208, g_max_db=50.0)
    grid = np.linspace(0.0, 1.0, 4096)
    h_gauss = GAUSS_CHANNEL.response(grid)
    product = h_gauss * inverse.response(grid)
    target = inverse.h_qubit * inverse.window.response(grid)
    cap_inactive = h_gauss > inverse.floor * (1.0 + 1e-12)
    assert cap_inactive.sum() > 1000  # the identity is checked on a real band
    residual = np.abs(product[cap_inactive] - target[cap_inactive])
    assert residual.max() < 1e-12, f"flat-band residual {residual.max():.3e}"
    floor_frequency = oracles.floor_frequency(inverse)
    assert abs(floor_frequency - 0.375) < 1e-3, (
        f"floor engages at {floor_frequency:.6f} GHz, expected 0.375 +- 0.001"
    )


def _fir_invariants(taps_int, sample_rate):
    taps = np.asarray(taps_int, dtype=np.int64)
    assert np.max(np.abs(taps)) == 32767
    n = len(taps)
    assert all(abs(int(taps[i]) - int(taps[n - 1 - i])) <= 1 for i in range(n))
    f = filters.FirFilter(taps.astype(float), sample_rate, taps_int16=taps)
    grid = np.linspace(0.0, sample_rate / 2.0, 2048)
    mags = np.abs(oracles.fir_response(f, grid))
    assert mags[-1] < 1e-3 * np.max(mags)


def test_criterion_05_fir_invariants_and_correlation():
    record = json.loads((FIXTURES / "fir_design_record.json").read_text())
    deployed = np.array(record["reference_taps_int16"], dtype=np.int64)
    inverse = filters.bounded_inverse(
        GAUSS_CHANNEL, f_q=0.208, g_max_db=50.0, window_cutoff=1.0
    )

    best_rho, best_rate, best_taps = -1.0, None, None
    for rate in (1.0, 2.0, 2.5):
        q = filters.quantize_taps(filters.synthesize_fir(inverse, 16, rate))
        a = q.taps_int16.astype(float)
        b = deployed.astype(float)
        rho = float(a @ b / math.sqrt((a @ a) * (b @ b)))
        if rho > best_rho:
            best_rho, best_rate, best_taps = rho, rate, q.taps_int16

    _fir_invariants(deployed, best_rate)
    _fir_invariants(best_taps, best_rate)

    # Best-effort clause: the reference coefficient set ships without its
    # sample rate, so the correlation is probed over candidate rates.
    assert best_rho >= 0.9, (
        f"best synthesized-vs-reference correlation {best_rho:.4f} at "
        f"{best_rate} GS/s fell below the 0.9 target"
    )
    assert best_rho == pytest.approx(0.9612, abs=2e-3)


def test_criterion_06_iir_step_correction():
    started = time.perf_counter()
    terms = [(-0.0174, 34.0), (-0.0189, 170.0), (-0.0158, 996.0)]
    rate = 2.0
    n = int(3000 * rate)
    step = np.ones(n)
    distorted = oracles.lti_distorted(
        step, [a for a, _ in terms], [tau for _, tau in terms], rate
    )
    assert distorted[0] - 1.0 == pytest.approx(-0.0521, abs=1e-12)

    corrector = filters.design_iir_corrector(terms, rate)
    corrected = filters.apply_iir(Waveform(distorted, rate), corrector)
    t = np.arange(n) / rate
    late = t > 50.0
    residual = np.abs(corrected.samples[late] - 1.0)
    assert residual.max() < 1e-3, (
        f"corrected step residual {residual.max():.2e} beyond 50 ns"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"IIR correction check took {elapsed:.2f} s (budget 1 s)"


def test_criterion_07_predistortion_rabi_contrast():
    started = time.perf_counter()
    levels, _ = dynamics.qubit_frame(FINE_SCENARIO)
    f01 = float(levels[1])
    # Calibration trims both knobs the compensated channel exposes: the
    # drive frequency (the filter tilts the passband slightly) and the
    # pi-pulse amplitude at that frequency.
    trimmed = dynamics.calibrate_drive_frequency(SEARCH_SCENARIO, 20.0, predistortion=True)
    f_d, amplitude = trimmed.frequency_ghz, trimmed.amplitude_v

    with_pre = dynamics.predistort_drive(
        dynamics.cosine_drive(20.0, amplitude, f_d), GAUSS_CHANNEL, f01
    )
    p_on = dynamics.evolve(FINE_SCENARIO, with_pre).populations[-1, 1]
    without = dynamics.cosine_drive(20.0, amplitude, f_d)
    p_off = dynamics.evolve(FINE_SCENARIO, without).populations[-1, 1]

    assert p_on >= 0.999, f"pre-distorted transfer {p_on:.6f} < 0.999"
    assert p_off < 0.95, f"uncompensated transfer {p_off:.6f} not degraded"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"contrast check took {elapsed:.2f} s (budget 30 s)"


def test_criterion_08_coherent_gate_bound():
    started = time.perf_counter()
    assert FINE_SCENARIO.levels == 4
    levels, _ = dynamics.qubit_frame(FINE_SCENARIO)
    f01 = float(levels[1])
    trimmed = dynamics.calibrate_drive_frequency(SEARCH_SCENARIO, 20.0, predistortion=True)
    f_d, amplitude = trimmed.frequency_ghz, trimmed.amplitude_v

    wave = dynamics.predistort_drive(
        dynamics.cosine_drive(20.0, amplitude, f_d), GAUSS_CHANNEL, f01
    )
    outcome = dynamics.evolve(FINE_SCENARIO, wave)
    total_ns = len(wave.samples) / wave.sample_rate
    frame = levels.copy()
    frame[1] = f_d  # the gate is judged in the frame rotating with the drive
    unitary = dynamics.rotating_frame(outcome.final_unitary, frame, total_ns)
    metrics = dynamics.gate_fidelity(unitary, X_PI)

    assert metrics.fidelity >= 0.9999, f"gate fidelity {metrics.fidelity:.6f}"
    assert metrics.leakage < 1e-4, f"leakage {metrics.leakage:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gate bound check took {elapsed:.2f} s (budget 10 s)"


def test_criterion_09_rb_pipeline_oracle():
    # Injected depolarizing recovered by the fit.
    lengths = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    injected = 0.996
    result = dynamics.run_rb(
        SEARCH_SCENARIO, lengths, 3, seed=11, mode="ideal", depolarizing=injected
    )
    survivals = {}
    for record in result:
        survivals.setdefault(record.length, []).append(record.survival)
    means = np.array([np.mean(survivals[m]) for m in lengths])
    fit = analysis.fit_rb_decay(np.array(lengths), means)
    assert fit.p == pytest.approx(injected, abs=1e-3), (
        f"fitted p {fit.p!r} vs injected {injected}"
    )

    # Interleaving a perfect gate costs nothing.
    interleaved = dynamics.run_rb(
        SEARCH_SCENARIO,
        lengths,
        3,
        seed=11,
        interleaved=5,
        mode="ideal",
        depolarizing=injected,
    )
    int_survivals = {}
    for record in interleaved:
        int_survivals.setdefault(record.length, []).append(record.survival)
    int_means = np.array([np.mean(int_survivals[m]) for m in lengths])
    int_fit = analysis.fit_rb_decay(np.array(lengths), int_means)
    gate_fidelity = analysis.interleaved_fidelity(fit.p, int_fit.p)
    assert gate_fidelity == pytest.approx(1.0, abs=1e-6), (
        f"perfect interleaved gate scored {gate_fidelity!r}"
    )

    # Exhaustive closure: recompute every product independently of the
    # table's own canonical-key machinery.
    table = oracles.clifford_closure_table()
    mats = [oracles.clifford_matrix(i) for i in range(dynamics.CLIFFORD_COUNT)]

    def match(product):
        for k, mat in enumerate(mats):
            ratio = product @ mat.conj().T
            if abs(abs(ratio[0, 0]) - 1.0) < 1e-9 and np.allclose(
                ratio, ratio[0, 0] * np.eye(2), atol=1e-9
            ):
                return k
        raise AssertionError("product left the 24-element group")

    for i in range(dynamics.CLIFFORD_COUNT):
        for j in range(dynamics.CLIFFORD_COUNT):
            assert table[i, j] == match(mats[i] @ mats[j])
    for i in range(dynamics.CLIFFORD_COUNT):
        assert sorted(table[i, :]) == list(range(24))
        assert sorted(table[:, i]) == list(range(24))


def test_criterion_10_memory_claim():
    # one 3000-Clifford sequence, drawn as waveform-mode run_rb draws it
    rng = np.random.default_rng(2026)
    indices = [int(i) for i in rng.integers(0, dynamics.CLIFFORD_COUNT, size=3000)]
    program = dynamics.build_rb_program(
        indices + [dynamics.recovery_index(indices)], dynamics.RbGate(), 1.0,
        dynamics.qubit_frame(SEARCH_SCENARIO)[0][1],
    )
    config = pulsec.SynthesisConfig(sample_rate=1.0)
    report = pulsec.memory_report(program, pulsec.compile(program, config))
    assert report["sequence_ns"] > 50_000.0, (
        f"benchmark program spans {report['sequence_ns']} ns, need > 50 us"
    )
    assert report["stored_ns"] < 100.0, f"stored {report['stored_ns']} ns"
    assert report["ratio"] > 500.0, f"ratio {report['ratio']:.1f}"


def test_criterion_11_fit_recovery():
    started = time.perf_counter()

    # Relaxation model round-trip plus the independent 1/e crossing.
    t = np.linspace(0.0, 600.0, 121)
    relax = analysis.fit_t1_double_exponential(
        t, analysis.relaxation_model(t, 1.0, 0.0, 150.0, 30.0, 1.0)
    )
    for got, true in (
        (relax.a, 1.0),
        (relax.t_exp, 150.0),
        (relax.t_qp, 30.0),
        (relax.n_qp, 1.0),
    ):
        assert got == pytest.approx(true, rel=0.02)
    independent = oracles.one_over_e_crossing(
        relax.a, relax.b, relax.t_exp, relax.t_qp, relax.n_qp
    )
    assert relax.t1_eff == pytest.approx(independent, rel=1e-3), (
        f"bisection t1_eff {relax.t1_eff!r} vs Brent oracle {independent!r}"
    )

    # Dephasing-envelope round-trip.
    t_env = np.linspace(0.0, 400.0, 81)
    deph = analysis.fit_dephasing_envelope(
        t_env,
        analysis.dephasing_model(t_env, 0.9, 0.05, 180.0, 1 / 90.0, 1 / 128.0),
        t1_de=180.0,
    )
    for got, true in (
        (deph.c, 0.9),
        (deph.d, 0.05),
        (deph.t_phi_exp, 90.0),
        (deph.t_phi_g, 128.0),
    ):
        assert got == pytest.approx(true, rel=0.02)

    # Benchmarking decay round-trip.
    m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    rb = analysis.fit_rb_decay(m, oracles.depolarized_survival(0.998, m))
    assert rb.a == pytest.approx(0.5, rel=0.02)
    assert rb.b == pytest.approx(0.5, rel=0.02)
    assert rb.p == pytest.approx(0.998, rel=1e-6)

    # Reset estimator over 100 Monte-Carlo seeds: ensemble recovery of the
    # 2% residual within +-0.3 percentage points.
    errors = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 10_000
        excited = rng.random(n) < 0.02
        samples = np.where(
            excited, rng.normal(1.0, 0.15, n), rng.normal(0.0, 0.15, n)
        )
        estimate = analysis.estimate_reset_fidelity(samples)
        errors.append(estimate.weight_e - 0.02)
    errors = np.array(errors)
    assert abs(errors.mean()) < 0.003, (
        f"reset estimator bias {errors.mean():+.5f} beyond +-0.003 "
        f"(spread {errors.std():.5f})"
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"fit recovery took {elapsed:.2f} s (budget 60 s)"


def test_criterion_12_determinism(tmp_path, capsys):
    program = DATA / "example_program.pulse"
    golden = (DATA / "example_program.sha256").read_text().strip()

    digests = []
    for name in ("one.bin", "two.bin"):
        target = tmp_path / name
        assert cli.main(
            ["compile", str(program), "--rate", "2", "-o", str(target)]
        ) == 0
        capsys.readouterr()
        digests.append(hashlib.sha256(target.read_bytes()).hexdigest())
    assert digests[0] == digests[1] == golden

    csv_digests = []
    for name in ("one.csv", "two.csv"):
        target = tmp_path / name
        assert cli.main(
            [
                "simulate", "rb",
                "--lengths", "1,2,4,8",
                "--sequences", "2",
                "--seed", "7",
                "--depolarizing", "0.997",
                "-o", str(target),
            ]
        ) == 0
        capsys.readouterr()
        csv_digests.append(hashlib.sha256(target.read_bytes()).hexdigest())
    assert csv_digests[0] == csv_digests[1]
