import argparse
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uniflux import cli, dynamics, filters, fluxonium, linebudget, pulsec
from uniflux.dynamics import DriveScenario, RbGate
from uniflux.errors import (CalibrationError, NumericalError, SaturationError, ScheduleError,
                            UnifluxError)
from uniflux.waveform import Waveform

QUBIT = fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5)
LINE = linebudget.LineModel(
    mutual_inductance=2e-12,
    attenuation_db=-30.0,
    awg_noise_dbm_per_hz=-130.0,
    awg_vmax=0.5,
)
F01 = 0.22376881665330772  # GHz, canonical parameters at half flux
V_PI_20NS = 0.00984166340486094  # volt, first-order flat-channel 20 ns pi pulse

FLAT2 = DriveScenario(QUBIT, LINE, filters.FlatResponse(), levels=2, time_step=0.02)
GAUSS = filters.gaussian_lowpass(0.092)
GAUSS2 = DriveScenario(QUBIT, LINE, GAUSS, levels=2, time_step=0.02)
X_PI = np.array([[0.0, -1.0j], [-1.0j, 0.0]])  # the gate simulate gate targets


def _zero_waveform(n=32, rate=1.0):
    return Waveform(np.zeros(n), rate)


# ---------------------------------------------------------------------------
# scenario and evolve basics
# ---------------------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValueError):
        DriveScenario(QUBIT, LINE, filters.FlatResponse(), levels=1)
    with pytest.raises(ValueError):
        DriveScenario(QUBIT, LINE, filters.FlatResponse(), time_step=0.0)
    with pytest.raises(ValueError):
        DriveScenario(QUBIT, LINE, channel="gauss")


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "4"])
def test_scenario_levels_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="levels must be an integer"):
        DriveScenario(QUBIT, LINE, filters.FlatResponse(), levels=bad)
    assert DriveScenario(QUBIT, LINE, filters.FlatResponse(), levels=np.int64(3)).levels == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scenario_rejects_non_finite_time_step(bad):
    with pytest.raises(ValueError, match="finite"):
        DriveScenario(QUBIT, LINE, filters.FlatResponse(), time_step=bad)


def test_phase_drive_per_volt_matches_budget():
    c = dynamics.phase_drive_per_volt(LINE)
    assert c == pytest.approx(3.8434764090566715, rel=1e-12)
    assert c == pytest.approx(linebudget.flux_drive_amplitude(LINE) / LINE.awg_vmax)


def test_zero_waveform_is_free_evolution():
    scenario = FLAT2.replace(levels=4)
    outcome = dynamics.evolve(scenario, _zero_waveform(40))
    assert outcome.populations.shape == (1, 4)  # the final populations only
    pops, _, top = oracles.scanned_trajectory(scenario, _zero_waveform(40))
    assert pops.shape == (41, 4)
    np.testing.assert_allclose(pops[:, 0], 1.0, atol=1e-12)
    levels, _ = dynamics.qubit_frame(scenario)
    expected = np.diag(np.exp(-1j * 2 * np.pi * levels * 40.0))
    np.testing.assert_allclose(outcome.final_unitary, expected, atol=1e-9)
    framed = dynamics.rotating_frame(outcome.final_unitary, levels, 40.0)
    np.testing.assert_allclose(framed, np.eye(4), atol=1e-9)
    assert outcome.metadata["chebyshev_nodes"] == 1  # a constant drive
    assert top < 1e-20


def test_populations_sum_to_one_under_drive():
    w = dynamics.cosine_drive(20.0, 0.008, F01, lead_ns=8.0, tail_ns=8.0)
    outcome = dynamics.evolve(FLAT2.replace(levels=4), w)
    sums = outcome.populations.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-8)
    assert outcome.metadata["levels"] == 4
    assert len(outcome.metadata["scenario_sha256"]) == 64


def test_scenario_fingerprint_keeps_its_bytes():
    # the prepared shape carries the fingerprint; every drive of it reports
    # the sha256 that evolve reported when each drive hashed the scenario
    cases = [
        (GAUSS2, _zero_waveform(16),
         "6e128cbd4b8441c3d6a1460ae729c1592d0b5f7ff51d5146cb3b61dc13e6a690"),
        (GAUSS2.replace(levels=3), dynamics.cosine_drive(20.0, 0.01, F01),
         "7065a2748ceb90533876da5b90a083bfe0af3c5c3b5e18428a32657017ac9a98"),
    ]
    for scenario, w, sha in cases:
        assert dynamics.evolve(scenario, w).metadata["scenario_sha256"] == sha
        shape = dynamics._prepare(scenario, w)
        for amplitude in (0.5, 1.5):
            assert dynamics._drive(shape, amplitude).metadata["scenario_sha256"] == sha


def test_evolve_input_validation():
    with pytest.raises(ValueError):
        dynamics.evolve(FLAT2, Waveform(np.zeros(1), 1.0))
    with pytest.raises(ValueError):
        dynamics.evolve(FLAT2, Waveform(np.zeros(8, dtype=complex), 1.0))
    # sample period not an integer multiple of the time step
    with pytest.raises(ValueError):
        dynamics.evolve(FLAT2, Waveform(np.zeros(8), 3.0))


def test_saturating_drive_rejected():
    w = _zero_waveform(16).with_samples(np.full(16, 0.51))
    with pytest.raises(SaturationError):
        dynamics.evolve(FLAT2, w)


def test_time_step_stability_bound():
    slow = FLAT2.replace(time_step=0.25)  # bound is 1/(20 f01) ~ 0.2235 ns
    with pytest.raises(NumericalError, match="smaller step"):
        dynamics.evolve(slow, _zero_waveform(8, rate=1.0))


@pytest.mark.parametrize("run", [
    lambda s: dynamics.calibrate_pi(s, 20.0, predistortion=False),
    lambda s: dynamics.rabi_experiment(s, [V_PI_20NS], predistortion=False),
], ids=["calibrate-pi", "rabi"])
def test_a_step_over_the_stability_bound_is_refused_before_saturation(run):
    # the pi start needs ~0.01 V, twice this line's full scale
    saturating = FLAT2.replace(line=dataclasses.replace(LINE, awg_vmax=0.005))
    with pytest.raises(SaturationError):
        run(saturating)
    with pytest.raises(NumericalError, match=r"time_step 0.25 ns violates the stability "
                       r"bound 1/\(20 f01\) = 0.2234 ns; use a smaller step"):
        run(saturating.replace(time_step=0.25))  # 4 steps per sample, 0.25 > 1/(20 f01)


def test_rabi_oscillation_matches_line_budget_rate():
    # Rectangular drive at f01: P1 oscillates at the first-order Rabi rate.
    amp = 0.002
    duration = 2000
    t = np.arange(duration + 1)
    w = Waveform(amp * np.cos(2 * np.pi * F01 * t), 1.0)
    p1 = oracles.scanned_trajectory(FLAT2, w)[0][:, 1]
    # zero-padded FFT peak of the population oscillation
    signal = p1 - p1.mean()
    spec = np.abs(np.fft.rfft(signal * np.hanning(len(signal)), n=1 << 18))
    freqs = np.fft.rfftfreq(1 << 18, d=1.0)
    measured_ghz = freqs[np.argmax(spec)]
    dphi = amp * dynamics.phase_drive_per_volt(LINE)
    expected_mhz = linebudget.rabi_frequency(QUBIT.e_l, dphi, 2.643670181847175)
    assert measured_ghz * 1e3 == pytest.approx(expected_mhz, rel=0.02)


def test_unitarity_over_fifty_microseconds():
    # 2.5e-3 flux-drive volts for 50 us at a coarse-but-stable step: the
    # propagator must stay unitary to 1e-8 (evolve raises otherwise).
    scenario = FLAT2.replace(time_step=0.05)
    t = np.arange(50_001, dtype=float)
    w = Waveform(0.0025 * np.cos(2 * np.pi * F01 * t), 1.0)
    outcome = dynamics.evolve(scenario, w)
    assert outcome.metadata["unitarity_drift"] < 1e-8
    np.testing.assert_allclose(outcome.populations.sum(axis=1), 1.0, atol=1e-8)


def test_step_halving_converges_below_1e7():
    # at the default step, halving must move final populations by < 1e-7
    w = dynamics.cosine_drive(20.0, V_PI_20NS, F01, lead_ns=10.0, tail_ns=10.0)
    coarse = dynamics.evolve(FLAT2.replace(time_step=dynamics.DEFAULT_TIME_STEP), w)
    fine = dynamics.evolve(
        FLAT2.replace(time_step=dynamics.DEFAULT_TIME_STEP / 2.0), w
    )
    shift = np.abs(coarse.populations[-1] - fine.populations[-1]).max()
    assert shift < 1e-7


def test_nan_propagator_fails_closed(monkeypatch):
    # a NaN propagator must raise, not return NaN populations
    def nan_propagate(levels, phi_mat, phi_norm, e_l, dphi_mid, h):
        dim = len(levels)
        return np.full((dim, dim), np.nan, dtype=complex), 1

    monkeypatch.setattr(dynamics, "_propagate", nan_propagate)
    with pytest.raises(NumericalError, match="unitarity drift nan"):
        dynamics.evolve(FLAT2, _zero_waveform(16))


def _overshooting_propagate(excess):
    """A `_propagate` stand-in whose U swaps levels 0 and 1 exactly, except
    that its column 0 puts the population 1 + ``excess`` in level 1."""
    def propagate(levels, phi_mat, phi_norm, e_l, dphi_mid, h):
        dim = len(levels)
        unitary = np.eye(dim, dtype=complex)[:, [1, 0, *range(2, dim)]]
        unitary[1, 0] = math.sqrt(1.0 + excess)
        return unitary, 1

    return propagate


def test_population_within_the_drift_is_clipped_to_one(monkeypatch):
    monkeypatch.setattr(dynamics, "_propagate", _overshooting_propagate(2e-12))
    outcome = dynamics.evolve(FLAT2, _zero_waveform(16))
    assert outcome.populations[-1, 1] == 1.0
    assert outcome.populations.max() <= 1.0
    assert outcome.metadata["unitarity_drift"] == pytest.approx(2e-12, rel=1e-3)


def test_population_above_one_beyond_the_drift_bound_raises(monkeypatch):
    monkeypatch.setattr(dynamics, "_propagate", _overshooting_propagate(1e-6))
    with pytest.raises(NumericalError, match="unitarity drift 1.00e-06"):
        dynamics.evolve(FLAT2, _zero_waveform(16))


# ---------------------------------------------------------------------------
# propagator engine against the per-step reference integrator
# ---------------------------------------------------------------------------


def _per_step_reference(scenario, w):
    """evolve's drive preparation followed by the per-step oracle integrator."""
    levels, phi_mat = dynamics.qubit_frame(scenario)
    h = scenario.time_step
    k = int(round(1.0 / (w.sample_rate * h)))
    filtered = filters.apply_transfer(w, scenario.channel)
    dphi = np.asarray(filtered.samples) * dynamics.phase_drive_per_volt(LINE)
    mids = oracles.upsample(dphi, 2 * k)[1::2]
    return oracles.midpoint_propagate(levels, phi_mat, QUBIT.e_l, mids, h, k)


def _predistorted_pi_4_levels():
    scenario = GAUSS2.replace(levels=4, time_step=0.005)
    w = dynamics.predistort_drive(
        dynamics.cosine_drive(20.0, V_PI_20NS, F01), GAUSS, F01
    )
    return scenario, w


def _three_levels_odd_steps_per_sample():
    scenario = FLAT2.replace(levels=3, time_step=0.04)  # 25 steps per sample
    return scenario, dynamics.cosine_drive(24.0, 0.012, F01, lead_ns=8.0, tail_ns=8.0)


def _long_drive_across_chunks():
    scenario = GAUSS2.replace(time_step=0.05)  # 4000 samples x 20 = 80 000 steps
    t = np.arange(4000, dtype=float)
    return scenario, Waveform(0.003 * np.cos(2 * np.pi * F01 * t), 1.0)


def _zero_drive():
    return FLAT2.replace(levels=4, time_step=0.005), _zero_waveform(40)


_ENGINE_CASES = [
    _predistorted_pi_4_levels,
    _three_levels_odd_steps_per_sample,
    _long_drive_across_chunks,
    _zero_drive,
]


@pytest.mark.parametrize("case", _ENGINE_CASES)
def test_evolve_matches_per_step_oracle(case):
    scenario, w = case()
    outcome = dynamics.evolve(scenario, w)
    pops, unitary = _per_step_reference(scenario, w)
    np.testing.assert_allclose(outcome.final_unitary, unitary, rtol=0, atol=1e-9)
    np.testing.assert_allclose(outcome.populations, pops[-1:], rtol=0, atol=1e-9)
    # the trajectory, which only the oracle keeps
    trajectory = oracles.scanned_trajectory(scenario, w)[0]
    assert trajectory.shape == pops.shape
    np.testing.assert_allclose(trajectory, pops, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "case", [_predistorted_pi_4_levels, _three_levels_odd_steps_per_sample, _zero_drive]
)
def test_chunks_that_split_samples_keep_the_propagator(monkeypatch, case):
    # 7 steps per chunk cut the 200- and 25-step samples apart
    scenario, w = case()
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 7)
    outcome = dynamics.evolve(scenario, w)
    _, unitary = _per_step_reference(scenario, w)
    np.testing.assert_allclose(outcome.final_unitary, unitary, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "case", [_predistorted_pi_4_levels, _three_levels_odd_steps_per_sample, _zero_drive]
)
def test_blocks_that_split_samples_and_chunks_keep_the_propagator(monkeypatch, case):
    # 3 steps per block and 7 per chunk: blocks of 3, 3 and 1 under each fit
    scenario, w = case()
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 3)
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 7)
    outcome = dynamics.evolve(scenario, w)
    _, unitary = _per_step_reference(scenario, w)
    np.testing.assert_allclose(outcome.final_unitary, unitary, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [101, 128])
@pytest.mark.parametrize("k", [1, 2, 3, 10, 20, 200])
def test_step_midpoints_match_the_upsampled_oracle(n, k):
    # k = 1 with n even puts the split Nyquist bin on the output's Nyquist bin
    x = np.random.default_rng(1000 * n + k).normal(size=n)
    mids = dynamics._step_midpoints(x, k)
    reference = oracles.upsample(x, 2 * k)[1::2]
    assert mids.shape == reference.shape
    assert np.abs(mids - reference).max() <= 2e-15 * np.abs(x).max()


def _rb_program(seed, *lengths, carrier=F01):
    """The program (default gate, recovery appended) of the last of ``lengths``
    Clifford sequences, drawn from ``seed`` one after another as waveform-mode
    `run_rb` draws them."""
    rng = np.random.default_rng(seed)
    for length in lengths:
        indices = [int(i) for i in rng.integers(0, dynamics.CLIFFORD_COUNT, size=length)]
    return dynamics.build_rb_program(
        indices + [dynamics.recovery_index(indices)], RbGate(), 1.0, carrier
    )


def _rb_waveform(length, seed):
    """The synthesized at-AWG waveform of one seeded RB sequence (default gate)."""
    program = _rb_program(seed, length)
    config = pulsec.SynthesisConfig(sample_rate=1.0)
    wave = pulsec.synthesize(pulsec.compile(program, config), config)
    return wave.with_samples(np.asarray(wave.samples) * LINE.awg_vmax)


def _rb_sequence_across_chunks():
    return GAUSS2.replace(time_step=0.05), _rb_waveform(320, seed=11)


@pytest.mark.parametrize("case", [*_ENGINE_CASES, _rb_sequence_across_chunks])
def test_evolve_matches_the_scanned_trajectory_propagator(case):
    # one tree per chunk against the per-sample trees and the scan: the same
    # steps, multiplied in another grouping
    scenario, w = case()
    outcome = dynamics.evolve(scenario, w)
    unitary = oracles.scanned_trajectory(scenario, w)[1]
    assert np.abs(outcome.final_unitary - unitary).max() <= 1e-13
    # the one row is the final unitary's ground-state column, clipped at 1, bit for bit
    last = np.minimum(np.abs(outcome.final_unitary[:, 0]) ** 2, 1.0)
    assert outcome.populations.shape == (1, scenario.levels)
    assert np.array_equal(outcome.populations[-1], last)


def _two_levels_across_blocks():
    scenario = GAUSS2  # 250 samples x 50 = 12 500 steps in one chunk
    t = np.arange(250, dtype=float)
    return scenario, Waveform(0.004 * np.sin(2 * np.pi * F01 * t), 1.0)


def _four_levels_across_blocks():
    scenario = FLAT2.replace(levels=4, time_step=0.01)  # 104 samples x 100 steps
    return scenario, dynamics.cosine_drive(24.0, 0.012, F01)


def _chunk_tree_reference(scenario, w):
    """evolve's drive preparation followed by one tree product per chunk."""
    shape = dynamics._prepare(scenario, w)
    levels, phi_mat = dynamics.qubit_frame(scenario)
    phi_norm = dynamics._qubit_frame(scenario.qubit, scenario.levels)[2]
    return oracles.chunk_tree_propagate(levels, phi_mat, phi_norm, scenario.qubit.e_l,
                                        shape.mids, scenario.time_step)


@pytest.mark.parametrize("case", [*_ENGINE_CASES, _rb_sequence_across_chunks,
                                  _two_levels_across_blocks, _four_levels_across_blocks])
def test_evolve_matches_one_tree_per_chunk(case):
    # the same steps and fits, multiplied block by block instead of in one
    # tree per chunk
    scenario, w = case()
    outcome = dynamics.evolve(scenario, w)
    unitary, nodes = _chunk_tree_reference(scenario, w)
    assert np.abs(outcome.final_unitary - unitary).max() <= 1e-13
    assert outcome.metadata["chebyshev_nodes"] == nodes


def test_propagate_works_in_block_sized_memory():
    # a 2-level drive of two full chunks: the steps of one block, not of a
    # whole chunk, are held at a time (one chunk's planes alone are 4 MiB)
    levels, phi_mat, phi_norm = dynamics._qubit_frame(QUBIT, 2)
    h = 0.05
    t = (np.arange(2 * dynamics._CHUNK_STEPS) + 0.5) * h
    mids = 0.01 * dynamics.phase_drive_per_volt(LINE) * np.cos(2 * np.pi * F01 * t)
    tracemalloc.start()
    try:
        dynamics._propagate(levels, phi_mat, phi_norm, QUBIT.e_l, mids, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_scanned_trajectory_matches_the_sequential_walk(monkeypatch):
    # the walk runs over the very per-sample propagators the oracle scans
    samples = []
    scan = oracles.prefix_scan

    def spy(planes):
        samples.append(planes.copy())
        return scan(planes)

    monkeypatch.setattr(oracles, "prefix_scan", spy)
    scenario, w = _rb_sequence_across_chunks()
    pops, unitary, _ = oracles.scanned_trajectory(scenario, w)
    assert len(dynamics._prepare(scenario, w).mids) > dynamics._CHUNK_STEPS
    walk = oracles.sequential_populations(samples[0])
    assert pops.shape == walk.shape
    np.testing.assert_allclose(pops, walk, rtol=0, atol=1e-12)
    # the last row is the final unitary's ground-state column, bit for bit
    last = np.abs(unitary[:, 0]) ** 2
    assert np.array_equal(pops[-1], last)


@pytest.mark.parametrize("n", [2, 3, 17, 64])
@pytest.mark.parametrize("dim", [2, 5])
def test_prefix_scan_pads_ragged_blocks(n, dim):
    rng = np.random.default_rng(10 * n + dim)
    raw = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    samples = np.moveaxis(np.linalg.qr(raw)[0], 0, 2)
    pops, unitary = oracles.prefix_scan(samples)
    np.testing.assert_allclose(pops, oracles.sequential_populations(samples), rtol=0, atol=1e-13)
    np.testing.assert_allclose(unitary, dynamics._tree_product(samples), rtol=0, atol=1e-13)


def test_chebyshev_nodes_report_the_largest_count():
    scenario, w = _predistorted_pi_4_levels()  # one chunk of 28 000 steps
    outcome = dynamics.evolve(scenario, w)
    levels, phi_mat = dynamics.qubit_frame(scenario)
    filtered = filters.apply_transfer(w, scenario.channel)
    mids = dynamics._step_midpoints(
        np.asarray(filtered.samples) * dynamics.phase_drive_per_volt(LINE), 200
    )
    growth = (scenario.time_step * 0.5 * (mids.max() - mids.min())
              * np.linalg.norm(2.0 * np.pi * QUBIT.e_l * phi_mat, 2))
    assert outcome.metadata["chebyshev_nodes"] == dynamics._node_count(growth) > 1


def test_top_level_population_falls_as_levels_grow():
    # the default 20 ns gate: the CLI's reference scenario, pre-distorted,
    # calibrated at f01
    tops = []
    for levels in (3, 4, 6):
        scenario = DriveScenario(QUBIT, LINE, GAUSS, levels=levels)
        f01 = dynamics.qubit_frame(scenario)[0][1]
        amp = dynamics.calibrate_pi(scenario, 20.0).amplitude_v
        pulse = oracles.drive_pulse(scenario, amp, 20.0, f01)
        tops.append(oracles.scanned_trajectory(scenario, pulse)[2])
    assert tops[0] > tops[1] > tops[2] > 0.0


def test_oracle_cases_cover_the_engine_edges():
    scenario, w = _predistorted_pi_4_levels()
    assert dynamics.evolve(scenario, w).populations[-1, 1] > 0.9  # a pi pulse
    scenario, w = _long_drive_across_chunks()
    assert dynamics.evolve(scenario, w).metadata["steps"] > dynamics._CHUNK_STEPS
    scenario, w = _three_levels_odd_steps_per_sample()
    assert round(1.0 / (w.sample_rate * scenario.time_step)) % 2 == 1
    for case, levels in ((_two_levels_across_blocks, 2), (_four_levels_across_blocks, 4)):
        scenario, w = case()  # more than one block under one fit
        assert scenario.levels == levels
        steps = len(dynamics._prepare(scenario, w).mids)
        assert dynamics._BLOCK_STEPS < steps <= dynamics._CHUNK_STEPS


def test_node_count_is_the_smallest_meeting_the_tail_bound():
    def tail(growth, count):
        ks = np.arange(count, count + 200)
        return np.sum(2.0 * (math.e * growth / (2.0 * ks)) ** ks)

    assert dynamics._node_count(0.0) == 1  # constant drive
    for growth in (1e-6, 2e-3, 0.1, 1.0, 7.0):
        count = dynamics._node_count(growth)
        assert tail(growth, count) <= 1e-16
        assert count == 1 or tail(growth, count - 1) > 1e-16


def test_node_count_from_the_frame_norm_matches_the_coupling_norm():
    # K comes from ||phi||_2 of the frame times 2 pi |a E_L| rather than from
    # ||coupling||_2 of every chunk; a seeded set of (circuit, levels,
    # amplitude, step, radius) cases pins that the count, and with it every
    # step plane, is unchanged
    rng = np.random.default_rng(54)
    counts = set()
    for _ in range(15):
        qubit = fluxonium.FluxoniumParams(
            e_j=rng.uniform(2.0, 9.0), e_c=rng.uniform(0.6, 2.0), e_l=rng.uniform(0.3, 1.8)
        )
        for levels in (2, 3, 4, 6):
            _, phi_mat, phi_norm = dynamics._qubit_frame(qubit, levels)
            for _ in range(60):
                e_l = rng.uniform(0.0, 2.0) * qubit.e_l
                h, radius = rng.uniform(0.005, 0.05), 10.0 ** rng.uniform(-4.0, 1.0)
                coupling = 2.0 * np.pi * (-e_l) * phi_mat
                count = dynamics._node_count(h * radius * (2.0 * np.pi * abs(e_l) * phi_norm))
                assert count == dynamics._node_count(h * radius * np.linalg.norm(coupling, 2))
                counts.add(count)
    assert min(counts) <= 3 and max(counts) >= 20


def test_chebyshev_steps_match_exact_exponentials():
    # full-scale drive range, 6 levels: many nodes, still exact to ~1e-14
    scenario = FLAT2.replace(levels=6)
    levels, phi_mat = dynamics.qubit_frame(scenario)
    static = 2.0 * np.pi * np.diag(levels).astype(complex)
    coupling = 2.0 * np.pi * (-QUBIT.e_l) * phi_mat
    xs = np.linspace(-1.9, 1.9, 57)
    fit = dynamics._chebyshev_fit(static, coupling, np.linalg.norm(coupling, 2), 0.2,
                                  xs.min(), xs.max())
    steps = dynamics._chebyshev_steps(fit, xs)
    vals, vecs = np.linalg.eigh(static + xs[:, None, None] * coupling)
    exact = np.einsum("nij,nj,nkj->ikn", vecs, np.exp(-0.2j * vals), vecs.conj())
    assert np.abs(steps - exact).max() < 1e-12


# ---------------------------------------------------------------------------
# drive construction
# ---------------------------------------------------------------------------


def test_cosine_drive_layout():
    w = dynamics.cosine_drive(20.0, 0.01, 0.0, lead_ns=5.0, tail_ns=3.0)
    samples = np.asarray(w.samples)
    assert len(samples) == 28
    np.testing.assert_allclose(samples[:5], 0.0, atol=0)
    np.testing.assert_allclose(samples[25:], 0.0, atol=0)
    # zero-frequency carrier leaves the raised-cosine envelope itself
    assert samples[5 + 10] == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("offset", [0.0, 2.3e-3], ids=["f01", "f01+2.3MHz"])
@pytest.mark.parametrize("duration", [20.0, 24.0, 32.0])
def test_cosine_drive_is_the_pulse_the_compiler_emits(duration, offset):
    # the calibrations' closed form against Delay 40, one full-scale play,
    # Delay 40 at the same carrier (measured 3.2e-15 to 4.9e-15)
    primitive = pulsec.PulsePrimitive(
        id="pulse", samples=tuple(pulsec.cosine_envelope(duration, 1.0)), sample_rate=1.0)
    program = pulsec.PulseProgram(
        instructions=(pulsec.SetCarrier(F01 + offset), pulsec.Delay(40.0),
                      pulsec.PlayXY("pulse", amplitude=1.0), pulsec.Delay(40.0)),
        primitives={"pulse": primitive},
    )
    config = pulsec.SynthesisConfig(sample_rate=dynamics.DRIVE_SAMPLE_RATE)
    emitted = pulsec.synthesize(pulsec.compile(program, config), config)
    closed = dynamics.cosine_drive(duration, 1.0, F01 + offset)
    assert len(emitted) == len(closed) == 80 + duration
    assert np.abs(emitted.samples - closed.samples).max() <= 1e-14


@pytest.mark.parametrize("predistortion", [True, False], ids=["predistorted", "uncompensated"])
def test_prepare_compensates_as_the_pulse_built_whole(predistortion):
    # `_prepare` pre-distorts the unit shape it is given: bit for bit the
    # shape of the pulse compensated before the channel
    for scenario, duration, frequency in ((GAUSS2, 20.0, F01),
                                          (GAUSS2.replace(levels=3), 24.0, F01 + 2.3e-3)):
        shape = dynamics._prepare(scenario, dynamics.cosine_drive(duration, 1.0, frequency),
                                  predistortion)
        whole = dynamics._prepare(scenario, oracles.drive_pulse(scenario, 1.0, duration,
                                                                frequency, predistortion))
        assert shape.peak == whole.peak
        assert np.array_equal(shape.mids, whole.mids)


def test_predistort_drive_requires_gaussian_channel():
    w = dynamics.cosine_drive(20.0, 0.01, F01)
    with pytest.raises(ValueError):
        dynamics.predistort_drive(w, filters.FlatResponse(), F01)


def test_predistort_drive_unit_carrier_gain():
    # after renormalization the net on-resonance gain is the taper window,
    # within a couple of percent of unity
    w = dynamics.cosine_drive(400.0, 0.01, F01, lead_ns=50.0, tail_ns=50.0)
    pre = dynamics.predistort_drive(w, GAUSS, F01)
    filtered = filters.apply_transfer(pre, GAUSS)
    peak_in = np.abs(np.asarray(w.samples)).max()
    peak_out = np.abs(np.asarray(filtered.samples)).max()
    assert peak_out / peak_in == pytest.approx(1.0, abs=0.03)


# ---------------------------------------------------------------------------
# Rabi experiments and calibration
# ---------------------------------------------------------------------------


def test_rabi_experiment_argument_rules():
    with pytest.raises(ValueError):
        dynamics.rabi_experiment(FLAT2, amplitudes=[])


def test_rabi_amplitude_sweep_peaks_near_pi_amplitude():
    grid = np.linspace(0.2, 1.6, 8) * V_PI_20NS
    populations = dynamics.rabi_experiment(
        FLAT2, amplitudes=grid, duration_ns=20.0, predistortion=False
    )
    assert len(populations) == len(grid)
    assert all(0.0 <= p <= 1.0 + 1e-9 for p in populations)
    best = grid[int(np.argmax(populations))]
    assert best == pytest.approx(V_PI_20NS, rel=0.15)


def test_calibrate_pi_matches_rwa_oracle():
    amp = dynamics.calibrate_pi(FLAT2, 20.0, predistortion=False).amplitude_v
    assert amp == pytest.approx(V_PI_20NS, rel=0.01)


def test_calibrate_pi_duration_doubling_halves_amplitude():
    amp20 = dynamics.calibrate_pi(FLAT2, 20.0, predistortion=False).amplitude_v
    amp40 = dynamics.calibrate_pi(FLAT2, 40.0, predistortion=False).amplitude_v
    assert amp40 == pytest.approx(amp20 / 2.0, rel=0.02)


def test_calibrate_pi_with_and_without_predistortion_differ():
    amp_on = dynamics.calibrate_pi(GAUSS2, 20.0, predistortion=True).amplitude_v
    amp_off = dynamics.calibrate_pi(GAUSS2, 20.0, predistortion=False).amplitude_v
    # the raw channel attenuates the carrier ~8x; pre-distortion restores it
    assert amp_off > 5.0 * amp_on
    assert amp_on == pytest.approx(V_PI_20NS, rel=0.05)


def test_calibrate_pi_monotone_bracket_raises(monkeypatch):
    # A start at a fifth of the RWA amplitude puts the pi amplitude at 5x the
    # start, beyond the bracket's 2.2x: the Newton steps, each at most a fifth
    # of the amplitude, leave it.
    rwa = dynamics._rwa_pi_amplitude
    monkeypatch.setattr(dynamics, "_rwa_pi_amplitude", lambda *args: 0.2 * rwa(*args))
    with pytest.raises(CalibrationError, match="amplitude solve left its bracket"):
        dynamics.calibrate_pi(FLAT2, 20.0, predistortion=False)


def _refuses_the_length(run) -> bool:
    """Whether ``run`` refuses its pulse length; a later refusal, such as
    saturation, accepts it."""
    try:
        run()
    except (ValueError, ScheduleError, argparse.ArgumentTypeError):
        return True
    except UnifluxError:
        pass
    return False


@pytest.mark.parametrize("duration", [3.9999999, 4.0000001, 1.9999999, 2.5])
def test_drives_refuse_a_length_exactly_when_the_cli_does(duration):
    # the CLI's option check and the drive layer count samples by one rule
    for least, run in (
        (4, lambda: dynamics.calibrate_pi(FLAT2, duration, predistortion=False)),
        (2, lambda: dynamics.rabi_experiment(FLAT2, [0.001], duration_ns=duration,
                                             predistortion=False)),
    ):
        assert _refuses_the_length(run) == _refuses_the_length(
            lambda: cli._pulse_ns(least)(repr(duration))), least


def test_calibrate_pi_minimum_duration():
    with pytest.raises(ValueError):
        dynamics.calibrate_pi(FLAT2, 3.0, predistortion=False)


@pytest.mark.parametrize("calibrate", [dynamics.calibrate_pi, dynamics.calibrate_drive_frequency],
                         ids=["pi", "drive-frequency"])
def test_calibrations_refuse_a_short_pulse_before_propagating(monkeypatch, calibrate):
    calls = _count_propagations(monkeypatch)
    with pytest.raises(ValueError, match="pulse duration must cover at least 4 samples"):
        calibrate(FLAT2, 3.0, predistortion=False)
    assert calls == []


@pytest.mark.parametrize("predistortion", [True, False], ids=["compensated", "uncompensated"])
@pytest.mark.parametrize("calibrate", [dynamics.calibrate_pi, dynamics.calibrate_drive_frequency],
                         ids=["pi", "drive-frequency"])
def test_calibrations_refuse_a_start_beyond_full_scale_before_propagating(
    monkeypatch, calibrate, predistortion
):
    # at phi_ext 0.25, f01 = 4.08 GHz, where the 92 MHz channel passes ~3e-297
    scenario = GAUSS2.replace(qubit=QUBIT.replace(phi_ext=0.25), time_step=0.01)
    calls = _count_propagations(monkeypatch)
    with pytest.raises(SaturationError, match=r"a pi pulse at f01 = 4.08328 GHz starts at a "
                       r"\S+ V peak, beyond the AWG full scale 0.5 V: the line passes "
                       r"\|H\| = \S+ of it$"):
        calibrate(scenario, 20.0, predistortion)
    assert calls == []


def test_calibrated_pulse_inverts_population():
    amp = dynamics.calibrate_pi(FLAT2, 20.0, predistortion=False).amplitude_v
    p1 = dynamics.rabi_experiment(
        FLAT2, amplitudes=[amp], duration_ns=20.0, predistortion=False
    )[0]
    assert p1 > 0.99


def test_calibrate_drive_frequency_trims_upward():
    f_trim = dynamics.calibrate_drive_frequency(GAUSS2, 20.0, predistortion=True).frequency_ghz
    # counter-rotating terms shift the resonance up by ~2 MHz at 20 ns
    assert 5e-4 < f_trim - F01 < 3.5e-3


def test_calibrate_drive_frequency_root_outside_bracket_raises():
    # the uncompensated 92 MHz channel tilts the axis across the whole bracket
    with pytest.raises(CalibrationError, match="no drive frequency in the bracket "
                       r"\[0.223769, 0.226769\] GHz levels the pi rotation's axis"):
        dynamics.calibrate_drive_frequency(
            GAUSS2.replace(time_step=0.05), 20.0, predistortion=False
        )


@pytest.mark.parametrize("duration", [8.0, 12.0])
def test_calibrate_drive_frequency_converges_on_short_pulses(duration):
    # The default bracket widens as 1/duration^2; across it the quiet lead
    # and tail precess by several radians, which the solve divides out.
    trimmed = dynamics.calibrate_drive_frequency(FLAT2, duration, predistortion=False)
    f_d, amp = trimmed.frequency_ghz, trimmed.amplitude_v
    p1 = dynamics.rabi_experiment(
        FLAT2, amplitudes=[amp], duration_ns=duration, predistortion=False,
        drive_frequency_ghz=f_d,
    )[0]
    assert p1 > 1.0 - 1e-9


def test_calibration_solves_the_final_unitary():
    trimmed = dynamics.calibrate_drive_frequency(GAUSS2, 20.0, predistortion=True)
    theta, n_z, _ = oracles.waveform_rotation(
        GAUSS2, trimmed.amplitude_v, 20.0, trimmed.frequency_ghz, True
    )
    assert abs(theta - math.pi) < 1e-10
    assert abs(n_z) < 1e-9
    # the record's signed rotation is that of the pulse it returns
    assert trimmed.theta == pytest.approx(theta, abs=1e-12)
    assert trimmed.n_z == pytest.approx(n_z, abs=1e-12)
    assert max(abs(trimmed.theta - math.pi), abs(trimmed.n_z)) < 1e-10


# The population search these solves replaced is the oracle. Its stop rule,
# population_tol = 1e-5, is the margin: P1 is flat at its maximum, so the
# search pins the amplitude only to about 1e-3 relative. On 2 levels
# test_acceptance.SEARCH_SCENARIO is GAUSS2. Without pre-distortion the
# 92 MHz channel tilts the pi rotation's axis to n_z ~ -0.77, and the
# largest transfer sits about 27 % below the theta = pi amplitude.
_EQUIVALENCE_CASES = [
    (name, scenario.replace(levels=levels), predistortion)
    for name, scenario, predistortion in (
        ("flat", FLAT2, False), ("gauss", GAUSS2, True), ("gauss-uncompensated", GAUSS2, False)
    )
    for levels in (2, 3, 4)
]


def _p1(scenario, amplitude, predistortion, frequency=None):
    return dynamics.rabi_experiment(
        scenario, amplitudes=[amplitude], duration_ns=20.0,
        predistortion=predistortion, drive_frequency_ghz=frequency,
    )[0]


@pytest.mark.parametrize(
    "scenario, predistortion",
    [case[1:] for case in _EQUIVALENCE_CASES],
    ids=[f"{name}-{s.levels}" for name, s, _ in _EQUIVALENCE_CASES],
)
def test_calibrate_pi_transfers_as_much_as_the_population_oracle(scenario, predistortion):
    amp = dynamics.calibrate_pi(scenario, 20.0, predistortion).amplitude_v
    reference = oracles.population_calibrate_pi(scenario, 20.0, predistortion)
    assert amp == pytest.approx(reference, rel=5e-3)
    assert _p1(scenario, amp, predistortion) >= _p1(scenario, reference, predistortion) - 1e-5


def _drawn_scenario(seed):
    """A gate scenario near QUBIT, drawn as the benchmark and test_cli.py's
    `_gate_scenario` draw them: 2 levels at 0.05 ns for even seeds, 3 levels
    at 0.04 ns for odd."""
    rng = np.random.default_rng(seed)
    e_j, e_c, e_l = (float(ref * rng.uniform(0.97, 1.03)) for ref in (4.5, 1.1, 0.5))
    channel = filters.gaussian_lowpass(float(rng.uniform(0.095, 0.12)))
    return DriveScenario(fluxonium.FluxoniumParams(e_j=e_j, e_c=e_c, e_l=e_l), LINE, channel,
                         levels=2 + seed % 2, time_step=(0.05, 0.04)[seed % 2])


_THETA_FIRST_CASES = [
    (f"{name}-{scenario.levels}", scenario, 20.0, predistortion)
    for name, scenario, predistortion in _EQUIVALENCE_CASES
] + [
    (f"drawn-{seed}-{duration:g}ns-{'pre' if seed < 2 else 'raw'}", _drawn_scenario(seed),
     duration, seed < 2)
    for seed, duration in enumerate((20.0, 24.0, 24.0, 32.0))
]


@pytest.mark.parametrize(
    "scenario, duration, predistortion",
    [case[1:] for case in _THETA_FIRST_CASES],
    ids=[case[0] for case in _THETA_FIRST_CASES],
)
def test_calibrate_pi_matches_the_theta_first_oracle(scenario, duration, predistortion):
    # A theta = pi solve used to come first and only fed the Newton steps.
    # Without it the amplitude stays within the Newton stop, P1 within its
    # rounding noise of about 1e-11, and fewer pulses are propagated.
    got = dynamics.calibrate_pi(scenario, duration, predistortion)
    want = oracles.theta_first_calibrate_pi(scenario, duration, predistortion)
    assert got.amplitude_v == pytest.approx(want.amplitude_v, rel=dynamics._AMPLITUDE_TOL, abs=0)
    assert abs(got.unitary[1, 0]) ** 2 >= abs(want.unitary[1, 0]) ** 2 - 2e-11
    assert got.propagations < want.propagations


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize(
    "scenario, predistortion", [(FLAT2, False), (GAUSS2, True)], ids=["flat", "gauss"]
)
def test_transfer_maximum_from_a_single_pulse(scenario, predistortion, levels):
    # The first Newton step has two points, a = 0 and the start, and so no
    # curvature; on more than two levels the loss column is a vector.
    scenario = scenario.replace(levels=levels)
    rotations = dynamics._Rotations(scenario, 20.0, predistortion)
    f01 = rotations.frequencies[0]
    got = dynamics._maximize_transfer([rotations(rotations.start, f01)],
                                      lambda a: rotations(a, f01))
    want = dynamics.calibrate_pi(scenario, 20.0, predistortion)
    assert got.amplitude_v == want.amplitude_v
    assert got.propagations == want.propagations
    np.testing.assert_array_equal(got.unitary, want.unitary)


@pytest.mark.parametrize(
    "scenario, predistortion", [(FLAT2, False), (GAUSS2, True)], ids=["flat", "gauss"]
)
def test_trimmed_calibration_transfers_no_less_than_the_population_oracle(
    scenario, predistortion
):
    trimmed = dynamics.calibrate_drive_frequency(scenario, 20.0, predistortion)
    f_d, amp = trimmed.frequency_ghz, trimmed.amplitude_v
    f_ref = oracles.population_calibrate_drive_frequency(scenario, 20.0, predistortion)
    a_ref = oracles.population_calibrate_pi(
        scenario, 20.0, predistortion, drive_frequency_ghz=f_ref
    )
    assert f_d == pytest.approx(f_ref, abs=1e-5)
    p1 = _p1(scenario, amp, predistortion, f_d)
    assert p1 >= _p1(scenario, a_ref, predistortion, f_ref)
    assert p1 > 1.0 - 1e-10
    # The trimmed 2-level GAUSS2 pulse reads P1 = 1 + 1.4e-12; its fidelity
    # must stay bounded all the same.
    pulse = oracles.drive_pulse(scenario, amp, 20.0, f_d, predistortion)
    metrics = dynamics.gate_fidelity(oracles.drive_frame_unitary(scenario, pulse, f_d), X_PI)
    assert 1.0 - 1e-10 < metrics.fidelity <= 1.0
    populations = dynamics.evolve(scenario, pulse).populations
    assert 0.0 <= populations.min() and populations.max() <= 1.0


def _count_propagations(monkeypatch):
    # every propagation, through evolve or a prepared shape, passes here once
    calls = []
    propagate = dynamics._propagate

    def spy(*args, **kwargs):
        calls.append(None)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_propagate", spy)
    return calls


@pytest.mark.parametrize(
    "scenario, predistortion", [(FLAT2, False), (GAUSS2, True)], ids=["flat", "gauss"]
)
def test_calibrate_pi_takes_at_most_three_evolves(monkeypatch, scenario, predistortion):
    # the start and two Newton steps; the third falls below the stop and propagates nothing
    calls = _count_propagations(monkeypatch)
    for levels in (2, 3, 4):
        calls.clear()
        calibration = dynamics.calibrate_pi(scenario.replace(levels=levels), 20.0, predistortion)
        assert 1 <= len(calls) <= 3
        assert calibration.propagations == len(calls)


def test_uncompensated_calibrate_pi_takes_at_most_seven_evolves(monkeypatch):
    # The start, then Newton steps, each at most a fifth of the amplitude,
    # across the 27 % to the largest transfer; the theta-first solve took 10
    # and the population search 26.
    calls = _count_propagations(monkeypatch)
    calibration = dynamics.calibrate_pi(GAUSS2, 20.0, predistortion=False)
    assert 1 <= len(calls) <= 7
    assert calibration.propagations == len(calls)


def test_calibrate_drive_frequency_takes_at_most_ten_propagations(monkeypatch):
    # The nested solve, a theta = pi solve inside each secant step on n_z,
    # took 17 here; the joint Broyden solve takes 7.
    calls = _count_propagations(monkeypatch)
    calibration = dynamics.calibrate_drive_frequency(GAUSS2, 20.0, predistortion=True)
    assert 1 <= len(calls) <= 10
    assert calibration.propagations == len(calls)


def test_rabi_scan_filters_its_pulse_once(monkeypatch):
    calls = []
    apply_transfer = filters.apply_transfer

    def spy(*args, **kwargs):
        calls.append(None)
        return apply_transfer(*args, **kwargs)

    monkeypatch.setattr(filters, "apply_transfer", spy)
    for points in (1, 3, 12):
        calls.clear()
        grid = np.linspace(0.2, 1.6, points) * V_PI_20NS
        dynamics.rabi_experiment(GAUSS2, amplitudes=grid, predistortion=True)
        assert len(calls) <= 2  # the pre-distortion and the channel


@pytest.mark.parametrize("predistortion", [True, False], ids=["predistorted", "uncompensated"])
def test_rabi_scan_matches_one_evolve_per_amplitude(predistortion):
    # a * (unit shape) and the pulse built at a differ by rounding, which the
    # propagation's unitarity drift (~1e-12 here) turns into ~1e-12 in P1
    grid = np.linspace(0.2, 1.6, 5) * V_PI_20NS
    populations = dynamics.rabi_experiment(GAUSS2, amplitudes=grid, predistortion=predistortion)
    for a, p1 in zip(grid, populations):
        pulse = oracles.drive_pulse(GAUSS2, a, 20.0, F01, predistortion)
        assert p1 == pytest.approx(dynamics.evolve(GAUSS2, pulse).populations[-1, 1],
                                   rel=0, abs=1e-11)


def test_calibration_record_holds_the_propagator_of_its_amplitude():
    calibration = dynamics.calibrate_pi(GAUSS2, 20.0)
    f01 = float(dynamics.qubit_frame(GAUSS2)[0][1])
    pulse = oracles.drive_pulse(GAUSS2, calibration.amplitude_v, 20.0, f01)
    # the two propagations differ by rounding and the unitarity drift, ~2e-11
    np.testing.assert_allclose(
        calibration.unitary, oracles.drive_frame_unitary(GAUSS2, pulse, f01), rtol=0, atol=1e-10
    )
    assert calibration.frequency_ghz == f01
    assert not calibration.unitary.flags.writeable


_TRIM_CASES = [
    (f"{name}-{duration:g}ns-{'pre' if predistortion else 'raw'}", scenario, duration,
     predistortion)
    for name, scenario in (
        ("gauss2", GAUSS2),
        ("fine", DriveScenario(QUBIT, LINE, GAUSS, levels=4, time_step=0.005)),
    )
    for duration in (20.0, 32.0)
    for predistortion in (True, False)
]


@pytest.mark.parametrize(
    "scenario, duration, predistortion",
    [case[1:] for case in _TRIM_CASES],
    ids=[case[0] for case in _TRIM_CASES],
)
def test_joint_trim_matches_the_nested_solve(scenario, duration, predistortion):
    # Without pre-distortion no frequency in the bracket levels the axis, and
    # both solves must say so. The amplitude is compared at 1e-11 relative:
    # the nested solve's own theta = pi root stops at |theta - pi| < 1e-10 and
    # lies 6.4e-12 relative from the Newton-polished root on gauss2 at 20 ns.
    try:
        reference = oracles.nested_calibrate_drive_frequency(scenario, duration, predistortion)
    except CalibrationError:
        with pytest.raises(CalibrationError, match="bracket"):
            dynamics.calibrate_drive_frequency(scenario, duration, predistortion)
        return
    trimmed = dynamics.calibrate_drive_frequency(scenario, duration, predistortion)
    assert trimmed.amplitude_v == pytest.approx(reference[0], rel=1e-11)
    assert trimmed.frequency_ghz == pytest.approx(reference[1], rel=0, abs=1e-12)


def test_untrimmable_axis_names_its_bracket_and_tilt():
    with pytest.raises(CalibrationError) as info:
        dynamics.calibrate_drive_frequency(GAUSS2, 20.0, predistortion=False)
    message = str(info.value)
    assert message.startswith("no drive frequency in the bracket [0.223769, 0.226769] GHz "
                              "levels the pi rotation's axis: n_z = -0.7")
    assert "\n" not in message


# ---------------------------------------------------------------------------
# gate fidelity
# ---------------------------------------------------------------------------


X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_gate_fidelity_identity():
    metrics = dynamics.gate_fidelity(np.eye(2), np.eye(2))
    assert metrics.fidelity == pytest.approx(1.0, abs=1e-12)
    assert metrics.leakage == pytest.approx(0.0, abs=1e-12)


def test_gate_fidelity_orthogonal_gate():
    metrics = dynamics.gate_fidelity(np.eye(4), X_GATE)
    assert metrics.fidelity == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert metrics.leakage == pytest.approx(0.0, abs=1e-12)


def test_gate_fidelity_is_at_most_one_when_rounding_overshoots():
    # Inside the unitarity tolerance a scaled gate overlaps its target by
    # more than a unitary can; the Cauchy-Schwarz bound holds F at 1. Its
    # qubit block keeps 1 + 2e-9: leakage -2e-9, within the drift, reads 0.
    metrics = dynamics.gate_fidelity(X_PI * (1.0 + 1e-9), X_PI)
    assert metrics.fidelity == 1.0
    assert metrics.leakage == 0.0


def test_gate_fidelity_rejects_non_unitary():
    with pytest.raises(NumericalError):
        dynamics.gate_fidelity(np.eye(2) * 1.001, np.eye(2))
    with pytest.raises(ValueError):
        dynamics.gate_fidelity(np.eye(2), np.eye(3))


@pytest.mark.parametrize("achieved, target, message", [
    (np.eye(3)[:2], X_PI, "achieved must be a square matrix spanning the qubit subspace"),
    (np.eye(1), X_PI, "achieved must be a square matrix spanning the qubit subspace"),
    (np.eye(3), np.eye(3), "target must be a 2x2 unitary"),
], ids=["2x3", "1x1", "3x3-target"])
def test_gate_fidelity_refuses_matrices_of_the_wrong_shape(achieved, target, message):
    with pytest.raises(ValueError) as info:
        dynamics.gate_fidelity(achieved, target)
    assert str(info.value) == message


def test_gate_fidelity_reports_leakage():
    theta = 0.02
    mixer = np.eye(4, dtype=complex)
    mixer[1, 1] = mixer[2, 2] = math.cos(theta)
    mixer[1, 2] = -math.sin(theta)
    mixer[2, 1] = math.sin(theta)
    metrics = dynamics.gate_fidelity(mixer, np.eye(2))
    assert metrics.leakage == pytest.approx(math.sin(theta) ** 2 / 2.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Clifford table
# ---------------------------------------------------------------------------


def test_clifford_table_shape_and_identity():
    assert len(dynamics._clifford_table()) == dynamics.CLIFFORD_COUNT == 24
    assert dynamics._clifford_table()[0][0] == ()
    np.testing.assert_allclose(oracles.clifford_matrix(0), np.eye(2), atol=0)
    pulses = [
        sum(1 for op in dynamics._clifford_table()[i][0] if op[0] == "x90")
        for i in range(dynamics.CLIFFORD_COUNT)
    ]
    assert pulses.count(0) == 4
    assert pulses.count(1) == 16
    assert pulses.count(2) == 4
    # one physical pulse per Clifford on average: the RB duration unit
    assert sum(pulses) / len(pulses) == 1.0


def test_clifford_matrices_are_unitary():
    for i in range(dynamics.CLIFFORD_COUNT):
        m = oracles.clifford_matrix(i)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_clifford_closure_is_a_latin_square():
    table = oracles.clifford_closure_table()
    assert table.shape == (24, 24)
    full = set(range(24))
    for i in range(24):
        assert set(table[i]) == full
        assert set(table[:, i]) == full
        assert table[i, 0] == i
        assert table[0, i] == i


def test_every_clifford_has_an_inverse_in_the_table():
    table = oracles.clifford_closure_table()
    for i in range(24):
        j = int(np.where(table[i] == 0)[0][0])
        assert table[j, i] == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 23), min_size=1, max_size=6))
def test_recovery_index_inverts_any_sequence(seq):
    r = dynamics.recovery_index(seq)
    total = np.eye(2, dtype=complex)
    for i in seq:
        total = oracles.clifford_matrix(i) @ total
    total = oracles.clifford_matrix(r) @ total
    assert abs(np.trace(total)) == pytest.approx(2.0, abs=1e-7)


def test_recovery_index_matches_the_rounded_key_lookup():
    # every product of two table entries, then 1000 seeded sequences of
    # length 1 to 1000: the trace rule picks the entry the lookup finds
    mats = [oracles.clifford_matrix(i) for i in range(dynamics.CLIFFORD_COUNT)]
    for i in range(dynamics.CLIFFORD_COUNT):
        for j in range(dynamics.CLIFFORD_COUNT):
            inverse = (mats[i] @ mats[j]).conj().T
            assert dynamics.recovery_index([j, i]) == oracles.clifford_index_of(inverse)
    rng = np.random.default_rng(21)
    for length in rng.integers(1, 1001, size=1000):
        seq = [int(k) for k in rng.integers(0, dynamics.CLIFFORD_COUNT, size=length)]
        total = np.eye(2, dtype=complex)
        for k in seq:
            total = mats[k] @ total
        assert dynamics.recovery_index(seq) == oracles.clifford_index_of(total.conj().T)


def test_clifford_index_of_rejects_non_clifford():
    with pytest.raises(ValueError, match="not a Clifford"):
        oracles.clifford_index_of(np.array([[1.0, 0.0], [0.0, np.exp(0.3j)]]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 23), max_size=400), st.none() | st.integers(0, 23))
def test_recovery_index_matches_the_matrix_product_oracle(indices, interleaved):
    applied = []
    for i in indices:
        applied += [i] if interleaved is None else [i, interleaved]
    assert dynamics.recovery_index(applied) == oracles.matrix_recovery_index(applied)


def test_composition_tables_match_the_closure_oracle():
    compose, inverse, identity = dynamics._clifford_group()
    np.testing.assert_array_equal(compose, oracles.clifford_closure_table())
    assert identity == 0
    assert all(compose[inverse[t]][t] == compose[t][inverse[t]] == 0 for t in range(24))


def _shipped_matrices():
    return np.array([oracles.clifford_matrix(i) for i in range(dynamics.CLIFFORD_COUNT)])


def test_composition_tables_ignore_a_global_phase():
    mats = _shipped_matrices()
    mats[7] *= np.exp(0.4j)
    assert dynamics._composition_tables(mats) == dynamics._clifford_group()


@pytest.mark.parametrize("replacement", [
    np.array([[1.0, 0.0], [0.0, np.exp(0.3j)]]),  # not a Clifford: no product matches it
    oracles.clifford_matrix(6),  # a duplicate: products match two entries
], ids=["non-clifford", "duplicate"])
def test_composition_tables_refuse_a_table_with_one_matrix_replaced(replacement):
    mats = _shipped_matrices()
    mats[5] = replacement
    with pytest.raises(UnifluxError, match="exactly one entry"):
        dynamics._composition_tables(mats)


# ---------------------------------------------------------------------------
# randomized benchmarking
# ---------------------------------------------------------------------------


def test_rb_ideal_survival_matches_depolarizing_oracle():
    p = 0.97
    result = dynamics.run_rb(
        FLAT2, lengths=[1, 2, 5, 8], sequences_per_length=3, seed=11,
        mode="ideal", depolarizing=p,
    )
    for record in result:
        expected = oracles.depolarized_survival(p, record.length)
        assert record.survival == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("strength", [-0.1, 1.5, math.nan])
def test_rb_refuses_a_depolarizing_strength_outside_0_to_1(strength):
    with pytest.raises(ValueError) as info:
        dynamics.run_rb(FLAT2, [1, 2], 1, seed=0, depolarizing=strength)
    assert str(info.value) == "depolarizing strength must lie in [0, 1]"


@pytest.mark.parametrize("interleaved", [None, 5])
@pytest.mark.parametrize("p", [1.0, 0.99, 0.9])
def test_rb_ideal_survival_matches_the_density_matrix_walk(p, interleaved):
    lengths = [1, 2, 3, 8, 64, 512]
    records = dynamics.run_rb(FLAT2, lengths, 2, seed=4, interleaved=interleaved,
                              mode="ideal", depolarizing=p)
    assert [(r.length, r.seq_index) for r in records] == [
        (m, k) for m in lengths for k in range(2)
    ]
    rng = np.random.default_rng(4)
    for record in records:
        indices = [int(i) for i in rng.integers(0, dynamics.CLIFFORD_COUNT, size=record.length)]
        applied = []
        for i in indices:
            applied += [i] if interleaved is None else [i, interleaved]
        total = np.eye(2, dtype=complex)
        for i in applied:
            total = oracles.clifford_matrix(i) @ total
        recovery = oracles.clifford_index_of(total.conj().T)
        walked = oracles.density_matrix_survival(indices, interleaved, p, recovery)
        assert record.survival == pytest.approx(walked, rel=0, abs=1e-12)


def test_rb_ideal_interleaved_perfect_gate_survives_exactly():
    result = dynamics.run_rb(
        FLAT2, lengths=[1, 3, 6], sequences_per_length=2, seed=5,
        interleaved=4, mode="ideal",
    )
    for record in result:
        assert record.survival == pytest.approx(1.0, abs=1e-9)


def test_rb_waveform_drives_the_line_full_scale():
    # DAC amplitude a on a 1 V line is 2a on a 0.5 V line, bit for bit
    wide = GAUSS2.replace(line=dataclasses.replace(LINE, awg_vmax=1.0))
    kwargs = dict(lengths=[1, 3], sequences_per_length=1, seed=5, mode="waveform")
    one = dynamics.run_rb(wide, gate=RbGate(amplitude_dac=0.015), **kwargs)
    half = dynamics.run_rb(GAUSS2, gate=RbGate(amplitude_dac=0.03), **kwargs)
    assert [r.survival for r in one] == [r.survival for r in half]
    same_code = dynamics.run_rb(GAUSS2, gate=RbGate(amplitude_dac=0.015), **kwargs)
    assert [r.survival for r in same_code] != [r.survival for r in half]


def test_rb_seeded_runs_are_identical():
    kwargs = dict(lengths=[1, 2, 4], sequences_per_length=2, seed=42,
                  mode="ideal", depolarizing=0.95)
    a = dynamics.run_rb(FLAT2, **kwargs)
    b = dynamics.run_rb(FLAT2, **kwargs)
    assert a == b


def test_rb_argument_validation():
    with pytest.raises(ValueError):
        dynamics.run_rb(FLAT2, lengths=[], sequences_per_length=1, seed=0)
    with pytest.raises(ValueError):
        dynamics.run_rb(FLAT2, lengths=[0], sequences_per_length=1, seed=0)
    with pytest.raises(ValueError):
        dynamics.run_rb(FLAT2, lengths=[2], sequences_per_length=0, seed=0)
    with pytest.raises(ValueError):
        dynamics.run_rb(FLAT2, lengths=[2], sequences_per_length=1, seed=0,
                        interleaved=24)
    with pytest.raises(ValueError):
        dynamics.run_rb(FLAT2, lengths=[2], sequences_per_length=1, seed=0,
                        mode="montecarlo")


@pytest.mark.parametrize("field", ["duration_ns", "amplitude_dac", "drive_frequency_ghz"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rb_gate_refuses_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        RbGate(**{field: bad})


RB_GATES = [
    RbGate(),
    RbGate(duration_ns=16.0, amplitude_dac=-0.5),
    RbGate(duration_ns=33.0, amplitude_dac=1.0, drive_frequency_ghz=0.21),
]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 23), max_size=64), st.sampled_from(RB_GATES),
       st.sampled_from([1.0, 2.0]))
def test_build_rb_program_matches_the_instruction_oracle(indices, gate, rate):
    program = dynamics.build_rb_program(indices, gate, rate, F01)
    assert program == oracles.instruction_rb_program(indices, gate, rate, F01)


@pytest.mark.parametrize("seed", [11, 12])
def test_rb_waveform_records_match_the_oracle_paths_bit_for_bit(seed, monkeypatch):
    scenario = DriveScenario(QUBIT, LINE, filters.gaussian_lowpass(0.1), levels=2,
                             time_step=0.05)
    kwargs = dict(lengths=[48, 320], sequences_per_length=1, seed=seed, mode="waveform",
                  gate=RbGate(amplitude_dac=0.018))
    got = dynamics.run_rb(scenario, **kwargs)
    monkeypatch.setattr(dynamics, "build_rb_program", oracles.instruction_rb_program)
    monkeypatch.setattr(dynamics, "recovery_index", oracles.matrix_recovery_index)
    assert got == dynamics.run_rb(scenario, **kwargs)


def test_rb_program_structure():
    gate = RbGate(duration_ns=20.0, amplitude_dac=0.01)
    program = dynamics.build_rb_program([4, 0], gate, 1.0, F01)
    # the carrier first; C4 is a bare X90; C0 contributes nothing
    assert len(program.instructions) == 2
    carrier, play = program.instructions
    assert carrier == pulsec.SetCarrier(F01)
    assert isinstance(play, pulsec.PlayXY)
    assert play.phase_offset == pytest.approx(math.pi)
    assert set(program.primitives) == {"x90"}


def test_rb_virtual_z_only_sequence_survives_exactly():
    # a sequence whose Cliffords (and recovery) are all virtual-Z compiles to
    # an empty drive and plays only its margins: survival is exactly 1
    gate = RbGate(duration_ns=20.0, amplitude_dac=0.01)

    def drawn(seed):  # the one Clifford run_rb draws for a length-1 sequence
        return int(np.random.default_rng(seed).integers(0, dynamics.CLIFFORD_COUNT, size=1)[0])

    seed = next(s for s in range(100) if all(op[0] == "vz" for op in dynamics._clifford_table()[drawn(s)][0]))
    indices = [drawn(seed), dynamics.recovery_index([drawn(seed)])]
    program = dynamics.build_rb_program(indices, gate, 1.0, F01)
    assert program.instructions[0] == pulsec.SetCarrier(F01)
    assert all(isinstance(instr, pulsec.VirtualZ) for instr in program.instructions[1:])
    for scenario in (FLAT2, GAUSS2.replace(levels=4, time_step=0.05)):
        (record,) = dynamics.run_rb(scenario, [1], 1, seed, mode="waveform", gate=gate)
        assert record.survival == 1.0


@pytest.mark.parametrize("seed", [11, 12])
def test_rb_sequences_play_inside_quiet_margins(seed):
    # 320-Clifford sequences at 0.02 of full scale through a 0.1 GHz channel.
    # Margins of 80 ns instead of 40 move survival by at most 1.7e-9 here,
    # and 41 ns by up to 7e-9: the step midpoints interpolate periodically
    # over the sample count, and the drive keeps content near the 0.5 GHz
    # Nyquist frequency. No margins move it by 2.0e-5 to 2.8e-3.
    scenario = DriveScenario(QUBIT, LINE, filters.gaussian_lowpass(0.1), levels=2,
                             time_step=0.05)
    gate = RbGate()
    records = dynamics.run_rb(scenario, [320], 3, seed, mode="waveform", gate=gate)
    survivals = [r.survival for r in records]
    wider = oracles.padded_rb_survivals(scenario, gate, 320, 3, seed, quiet_ns=80.0)
    np.testing.assert_allclose(survivals, wider, rtol=0, atol=5e-9)
    bare = oracles.padded_rb_survivals(scenario, gate, 320, 3, seed, quiet_ns=0.0)
    assert np.abs(np.subtract(survivals, bare)).min() > 1e-5


def test_rb_waveform_interleaving_the_identity_changes_nothing():
    # Clifford 0 plays nothing, so interleaving it leaves every program as it was
    assert dynamics._clifford_table()[0][0] == ()
    kwargs = dict(lengths=[1, 4, 8], sequences_per_length=2, seed=5, mode="waveform")
    assert (dynamics.run_rb(GAUSS2, interleaved=0, **kwargs)
            == dynamics.run_rb(GAUSS2, **kwargs))


@pytest.mark.parametrize("interleaved", [4, 16])
def test_rb_waveform_interleaved_matches_the_explicit_sequence_oracle(interleaved):
    gate = RbGate(amplitude_dac=0.018)
    records = dynamics.run_rb(GAUSS2, [3], 3, seed=6, interleaved=interleaved,
                              mode="waveform", gate=gate)
    assert [r.survival for r in records] == oracles.interleaved_rb_survivals(
        GAUSS2, gate, 3, 3, 6, interleaved, quiet_ns=dynamics._QUIET_NS)


def test_rb_waveform_mode_with_calibrated_gate():
    # frozen two-pulse calibration of the 20 ns X90 through a flat channel
    gate = RbGate(
        duration_ns=20.0,
        amplitude_dac=0.00984501,
        drive_frequency_ghz=F01 + 2.998e-4,
    )
    result = dynamics.run_rb(
        FLAT2, lengths=[1, 2, 4], sequences_per_length=2, seed=7,
        mode="waveform", gate=gate,
    )
    for record in result:
        assert record.survival > 0.99


def test_rb_example_program_serialization_round_trip():
    program = _rb_program(3, 4, 30, carrier=dynamics.qubit_frame(FLAT2)[0][1])
    assert type(program.instructions[0].frequency) is float
    text = oracles.serialize_program(program)
    assert pulsec.parse_program(text, 1.0) == program


def test_rb_example_program_and_memory_footprint():
    config = pulsec.SynthesisConfig(sample_rate=1.0)
    program = _rb_program(3, 4, 300, carrier=dynamics.qubit_frame(FLAT2)[0][1])
    report = pulsec.memory_report(pulsec.compile(program, config))
    assert report["stored_ns"] == pytest.approx(20.0)
    assert report["ratio"] > 200.0


def test_drives_at_or_above_the_nyquist_frequency_are_refused():
    # a 1 GS/s drive pulse at f01 + 1 GHz is sampled exactly as one at f01
    aliased = "aliases at the 1 GS/s drive sampling: drive frequencies must lie below 0.5 GHz"
    with pytest.raises(UnifluxError, match="a drive at 0.5 GHz " + aliased):
        dynamics.rabi_experiment(FLAT2, [0.01], predistortion=False, drive_frequency_ghz=0.5)
    with pytest.raises(UnifluxError, match="a drive at -0.7 GHz " + aliased):
        dynamics.rabi_experiment(FLAT2, [0.01], predistortion=False, drive_frequency_ghz=-0.7)
    with pytest.raises(UnifluxError, match="a drive at 1.22377 GHz " + aliased):
        dynamics.run_rb(FLAT2, [2], 1, seed=3, mode="waveform",
                        gate=RbGate(drive_frequency_ghz=F01 + 1.0))
    assert dynamics.rabi_experiment(FLAT2, [0.01], predistortion=False,
                                    drive_frequency_ghz=0.49)[0] < 1e-3
