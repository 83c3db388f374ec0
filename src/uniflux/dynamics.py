"""Time-domain qubit dynamics driven through the modeled flux line.

The at-AWG voltage waveform is turned into an at-qubit phase drive,

    delta_phi(t) = (2 pi M alpha / (Z0 Phi0)) * v(t),

after the channel transfer function, and the qubit evolves in its truncated
eigenbasis under

    H(t)/h = diag(levels) - E_L * delta_phi(t) * [phi-hat matrix]   (GHz),

integrated with midpoint-exponential steps: the waveform is
band-limit-interpolated onto the step midpoints (one rfft, a half-step
phase ramp, one irfft on the step grid), and each step is the exponential of
the midpoint Hamiltonian. Convergence is second order in the step. The step
exponentials of a chunk of samples are a Chebyshev expansion in the drive,
built from a few exact exponentials at Chebyshev nodes and truncated at a
1e-16 tail bound (spectral propagation after Tal-Ezer and Kosloff, J. Chem.
Phys. 81, 3967 (1984)); the steps of each sample are then multiplied
pairwise, and the ground-start state at every sample boundary comes from a
blocked prefix scan over the samples (reduce, then scan; see Blelloch,
"Prefix sums and their applications", CMU-CS-90-190 (1990)). Unitarity is
not exact by construction: the measured drift is about 1e-11 at 8e4 steps
and about 1e-10 at 1e6 steps, and `evolve` raises past 1e-8.

On top of `evolve` sit the experiment layers: Rabi curves with and without
pre-distortion, pi-amplitude and drive-frequency calibration, average gate
fidelity with separate leakage accounting, and randomized benchmarking. Its
ideal mode is the closed-form depolarizing decay 0.5 + 0.5 p^m (Magesan,
Gambetta and Emerson, PRL 106, 180504 (2011)); its waveform mode compiles
every sampled Clifford sequence to a PulseProgram and evolves it.

Single-qubit Cliffords use the canonical {+/-X_pi/2, virtual-Z} decomposition
shipped as package data (ops plus matrices, 4 virtual-Z-only entries, 16 with
one physical pulse, 4 with two); the tests check that the table closes under
composition.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace as _dc_replace
from functools import lru_cache
from importlib import resources

import numpy as np

from . import filters, fluxonium, linebudget, pulsec
from .errors import CalibrationError, NumericalError, SaturationError, UnifluxError, _is_integer
from .waveform import Waveform

DEFAULT_LEVELS = 4
DEFAULT_TIME_STEP = 0.005  # ns; halving it moves final populations < 1e-7
DRIVE_SAMPLE_RATE = 1.0  # GS/s of every drive pulse and RB program
CLIFFORD_COUNT = 24

# Program-emission conventions, fixed against the shipped Clifford matrices
# (see tests): a positive-amplitude resonant pulse at positive <0|phi|1>
# realizes exp(+i pi sigma_x / 4), so physical X_pi/2 instructions carry a
# pi phase offset; a VirtualZ(delta) instruction realizes diag(1, e^{-i
# delta}), so a table op ("vz", k) is emitted with phase -k pi/2.
X90_PHASE_OFFSET = math.pi
VZ_EMISSION_SIGN = -1.0

_CHUNK_STEPS = 65536
_CHEB_TAIL = 1e-16
_SOLVE_TOL = 1e-10  # |theta - pi| and |n_z| at a calibration root
_SOLVE_STEPS = 16  # iterations per secant or Newton solve
_AMPLITUDE_TOL = 1e-6  # last amplitude step, relative, at the transfer maximum


# ---------------------------------------------------------------------------
# scenario and outcome types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriveScenario:
    """A qubit, its flux line, the channel transfer, and integration controls.

    ``time_step`` (ns) must stay at or below 1/(20 f01) and divide the drive
    waveform's sample period exactly; both are enforced by `evolve`.
    """

    qubit: fluxonium.FluxoniumParams
    line: linebudget.LineModel
    channel: filters.TransferFunction
    levels: int = DEFAULT_LEVELS
    time_step: float = DEFAULT_TIME_STEP

    def __post_init__(self):
        if not _is_integer(self.levels) or self.levels < 2:
            raise ValueError(f"levels must be an integer >= 2, got {self.levels!r}")
        if not 0 < self.time_step < np.inf:
            raise ValueError(f"time_step must be positive and finite, got {self.time_step}")
        if not isinstance(self.channel, filters.TransferFunction):
            raise ValueError("channel must be a transfer-function descriptor")

    def replace(self, **kwargs) -> "DriveScenario":
        return _dc_replace(self, **kwargs)


@dataclass(frozen=True)
class SimOutcome:
    """Trajectory and final propagator of one closed-system simulation.

    ``populations[j]`` are the level populations of a ground-state start
    after the first ``j`` input samples, so row 0 is the initial state and
    the last row is read off ``final_unitary``, the lab-frame propagator on
    the retained subspace.
    """

    populations: np.ndarray
    final_unitary: np.ndarray
    metadata: dict

    def __post_init__(self):
        for name in ("populations", "final_unitary"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@lru_cache(maxsize=64)
def _qubit_frame(qubit: fluxonium.FluxoniumParams, levels: int):
    lv, pm = fluxonium.eigenbasis_phase_matrix(qubit, levels)
    lv.setflags(write=False)
    pm.setflags(write=False)
    return lv, pm


@lru_cache(maxsize=64)
def _phase_norm(qubit: fluxonium.FluxoniumParams, levels: int) -> float:
    """||phi||_2 of the `_qubit_frame` phase matrix: a drive at amplitude a
    grows the Chebyshev steps by 2 pi |a E_L| h times this times half its range."""
    return float(np.linalg.norm(_qubit_frame(qubit, levels)[1], 2))


def qubit_frame(scenario: DriveScenario) -> tuple[np.ndarray, np.ndarray]:
    """(eigenfrequencies relative to ground, phi-hat matrix) for the scenario."""
    lv, pm = _qubit_frame(scenario.qubit, scenario.levels)
    return lv.copy(), pm.copy()


def phase_drive_per_volt(line: linebudget.LineModel) -> float:
    """At-qubit phase-drive amplitude (rad) per volt at the AWG output."""
    return linebudget.flux_drive_amplitude(line, line.awg_vmax) / line.awg_vmax


def _scenario_fingerprint(scenario: DriveScenario, sample_rate: float) -> str:
    text = "|".join(
        [
            repr(scenario.qubit),
            repr(scenario.line),
            repr(scenario.channel),
            str(scenario.levels),
            repr(scenario.time_step),
            repr(sample_rate),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def _step_midpoints(x: np.ndarray, k: int) -> np.ndarray:
    """Band-limited values of the real samples ``x`` at the midpoints of k
    equal steps per sample: the rfft zero-padded to the n*k step grid and
    delayed by half a step with the phase ramp e^{i pi f / (n k)}."""
    n = len(x)
    spec = np.fft.rfft(x)
    if n % 2 == 0:
        spec[-1] *= 0.5  # split the Nyquist bin, now an interior frequency
    spec *= np.exp(1j * np.pi / (n * k) * np.arange(len(spec)))
    return np.fft.irfft(spec, n * k) * k


def _node_count(growth: float) -> int:
    """Chebyshev nodes needed for exp(-i (A + y B)) on y in [-1, 1].

    ``growth`` is ||B||_2. The smallest K whose Bernstein-ellipse tail bound
    sum_{k >= K} 2 (e growth / 2k)^k on the dropped coefficients is at most
    1e-16; a constant drive (growth 0) needs one node.
    """
    ks = np.arange(1, int(math.e * growth) + 64)
    with np.errstate(over="ignore"):
        tails = np.cumsum((2.0 * (math.e * growth / (2.0 * ks)) ** ks)[::-1])[::-1]
    return 1 + int(np.count_nonzero(tails > _CHEB_TAIL))


def _chebyshev_steps(static, coupling, coupling_norm, h, xs):
    """Step exponentials for the drives ``xs`` as (d, d, N) planes.

    The step is an entire function of the drive, so it is expanded in
    Chebyshev polynomials over the drive range [lo, hi] of ``xs``: K exact
    exponentials (batched eigh) at the Chebyshev-Gauss nodes give the
    coefficient matrices, and all N steps are one (d^2 x K)(K x N) product.
    ``coupling_norm`` is ||coupling||_2. Returns the planes and K.
    """
    dim = len(static)
    lo, hi = float(xs.min()), float(xs.max())
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    count = _node_count(h * radius * coupling_norm)
    theta = np.pi * (np.arange(count) + 0.5) / count
    nodes = center + radius * np.cos(theta)
    vals, vecs = np.linalg.eigh(static + nodes[:, None, None] * coupling)
    exps = np.einsum("nij,nj,nkj->ikn", vecs, np.exp(-1j * vals * h), vecs.conj())
    basis = np.cos(np.outer(theta, np.arange(count)))  # T_m(node_j), [j, m]
    coeffs = (2.0 / count) * (exps.reshape(dim * dim, count) @ basis)
    coeffs[:, 0] *= 0.5
    cheb = np.empty((count, len(xs)))  # T_m(y_n) by the three-term recurrence
    cheb[0] = 1.0
    if count > 1:
        cheb[1] = (xs - center) / radius
    for m in range(2, count):
        cheb[m] = 2.0 * cheb[1] * cheb[m - 1] - cheb[m - 2]
    steps = np.empty((dim * dim, len(xs)), complex)
    steps.real = coeffs.real @ cheb  # two real GEMMs beat one complex-by-real
    steps.imag = coeffs.imag @ cheb
    return steps.reshape(dim, dim, len(xs)), count


def _multiply_planes(later, earlier, out):
    """``out`` = later @ earlier plane by plane, for (d, d, ...) ``later`` and
    (d, e, ...) ``earlier``, as d batched elementwise products."""
    np.multiply(later[:, 0, None], earlier[None, 0], out=out)
    for j in range(1, later.shape[1]):
        out += later[:, j, None] * earlier[None, j]
    return out


def _tree_product(planes):
    """Ordered product over axis 2 of (d, d, m, ...) matrix planes.

    Returns planes[:, :, m-1] ... planes[:, :, 0], formed by pairwise batched
    matmuls (later @ earlier); a level with an odd count carries its last
    matrix up unchanged.
    """
    dim = planes.shape[0]
    while planes.shape[2] > 1:
        pairs, odd = divmod(planes.shape[2], 2)
        merged = np.empty((dim, dim, pairs + odd) + planes.shape[3:], complex)
        _multiply_planes(planes[:, :, 1:2 * pairs:2], planes[:, :, 0:2 * pairs:2],
                         merged[:, :, :pairs])
        if odd:
            merged[:, :, pairs] = planes[:, :, -1]
        planes = merged
    return planes[:, :, 0]


def _prefix_scan(samples):
    """Ground-start populations at every boundary of the (d, d, n) per-sample
    propagators, and their ordered product U.

    A reduce-then-scan over blocks of about sqrt(n) samples, the last one
    padded with identities: `_tree_product` gives each block's product, a
    walk over those gives the state entering each block, and then all blocks
    advance their states together, one sample position at a time. That is
    about 2 sqrt(n) batched steps and, besides the tree products, O(n d^2)
    work; a full-matrix parallel prefix (Hillis-Steele) would take
    O(n log n d^3). The last row is read off U, so populations[-1] is
    |U[:, 0]|^2 exactly.
    """
    dim, _, n = samples.shape
    length = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) samples per block
    blocks = -(-n // length)
    padded = np.empty((dim, dim, blocks * length), complex)
    padded[:, :, :n] = samples
    padded[:, :, n:] = np.eye(dim)[:, :, None]
    planes = padded.reshape(dim, dim, blocks, length).transpose(0, 1, 3, 2)
    totals = _tree_product(planes)
    states = np.empty((length + 1, dim, 1, blocks), complex)  # [position, :, :, block]
    states[0, :, :, 0] = np.eye(dim)[:, :1]
    for b in range(1, blocks):
        states[0, :, :, b] = totals[:, :, b - 1] @ states[0, :, :, b - 1]
    for pos in range(length):
        _multiply_planes(planes[:, :, pos], states[pos], states[pos + 1])
    unitary = _tree_product(totals)
    pops = np.empty((n + 1, dim))
    pops[0] = np.eye(dim)[0]
    pops[1:] = np.abs(states[1:, :, 0].transpose(2, 0, 1).reshape(-1, dim)[:n]) ** 2
    pops[-1] = np.abs(unitary[:, 0]) ** 2
    return pops, unitary


def _propagate(levels: np.ndarray, phi_mat: np.ndarray, phi_norm: float, e_l: float,
               dphi_mid: np.ndarray, h: float, record_every: int):
    """Midpoint-exponential propagation; returns (boundary populations, U,
    the largest Chebyshev node count of any chunk); ``phi_norm`` is ||phi_mat||_2.

    Chunks hold whole input samples and at most _CHUNK_STEPS steps (a sample
    longer than that is a chunk of its own). Each chunk's steps come from
    `_chebyshev_steps`, and each sample's steps are multiplied together by
    `_tree_product`; `_prefix_scan` then gives the populations at every
    sample boundary and U.
    """
    dim = len(levels)
    static = 2.0 * np.pi * np.diag(levels).astype(complex)
    coupling = 2.0 * np.pi * (-e_l) * phi_mat
    coupling_norm = 2.0 * np.pi * abs(e_l) * phi_norm
    chunk = max(1, _CHUNK_STEPS // record_every) * record_every
    samples, nodes = [], 1
    for start in range(0, len(dphi_mid), chunk):
        xs = dphi_mid[start:start + chunk].reshape(-1, record_every)
        steps, count = _chebyshev_steps(static, coupling, coupling_norm, h, xs.T.ravel())
        samples.append(_tree_product(steps.reshape(dim, dim, *xs.T.shape)))
        nodes = max(nodes, count)
    return (*_prefix_scan(np.concatenate(samples, axis=2)), nodes)


@dataclass(frozen=True)
class _Shape:
    """A drive waveform made ready to propagate at any amplitude.

    ``peak`` (the at-AWG peak) and ``mids`` (the phase drive at the step
    midpoints) are per unit amplitude: the channel, the scaling and the
    midpoint resampling are all linear, so ``a * mids`` is the drive of
    ``a`` times the waveform, exact up to rounding. ``fingerprint`` is the
    scenario sha256 every outcome's metadata carries.
    """

    scenario: DriveScenario
    sample_rate: float
    steps_per_sample: int
    peak: float
    mids: np.ndarray
    fingerprint: str

    @property
    def duration_ns(self) -> float:
        return len(self.mids) // self.steps_per_sample / self.sample_rate


def _prepare(scenario: DriveScenario, w: Waveform) -> _Shape:
    """The amplitude-free half of `evolve`: the channel (`apply_transfer`,
    which checks the waveform), the scaling to delta_phi, `_step_midpoints`
    and the scenario fingerprint."""
    # `_drive` checks that the step divides the sample period; until then an
    # undivided period only rounds to the nearest whole step count.
    k = max(1, int(round(1.0 / w.sample_rate / scenario.time_step)))
    filtered = filters.apply_transfer(w, scenario.channel)
    dphi = filtered.samples * phase_drive_per_volt(scenario.line)
    return _Shape(scenario, w.sample_rate, k, float(np.max(np.abs(w.samples))),
                  _step_midpoints(dphi, k), _scenario_fingerprint(scenario, w.sample_rate))


def _drive(shape: _Shape, amplitude: float) -> SimOutcome:
    """The per-amplitude half of `evolve`: ``amplitude`` times the prepared
    shape is checked against full scale and the step rules, propagated, and
    checked for unitarity drift."""
    scenario = shape.scenario
    peak = abs(amplitude) * shape.peak
    if peak > scenario.line.awg_vmax * (1.0 + 1e-12):
        raise SaturationError(
            f"waveform peak {peak:.6g} V exceeds AWG full scale "
            f"{scenario.line.awg_vmax} V",
            peak=peak,
        )
    levels, phi_mat = _qubit_frame(scenario.qubit, scenario.levels)
    f01 = levels[1]
    h = scenario.time_step
    if h > 1.0 / (20.0 * f01):
        raise NumericalError(
            f"time_step {h} ns violates the stability bound 1/(20 f01) = "
            f"{1.0 / (20.0 * f01):.4f} ns; use a smaller step"
        )
    period = 1.0 / shape.sample_rate
    k = shape.steps_per_sample
    if abs(k * h - period) > 1e-9 * period:
        raise ValueError(
            f"time_step {h} ns does not divide the sample period {period} ns; "
            "resampling onto the step grid must be exact"
        )

    # The drive enters H only as E_L * delta_phi, so the amplitude scales
    # E_L rather than a copy of the midpoints.
    pops, unitary, nodes = _propagate(
        levels, phi_mat, _phase_norm(scenario.qubit, scenario.levels),
        amplitude * scenario.qubit.e_l, shape.mids, h, k,
    )

    # The drift of U, or of the ground-start state's norm at a boundary where
    # that is larger: no population can exceed 1 by more than this.
    drift = np.max([np.abs(unitary.conj().T @ unitary - np.eye(scenario.levels)).max(),
                    np.abs(pops.sum(axis=1) - 1.0).max()])
    if not drift <= 1e-8:  # NaN fails closed
        raise NumericalError(
            f"propagator unitarity drift {drift:.2e} exceeds 1e-8; "
            "use a smaller time step"
        )
    np.minimum(pops, 1.0, out=pops)
    meta = {
        "scenario_sha256": shape.fingerprint,
        "time_step_ns": h,
        "levels": scenario.levels,
        "steps": len(shape.mids),
        "unitarity_drift": float(drift),
        "chebyshev_nodes": nodes,
        "top_level_population": float(pops[:, -1].max()),
    }
    return SimOutcome(populations=pops, final_unitary=unitary, metadata=meta)


def evolve(scenario: DriveScenario, at_awg_waveform: Waveform) -> SimOutcome:
    """Integrate the drive Hamiltonian for one at-AWG voltage waveform.

    The waveform passes through the scenario channel (`apply_transfer`), is
    scaled to delta_phi(t), band-limit-resampled onto the time-step midpoints
    (`_step_midpoints`: one rfft, delayed half a step by a phase ramp and
    inverted on the n*k step grid), and propagated with midpoint
    exponentials. Populations are recorded at every input-sample boundary.
    That is two halves: `_prepare` does everything that does not depend on
    the amplitude, and `_drive` propagates one amplitude of it, here 1. The
    calibrations and Rabi scans prepare each pulse shape once and drive it
    at every amplitude they try.

    Each chunk of whole samples (at most 65 536 steps) takes exact
    exponentials only at K Chebyshev nodes over its drive range, with K the
    smallest count meeting a 1e-16 Bernstein-ellipse tail bound (K = 1 for a
    constant drive), and evaluates all its steps as one matrix product; the
    steps of each sample are multiplied pairwise, and a blocked prefix scan
    over the samples gives the state at every boundary in about 2 sqrt(n)
    batched steps. The result agrees with a per-step exact-exponential integrator to
    about 1e-11. Unitarity drift, taken on U and on the norm of the
    ground-start state at every boundary, is about 1e-11 at 8e4 steps and
    1e-10 at 1e6 steps; a drift above 1e-8, or a NaN propagator, raises
    `NumericalError`. A population can exceed 1 only by the drift, and is
    clipped to 1.

    The metadata also carries ``chebyshev_nodes``, the largest K of any
    chunk, and ``top_level_population``, the largest population of the top
    retained level over the trajectory, a measure of truncation error.
    """
    return _drive(_prepare(scenario, at_awg_waveform), 1.0)


def rotating_frame(unitary: np.ndarray, levels_ghz: np.ndarray,
                   duration_ns: float) -> np.ndarray:
    """Remove free evolution: diag(e^{+i 2 pi levels T}) applied after U."""
    phases = np.exp(1j * 2.0 * np.pi * np.asarray(levels_ghz, float) * duration_ns)
    return np.diag(phases) @ np.asarray(unitary, complex)


# ---------------------------------------------------------------------------
# drive construction
# ---------------------------------------------------------------------------


def cosine_drive(duration_ns: float, amplitude_v: float, frequency_ghz: float,
                 *, lead_ns: float = 40.0, tail_ns: float = 40.0) -> Waveform:
    """Cosine-envelope pulse with quiet margins, sampled at DRIVE_SAMPLE_RATE.

    The carrier is cos(2 pi f t) on the global time axis, with t = 0 at the
    first lead sample, so the rotation axis seen in the f01 frame does not
    depend on where the pulse sits. ``duration_ns`` must be a whole number of
    samples.
    """
    env = pulsec.cosine_envelope(duration_ns, DRIVE_SAMPLE_RATE)
    n_lead = int(round(lead_ns * DRIVE_SAMPLE_RATE))
    n_tail = int(round(tail_ns * DRIVE_SAMPLE_RATE))
    total = np.zeros(n_lead + len(env) + n_tail)
    total[n_lead:n_lead + len(env)] = amplitude_v * env
    t = np.arange(len(total)) / DRIVE_SAMPLE_RATE
    return Waveform(total * np.cos(2.0 * np.pi * frequency_ghz * t), DRIVE_SAMPLE_RATE)


def predistort_drive(w: Waveform, channel: filters.TransferFunction,
                     f_q: float) -> Waveform:
    """Bounded-inverse pre-distortion renormalized to unit carrier gain.

    The bounded inverse is normalized so the compensated channel sits at the
    channel's own f_q gain; the drive path divides that constant back out so
    a pre-distorted pulse reaches the qubit at its nominal amplitude (the
    residual in-band ripple is the taper window, absorbed by calibration).
    `filters.BoundedInverse` refuses a channel that is not Gaussian.
    """
    inverse = filters.bounded_inverse(channel, f_q=f_q)
    out = filters.apply_transfer(w, inverse)
    return out.with_samples(out.samples / _checked_gain(inverse.h_qubit, f_q))


def _checked_gain(gain, f01: float):
    """``gain``, the channel's |H| at f01, unless it is 0: nothing may divide by that."""
    if not gain > 0:
        raise UnifluxError(f"the channel passes nothing at f01 = {f01:.6g} GHz "
                           f"(|H| = {gain:.3g}): no drive reaches the qubit")
    return gain


def _net_carrier_gain(scenario, predistortion, f01, frequency_ghz) -> float:
    """|channel (and pre-distortion) response| at the drive frequency."""
    f = np.array([frequency_ghz])
    gain = _checked_gain(np.abs(scenario.channel.response(f))[0], frequency_ghz)
    if predistortion:
        inverse = filters.bounded_inverse(scenario.channel, f_q=f01)
        gain *= np.abs(inverse.response(f))[0] / _checked_gain(inverse.h_qubit, f01)
    return float(gain)


def _rwa_pi_amplitude(scenario, duration_ns, gain) -> float:
    """First-order pi amplitude: cosine-envelope area T/2 at the linear
    flux-per-volt slope of the line."""
    levels, phi_mat = _qubit_frame(scenario.qubit, scenario.levels)
    m01 = abs(phi_mat[0, 1])
    c = phase_drive_per_volt(scenario.line)
    return 1.0 / (scenario.qubit.e_l * m01 * c * duration_ns * gain)


# ---------------------------------------------------------------------------
# Rabi experiments and calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RabiCurve:
    """Excited-state population versus the drive amplitude."""

    grid: tuple
    populations: tuple


def rabi_experiment(scenario: DriveScenario, amplitudes, *, duration_ns: float = 20.0,
                    predistortion: bool = True,
                    drive_frequency_ghz: float | None = None) -> RabiCurve:
    """Excited-state population over a grid of drive amplitudes (volts).

    One ``duration_ns`` cosine pulse at ``drive_frequency_ghz`` (default
    f01), optionally pre-distorted, passes through the scenario channel once
    (`_prepare`); each grid point drives that shape at its amplitude and
    reads the final excited population. The grid must be non-empty.
    """
    grid = [float(a) for a in amplitudes]
    if not grid:
        raise ValueError("amplitude grid must be non-empty")
    f_d = drive_frequency_ghz
    if f_d is None:
        f_d = _qubit_frame(scenario.qubit, scenario.levels)[0][1]
    shape = _prepare(scenario, drive_pulse(scenario, 1.0, duration_ns, f_d, predistortion))
    pops = [float(_drive(shape, a).populations[-1, 1]) for a in grid]
    return RabiCurve(grid=tuple(grid), populations=tuple(pops))


def drive_pulse(scenario: DriveScenario, amplitude_v: float, duration_ns: float,
                frequency_ghz: float, predistortion: bool = True) -> Waveform:
    """One cosine pulse at the AWG, pre-distorted for the scenario channel when asked."""
    w = cosine_drive(duration_ns, amplitude_v, frequency_ghz)
    if predistortion:
        w = predistort_drive(w, scenario.channel,
                             _qubit_frame(scenario.qubit, scenario.levels)[0][1])
    return w


@dataclass(frozen=True)
class Calibration:
    """One propagated pulse: a calibration returns the last one it propagated.

    ``unitary`` is the drive-frame propagator (level 1 rotating at
    ``frequency_ghz``) of the pulse at ``amplitude_v``; ``theta`` and the
    signed ``n_z`` describe its {0,1} rotation, so the residuals are
    |theta - pi| and |n_z|. ``propagations`` counts the pulses propagated up
    to and including this one. The search starts at the RWA pi amplitude at
    f01, within 0.3 to 2.2 times it and [f01, f01 + 2.6 MHz (20 ns / T)^2 +
    0.4 MHz] for a T ns pulse (`_Rotations`).
    """

    amplitude_v: float
    frequency_ghz: float
    unitary: np.ndarray
    theta: float
    n_z: float
    propagations: int

    def __post_init__(self):
        self.unitary.setflags(write=False)


class _Rotations:
    """What a calibration starts from, and the rotation of one cosine pulse
    at any (amplitude, frequency) in its brackets.

    A pulse of at least 4 samples starts at the RWA pi amplitude at f01,
    whose peak must fit the AWG full scale. The brackets are 0.3 to 2.2
    times that start and [f01, f01 + 2.6 MHz (20 ns / duration)^2 + 0.4 MHz];
    a pulse outside either raises CalibrationError before it is propagated.
    Each unit-amplitude shape, f01's first, is prepared once and driven at
    each amplitude asked for; ``propagations`` counts the drives.
    """

    def __init__(self, scenario: DriveScenario, duration_ns: float, predistortion: bool):
        if duration_ns * DRIVE_SAMPLE_RATE < 4:
            raise ValueError("pulse duration must cover at least 4 samples")
        self.scenario, self.duration_ns, self.predistortion = scenario, duration_ns, predistortion
        f01 = _qubit_frame(scenario.qubit, scenario.levels)[0][1]
        gain = _net_carrier_gain(scenario, predistortion, f01, f01)
        self.start = _rwa_pi_amplitude(scenario, duration_ns, gain)
        self.amplitudes = (0.3 * self.start, 2.2 * self.start)
        self.frequencies = (f01, f01 + 2.6e-3 * (20.0 / duration_ns) ** 2 + 4e-4)
        self.propagations, self.last, self._frequency = 0, None, f01
        self._shape = _prepare(scenario, drive_pulse(scenario, 1.0, duration_ns, f01,
                                                     predistortion))
        peak, vmax = self.start * self._shape.peak, scenario.line.awg_vmax
        if peak > vmax * (1.0 + 1e-12):
            raise SaturationError(
                f"a pi pulse at f01 = {f01:.6g} GHz starts at a {peak:.3g} V peak, beyond the "
                f"AWG full scale {vmax} V: the line passes |H| = {gain:.2g} of it",
                peak=peak,
            )

    def __call__(self, amplitude: float, frequency: float) -> Calibration:
        """theta and n_z describe the {0,1} block, normalized to SU(2), with
        the lead and tail precession at the detuning divided out: one z
        rotation on each side, which keeps the root theta = pi, n_z = 0 and
        makes n_z close to linear in the drive frequency."""
        lo, hi = self.frequencies
        if not lo <= frequency <= hi:
            raise CalibrationError(
                f"no drive frequency in the bracket [{lo:.6g}, {hi:.6g}] GHz levels the "
                f"pi rotation's axis: n_z = {self.last.n_z:.3g} at "
                f"{self.last.frequency_ghz:.6g} GHz"
            )
        _check_bracket(amplitude, *self.amplitudes, "amplitude")
        scenario = self.scenario
        if frequency != self._frequency:
            self._frequency = frequency
            self._shape = _prepare(scenario, drive_pulse(
                scenario, 1.0, self.duration_ns, frequency, self.predistortion))
        self.propagations += 1
        frame = _qubit_frame(scenario.qubit, scenario.levels)[0].copy()
        detuning = frame[1] - frequency
        frame[1] = frequency
        total_ns = self._shape.duration_ns
        unitary = rotating_frame(_drive(self._shape, amplitude).final_unitary, frame, total_ns)
        u = np.exp(1j * np.pi * detuning * (total_ns - self.duration_ns))
        block = unitary[:2, :2] * np.array([[1.0, u], [u, u * u]])
        v = block / np.sqrt(np.linalg.det(block))
        theta = 2.0 * math.acos(min(1.0, max(-1.0, 0.5 * v.trace().real)))
        n_z = -(v[0, 0] - v[1, 1]).imag / (2.0 * math.sin(0.5 * theta))
        self.last = Calibration(float(amplitude), float(frequency), unitary, theta,
                                float(n_z), self.propagations)
        return self.last


def _secant(residual, x0: float, r0: float, x1: float, lo: float, hi: float,
            what: str) -> float:
    """Root of ``residual`` to 1e-10 by secant steps from (x0, r0) and x1.
    An iterate outside [lo, hi] or a step cap reached raises CalibrationError."""
    for _ in range(_SOLVE_STEPS):
        _check_bracket(x1, lo, hi, what)
        r1 = residual(x1)
        if abs(r1) < _SOLVE_TOL:
            return x1
        if r1 == r0:
            break
        x0, x1, r0 = x1, x1 - r1 * (x1 - x0) / (r1 - r0), r1
    raise CalibrationError(f"{what} solve did not converge in {_SOLVE_STEPS} steps")


def _check_bracket(x: float, lo: float, hi: float, what: str) -> None:
    if not lo <= x <= hi:
        raise CalibrationError(f"{what} solve left its bracket [{lo:.6g}, {hi:.6g}] at {x:.6g}")


def _maximize_transfer(tried, rotation) -> Calibration:
    """The pulse of largest P1 = 1 - |loss(a)|^2, by Newton steps on
    d|loss|^2/da from the last pulse tried. The loss's slope and curvature
    come from the quadratic through the last three amplitudes (a = 0, where
    loss is the ground state, counts as one). Where the curvature term would
    cut the second derivative below a quarter of its Gauss-Newton part it is
    dropped, and no step exceeds a fifth of the amplitude. It stops once a
    step falls below 1e-6 of the amplitude, which costs P1 less than 1e-11,
    and returns the last pulse propagated; no convergence raises
    CalibrationError."""

    def loss(pulse):  # the ground-state column without level 1: |loss|^2 = 1 - P1
        return np.delete(pulse.unitary[:, 0], 1)

    best = tried[-1]
    points = [(0.0, np.eye(len(loss(best)))[0])] + [(p.amplitude_v, loss(p)) for p in tried]
    for _ in range(_SOLVE_STEPS):
        (a1, r1), (a2, r2) = points[-2:]
        slope, curvature = (r2 - r1) / (a2 - a1), 0.0
        if len(points) > 2:
            a0, r0 = points[-3]
            curvature = 2.0 * (slope - (r1 - r0) / (a1 - a0)) / (a2 - a0)
            slope = slope + 0.5 * curvature * (a2 - a1)
        gauss_newton = np.vdot(slope, slope).real
        hessian = gauss_newton + np.vdot(r2, curvature).real
        if hessian < 0.25 * gauss_newton:
            hessian = gauss_newton
        step = -np.vdot(slope, r2).real / hessian
        if abs(step) < _AMPLITUDE_TOL * a2:
            return best
        best = rotation(a2 + max(-0.2 * a2, min(0.2 * a2, step)))
        points.append((best.amplitude_v, loss(best)))
    raise CalibrationError(f"amplitude solve did not converge in {_SOLVE_STEPS} steps")


def calibrate_pi(scenario: DriveScenario, duration_ns: float,
                 predistortion: bool = True) -> Calibration:
    """Pi pulse at f01: the amplitude (volts) of largest transfer P1, solved on
    the final unitary.

    First theta = 2 arccos(Re tr V / 2), with V the pulse's {0,1} block in the
    drive frame normalized by the root of its determinant, is solved to pi:
    from the start a (`_Rotations`), a step a * pi / theta and then secant
    steps reach |theta - pi| < 1e-10, usually in three propagations; since
    theta(0) = 0, that first step is the secant step from (0, -pi). P1 =
    sin^2(theta/2) (1 - n_z^2) peaks there only when the axis lies in the
    equator (n_z = 0); Newton steps on the propagator's ground-state column
    then move the amplitude to the P1 maximum, and cost no propagation when
    n_z is already 0. The pulse shape is filtered once; each amplitude tried
    only propagates it. An amplitude outside its bracket, or no convergence,
    raises CalibrationError.

    Returns the `Calibration` of the last amplitude propagated, with its
    drive-frame propagator, so the caller need not evolve the pulse again.
    """
    rotations = _Rotations(scenario, duration_ns, predistortion)
    f01 = rotations.frequencies[0]
    tried = []

    def excess(a):
        tried.append(rotations(a, f01))
        return tried[-1].theta - math.pi

    _secant(excess, 0.0, -math.pi, rotations.start, *rotations.amplitudes, "amplitude")
    return _maximize_transfer(tried, lambda a: rotations(a, f01))


def calibrate_drive_frequency(scenario: DriveScenario, duration_ns: float,
                              predistortion: bool = True) -> Calibration:
    """Pi pulse whose axis has no z tilt: amplitude and drive frequency
    solved together (Bloch-Siegert trim).

    The lab-frame drive shifts the resonance upward by an Omega^2-scale amount
    (~2.2 MHz for a 20 ns pi pulse at f01 = 224 MHz, falling as 1/duration^2).
    Broyden steps (Broyden, Math. Comp. 19, 577 (1965)) in the amplitude a
    and the frequency f, each scaled by its range, zero the rotation vector
    residual (theta sqrt(1 - n_z^2) - pi, theta n_z), which vanishes exactly
    at theta = pi, n_z = 0 and is close to linear in a and f. They stop at
    |theta - pi|, |n_z| < 1e-10, usually after seven propagations. With the
    axis in the equator, theta = pi is also the amplitude of largest P1.

    The first pulse is the start at f01, the low end of the frequency
    bracket (`_Rotations`). The Jacobian's amplitude column comes from that
    pulse, the rotation growing as a and the Bloch-Siegert tilt as a^2; its
    frequency column from a second pulse at a pi / theta and 0.7 of the way
    across the bracket, where the trim is expected. A frequency step out of
    the bracket raises CalibrationError saying that no frequency in it
    levels the axis, with the n_z at the last frequency propagated; an
    amplitude out of its bracket, or no convergence, raises it too.
    """
    rotations = _Rotations(scenario, duration_ns, predistortion)
    lo, hi = rotations.frequencies
    scale = np.array([rotations.start, hi - lo])

    def residual(point):
        in_plane = point.theta * math.sqrt(max(0.0, 1.0 - point.n_z ** 2))
        return np.array([in_plane - math.pi, point.theta * point.n_z])

    first = rotations(rotations.start, lo)
    r0 = residual(first)
    # 0.7 of the bracket, rounded as 0.7 (hi - lo) / (hi - lo): the trim depends on its last bit
    step = np.array([math.pi / first.theta - 1.0, 0.7 * (hi - lo) / (hi - lo)])
    x = np.array([rotations.start, lo]) + step * scale
    point = rotations(*x)
    r = residual(point)
    amplitude_column = np.array([r0[0] + math.pi, 2.0 * r0[1]])
    jacobian = np.column_stack([amplitude_column, (r - r0 - amplitude_column * step[0]) / step[1]])
    for _ in range(_SOLVE_STEPS):
        if max(abs(point.theta - math.pi), abs(point.n_z)) < _SOLVE_TOL:
            return point
        step = -np.linalg.solve(jacobian, r)
        x = x + step * scale
        point = rotations(*x)
        r_next = residual(point)
        jacobian += np.outer(r_next - r - jacobian @ step, step) / (step @ step)
        r = r_next
    raise CalibrationError(f"drive-frequency solve did not converge in {_SOLVE_STEPS} steps")


# ---------------------------------------------------------------------------
# gate fidelity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateMetrics:
    """Average fidelity on the {0,1} block, with leakage reported separately."""

    fidelity: float
    leakage: float


def _check_unitary(mat: np.ndarray, name: str) -> None:
    drift = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
    if drift > 1e-6:
        raise NumericalError(f"{name} matrix is non-unitary (drift {drift:.2e})")


def gate_fidelity(achieved: np.ndarray, target: np.ndarray) -> GateMetrics:
    """Two-level average gate fidelity F = (|Tr(U^dag V)|^2 + d) / (d(d+1)).

    ``achieved`` may span extra retained levels; the {0,1} block is compared
    and the probability it loses to the other levels is the leakage.
    """
    achieved = np.asarray(achieved, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if achieved.ndim != 2 or achieved.shape[0] != achieved.shape[1] or achieved.shape[0] < 2:
        raise ValueError("achieved must be a square matrix spanning the qubit subspace")
    if target.shape != (2, 2):
        raise ValueError("target must be a 2x2 unitary")
    _check_unitary(achieved, "achieved")
    _check_unitary(target, "target")
    block = achieved[:2, :2]
    absorbed = float(np.trace(block.conj().T @ block).real)
    # tr(B^dag B) <= (U^dag U)_00 + (U^dag U)_11 <= 2 (1 + drift), so the
    # leakage is >= -drift: rounding within the drift that _check_unitary caps
    # at 1e-6 (evolve at 1e-8). It is clamped at 0 rather than raised.
    leakage = max(1.0 - absorbed / 2.0, 0.0)
    # Cauchy-Schwarz: |Tr(B^dag V)|^2 <= Tr(B^dag B) Tr(V^dag V) <= 2 * 2 for a
    # block of a unitary; bounding the rounded overlap by it keeps F <= 1.
    overlap = min(abs(np.trace(block.conj().T @ target)) ** 2, 2.0 * min(absorbed, 2.0))
    fidelity = (overlap + 2.0) / 6.0
    return GateMetrics(fidelity=float(fidelity), leakage=leakage)


# ---------------------------------------------------------------------------
# Clifford table and randomized benchmarking
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _clifford_table() -> tuple:
    """(ops, matrix) for the 24 canonical {X_pi/2, virtual-Z} decompositions."""
    path = resources.files("uniflux").joinpath("data/clifford_table.json")
    entries = json.loads(path.read_text())
    table = []
    for entry in entries:
        ops = tuple(
            ("vz", int(op[1])) if op[0] == "vz" else ("x90",)
            for op in entry["ops"]
        )
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in entry["matrix"]]
        )
        mat.setflags(write=False)
        table.append((ops, mat))
    if len(table) != CLIFFORD_COUNT:
        raise UnifluxError(f"clifford table has {len(table)} entries, expected 24")
    return tuple(table)


def clifford_ops(index: int) -> tuple:
    return _clifford_table()[index][0]


def recovery_index(indices) -> int:
    """Index of the Clifford inverting the composition T of ``indices`` in order:
    the table entry C with |tr(C T)| = 2, where any other has |tr(C T)| <= sqrt(2)."""
    table = _clifford_table()
    total = np.eye(2, dtype=complex)
    for i in indices:
        total = table[i][1] @ total
    mats = np.array([mat for _, mat in table])
    return int(np.argmax(np.abs(np.einsum("kij,ji->k", mats, total))))


@dataclass(frozen=True)
class RbGate:
    """Physical X_pi/2 realization used when compiling RB programs."""

    duration_ns: float = 20.0
    amplitude_dac: float = 0.02
    drive_frequency_ghz: float | None = None  # None: the scenario's f01

    def __post_init__(self):
        if not self.duration_ns > 0:
            raise ValueError("duration_ns must be positive")
        if not 0 < abs(self.amplitude_dac) <= 1:
            raise ValueError("amplitude_dac must be within DAC full scale")


@dataclass(frozen=True)
class RbRecord:
    length: int
    seq_index: int
    survival: float


def build_rb_program(indices, gate: RbGate, sample_rate: float,
                     carrier_ghz: float) -> pulsec.PulseProgram:
    """Compile-ready program for one Clifford sequence (recovery included)."""
    primitive = pulsec.PulsePrimitive(
        id="x90",
        samples=tuple(pulsec.cosine_envelope(gate.duration_ns, sample_rate)),
        sample_rate=sample_rate,
        kind="envelope",
    )
    instructions = []
    for index in indices:
        for op in clifford_ops(index):
            if op[0] == "vz":
                instructions.append(
                    pulsec.VirtualZ(phase=VZ_EMISSION_SIGN * op[1] * math.pi / 2.0)
                )
            else:
                instructions.append(
                    pulsec.PlayXY("x90", amplitude=gate.amplitude_dac,
                                  phase_offset=X90_PHASE_OFFSET)
                )
    return pulsec.PulseProgram(
        instructions=tuple(instructions),
        primitives={"x90": primitive},
        initial_carrier=carrier_ghz,
    )


def _waveform_survival(scenario, program, config) -> float:
    compiled = pulsec.compile(program, config)
    synthesized = pulsec.synthesize(compiled, config)
    if len(synthesized) < 2:
        return 1.0  # virtual-Z-only sequence: no drive, ground state survives
    volts = synthesized.with_samples(synthesized.samples * scenario.line.awg_vmax)
    outcome = evolve(scenario, volts)
    return float(outcome.populations[-1, 0])


def run_rb(scenario: DriveScenario, lengths, sequences_per_length: int,
           seed: int, interleaved: int | None = None, *, mode: str = "ideal",
           depolarizing: float = 1.0, gate: RbGate | None = None) -> tuple:
    """Randomized benchmarking over the 24-element Clifford group: one
    `RbRecord` per (length, sequence index).

    ``mode="ideal"`` has perfect Cliffords, depolarizing of strength p after
    each random one, and exact interleaved and recovery Cliffords, so every
    sequence of length m survives with 0.5 + 0.5 p^m; ``seed``,
    ``interleaved`` and ``gate`` change nothing there. ``mode="waveform"``
    samples each sequence from the seed, inserts ``interleaved`` after each
    random Clifford, appends the recovery, and compiles, synthesizes (at
    DRIVE_SAMPLE_RATE) and evolves its program through the scenario.
    """
    lengths = [int(m) for m in lengths]
    if not lengths or any(m < 1 for m in lengths):
        raise ValueError("lengths must be a non-empty list of integers >= 1")
    if sequences_per_length < 1:
        raise ValueError("sequences_per_length must be >= 1")
    if interleaved is not None and not 0 <= interleaved < CLIFFORD_COUNT:
        raise ValueError("interleaved must be a Clifford index in [0, 24)")
    if mode not in ("ideal", "waveform"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 <= depolarizing <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    if mode == "ideal":
        return tuple(RbRecord(length, seq_index, 0.5 + 0.5 * depolarizing ** length)
                     for length in lengths for seq_index in range(sequences_per_length))

    gate = gate or RbGate()
    config = pulsec.SynthesisConfig(sample_rate=DRIVE_SAMPLE_RATE)
    levels, _ = _qubit_frame(scenario.qubit, scenario.levels)
    carrier = gate.drive_frequency_ghz if gate.drive_frequency_ghz is not None else levels[1]
    rng = np.random.default_rng(seed)
    records = []
    for length in lengths:
        for seq_index in range(sequences_per_length):
            applied = []
            for i in rng.integers(0, CLIFFORD_COUNT, size=length):
                applied.append(int(i))
                if interleaved is not None:
                    applied.append(interleaved)
            try:
                program = build_rb_program(applied + [recovery_index(applied)], gate,
                                           config.sample_rate, carrier)
                survival = _waveform_survival(scenario, program, config)
            except UnifluxError as exc:
                raise type(exc)(
                    f"sequence (length={length}, index={seq_index}): {exc}"
                ) from exc
            records.append(RbRecord(length=length, seq_index=seq_index, survival=survival))
    return tuple(records)


def rb_csv_text(records) -> str:
    """The `RbRecord`s as CSV text, `length,seq_index,survival` per row.

    Floats are rendered with repr so equal results are byte-equal.
    """
    lines = ["length,seq_index,survival"]
    for record in records:
        lines.append(f"{record.length},{record.seq_index},{record.survival!r}")
    return "\n".join(lines) + "\n"
