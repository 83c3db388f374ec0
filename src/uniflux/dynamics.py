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
exponentials of a chunk of steps are a Chebyshev expansion in the drive,
built from a few exact exponentials at Chebyshev nodes and truncated at a
1e-16 tail bound (spectral propagation after Tal-Ezer and Kosloff, J. Chem.
Phys. 81, 3967 (1984)); the steps of a chunk are then evaluated and
multiplied pairwise, one cache-sized block of steps and one tree at a time,
into the final propagator U, which is all an outcome keeps of the
trajectory. Unitarity is not exact by construction:
the measured drift is about 1e-11 at 8e4 steps and about 1e-10 at 1e6
steps, and `evolve` raises past 1e-8.

On top of `evolve` sit the experiment layers: Rabi curves with and without
pre-distortion, pi-amplitude and drive-frequency calibration, average gate
fidelity with separate leakage accounting, and randomized benchmarking. Its
ideal mode is the closed-form depolarizing decay 0.5 + 0.5 p^m (Magesan,
Gambetta and Emerson, PRL 106, 180504 (2011)); its waveform mode compiles
every sampled Clifford sequence to a PulseProgram and evolves it.

Every drive reaches the channel through `_prepare`, the one place that
pre-distorts it, and plays inside _QUIET_NS = 40 ns of zeros on both sides:
`cosine_drive`'s margins, or the padding around an RB sequence. Pulse
lengths and margins become samples by the compiler's one rule,
`pulsec._sample_count`, so a pulse is calibrated at the length it plays.

Single-qubit Cliffords use the canonical {+/-X_pi/2, virtual-Z} decomposition
shipped as package data (ops plus matrices, 4 virtual-Z-only entries, 16 with
one physical pulse, 4 with two). Its composition and inverse tables are built
once, in one vectorized pass, and refused unless the 24 entries form a group;
RB reads each recovery Clifford off them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace as _dc_replace
from functools import lru_cache
from importlib import resources
from itertools import chain

import numpy as np

from . import filters, fluxonium, linebudget, pulsec
from .errors import CalibrationError, NumericalError, SaturationError, UnifluxError, _is_integer
from .waveform import Waveform

DEFAULT_LEVELS = 4
DEFAULT_TIME_STEP = 0.005  # ns; halving it moves final populations < 1e-7
DRIVE_SAMPLE_RATE = 1.0  # GS/s of every drive pulse and RB program
_QUIET_NS = 40.0  # ns of zeros on each side of every drive, so no pulse rings across its ends
CLIFFORD_COUNT = 24

# Program-emission conventions, fixed against the shipped Clifford matrices
# (see tests): a positive-amplitude resonant pulse at positive <0|phi|1>
# realizes exp(+i pi sigma_x / 4), so physical X_pi/2 instructions carry a
# pi phase offset; a VirtualZ(delta) instruction realizes diag(1, e^{-i
# delta}), so a table op ("vz", k) is emitted with phase -k pi/2.
X90_PHASE_OFFSET = math.pi
VZ_EMISSION_SIGN = -1.0

_CHUNK_STEPS = 65536  # steps per Chebyshev fit
_BLOCK_STEPS = 8192  # steps per evaluation and tree product
_CHEB_TAIL = 1e-16
_SOLVE_TOL = 1e-10  # |theta - pi| and |n_z| at a calibration root
_SOLVE_STEPS = 16  # iterations per Newton or Broyden solve
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
    """Final propagator of one closed-system simulation.

    ``final_unitary`` is the lab-frame propagator U on the retained
    subspace. ``populations`` is read off U: one row, the level populations
    of a ground-state start at the end, |U[:, 0]|^2 clipped at 1, so
    ``populations[-1, k]`` reads level k.
    """

    final_unitary: np.ndarray
    metadata: dict

    def __post_init__(self):
        self.final_unitary.setflags(write=False)

    @property
    def populations(self) -> np.ndarray:
        # They sum to (U^dag U)_00 <= 1 + drift, so none exceeds 1 by more
        # than the drift `_drive` checked; that rounding is clipped.
        return np.minimum(np.abs(self.final_unitary[None, :, 0]) ** 2, 1.0)


@lru_cache(maxsize=64)
def _qubit_frame(qubit: fluxonium.FluxoniumParams, levels: int):
    """(levels, phi, ||phi||_2), read-only: a drive at amplitude a grows the
    Chebyshev steps by 2 pi |a E_L| h times the norm times half its range."""
    lv, pm = fluxonium.eigenbasis_phase_matrix(qubit, levels)
    lv.setflags(write=False)
    pm.setflags(write=False)
    return lv, pm, float(np.linalg.norm(pm, 2))


def qubit_frame(scenario: DriveScenario) -> tuple[np.ndarray, np.ndarray]:
    """(eigenfrequencies relative to ground, phi-hat matrix) for the scenario."""
    lv, pm, _ = _qubit_frame(scenario.qubit, scenario.levels)
    return lv.copy(), pm.copy()


def phase_drive_per_volt(line: linebudget.LineModel) -> float:
    """At-qubit phase-drive amplitude (rad) per volt at the AWG output."""
    return linebudget.flux_drive_amplitude(line) / line.awg_vmax


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


def _chebyshev_fit(static, coupling, coupling_norm, h, lo, hi):
    """Chebyshev expansion of the step exponential over the drive range
    [lo, hi]: returns (coefficients as (d, d, K) planes, center, radius, K).

    The step is an entire function of the drive, so K exact exponentials
    (batched eigh) at the Chebyshev-Gauss nodes give the coefficient
    matrices, with K from `_node_count`. ``coupling_norm`` is ||coupling||_2.
    """
    dim = len(static)
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    count = _node_count(h * radius * coupling_norm)
    theta = np.pi * (np.arange(count) + 0.5) / count
    nodes = center + radius * np.cos(theta)
    vals, vecs = np.linalg.eigh(static + nodes[:, None, None] * coupling)
    exps = np.einsum("nij,nj,nkj->ikn", vecs, np.exp(-1j * vals * h), vecs.conj())
    basis = np.cos(np.outer(theta, np.arange(count)))  # T_m(node_j), [j, m]
    coeffs = (2.0 / count) * (exps.reshape(dim * dim, count) @ basis)
    coeffs[:, 0] *= 0.5
    return coeffs.reshape(dim, dim, count), center, radius, count


def _chebyshev_steps(fit, xs):
    """Step exponentials for the drives ``xs``, which lie in the range of the
    `_chebyshev_fit` ``fit``, as (d, d, N) planes: all N steps are one
    (d^2 x K)(K x N) product."""
    coeffs, center, radius, count = fit
    dim = coeffs.shape[0]
    coeffs = coeffs.reshape(dim * dim, count)
    cheb = np.empty((count, len(xs)))  # T_m(y_n) by the three-term recurrence
    cheb[0] = 1.0
    if count > 1:
        cheb[1] = (xs - center) / radius
    for m in range(2, count):
        cheb[m] = 2.0 * cheb[1] * cheb[m - 1] - cheb[m - 2]
    steps = np.empty((dim * dim, len(xs)), complex)
    steps.real = coeffs.real @ cheb  # two real GEMMs beat one complex-by-real
    steps.imag = coeffs.imag @ cheb
    return steps.reshape(dim, dim, len(xs))


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


def _propagate(levels: np.ndarray, phi_mat: np.ndarray, phi_norm: float, e_l: float,
               dphi_mid: np.ndarray, h: float):
    """Midpoint-exponential propagation; returns (U, the largest Chebyshev
    node count of any chunk); ``phi_norm`` is ||phi_mat||_2.

    Each chunk of at most _CHUNK_STEPS steps, in step order, gets one
    `_chebyshev_fit` over its drive range. Its steps are then evaluated
    (`_chebyshev_steps`) and multiplied (`_tree_product`) in blocks of at
    most _BLOCK_STEPS, which keep the planes a tree pairs in cache; U is
    the product of the block products, the last block's leftmost.
    """
    static = 2.0 * np.pi * np.diag(levels).astype(complex)
    coupling = 2.0 * np.pi * (-e_l) * phi_mat
    coupling_norm = 2.0 * np.pi * abs(e_l) * phi_norm
    unitary, nodes = np.eye(len(levels), dtype=complex), 1
    for start in range(0, len(dphi_mid), _CHUNK_STEPS):
        chunk = dphi_mid[start:start + _CHUNK_STEPS]
        fit = _chebyshev_fit(static, coupling, coupling_norm, h,
                             float(chunk.min()), float(chunk.max()))
        for block in range(0, len(chunk), _BLOCK_STEPS):
            steps = _chebyshev_steps(fit, chunk[block:block + _BLOCK_STEPS])
            unitary = _tree_product(steps) @ unitary
        nodes = max(nodes, fit[3])
    return unitary, nodes


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
    duration_ns: float
    steps_per_sample: int
    peak: float
    mids: np.ndarray
    fingerprint: str


def _prepare(scenario: DriveScenario, w: Waveform, predistortion: bool = False) -> _Shape:
    """The amplitude-free half of `evolve`: the compensation when asked
    (`predistort_drive` at f01, the one place a drive is compensated), the
    channel (`apply_transfer`, which checks the waveform), the step rules
    (at most 1/(20 f01), else `NumericalError`; a whole number k of steps
    per sample, else `ValueError`), the scaling to delta_phi,
    `_step_midpoints` and the scenario fingerprint. ``peak`` is that of the
    waveform the AWG plays, compensation included."""
    f01 = _qubit_frame(scenario.qubit, scenario.levels)[0][1]
    if predistortion:
        w = predistort_drive(w, scenario.channel, f01)
    filtered = filters.apply_transfer(w, scenario.channel)
    h, period = scenario.time_step, 1.0 / w.sample_rate
    if h > 1.0 / (20.0 * f01):
        raise NumericalError(
            f"time_step {h} ns violates the stability bound 1/(20 f01) = "
            f"{1.0 / (20.0 * f01):.4f} ns; use a smaller step"
        )
    k = max(1, int(round(period / h)))
    if abs(k * h - period) > 1e-9 * period:
        raise ValueError(
            f"time_step {h} ns does not divide the sample period {period} ns; "
            "resampling onto the step grid must be exact"
        )
    dphi = filtered.samples * phase_drive_per_volt(scenario.line)
    return _Shape(scenario, w.duration_ns, k, float(np.max(np.abs(w.samples))),
                  _step_midpoints(dphi, k), _scenario_fingerprint(scenario, w.sample_rate))


def _drive(shape: _Shape, amplitude: float) -> SimOutcome:
    """The per-amplitude half of `evolve`: ``amplitude`` times the prepared
    shape is checked against full scale, propagated, and checked for
    unitarity drift."""
    scenario = shape.scenario
    peak = abs(amplitude) * shape.peak
    if peak > scenario.line.awg_vmax * pulsec.FULL_SCALE:
        raise SaturationError(
            f"waveform peak {peak:.6g} V exceeds AWG full scale "
            f"{scenario.line.awg_vmax} V",
            peak=peak,
        )
    # The drive enters H only as E_L * delta_phi, so the amplitude scales
    # E_L rather than a copy of the midpoints.
    unitary, nodes = _propagate(
        *_qubit_frame(scenario.qubit, scenario.levels),
        amplitude * scenario.qubit.e_l, shape.mids, scenario.time_step,
    )

    drift = np.abs(unitary.conj().T @ unitary - np.eye(scenario.levels)).max()
    if not drift <= 1e-8:  # NaN fails closed
        raise NumericalError(
            f"propagator unitarity drift {drift:.2e} exceeds 1e-8; "
            "use a smaller time step"
        )
    meta = {
        "scenario_sha256": shape.fingerprint,
        "time_step_ns": scenario.time_step,
        "levels": scenario.levels,
        "steps": len(shape.mids),
        "unitarity_drift": float(drift),
        "chebyshev_nodes": nodes,
    }
    return SimOutcome(final_unitary=unitary, metadata=meta)


def evolve(scenario: DriveScenario, at_awg_waveform: Waveform) -> SimOutcome:
    """Integrate the drive Hamiltonian for one at-AWG voltage waveform.

    The waveform passes through the scenario channel (`apply_transfer`), is
    scaled to delta_phi(t), band-limit-resampled onto the time-step midpoints
    (`_step_midpoints`: one rfft, delayed half a step by a phase ramp and
    inverted on the n*k step grid), and propagated with midpoint
    exponentials. The outcome holds the final propagator U, off which it
    reads the final ground-start populations; no trajectory. That is two
    halves: `_prepare` does everything that does not depend on the
    amplitude, and `_drive` propagates one amplitude of it, here 1. The
    calibrations and Rabi scans prepare each pulse shape once and drive it
    at every amplitude they try.

    Each chunk of at most 65 536 steps takes exact exponentials only at K
    Chebyshev nodes over its drive range, with K the smallest count meeting
    a 1e-16 Bernstein-ellipse tail bound (K = 1 for a constant drive). Its
    steps are then evaluated, one matrix product per block of at most 8 192
    steps, and each block's steps are multiplied pairwise in a tree; U is
    the ordered product of the block products. The result agrees with a
    per-step exact-exponential integrator to about 1e-11. Unitarity drift,
    max |U^dag U - I|, is about 1e-11 at 8e4 steps and 1e-10 at 1e6 steps;
    a drift above 1e-8, or a NaN propagator, raises `NumericalError`. A
    population can exceed 1 only by the drift, and is clipped to 1.

    The metadata also carries ``chebyshev_nodes``, the largest K of any
    chunk.
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
                 *, lead_ns: float = _QUIET_NS, tail_ns: float = _QUIET_NS) -> Waveform:
    """Cosine-envelope pulse with quiet margins, sampled at DRIVE_SAMPLE_RATE.

    The carrier is cos(2 pi f t) on the global time axis, with t = 0 at the
    first lead sample, so the rotation axis seen in the f01 frame does not
    depend on where the pulse sits. ``duration_ns`` and both margins must
    each be a whole number of samples.
    """
    env = pulsec.cosine_envelope(duration_ns, DRIVE_SAMPLE_RATE)
    n_lead = pulsec._sample_count(lead_ns, DRIVE_SAMPLE_RATE, "lead")
    n_tail = pulsec._sample_count(tail_ns, DRIVE_SAMPLE_RATE, "tail")
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


def _check_sampled(frequency_ghz: float) -> None:
    """Refuse a drive frequency that DRIVE_SAMPLE_RATE cannot represent
    (a cosine carrier at -f is the one at f)."""
    nyquist = 0.5 * DRIVE_SAMPLE_RATE
    if not abs(frequency_ghz) < nyquist:
        raise UnifluxError(f"a drive at {frequency_ghz:.6g} GHz aliases at the "
                           f"{DRIVE_SAMPLE_RATE:g} GS/s drive sampling: drive frequencies "
                           f"must lie below {nyquist:g} GHz")


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
    phi_mat = _qubit_frame(scenario.qubit, scenario.levels)[1]
    m01 = abs(phi_mat[0, 1])
    c = phase_drive_per_volt(scenario.line)
    return 1.0 / (scenario.qubit.e_l * m01 * c * duration_ns * gain)


# ---------------------------------------------------------------------------
# Rabi experiments and calibration
# ---------------------------------------------------------------------------


def rabi_experiment(scenario: DriveScenario, amplitudes, *, duration_ns: float = 20.0,
                    predistortion: bool = True,
                    drive_frequency_ghz: float | None = None) -> tuple:
    """Excited-state population at each drive amplitude (volts), in order.

    One ``duration_ns`` cosine pulse at ``drive_frequency_ghz`` (default
    f01), pre-distorted when asked, passes through the scenario channel once
    (`_prepare`); each amplitude drives that shape and reads the final
    excited population. The amplitudes must be non-empty, and the drive
    frequency below the Nyquist frequency of DRIVE_SAMPLE_RATE, which is
    checked before the pulse is built.
    """
    amplitudes = [float(a) for a in amplitudes]
    if not amplitudes:
        raise ValueError("amplitude grid must be non-empty")
    f_d = drive_frequency_ghz
    if f_d is None:
        f_d = _qubit_frame(scenario.qubit, scenario.levels)[0][1]
    _check_sampled(f_d)
    shape = _prepare(scenario, cosine_drive(duration_ns, 1.0, f_d), predistortion)
    return tuple(float(_drive(shape, a).populations[-1, 1]) for a in amplitudes)


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
    A frequency bracket reaching the Nyquist frequency of DRIVE_SAMPLE_RATE
    is refused.
    Each unit-amplitude shape, f01's first, is prepared once and driven at
    each amplitude asked for; ``propagations`` counts the drives.
    """

    def __init__(self, scenario: DriveScenario, duration_ns: float, predistortion: bool):
        samples = pulsec._sample_count(duration_ns, DRIVE_SAMPLE_RATE, "pulse")
        if samples < 4:
            raise ValueError("pulse duration must cover at least 4 samples")
        duration_ns = samples / DRIVE_SAMPLE_RATE  # the pulse that plays
        self.scenario, self.duration_ns, self.predistortion = scenario, duration_ns, predistortion
        f01 = _qubit_frame(scenario.qubit, scenario.levels)[0][1]
        gain = _net_carrier_gain(scenario, predistortion, f01, f01)
        self.start = _rwa_pi_amplitude(scenario, duration_ns, gain)
        self.amplitudes = (0.3 * self.start, 2.2 * self.start)
        self.frequencies = (f01, f01 + 2.6e-3 * (20.0 / duration_ns) ** 2 + 4e-4)
        self.propagations, self.last, self._frequency = 0, None, f01
        self._shape = _prepare(scenario, cosine_drive(duration_ns, 1.0, f01), predistortion)
        peak, vmax = self.start * self._shape.peak, scenario.line.awg_vmax
        if peak > vmax * pulsec.FULL_SCALE:
            raise SaturationError(
                f"a pi pulse at f01 = {f01:.6g} GHz starts at a {peak:.3g} V peak, beyond the "
                f"AWG full scale {vmax} V: the line passes |H| = {gain:.2g} of it",
                peak=peak,
            )
        _check_sampled(self.frequencies[1])

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
            self._shape = _prepare(scenario, cosine_drive(self.duration_ns, 1.0, frequency),
                                   self.predistortion)
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


def _check_bracket(x: float, lo: float, hi: float, what: str) -> None:
    if not lo <= x <= hi:
        raise CalibrationError(f"{what} solve left its bracket [{lo:.6g}, {hi:.6g}] at {x:.6g}")


def _maximize_transfer(tried, rotation) -> Calibration:
    """The pulse of largest P1 = 1 - |loss(a)|^2, by Newton steps on
    d|loss|^2/da from the last pulse tried. The loss's slope and curvature
    come from the quadratic through the last three amplitudes (a = 0, where
    loss is the ground state, counts as one); with only two, from the line
    through them, with no curvature. Where the curvature term would cut the
    second derivative below a quarter of its Gauss-Newton part it is dropped,
    and no step exceeds a fifth of the amplitude. It stops once a step falls
    below 1e-6 of the amplitude, which costs P1 less than 1e-11, and returns
    the last pulse propagated; no convergence raises CalibrationError."""

    def loss(pulse):  # the ground-state column without level 1: |loss|^2 = 1 - P1
        return np.delete(pulse.unitary[:, 0], 1)

    best = tried[-1]
    points = [(0.0, np.eye(len(loss(best)))[0])] + [(p.amplitude_v, loss(p)) for p in tried]
    for _ in range(_SOLVE_STEPS):
        (a1, r1), (a2, r2) = points[-2:]
        slope, curvature = (r2 - r1) / (a2 - a1), np.zeros_like(r2)
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

    The pulse at the start a (`_Rotations`, the RWA pi amplitude) is
    propagated once; Newton steps on its propagator's ground-state column
    (`_maximize_transfer`, anchored at a = 0, where that column is the
    ground state) then move the amplitude to the P1 maximum. No theta = pi
    solve comes first: P1 = sin^2(theta/2) (1 - n_z^2) peaks at theta = pi
    only when the axis lies in the equator (n_z = 0), and the maximum is what
    the gate needs. It usually takes three propagations with pre-distortion
    and six or seven without, where the tilted axis moves the maximum far
    from theta = pi. The pulse shape is filtered once; each amplitude tried
    only propagates it. An amplitude outside its bracket, or no convergence,
    raises CalibrationError.

    Returns the `Calibration` of the last amplitude propagated, with its
    drive-frame propagator, so the caller need not evolve the pulse again.
    """
    rotations = _Rotations(scenario, duration_ns, predistortion)
    f01 = rotations.frequencies[0]
    return _maximize_transfer([rotations(rotations.start, f01)], lambda a: rotations(a, f01))


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
    return tuple(table)


def _composition_tables(mats: np.ndarray) -> tuple:
    """(compose, inverse, identity) of the group the 2x2 unitaries ``mats``
    form up to global phase: C_i C_j is entry compose[i][j], the one C with
    |tr(C^dag C_i C_j)| = 2, and compose[inverse[t]][t] is the identity.

    Raises UnifluxError unless each product matches exactly one entry (|tr|
    within 1e-9 of 2, every other entry at most sqrt(2) + 1e-9). Distinct
    entries closed under products form a group, so the identity (the one
    idempotent entry) and every inverse then exist.
    """
    products = np.einsum("iab,jbc->ijac", mats, mats)
    overlaps = np.abs(np.einsum("kab,ijab->ijk", mats.conj(), products))
    match = np.abs(overlaps - 2.0) <= 1e-9
    if (match.sum(axis=2) != 1).any() or (overlaps[~match] > math.sqrt(2.0) + 1e-9).any():
        raise UnifluxError("clifford table products do not each match exactly one entry")
    compose = match.argmax(axis=2)
    identity = int(np.argmax(compose.diagonal() == np.arange(len(mats))))
    return (tuple(map(tuple, compose.tolist())),
            tuple((compose == identity).argmax(axis=0).tolist()), identity)


@lru_cache(maxsize=1)
def _clifford_group() -> tuple:
    """(compose, inverse, identity) of the shipped table, checked once."""
    return _composition_tables(np.array([mat for _, mat in _clifford_table()]))


def recovery_index(indices) -> int:
    """Index of the Clifford inverting the composition of ``indices`` in order,
    folded through the composition table and read off the inverse table."""
    compose, inverse, total = _clifford_group()
    for i in indices:
        total = compose[i][total]
    return inverse[total]


@dataclass(frozen=True)
class RbGate:
    """Physical X_pi/2 realization used when compiling RB programs."""

    duration_ns: float = 20.0
    amplitude_dac: float = 0.02
    drive_frequency_ghz: float | None = None  # None: the scenario's f01

    def __post_init__(self):
        if not 0 < self.duration_ns < math.inf:
            raise ValueError("duration_ns must be positive and finite")
        if not 0 < abs(self.amplitude_dac) <= 1:
            raise ValueError("amplitude_dac must be within DAC full scale")
        if self.drive_frequency_ghz is not None and not math.isfinite(self.drive_frequency_ghz):
            raise ValueError("drive_frequency_ghz must be finite")


@dataclass(frozen=True)
class RbRecord:
    length: int
    seq_index: int
    survival: float


def build_rb_program(indices, gate: RbGate, sample_rate: float,
                     carrier_ghz: float) -> pulsec.PulseProgram:
    """Compile-ready program for one Clifford sequence (recovery included):
    the carrier, then one instruction block per Clifford, joined in order;
    every block plays the one shared PlayXY and emits its Clifford's
    VirtualZ's."""
    primitive = pulsec.PulsePrimitive(
        id="x90",
        samples=tuple(pulsec.cosine_envelope(gate.duration_ns, sample_rate)),
        sample_rate=sample_rate,
        kind="envelope",
    )
    play = pulsec.PlayXY("x90", amplitude=gate.amplitude_dac, phase_offset=X90_PHASE_OFFSET)
    blocks = [
        tuple(pulsec.VirtualZ(phase=VZ_EMISSION_SIGN * op[1] * math.pi / 2.0)
              if op[0] == "vz" else play for op in ops)
        for ops, _ in _clifford_table()
    ]
    return pulsec.PulseProgram(
        instructions=(pulsec.SetCarrier(carrier_ghz),
                      *chain.from_iterable(blocks[i] for i in indices)),
        primitives={"x90": primitive},
    )


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
    random Clifford, appends the recovery, and compiles and synthesizes its
    program (at DRIVE_SAMPLE_RATE, so the carrier must lie below its Nyquist
    frequency). The synthesized sequence, at full scale ``awg_vmax``, plays
    inside _QUIET_NS of zeros on both sides, as every drive does, and
    `evolve` reads its ground-state survival; a sequence of virtual Z's
    alone plays only the silence and survives exactly.
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
    levels = _qubit_frame(scenario.qubit, scenario.levels)[0]
    carrier = gate.drive_frequency_ghz if gate.drive_frequency_ghz is not None else levels[1]
    _check_sampled(carrier)
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
                played = pulsec.synthesize(pulsec.compile(program, config), config)
                quiet = pulsec._sample_count(_QUIET_NS, played.sample_rate, "quiet margin")
                volts = np.pad(played.samples * scenario.line.awg_vmax, quiet)
                survival = float(evolve(scenario, played.with_samples(volts)).populations[-1, 0])
            except UnifluxError as exc:
                raise type(exc)(
                    f"sequence (length={length}, index={seq_index}): {exc}"
                ) from exc
            records.append(RbRecord(length=length, seq_index=seq_index, survival=survival))
    return tuple(records)

