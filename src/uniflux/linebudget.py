"""Control-line budgets: drive reaching the qubit, Rabi rate, noise-limited T1.

All power spectral densities here are double-sided. This matters: the
line-noise relaxation rate is linear in S_VV, so a single/double-sided mixup
is a silent factor of two. The AWG noise floor P (W/Hz) converts as
S_VV = (1/2) P Z0, double-sided. Room-temperature Johnson noise,
S_VV = 2 k_B T Z0, is about 4e-19 V^2/Hz at 300 K and 50 ohm, nearly four
orders of magnitude under a -130 dBm/Hz floor, so the budget excludes it.

SI conversions happen only inside this module; inputs are GHz / Phi0 / dB
like everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fluxonium

PLANCK = 6.62607015e-34  # J s, SI 2019 exact
HBAR = PLANCK / (2.0 * math.pi)  # J s
PHI0 = 2.067833848e-15  # magnetic flux quantum, Wb


@dataclass(frozen=True)
class LineModel:
    """The shared flux line: coupling, impedance, attenuation, AWG limits.

    ``attenuation_db`` is the total voltage attenuation in dB (non-positive);
    the voltage transmission factor is alpha = 10**(attenuation_db/20).
    """

    mutual_inductance: float  # henry
    attenuation_db: float
    awg_noise_dbm_per_hz: float
    awg_vmax: float  # volt
    line_impedance: float = 50.0  # ohm

    def __post_init__(self):
        for name in ("mutual_inductance", "line_impedance", "awg_vmax"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not -math.inf < self.attenuation_db <= 0:
            raise ValueError("attenuation_db must be finite and <= 0 (it is an attenuation)")
        if not self.awg_noise_dbm_per_hz < math.inf:  # -inf is a silent AWG
            raise ValueError("awg_noise_dbm_per_hz must be finite or -inf")

    @property
    def alpha(self) -> float:
        """Voltage transmission factor, 10**(dB/20)."""
        return 10.0 ** (self.attenuation_db / 20.0)

    def replace(self, **kwargs) -> "LineModel":
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)


@dataclass(frozen=True)
class TradeoffPoint:
    """One attenuation setting: achievable drive versus noise-limited T1."""

    attenuation_db: float
    rabi_mhz: float
    t1_line_us: float
    max_dc_excursion_phi0: float


def flux_drive_amplitude(line: LineModel) -> float:
    """Phase-drive amplitude delta-phi (radians) reaching the qubit at full
    AWG scale.

    delta_phi = 2 pi M I_d / Phi0 with the at-fridge current
    I_d = alpha * awg_vmax / Z0.
    """
    current = line.alpha * line.awg_vmax / line.line_impedance
    return 2.0 * math.pi * line.mutual_inductance * current / PHI0


def rabi_frequency(e_l: float, dphi_amp: float, m01: float) -> float:
    """Rabi rate Omega_R / 2pi in MHz under the rotating-wave approximation.

    hbar Omega_R = E_L * delta_phi * |<0|phi|1>|, so with E_L as a frequency
    the rate is simply e_l (GHz) * dphi (rad) * m01, reported in MHz.
    """
    if e_l < 0 or dphi_amp < 0 or m01 < 0:
        raise ValueError("inputs must be non-negative")
    return e_l * dphi_amp * m01 * 1e3


def awg_noise_psd(noise_dbm_per_hz: float, z0: float) -> float:
    """Double-sided voltage PSD (V^2/Hz) of an AWG noise floor given in dBm/Hz."""
    if z0 < 0:
        raise ValueError("z0 must be non-negative")
    try:
        p_watt_per_hz = 10.0 ** ((noise_dbm_per_hz - 30.0) / 10.0)
    except OverflowError:  # a floor past the float range
        return math.inf if z0 else 0.0
    return 0.5 * p_watt_per_hz * z0


def t1_line_limit(e_l: float, m01: float, line: LineModel, s_vv: float) -> float:
    """Line-noise-limited T1 in microseconds.

    1/T1 = (1/hbar^2) (2 pi E_L M alpha / (Phi0 Z0))^2 |<0|phi|1>|^2 S_VV,
    evaluated in SI (E_L converted from GHz through h). ``s_vv`` is the
    double-sided PSD at the qubit transition frequency, referenced to the AWG
    output. A zero PSD returns math.inf, as does a rate that underflows to
    0; the CLI's t1_line_us column spells that "unlimited", the one cell that
    does, where every other infinite cell reads inf. A rate past the float
    range returns 0.0.

    Derivation, following Krantz et al., Appl. Phys. Rev. 6, 021318 (2019),
    Sec. III:

    1. Noise source. A floor of P dBm/Hz is the one-sided power per unit
       bandwidth delivered into the matched line, P_W = 10**((P - 30)/10)
       W/Hz. Across Z0 that is a one-sided voltage PSD P_W Z0, so the
       double-sided PSD is S_VV = P_W Z0 / 2 (``awg_noise_psd``).
    2. Coupling. A terminal voltage v at the AWG drives the at-fridge current
       I = alpha v / Z0 (the same current as ``flux_drive_amplitude``), which
       shifts the external phase by 2 pi M I / Phi0. The inductive term
       E_L (phi - phi_ext)^2 / 2 then gives
       dH/dv = -(2 pi E_L M alpha / (Phi0 Z0)) phi.
    3. Rate. Fermi's golden rule with the double-sided PSD at +omega_01
       gives the downward rate
       Gamma_down = (1/hbar^2) |<0|dH/dv|1>|^2 S_VV(omega_01),
       which is the formula above. T1_line is 1/Gamma_down as coded; the
       equal upward rate of classical (symmetric) noise is not added, and
       adding it would halve T1_line.
    4. Scaling. The rate is proportional to alpha^2, so T1_line scales as
       alpha**-2: 10 dB more attenuation gives 10x longer T1_line.
    5. Reference budget (2 pH mutual, -130 dBm/Hz floor, 50 ohm, E_L = 0.5
       GHz, |<0|phi|1>| = 2.644): S_VV = 2.5e-15 V^2/Hz and T1_line =
       39.26 us at -50 dB, so T1_line reaches 100 us at
       -50 + 10 log10(39.26 / 100) = -54.06 dB and beyond.
    """
    if s_vv < 0:
        raise ValueError("s_vv must be non-negative")
    if m01 <= 0:
        raise ValueError("m01 must be positive")
    if s_vv == 0.0:
        return math.inf
    e_l_si = e_l * 1e9 * PLANCK
    coupling = (
        2.0 * math.pi * e_l_si * line.mutual_inductance * line.alpha
        / (PHI0 * line.line_impedance)
    )
    try:
        gain = (coupling / HBAR) ** 2 * m01**2
    except OverflowError:  # the rate is past the float range
        return 0.0
    rate = gain * s_vv if gain else 0.0  # 1/s; no coupling carries no noise
    return 1e6 / rate if rate else math.inf


def max_dc_excursion(line: LineModel) -> float:
    """Largest quasi-dc flux excursion (Phi0) at full AWG scale."""
    return flux_drive_amplitude(line) / (2.0 * math.pi)


def tradeoff_sweep(
    params: fluxonium.FluxoniumParams,
    line_template: LineModel,
    attenuation_db_grid,
) -> list[TradeoffPoint]:
    """Rabi rate, T1 limit, and dc excursion across an attenuation grid.

    |<0|phi|1>| comes from a 2-level solve of the fluxonium module at
    ``params``; the drive amplitude assumes the full AWG scale at every
    attenuation. The line noise is the AWG floor alone: it dominates
    room-temperature Johnson noise by nearly four orders of magnitude, so
    Johnson noise is excluded.
    """
    grid = [float(a) for a in attenuation_db_grid]
    if not grid:
        raise ValueError("attenuation grid must be non-empty")
    m01 = fluxonium.phase_matrix_element(params, 0, 1, n_levels=2)
    s_vv = awg_noise_psd(line_template.awg_noise_dbm_per_hz, line_template.line_impedance)
    points = []
    for db in grid:
        line = line_template.replace(attenuation_db=db)
        dphi = flux_drive_amplitude(line)
        points.append(
            TradeoffPoint(
                attenuation_db=db,
                rabi_mhz=rabi_frequency(params.e_l, dphi, m01),
                t1_line_us=t1_line_limit(params.e_l, m01, line, s_vv),
                max_dc_excursion_phi0=max_dc_excursion(line),
            )
        )
    return points
