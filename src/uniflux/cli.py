"""Command-line front end over the library modules.

Subcommands: ``spectrum`` (circuit transition sweep), ``tradeoff``
(attenuation budget sweep), ``design`` (compensation-filter design files),
``compile`` (pulse-assembly program to DAC waveform), ``simulate``
(Rabi/gate/benchmarking scenarios), ``fit`` (decay and readout fits), and
``devices`` (the bundled benchmark-device registry).

Every subcommand is deterministic given identical inputs and seeds: no
timestamps, machine identifiers, or unordered containers reach the output.
Exit codes: 0 success, 2 usage error, 3 domain error (saturation, missing
solution, parse failure, unreadable input file), 4 numerical failure.
Output goes to ``-o PATH`` or stdout with ``-o -`` (the default where
omitted).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from importlib import resources

import numpy as np

from . import __version__, analysis, dynamics, filters, fluxonium, linebudget, pulsec
from .errors import ProgramParseError, UnifluxError

PROG = "uniflux"

# Worked-example circuit used as the default everywhere: a fluxonium with a
# 224 MHz half-flux splitting, driven through a 2 pH mutual and a 92 MHz
# Gaussian low-pass line.
REFERENCE_EJ_GHZ = 4.5
REFERENCE_EC_GHZ = 1.1
REFERENCE_EL_GHZ = 0.5
REFERENCE_FC_GHZ = 0.092
REFERENCE_LINE = linebudget.LineModel(
    mutual_inductance=2e-12,
    attenuation_db=-30.0,
    awg_noise_dbm_per_hz=-130.0,
    awg_vmax=0.5,
)


class _UsageError(Exception):
    """Post-parse command-line misuse; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# device registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DeviceRecord:
    """One row of the bundled benchmark-device registry.

    ``fidelity_pct`` is None for devices benchmarked without a reported
    fidelity; it is serialized as an explicit null, never a zero.
    """

    name: str
    f_q_mhz: float
    fidelity_pct: float | None
    gate_ns: float
    t1_us: float
    t2r_us: float
    t2echo_us: float

    def __post_init__(self):
        for field in ("gate_ns", "t1_us", "t2r_us", "t2echo_us"):
            if not getattr(self, field) > 0:
                raise ValueError(f"device {self.name!r}: {field} must be positive")
        if not self.f_q_mhz > 0:
            raise ValueError(f"device {self.name!r}: f_q_mhz must be positive")


def _device_table_bytes() -> bytes:
    return resources.files("uniflux").joinpath("data/devices.json").read_bytes()


def device_table_checksum() -> str:
    """sha256 of the bundled device-registry file, byte-exact."""
    return hashlib.sha256(_device_table_bytes()).hexdigest()


def load_devices() -> tuple[DeviceRecord, ...]:
    """The bundled device registry, validated (unique names, positive times)."""
    rows = json.loads(_device_table_bytes().decode())
    records = tuple(DeviceRecord(**row) for row in rows)
    names = [r.name for r in records]
    if len(set(names)) != len(names):
        raise ValueError("device registry has duplicate names")
    return records


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _write_text(target: str | None, text: str) -> None:
    if target in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)


def _csv_table(header: str, rows, footer_lines=()) -> str:
    lines = [header]
    lines.extend(rows)
    lines.extend(footer_lines)
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Repr-based cell formatting so equal values are byte-equal."""
    if math.isinf(value):
        return "unlimited"
    return repr(float(value))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _check_keys(obj: dict, valid: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in valid:
            raise _UsageError(
                f"unknown {where} key {key!r}; valid keys: {', '.join(sorted(valid))}"
            )


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = ("qubit", "line", "channel", "levels", "time_step_ns")
_QUBIT_KEYS = ("e_j", "e_c", "e_l", "phi_ext", "basis_size")
_LINE_KEYS = (
    "mutual_inductance",
    "attenuation_db",
    "awg_noise_dbm_per_hz",
    "awg_vmax",
    "line_impedance",
)
_CHANNEL_KEYS = ("kind", "f_c")


def _default_scenario() -> dynamics.DriveScenario:
    return dynamics.DriveScenario(
        qubit=fluxonium.FluxoniumParams(
            REFERENCE_EJ_GHZ, REFERENCE_EC_GHZ, REFERENCE_EL_GHZ
        ),
        line=REFERENCE_LINE,
        channel=filters.gaussian_lowpass(REFERENCE_FC_GHZ),
    )


def _load_scenario(path: str | None) -> dynamics.DriveScenario:
    """Build a drive scenario from a JSON file; absent sections use defaults."""
    base = _default_scenario()
    if path is None:
        return base
    raw = json.loads(open(path).read())
    if not isinstance(raw, dict):
        raise _UsageError("scenario file must hold a JSON object")
    _check_keys(raw, _SCENARIO_KEYS, "scenario")
    qubit, line, channel = base.qubit, base.line, base.channel
    if "qubit" in raw:
        _check_keys(raw["qubit"], _QUBIT_KEYS, "scenario qubit")
        qubit = fluxonium.FluxoniumParams(**raw["qubit"])
    if "line" in raw:
        _check_keys(raw["line"], _LINE_KEYS, "scenario line")
        line = linebudget.LineModel(**raw["line"])
    if "channel" in raw:
        spec_ = dict(raw["channel"])
        _check_keys(spec_, _CHANNEL_KEYS, "scenario channel")
        kind = spec_.pop("kind", "gaussian")
        if kind == "gaussian":
            channel = filters.gaussian_lowpass(spec_.get("f_c", REFERENCE_FC_GHZ))
        elif kind == "flat":
            _require("f_c" not in spec_, "flat channel takes no f_c")
            channel = filters.identity_response()
        else:
            raise _UsageError(
                f"unknown channel kind {kind!r}; valid kinds: flat, gaussian"
            )
    return dynamics.DriveScenario(
        qubit=qubit,
        line=line,
        channel=channel,
        levels=int(raw.get("levels", base.levels)),
        time_step=float(raw.get("time_step_ns", base.time_step)),
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    _require(args.points >= 1, "need at least one sweep point")
    _require(math.isfinite(args.start) and math.isfinite(args.stop),
             "--from and --to must be finite")
    _require(args.start <= args.stop, "--from must not exceed --to")
    _require(args.levels >= 2, "--levels must be at least 2")
    params = fluxonium.FluxoniumParams(
        args.ej, args.ec, args.el, basis_size=args.basis_size
    )
    grid = np.linspace(args.start, args.stop, args.points)
    rows = []
    freq_cols = ",".join(f"f0{k}_ghz" for k in range(1, args.levels))
    for flux, spec in fluxonium.spectrum_sweep(params, grid, n_levels=args.levels):
        m01 = fluxonium.phase_matrix(params, spec)[0, 1]
        cells = [_fmt(flux)]
        cells.extend(_fmt(spec.levels[k]) for k in range(1, args.levels))
        cells.append(_fmt(abs(m01)))
        rows.append(",".join(cells))
    _write_text(args.output, _csv_table(f"flux_phi0,{freq_cols},m01_abs", rows))
    return 0


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------


def _loglog_slope(alpha_db: np.ndarray, values: np.ndarray) -> float:
    """d log10(value) / d log10(amplitude transmission 10^(alpha/20))."""
    x = np.log10(np.power(10.0, alpha_db / 20.0))
    y = np.log10(values)
    return float((y[-1] - y[0]) / (x[-1] - x[0]))


def cmd_tradeoff(args) -> int:
    _require(args.points >= 1, "empty attenuation grid: need at least one point")
    _require(math.isfinite(args.alpha_from) and math.isfinite(args.alpha_to),
             "--alpha-from and --alpha-to must be finite")
    _require(args.alpha_from <= args.alpha_to, "--alpha-from must not exceed --alpha-to")
    params = fluxonium.FluxoniumParams(args.ej, args.ec, args.el)
    line = linebudget.LineModel(
        mutual_inductance=args.mutual,
        attenuation_db=args.alpha_from,
        awg_noise_dbm_per_hz=args.noise,
        awg_vmax=args.vmax,
        line_impedance=args.impedance,
    )
    grid = np.linspace(args.alpha_from, args.alpha_to, args.points)
    points = linebudget.tradeoff_sweep(params, line, grid)
    rows = [
        ",".join(
            (
                _fmt(p.attenuation_db),
                _fmt(p.rabi_mhz),
                _fmt(p.t1_line_us),
                _fmt(p.max_dc_excursion_phi0),
            )
        )
        for p in points
    ]
    footer = []
    if len(points) >= 2:
        alpha = np.array([p.attenuation_db for p in points])
        for label, values in (
            ("rabi_mhz", [p.rabi_mhz for p in points]),
            ("t1_line_us", [p.t1_line_us for p in points]),
            ("max_excursion_phi0", [p.max_dc_excursion_phi0 for p in points]),
        ):
            values = np.asarray(values)
            if np.all(np.isfinite(values)) and np.all(values > 0):
                footer.append(
                    f"# slope_{label}_vs_amplitude = {_loglog_slope(alpha, values)!r}"
                )
    _write_text(
        args.output,
        _csv_table(
            "alpha_db,rabi_mhz,t1_line_us,max_excursion_phi0", rows, footer
        ),
    )
    return 0


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def _parse_exponential(text: str) -> tuple[float, float]:
    try:
        amp_s, tau_s = text.split(":", 1)
        amp, tau = float(amp_s), float(tau_s)
    except ValueError:
        raise _UsageError(
            f"bad --exp {text!r}: expected AMPLITUDE:TAU_NS, e.g. -0.0174:34"
        ) from None
    _require(math.isfinite(amp), f"bad --exp {text!r}: amplitude must be finite")
    _require(0 < tau < math.inf, f"bad --exp {text!r}: tau must be positive and finite")
    return amp, tau


def _design_provenance(args) -> str:
    """A deterministic record of the invoking parameters."""
    parts = [f"{PROG} design {args.kind}"]
    for flag in ("fc", "fq", "gmax", "window_cutoff", "target", "taps", "rate"):
        value = getattr(args, flag, None)
        if value is not None:
            parts.append(f"--{flag.replace('_', '-')} {value}")
    for exp in args.exp or ():
        parts.append(f"--exp {exp}")
    return " ".join(parts)


def cmd_design(args) -> int:
    if args.kind in ("fir", "iir"):
        _require(args.rate is not None, f"design {args.kind} requires --rate")
        _require(0 < args.rate < math.inf, "--rate must be positive and finite")
    if args.kind == "gauss":
        obj = filters.gaussian_lowpass(args.fc)
    elif args.kind == "inverse":
        _require(args.fq is not None, "design inverse requires --fq")
        obj = filters.bounded_inverse(
            filters.gaussian_lowpass(args.fc),
            args.fq,
            g_max_db=args.gmax,
            window_cutoff=args.window_cutoff,
        )
    elif args.kind == "fir":
        if args.target == "inverse":
            _require(args.fq is not None, "design fir --target inverse requires --fq")
            target = filters.bounded_inverse(
                filters.gaussian_lowpass(args.fc),
                args.fq,
                g_max_db=args.gmax,
                window_cutoff=args.window_cutoff,
            )
        else:
            target = filters.gaussian_lowpass(args.fc)
        fir = filters.synthesize_fir(target, args.taps, args.rate)
        obj = filters.quantize_taps(fir) if args.quantize else fir
    else:  # iir
        _require(bool(args.exp), "design iir requires at least one --exp AMP:TAU_NS")
        exponentials = [_parse_exponential(e) for e in args.exp]
        obj = filters.design_iir_corrector(exponentials, args.rate)
    doc = filters.design_document(obj, provenance=_design_provenance(args))
    _write_text(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def _filter_from_design(path: str, expect: str):
    doc = json.loads(open(path).read())
    kind = doc.get("kind")
    if kind != expect:
        raise _UsageError(f"{path}: expected a {expect!r} design file, got {kind!r}")
    if kind == "fir":
        taps_int16 = doc["taps_int16"]
        return filters.FirFilter(
            np.asarray(doc["taps_float"], dtype=float),
            doc["sample_rate_gsps"],
            None if taps_int16 is None else np.asarray(taps_int16, dtype=np.int64),
        )
    sections = tuple(
        filters.IirSection(*coeffs) for coeffs in doc["parameters"]["sections"]
    )
    exponentials = tuple(
        tuple(pair) for pair in doc["parameters"]["source_exponentials"]
    )
    return filters.IirCorrector(sections, doc["sample_rate_gsps"], exponentials)


def cmd_compile(args) -> int:
    import pathlib

    _require(0 < args.rate < math.inf, "--rate must be positive and finite")
    _require(0 < args.full_scale < math.inf, "--full-scale must be positive and finite")
    source = pathlib.Path(args.program)
    try:
        text = source.read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read program {args.program}: {exc}") from None
    program = pulsec.parse_program(text, args.rate, base_dir=source.parent)
    config = pulsec.SynthesisConfig(
        sample_rate=args.rate,
        xy_fir=_filter_from_design(args.fir, "fir") if args.fir else None,
        z_iir=_filter_from_design(args.iir, "iir") if args.iir else None,
        dac_bits=args.dac_bits,
        dac_full_scale=args.full_scale,
    )
    compiled = pulsec.compile(program, config)
    wave = pulsec.synthesize(compiled, config)
    codes = pulsec.dac_quantize(wave, config)
    lines = []
    if args.output:
        meta = pulsec.dump_waveform_binary(args.output, codes, args.rate, args.dac_bits)
        lines.append(f"sha256 {meta['sha256']}")
        lines.append(f"samples {meta['length']}")
    else:
        digest = hashlib.sha256(codes.astype("<i2").tobytes()).hexdigest()
        lines.append(f"sha256 {digest}")
        lines.append(f"samples {len(codes)}")
    if args.report_memory:
        report = pulsec.memory_report(program, compiled)
        ratio = report["ratio"]
        lines.append(f"stored_ns {_fmt(report['stored_ns'])}")
        lines.append(f"sequence_ns {_fmt(report['sequence_ns'])}")
        lines.append(f"ratio {'none' if ratio is None else _fmt(ratio)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _simulate_rabi(args, scenario) -> int:
    _require(args.points >= 2, "rabi sweep needs at least two points")
    _require(args.amp_max > 0, "--amp-max must be positive")
    grid = np.linspace(0.0, args.amp_max, args.points)
    grid = grid[1:]  # zero drive is not a valid waveform amplitude
    curve = dynamics.rabi_experiment(
        scenario,
        amplitudes=grid,
        duration_ns=args.duration,
        predistortion=args.predistort,
        drive_frequency_ghz=args.frequency,
    )
    rows = [
        f"{_fmt(a)},{_fmt(p)}" for a, p in zip(curve.grid, curve.populations)
    ]
    state = "on" if args.predistort else "off"
    text = _csv_table("amplitude_v,p1", rows, (f"# predistortion: {state}",))
    _write_text(args.output, text)
    return 0


def _simulate_gate(args, scenario) -> int:
    f_d = None
    if args.trim_frequency:
        f_d = dynamics.calibrate_drive_frequency(
            scenario, args.duration, args.predistort
        )
    amplitude = dynamics.calibrate_pi(
        scenario, args.duration, args.predistort, drive_frequency_ghz=f_d
    )
    levels, _ = dynamics.qubit_frame(scenario)
    f01 = float(levels[1])
    drive_f = f_d if f_d is not None else f01
    wave = dynamics.cosine_drive(args.duration, amplitude, drive_f)
    if args.predistort:
        wave = dynamics.predistort_drive(wave, scenario.channel, f01)
    outcome = dynamics.evolve(scenario, wave)
    total_ns = len(wave.samples) / wave.sample_rate
    frame = levels.copy()
    frame[1] = drive_f  # report the gate in the frame rotating with the drive
    unitary = dynamics.rotating_frame(outcome.final_unitary, frame, total_ns)
    x_pi = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
    metrics = dynamics.gate_fidelity(unitary, x_pi)
    report = {
        "gate": "x_pi",
        "duration_ns": args.duration,
        "predistortion": bool(args.predistort),
        "drive_frequency_ghz": drive_f,
        "amplitude_v": amplitude,
        "population_transfer": float(outcome.populations[-1, 1]),
        "fidelity": metrics.fidelity,
        "leakage": metrics.leakage,
        "levels": scenario.levels,
    }
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    return 0


def _simulate_rb(args, scenario) -> int:
    try:
        lengths = [int(token) for token in args.lengths.split(",") if token]
    except ValueError:
        raise _UsageError(
            f"bad --lengths {args.lengths!r}: expected comma-separated integers"
        ) from None
    _require(bool(lengths), "--lengths must name at least one sequence length")
    gate = dynamics.RbGate(
        duration_ns=args.gate_duration,
        amplitude_dac=args.gate_amplitude,
        drive_frequency_ghz=args.gate_frequency,
    )
    result = dynamics.run_rb(
        scenario,
        lengths,
        args.sequences,
        args.seed,
        interleaved=args.interleaved,
        mode=args.mode,
        depolarizing=args.depolarizing,
        gate=gate,
    )
    _write_text(args.output, dynamics.rb_csv_text(result))
    return 0


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.experiment == "rabi":
        return _simulate_rabi(args, scenario)
    if args.experiment == "gate":
        return _simulate_gate(args, scenario)
    return _simulate_rb(args, scenario)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _load_rb_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names or ()
    if "length" not in names or "survival" not in names:
        raise _UsageError(
            f"{path}: expected CSV columns length,seq_index,survival"
        )
    lengths = np.atleast_1d(data["length"]).astype(int)
    survivals = np.atleast_1d(data["survival"]).astype(float)
    unique = np.unique(lengths)
    means = np.array([survivals[lengths == m].mean() for m in unique])
    return unique, means


def cmd_fit(args) -> int:
    try:
        if args.model == "t1":
            t, values = analysis.load_time_series(args.data)
            fit = analysis.fit_t1_double_exponential(t, values)
        elif args.model == "dephasing":
            _require(args.t1_us is not None, "fit dephasing requires --t1-us")
            t, values = analysis.load_time_series(args.data)
            fit = analysis.fit_dephasing_envelope(t, values, t1_de=args.t1_us)
        elif args.model == "rb":
            lengths, means = _load_rb_csv(args.data)
            fit = analysis.fit_rb_decay(lengths, means)
        else:  # reset
            samples = analysis.load_signal_samples(args.data)
            fit = analysis.estimate_reset_fidelity(
                samples, excited_component=args.excited_component
            )
    except ValueError as exc:
        raise ProgramParseError(f"{args.data}: {exc}") from exc
    _write_text(args.output, json.dumps(analysis.fit_report(fit), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------


def cmd_devices(args) -> int:
    records = load_devices()
    if args.format == "json":
        payload = [dataclasses.asdict(r) for r in records]
        _write_text(args.output, json.dumps(payload, indent=2) + "\n")
        return 0
    header = "name,f_q_mhz,fidelity_pct,gate_ns,t1_us,t2r_us,t2echo_us"
    rows = []
    for r in records:
        fidelity = "" if r.fidelity_pct is None else _fmt(r.fidelity_pct)
        rows.append(
            ",".join(
                (
                    r.name,
                    _fmt(r.f_q_mhz),
                    fidelity,
                    _fmt(r.gate_ns),
                    _fmt(r.t1_us),
                    _fmt(r.t2r_us),
                    _fmt(r.t2echo_us),
                )
            )
        )
    _write_text(args.output, _csv_table(header, rows))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output(p) -> None:
    p.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Single-line fluxonium flux-control toolkit.",
    )
    parser.add_argument(
        "--version", action="store_true", help="print the package version and exit"
    )
    parser.add_argument(
        "--provenance",
        action="store_true",
        help="with --version, also print the bundled device-table checksum",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("spectrum", help="sweep circuit transitions over flux")
    p.add_argument("--ej", type=float, default=REFERENCE_EJ_GHZ, help="E_J in GHz")
    p.add_argument("--ec", type=float, default=REFERENCE_EC_GHZ, help="E_C in GHz")
    p.add_argument("--el", type=float, default=REFERENCE_EL_GHZ, help="E_L in GHz")
    p.add_argument("--from", dest="start", type=float, default=0.0, metavar="PHI0")
    p.add_argument("--to", dest="stop", type=float, default=1.0, metavar="PHI0")
    p.add_argument("-n", "--points", type=int, default=101)
    p.add_argument("--levels", type=int, default=4, help="levels per flux point")
    p.add_argument(
        "--basis-size", type=int, default=fluxonium.DEFAULT_BASIS_SIZE
    )
    _add_output(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tradeoff", help="attenuation vs drive/coherence budget")
    p.add_argument("--alpha-from", type=float, default=-80.0, metavar="DB")
    p.add_argument("--alpha-to", type=float, default=-20.0, metavar="DB")
    p.add_argument("-n", "--points", type=int, default=61)
    p.add_argument("--mutual", type=float, default=2e-12, help="mutual inductance, H")
    p.add_argument("--noise", type=float, default=-130.0, help="source noise, dBm/Hz")
    p.add_argument("--vmax", type=float, default=0.5, help="source full scale, V")
    p.add_argument("--impedance", type=float, default=50.0, help="line impedance, ohm")
    p.add_argument("--ej", type=float, default=REFERENCE_EJ_GHZ)
    p.add_argument("--ec", type=float, default=REFERENCE_EC_GHZ)
    p.add_argument("--el", type=float, default=REFERENCE_EL_GHZ)
    _add_output(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("design", help="emit a compensation-filter design file")
    p.add_argument("kind", choices=("gauss", "inverse", "fir", "iir"))
    p.add_argument("--fc", type=float, default=REFERENCE_FC_GHZ, help="cutoff, GHz")
    p.add_argument("--fq", type=float, help="qubit frequency, GHz")
    p.add_argument("--gmax", type=float, default=50.0, help="inverse gain cap, dB")
    p.add_argument("--window-cutoff", type=float, default=1.0, metavar="GHZ")
    p.add_argument("--target", choices=("gauss", "inverse"), default="inverse")
    p.add_argument("--taps", type=int, default=16)
    p.add_argument("--rate", type=float, help="sample rate, GS/s")
    p.add_argument(
        "--exp",
        action="append",
        metavar="AMP:TAU_NS",
        help="settling term, repeatable (e.g. -0.0174:34)",
    )
    p.add_argument(
        "--quantize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="quantize FIR taps to int16",
    )
    _add_output(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("compile", help="compile a pulse-assembly program")
    p.add_argument("program", help="pulse-assembly text file")
    p.add_argument("--rate", type=float, required=True, help="sample rate, GS/s")
    p.add_argument("--fir", metavar="DESIGN_JSON", help="XY-path FIR design file")
    p.add_argument("--iir", metavar="DESIGN_JSON", help="Z-path corrector design file")
    p.add_argument("--dac-bits", type=int, default=16)
    p.add_argument("--full-scale", type=float, default=0.5, help="DAC full scale, V")
    p.add_argument("-o", "--output", help="waveform binary path (sidecar JSON added)")
    p.add_argument("--report-memory", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run a drive-scenario simulation")
    p.add_argument("experiment", choices=("rabi", "gate", "rb"))
    p.add_argument("--scenario", metavar="JSON", help="drive-scenario file")
    p.add_argument("--duration", type=float, default=20.0, help="pulse length, ns")
    p.add_argument(
        "--predistort",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="compensate the channel before the line",
    )
    p.add_argument("--frequency", type=float, help="drive frequency, GHz")
    p.add_argument("--amp-max", type=float, default=0.02, help="rabi sweep top, V")
    p.add_argument("--points", type=int, default=41, help="rabi sweep points")
    p.add_argument(
        "--trim-frequency",
        action="store_true",
        help="gate: calibrate the drive frequency, not just the amplitude",
    )
    p.add_argument(
        "--lengths",
        default="1,2,4,8,16,32,64,128,256",
        help="rb lengths, comma list",
    )
    p.add_argument("--sequences", type=int, default=2, help="rb sequences per length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("ideal", "waveform"), default="ideal")
    p.add_argument("--depolarizing", type=float, default=1.0, metavar="P")
    p.add_argument("--interleaved", type=int, help="interleave this table index")
    p.add_argument("--gate-duration", type=float, default=20.0, metavar="NS")
    p.add_argument("--gate-amplitude", type=float, default=0.02, metavar="DAC")
    p.add_argument("--gate-frequency", type=float, metavar="GHZ")
    _add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a decay or readout model to a CSV")
    p.add_argument("model", choices=("t1", "dephasing", "rb", "reset"))
    p.add_argument("data", help="input CSV")
    p.add_argument("--t1-us", type=float, help="energy-relaxation time for dephasing")
    p.add_argument(
        "--excited-component",
        choices=("upper", "lower"),
        default="upper",
        help="which mixture component is the excited state",
    )
    _add_output(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("devices", help="print the bundled device registry")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_output(p)
    p.set_defaults(func=cmd_devices)

    return parser


# Flags whose values argparse would misread as option strings when they
# lead with '-' but are not plain numbers: settling terms like -0.0174:34
# and noise floors like -inf.
_JOINED_VALUE_FLAGS = ("--exp", "--noise")


def _merge_awkward_values(argv: list[str]) -> list[str]:
    """Join `--flag VALUE` into `--flag=VALUE` for the flags above."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] in _JOINED_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_awkward_values(argv))
    if args.version or args.provenance:
        print(f"{PROG} {__version__}")
        if args.provenance:
            print(f"device-table sha256 {device_table_checksum()}")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print(f"{PROG}: error: a command is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except UnifluxError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
