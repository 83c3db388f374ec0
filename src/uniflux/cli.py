"""Command-line front end over the library modules.

Subcommands: ``spectrum`` (circuit transition sweep), ``tradeoff``
(attenuation budget sweep), ``design`` (compensation-filter design files),
``compile`` (pulse-assembly program to DAC waveform), ``simulate``
(Rabi/gate/benchmarking scenarios), ``fit`` (decay and readout fits), and
``devices`` (the bundled benchmark-device registry).

Every subcommand is deterministic given identical inputs and seeds: no
timestamps, machine identifiers, or unordered containers reach the output.
Output goes to ``-o PATH`` or stdout with ``-o -`` (the default where
omitted).

This module is the one input boundary: argparse checks each numeric option
where it reads it, and ``_read_input`` reads every input file. Exit codes:
0 success; 2 the command line is wrong; 3 an input file is wrong or a
domain error occurred; 4 a numerical failure. An error is one stderr line,
``uniflux: error: <message>``; for an input file it starts with the path.
A negative value works as ``--flag VALUE`` or ``--flag=VALUE``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from importlib import resources

import numpy as np

# Only what the parser and REFERENCE_LINE need loads with this module; each
# command imports the library modules it runs, and pays for no other.
from . import __version__, fluxonium, linebudget
from .errors import ProgramParseError, ScheduleError, UnifluxError

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


class _UsageError(UnifluxError):
    exit_code = 2  # a cross-option check failed: the command line is wrong


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as one line, without the usage block."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)  # one spelling per option

    def error(self, message):
        self.exit(2, f"{PROG}: error: {message}\n")


# ---------------------------------------------------------------------------
# device registry
# ---------------------------------------------------------------------------


def _device_table_bytes() -> bytes:
    return resources.files("uniflux").joinpath("data/devices.json").read_bytes()


def device_table_checksum() -> str:
    """sha256 of the bundled device-registry file, byte-exact."""
    return hashlib.sha256(_device_table_bytes()).hexdigest()


def load_devices() -> list[dict]:
    """The bundled device registry, one dict per row as the file holds it.
    ``fidelity_pct`` is None for a device benchmarked without a reported
    fidelity: an explicit null, never a zero."""
    return json.loads(_device_table_bytes().decode())


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
    """Repr-based cell formatting so equal values are byte-equal; an infinity
    reads inf. Only tradeoff's t1_line_us column writes "unlimited"."""
    return repr(float(value))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _read_input(path: str, parse, *args):
    """``parse(text, *args)`` of the input file at ``path``: every file the CLI
    reads comes through here. An unreadable file, or content that ``parse``
    rejects, exits 3 with one line that starts with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read(), *args)
    except (OSError, ValueError, TypeError, LookupError, ProgramParseError) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        if isinstance(exc, KeyError):
            reason = f"missing key {exc}"
        raise UnifluxError(f"{path}: {' '.join(reason.split())}") from None


def _check_keys(obj, valid: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in obj:
        if key not in valid:
            raise ValueError(
                f"unknown {where} key {key!r}; valid keys: {', '.join(sorted(valid))}"
            )


def _checked(convert, accept, rule: str):
    """An argparse ``type=``: ``convert(text)``, refused unless ``accept`` holds.
    Each numeric option is checked this way, where argparse reads it."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except (ValueError, ScheduleError):
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")

    return parse


_finite = _checked(float, math.isfinite, "finite")
_positive = _checked(float, lambda x: 0 < x < math.inf, "positive and finite")
_noise_floor = _checked(float, lambda x: x < math.inf, "finite or -inf")
_probability = _checked(float, lambda p: 0.0 <= p <= 1.0, "in [0, 1]")
_even_taps = _checked(int, lambda n: n >= 2 and n % 2 == 0, "an even integer >= 2")
_dac_amplitude = _checked(float, lambda a: 0 < abs(a) <= 1, "non-zero and within [-1, 1]")


def _drive_frequency(text: str) -> float:
    """A drive frequency in GHz: positive, and below the Nyquist frequency of
    the drive sampling, above which a drive pulse aliases."""
    from . import dynamics

    frequency, nyquist = _positive(text), 0.5 * dynamics.DRIVE_SAMPLE_RATE
    if not frequency < nyquist:
        raise argparse.ArgumentTypeError(
            f"must lie below {nyquist:g} GHz, the Nyquist frequency of the "
            f"{dynamics.DRIVE_SAMPLE_RATE:g} GS/s drive sampling, got {text!r}"
        )
    return frequency


def _int_in(lo: int, hi: float = math.inf):
    return _checked(int, lambda n: lo <= n <= hi, f"an integer in [{lo}, {hi}]")


def _pulse_ns(least: int):
    """A pulse length in ns: a whole number of at least ``least`` drive
    samples, by the compiler's sample-count rule, read as the length of
    those samples."""

    def parse(text: str) -> float:
        from . import dynamics, pulsec

        rate = dynamics.DRIVE_SAMPLE_RATE
        samples = _checked(
            lambda t: pulsec._sample_count(float(t), rate, "pulse"),
            lambda n: n >= least,
            f"a whole number of at least {least} samples at {rate:g} GS/s",
        )(text)
        return samples / rate

    return parse


def _dac_bits(text: str) -> int:
    """A DAC resolution within the bounds the compiler states."""
    from . import pulsec

    return _int_in(pulsec.MIN_DAC_BITS, pulsec.MAX_DAC_BITS)(text)


def _clifford_index(text: str) -> int:
    """An index into the Clifford table."""
    from . import dynamics

    return _int_in(0, dynamics.CLIFFORD_COUNT - 1)(text)


def _amp_tau(text: str) -> tuple[float, float, str]:
    amp, tau = text.split(":")
    return float(amp), float(tau), text  # the text goes to the design provenance


_exponential = _checked(
    _amp_tau,
    lambda e: math.isfinite(e[0]) and 0 < e[1] < math.inf,
    "AMPLITUDE:TAU_NS with a finite amplitude and a positive finite tau, e.g. -0.0174:34",
)
_lengths = _checked(
    lambda text: [int(token) for token in text.split(",")],
    lambda lengths: lengths and min(lengths) >= 1,
    "comma-separated integers >= 1",
)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = ("qubit", "line", "channel", "levels", "time_step_ns")
_CHANNEL_KEYS = ("kind", "f_c")


def _default_scenario() -> dynamics.DriveScenario:
    from . import dynamics, filters

    return dynamics.DriveScenario(
        qubit=fluxonium.FluxoniumParams(
            REFERENCE_EJ_GHZ, REFERENCE_EC_GHZ, REFERENCE_EL_GHZ
        ),
        line=REFERENCE_LINE,
        channel=filters.gaussian_lowpass(REFERENCE_FC_GHZ),
    )


def _number(value, where: str):
    """``value`` if it is a JSON number: an int or a float, not a bool."""
    if type(value) not in (int, float):
        raise ValueError(f"{where} must be a number, got {json.dumps(value)}")
    return value


def _section(raw: dict, key: str, cls):
    """``cls(**raw[key])``; an unknown key is refused with the valid ones, and
    a value that is not a number."""
    valid = tuple(field.name for field in dataclasses.fields(cls))
    _check_keys(raw[key], valid, f"scenario {key}")
    return cls(**{name: _number(value, f"scenario {key} {name}")
                  for name, value in raw[key].items()})


def _scenario_from_json(text: str) -> dynamics.DriveScenario:
    """A drive scenario from JSON text; absent sections keep the defaults.
    Every field but the channel's kind and ``levels`` must be a number."""
    from . import dynamics, filters

    base = _default_scenario()
    raw = json.loads(text)
    _check_keys(raw, _SCENARIO_KEYS, "scenario")
    qubit = _section(raw, "qubit", fluxonium.FluxoniumParams) if "qubit" in raw else base.qubit
    line = _section(raw, "line", linebudget.LineModel) if "line" in raw else base.line
    channel = base.channel
    if "channel" in raw:
        _check_keys(raw["channel"], _CHANNEL_KEYS, "scenario channel")
        spec_ = dict(raw["channel"])
        kind = spec_.pop("kind", "gaussian")
        for name, value in spec_.items():
            _number(value, f"scenario channel {name}")
        if kind == "gaussian":
            channel = filters.gaussian_lowpass(spec_.get("f_c", REFERENCE_FC_GHZ))
        elif kind == "flat":
            if "f_c" in spec_:
                raise ValueError("flat channel takes no f_c")
            channel = filters.FlatResponse()
        else:
            raise ValueError(
                f"unknown channel kind {kind!r}; valid kinds: flat, gaussian"
            )
    return dynamics.DriveScenario(
        qubit=qubit,
        line=line,
        channel=channel,
        levels=raw.get("levels", base.levels),
        time_step=float(_number(raw.get("time_step_ns", base.time_step),
                                "scenario time_step_ns")),
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    _require(args.start <= args.stop, "--from must not exceed --to")
    most = args.basis_size // fluxonium.BASIS_PER_LEVEL
    _require(args.levels <= most,
             f"--levels {args.levels} exceeds {most}, a third of --basis-size {args.basis_size}")
    params = fluxonium.FluxoniumParams(args.ej, args.ec, args.el, basis_size=args.basis_size)
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


def _loglog_slope(x: np.ndarray, values: np.ndarray) -> float:
    """d log10(value) / d x over the grid's ends, x the log10 amplitude."""
    y = np.log10(values)
    return float((y[-1] - y[0]) / (x[-1] - x[0]))


def cmd_tradeoff(args) -> int:
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
        ",".join((_fmt(p.attenuation_db), _fmt(p.rabi_mhz),
                  "unlimited" if p.t1_line_us == math.inf else _fmt(p.t1_line_us),
                  _fmt(p.max_dc_excursion_phi0)))
        for p in points
    ]
    footer = []
    alpha = np.array([p.attenuation_db for p in points])
    with np.errstate(divide="ignore"):  # a transmission that underflows to 0 has x = -inf
        x = np.log10(np.power(10.0, alpha / 20.0))  # log10 amplitude transmission
    if x[-1] != x[0]:  # one point, or a grid of equal amplitudes, has no slope
        for label, values in (
            ("rabi_mhz", [p.rabi_mhz for p in points]),
            ("t1_line_us", [p.t1_line_us for p in points]),
            ("max_excursion_phi0", [p.max_dc_excursion_phi0 for p in points]),
        ):
            values = np.asarray(values)
            if np.all(np.isfinite(values)) and np.all(values > 0):
                footer.append(
                    f"# slope_{label}_vs_amplitude = {_loglog_slope(x, values)!r}"
                )
    header = "alpha_db,rabi_mhz,t1_line_us,max_excursion_phi0"
    _write_text(args.output, _csv_table(header, rows, footer))
    return 0


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def _inverts(args) -> bool:
    """Whether the design is, or samples, the bounded inverse of the channel."""
    return args.kind == "inverse" or (args.kind == "fir" and args.target == "inverse")


def _design_provenance(args) -> str:
    """A deterministic record of the options the design kind reads."""
    flags = ["rate"] if args.kind == "iir" else ["fc"]
    if _inverts(args):
        flags += ["fq", "gmax", "window_cutoff"]
    if args.kind == "fir":
        flags += ["target", "taps", "rate"]
    parts = [f"{PROG} design {args.kind}"]
    parts += [f"--{flag.replace('_', '-')} {getattr(args, flag)}" for flag in flags]
    if args.kind == "fir" and not args.quantize:
        parts.append("--no-quantize")
    if args.kind == "iir":
        parts.extend(f"--exp {text}" for *_, text in args.exp)
    return " ".join(parts)


def cmd_design(args) -> int:
    from . import filters

    if args.kind in ("fir", "iir"):
        _require(args.rate is not None, f"design {args.kind} requires --rate")
    if args.kind == "iir":
        _require(bool(args.exp), "design iir requires at least one --exp AMP:TAU_NS")
        obj = filters.design_iir_corrector([(amp, tau) for amp, tau, _ in args.exp], args.rate)
    else:
        obj = filters.gaussian_lowpass(args.fc)
        if _inverts(args):
            _require(args.fq is not None, "an inverse design requires --fq")
            _require(
                args.kind != "fir" or args.rate > 2.0 * args.fq,
                f"--rate {args.rate} GS/s cannot represent the {args.fq} GHz band: "
                "it must exceed twice --fq",
            )
            obj = filters.bounded_inverse(
                obj, args.fq, g_max_db=args.gmax, window_cutoff=args.window_cutoff
            )
        if args.kind == "fir":
            obj = filters.synthesize_fir(obj, args.taps, args.rate)
            obj = filters.quantize_taps(obj) if args.quantize else obj
    doc = filters.design_document(obj, provenance=_design_provenance(args))
    _write_text(args.output, json.dumps(doc, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    import pathlib

    from . import filters, pulsec

    base_dir = pathlib.Path(args.program).parent
    program = _read_input(args.program, pulsec.parse_program, args.rate, base_dir)
    config = pulsec.SynthesisConfig(
        sample_rate=args.rate,
        xy_fir=_read_input(args.fir, filters.read_design, "fir") if args.fir else None,
        z_iir=_read_input(args.iir, filters.read_design, "iir") if args.iir else None,
        dac_bits=args.dac_bits,
    )
    compiled = pulsec.compile(program, config)
    codes = pulsec.dac_codes(compiled, config)
    if args.output:
        meta = pulsec.dump_waveform_binary(args.output, codes, args.rate, args.dac_bits)
        digest, length = meta["sha256"], meta["length"]
    else:
        _, digest, length = pulsec.dac_payload(codes)
    lines = [f"sha256 {digest}", f"samples {length}"]
    if args.report_memory:
        report = pulsec.memory_report(compiled)
        ratio = report["ratio"]
        lines.append(f"stored_ns {_fmt(report['stored_ns'])}")
        lines.append(f"sequence_ns {_fmt(report['sequence_ns'])}")
        lines.append(f"ratio {'none' if ratio is None else _fmt(ratio)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _scenario(args) -> dynamics.DriveScenario:
    """The drive scenario of the ``--scenario`` file, or the reference one."""
    if args.scenario is None:
        return _default_scenario()
    return _read_input(args.scenario, _scenario_from_json)


def _simulate_rabi(args) -> int:
    from . import dynamics

    scenario = _scenario(args)
    grid = np.linspace(0.0, args.amp_max, args.points)[1:]
    populations = dynamics.rabi_experiment(
        scenario,
        amplitudes=grid,
        duration_ns=args.duration,
        predistortion=args.predistort,
        drive_frequency_ghz=args.frequency,
    )
    rows = [f"{_fmt(a)},{_fmt(p)}" for a, p in zip(grid, populations)]
    state = "on" if args.predistort else "off"
    text = _csv_table("amplitude_v,p1", rows, (f"# predistortion: {state}",))
    _write_text(args.output, text)
    return 0


def _simulate_gate(args) -> int:
    from . import dynamics

    scenario = _scenario(args)
    if args.trim_frequency:
        pulse = dynamics.calibrate_drive_frequency(scenario, args.duration, args.predistort)
    else:
        pulse = dynamics.calibrate_pi(scenario, args.duration, args.predistort)
    unitary = pulse.unitary  # the drive-frame propagator the calibration ended on
    x_pi = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
    metrics = dynamics.gate_fidelity(unitary, x_pi)
    report = {
        "gate": "x_pi",
        "duration_ns": args.duration,
        "predistortion": bool(args.predistort),
        "drive_frequency_ghz": pulse.frequency_ghz,
        "amplitude_v": pulse.amplitude_v,
        # |U10|^2 <= (U^dag U)_00 <= 1 + drift: clamp the rounding at 1
        "population_transfer": min(float(abs(unitary[1, 0]) ** 2), 1.0),
        "fidelity": metrics.fidelity,
        "leakage": metrics.leakage,
        "levels": scenario.levels,
    }
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    return 0


_RB_COLUMNS = "length,seq_index,survival"  # what `simulate rb` writes and `fit rb` reads


def _simulate_rb(args) -> int:
    from . import dynamics

    scenario = _scenario(args)
    given = {
        "duration_ns": args.gate_duration,
        "amplitude_dac": args.gate_amplitude,
        "drive_frequency_ghz": args.gate_frequency,
    }  # an option left out keeps the RbGate default
    gate = dynamics.RbGate(**{name: v for name, v in given.items() if v is not None})
    records = dynamics.run_rb(
        scenario,
        args.lengths,
        args.sequences,
        args.seed,
        interleaved=args.interleaved,
        mode=args.mode,
        depolarizing=args.depolarizing,
        gate=gate,
    )
    rows = [f"{r.length},{r.seq_index},{_fmt(r.survival)}" for r in records]
    _write_text(args.output, _csv_table(_RB_COLUMNS, rows))
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _rb_means(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    from . import analysis

    names, body = analysis.load_csv(lines)
    if "length" not in names or "survival" not in names:
        raise ValueError(f"expected CSV columns {_RB_COLUMNS}")
    lengths = body[:, names.index("length")]
    if not (np.all(np.isfinite(lengths)) and np.all(lengths == np.round(lengths))):
        raise ValueError("lengths must be integers")
    survivals = body[:, names.index("survival")]
    unique = np.unique(lengths)
    means = np.array([survivals[lengths == m].mean() for m in unique])
    return unique, means


def _fit_csv(text: str, args):
    """The fit of ``args.model`` to CSV text."""
    from . import analysis

    lines = text.splitlines()
    if args.model == "rb":
        return analysis.fit_rb_decay(*_rb_means(lines))
    if args.model == "reset":
        return analysis.estimate_reset_fidelity(
            analysis.load_signal_samples(lines), excited_component=args.excited_component
        )
    t, values = analysis.load_time_series(lines)
    if args.model == "t1":
        return analysis.fit_t1_double_exponential(t, values)
    return analysis.fit_dephasing_envelope(t, values, t1_de=args.t1_us)


def cmd_fit(args) -> int:
    from . import analysis

    _require(args.model != "dephasing" or args.t1_us is not None,
             "fit dephasing requires --t1-us")
    fit = _read_input(args.data, _fit_csv, args)
    report = json.dumps(analysis.fit_report(fit), indent=2, allow_nan=False)
    _write_text(args.output, report + "\n")
    return 0


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------


def cmd_devices(args) -> int:
    records = load_devices()
    if args.format == "json":
        _write_text(args.output, json.dumps(records, indent=2) + "\n")
        return 0
    header = "name,f_q_mhz,fidelity_pct,gate_ns,t1_us,t2r_us,t2echo_us"
    rows = [
        ",".join([
            r["name"],
            *("" if r[key] is None else _fmt(r[key]) for key in header.split(",")[1:]),
        ])
        for r in records
    ]
    _write_text(args.output, _csv_table(header, rows))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output(p) -> None:
    p.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves no
    state on it, and argparse copies the list default of an ``append``."""
    parser = _Parser(
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
    p.add_argument("--ej", type=_finite, default=REFERENCE_EJ_GHZ, help="E_J in GHz")
    p.add_argument("--ec", type=_positive, default=REFERENCE_EC_GHZ, help="E_C in GHz")
    p.add_argument("--el", type=_positive, default=REFERENCE_EL_GHZ, help="E_L in GHz")
    p.add_argument("--from", dest="start", type=_finite, default=0.0, metavar="PHI0")
    p.add_argument("--to", dest="stop", type=_finite, default=1.0, metavar="PHI0")
    p.add_argument("-n", "--points", type=_int_in(1), default=101)
    p.add_argument("--levels", type=_int_in(2), default=4, help="levels per flux point")
    p.add_argument(
        "--basis-size",
        type=_int_in(fluxonium.MIN_BASIS_SIZE),
        default=fluxonium.DEFAULT_BASIS_SIZE,
        help="largest oscillator basis, the top rung each flux point may climb to; "
             "a spectrum it cannot converge exits 4",
    )
    _add_output(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tradeoff", help="attenuation vs drive/coherence budget")
    p.add_argument("--alpha-from", type=_finite, default=-80.0, metavar="DB")
    p.add_argument("--alpha-to", type=_finite, default=-20.0, metavar="DB")
    p.add_argument("-n", "--points", type=_int_in(1), default=61)
    p.add_argument("--mutual", type=_positive, default=REFERENCE_LINE.mutual_inductance,
                   help="mutual inductance, H")
    p.add_argument("--noise", type=_noise_floor, default=REFERENCE_LINE.awg_noise_dbm_per_hz,
                   help="source noise, dBm/Hz")
    p.add_argument("--vmax", type=_positive, default=REFERENCE_LINE.awg_vmax,
                   help="source full scale, V")
    p.add_argument("--impedance", type=_positive, default=REFERENCE_LINE.line_impedance,
                   help="line impedance, ohm")
    p.add_argument("--ej", type=_finite, default=REFERENCE_EJ_GHZ)
    p.add_argument("--ec", type=_positive, default=REFERENCE_EC_GHZ)
    p.add_argument("--el", type=_positive, default=REFERENCE_EL_GHZ)
    _add_output(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("design", help="emit a compensation-filter design file")
    p.add_argument("kind", choices=("gauss", "inverse", "fir", "iir"))
    p.add_argument("--fc", type=_positive, default=REFERENCE_FC_GHZ, help="cutoff, GHz")
    p.add_argument("--fq", type=_positive, help="qubit frequency, GHz")
    p.add_argument("--gmax", type=_positive, default=50.0, help="inverse gain cap, dB")
    p.add_argument("--window-cutoff", type=_positive, default=1.0, metavar="GHZ")
    p.add_argument("--target", choices=("gauss", "inverse"), default="inverse")
    p.add_argument("--taps", type=_even_taps, default=16)
    p.add_argument("--rate", type=_positive, help="sample rate, GS/s")
    p.add_argument(
        "--exp",
        type=_exponential,
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
    p.add_argument("--rate", type=_positive, required=True, help="sample rate, GS/s")
    p.add_argument("--fir", metavar="DESIGN_JSON", help="XY-path FIR design file")
    p.add_argument("--iir", metavar="DESIGN_JSON", help="Z-path corrector design file")
    p.add_argument("--dac-bits", type=_dac_bits, default=16)
    p.add_argument("-o", "--output", help="waveform binary path (sidecar JSON added)")
    p.add_argument("--report-memory", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run a drive-scenario simulation")
    experiments = p.add_subparsers(dest="experiment", metavar="EXPERIMENT", required=True)
    rabi = experiments.add_parser("rabi", help="excited population over a drive-amplitude sweep")
    gate = experiments.add_parser("gate", help="calibrate an X_pi pulse and report its fidelity")
    rb = experiments.add_parser("rb", help="randomized benchmarking over the Clifford group")
    for q, run in ((rabi, _simulate_rabi), (gate, _simulate_gate), (rb, _simulate_rb)):
        q.add_argument("--scenario", metavar="JSON", help="drive-scenario file")
        _add_output(q)
        q.set_defaults(func=run)
    for q, least in ((rabi, 2), (gate, 4)):
        q.add_argument("--duration", type=_pulse_ns(least), default=20.0, help="pulse length, ns")
        q.add_argument(
            "--predistort",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="compensate the channel before the line",
        )
    rabi.add_argument("--frequency", type=_drive_frequency, help="drive frequency, GHz")
    rabi.add_argument("--amp-max", type=_positive, default=0.02, help="sweep top, V")
    rabi.add_argument("--points", type=_int_in(2), default=41, help="sweep points")
    gate.add_argument(
        "--trim-frequency",
        action="store_true",
        help="first solve the drive frequency at which the pi rotation's axis "
        "lies in the equator (n_z = 0), where the amplitude of largest transfer "
        "is the pi rotation",
    )
    rb.add_argument(
        "--lengths",
        type=_lengths,
        default="1,2,4,8,16,32,64,128,256",
        help="sequence lengths, comma list",
    )
    rb.add_argument("--sequences", type=_int_in(1), default=2, help="sequences per length")
    rb.add_argument("--seed", type=_int_in(0), default=0)
    rb.add_argument("--mode", choices=("ideal", "waveform"), default="ideal")
    rb.add_argument("--depolarizing", type=_probability, default=1.0, metavar="P")
    rb.add_argument(
        "--interleaved",
        type=_clifford_index,
        help="interleave this table index",
    )
    rb.add_argument("--gate-duration", type=_pulse_ns(2), metavar="NS")
    rb.add_argument("--gate-amplitude", type=_dac_amplitude, metavar="DAC")
    rb.add_argument("--gate-frequency", type=_drive_frequency, metavar="GHZ")

    p = sub.add_parser("fit", help="fit a decay or readout model to a CSV")
    p.add_argument("model", choices=("t1", "dephasing", "rb", "reset"))
    p.add_argument("data", help="input CSV")
    p.add_argument("--t1-us", type=_positive, help="energy-relaxation time for dephasing")
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


def _typed_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Option strings of every option with a ``type=`` in ``parser`` and,
    recursively, in its sub-parsers."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _typed_flags(sub)
        elif action.type:
            flags.update(action.option_strings)
    return flags


def _join_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Join ``--flag VALUE`` into ``--flag=VALUE`` for every option with a
    ``type=``: argparse reads a value such as ``-1e-3``, ``-inf`` or
    ``-0.0174:34`` as an option string."""
    flags = _typed_flags(parser)
    out = []
    for token in argv:
        if out and out[-1] in flags:
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_join_values(parser, argv))
    if args.version or args.provenance:
        print(f"{PROG} {__version__}")
        if args.provenance:
            print(f"device-table sha256 {device_table_checksum()}")
        return 0
    if args.command is None:
        parser.error("a command is required")
    try:
        return args.func(args)
    except UnifluxError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError, MemoryError, OverflowError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
