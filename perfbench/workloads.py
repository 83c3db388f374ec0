"""Seeded inputs, operations and output checks of the four workloads.

Every op is built from ``numpy.random.default_rng([seed, workload id,
stream, index])``, so the same seed gives the same inputs. Inputs are written
as ordinary files (scenario JSON, `.pulse` programs, CSVs) with `fmt`, the
harness's own float formatter; uniflux sees only those files and its argv.

Each workload is a fixed rotation of op slots. A slot fixes what sets an op's
cost (command, grid size, levels, time step, sequence length); the seed draws
the rest (circuit, flux range, channel, amplitudes, data). Every op that
simulates a circuit draws a fresh one, so no op reuses another's cached
qubit frame.

Checks run after the timed phase. Each check recomputes what it needs by a
route independent of the code under test: the phase-grid oracle in
`tests/oracles.py`, a re-evolution at half the time step, sums the generator
made itself, or the parameters the generator drew. `corrupt` damages one op's
output so the self-check can show that each check rejects it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pathlib
from functools import partial
from typing import Callable

import numpy as np

# sha256 of `compile tests/data/example_program.pulse --rate 2 -o PATH`.
EXAMPLE_SHA256 = "97db94a6aaaa937e7399525fab9974fb02d5dbf4f2bb874836f66826c2f9f268"
SPECTRUM_REL_TOL = 1e-4  # acceptance criterion 01
GATE_HALF_STEP_TOL = 1e-3
RATE = 2.0  # GS/s of the compile workload


class CheckFailed(Exception):
    """An op's output disagrees with its independent check."""


class OpFailed(Exception):
    """The command exited nonzero."""


def fmt(x) -> str:
    return repr(float(x))


@dataclasses.dataclass
class Op:
    index: int
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    corrupt: Callable[[object], object]
    argv: list | None = None  # CLI ops only
    rows: int = 0  # spectrum rows the op emits


class Context:
    """Imported uniflux modules, the oracles, and the run's scratch directory."""

    def __init__(self, modules, oracles, workdir: pathlib.Path, example_program: pathlib.Path):
        self.m = modules
        self.oracles = oracles
        self.workdir = workdir
        self.example_program = example_program

    def path(self, stream, index, name) -> str:
        return str(self.workdir / f"{stream}-{index}-{name}")

    def cli(self, argv):
        """Run ``cli.main(argv)`` in-process; return its stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.m.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects usage this way
                rc = exc.code
        if rc != 0:
            raise OpFailed(f"exit {rc}: {err.getvalue().strip()[-300:]}")
        return out.getvalue()


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(got, want, rel, what):
    got, want = float(got), float(want)
    _require(abs(got - want) <= rel * abs(want), f"{what}: got {got!r}, want {want!r} within rel {rel}")


def _allclose(got, want, rtol, atol, what):
    worst = int(np.argmax(np.abs(got - want) - rtol * np.abs(want)))
    _require(
        np.allclose(got, want, rtol=rtol, atol=atol),
        f"{what}: element {worst} is {float(got[worst])!r}, want {float(want[worst])!r}",
    )


def _read_csv(path):
    lines = pathlib.Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    return header, np.array(rows)


def _write_csv(path, header, rows):
    text = "\n".join([",".join(header)] + [",".join(fmt(c) for c in row) for row in rows])
    pathlib.Path(path).write_text(text + "\n")


def _edit_json(path, edit):
    doc = json.loads(pathlib.Path(path).read_text())
    edit(doc)
    pathlib.Path(path).write_text(json.dumps(doc))


def _flip_byte(path):
    data = bytearray(pathlib.Path(path).read_bytes())
    data[len(data) // 2] ^= 0x01
    pathlib.Path(path).write_bytes(bytes(data))


def _cli_op(ctx, index, kind, argv, check, corrupt, rows=0):
    return Op(index, kind, lambda: ctx.cli(argv), check, corrupt, argv=argv, rows=rows)


# ---------------------------------------------------------------------------
# flux_sweep: spectra, tradeoffs and reset-flux searches on random circuits
# ---------------------------------------------------------------------------


def _circuit(rng):
    """Criterion-01 ranges, GHz."""
    return rng.uniform(2.0, 9.0), rng.uniform(0.6, 2.0), rng.uniform(0.3, 1.8)


def _spectrum(ctx, rng, stream, index, points, levels, lo, hi):
    ej, ec, el = _circuit(rng)
    start = rng.uniform(lo, hi - 0.1)
    stop = rng.uniform(start + 0.05, hi)
    out = ctx.path(stream, index, "spectrum.csv")
    argv = [
        "spectrum", "--ej", fmt(ej), "--ec", fmt(ec), "--el", fmt(el),
        "--from", fmt(start), "--to", fmt(stop), "-n", str(points),
        "--levels", str(levels), "-o", out,
    ]
    sampled = sorted(rng.choice(points, size=min(3, points), replace=False))

    def check(_):
        header, rows = _read_csv(out)
        _require(len(rows) == points, f"{len(rows)} rows, want {points}")
        _allclose(rows[:, 0], np.linspace(start, stop, points), 0.0, 1e-15, "flux grid")
        for r in sampled:
            flux = float(rows[r, 0])
            ref, element = ctx.oracles.phase_grid_spectrum(ej, ec, el, flux, n_levels=levels)
            for k in range(1, levels):
                _close(rows[r, k], ref[k], SPECTRUM_REL_TOL, f"f0{k} at flux {flux!r}")
            _close(rows[r, levels], abs(element(0, 1)), SPECTRUM_REL_TOL, f"m01 at flux {flux!r}")

    def corrupt(result):
        header, rows = _read_csv(out)
        rows[:, 1] *= 1.0 + 1e-3
        _write_csv(out, header, rows)
        return result

    return _cli_op(ctx, index, "spectrum", argv, check, corrupt, rows=points)


def _tradeoff(ctx, rng, stream, index):
    ej, ec, el = _circuit(rng)
    lo = rng.uniform(-90.0, -70.0)
    hi = rng.uniform(-30.0, -15.0)
    points = 61
    out = ctx.path(stream, index, "tradeoff.csv")
    argv = [
        "tradeoff", "--ej", fmt(ej), "--ec", fmt(ec), "--el", fmt(el),
        "--alpha-from", fmt(lo), "--alpha-to", fmt(hi), "-n", str(points),
        "--mutual", fmt(rng.uniform(1e-12, 3e-12)), "--noise", fmt(rng.uniform(-140.0, -125.0)),
        "-o", out,
    ]

    def check(_):
        header, rows = _read_csv(out)
        _require(len(rows) == points, f"{len(rows)} rows, want {points}")
        _allclose(rows[:, 0], np.linspace(lo, hi, points), 0.0, 1e-12, "attenuation grid")
        # Drive rate and excursion scale as the amplitude transmission, the
        # line-noise T1 as its inverse square; each column's ratio to the
        # first row must follow exactly.
        gain = 10.0 ** ((rows[:, 0] - rows[0, 0]) / 20.0)
        for col, power in ((1, 1.0), (2, -2.0), (3, 1.0)):
            _allclose(rows[:, col] / rows[0, col], gain**power, 1e-9, 0.0, header[col])

    def corrupt(result):
        header, rows = _read_csv(out)
        rows[-1, 2] *= 1.01
        _write_csv(out, header, rows)
        return result

    return _cli_op(ctx, index, "tradeoff", argv, check, corrupt)


def _reset(ctx, rng, stream, index):
    ej, ec, el = _circuit(rng)
    # The target is the oracle's f01 at a drawn flux, so it lies in the band.
    flux_star = rng.uniform(0.25, 0.45)
    target = float(ctx.oracles.phase_grid_spectrum(ej, ec, el, flux_star, n_levels=2)[0][1])

    def run():
        params = ctx.m.fluxonium.FluxoniumParams(ej, ec, el)
        return ctx.m.fluxonium.find_reset_flux(params, target, scan_points=48)

    def check(result):
        _require(0.0 < result.flux_phi0 <= 0.5, f"reset flux {result.flux_phi0!r} outside (0, 0.5]")
        _close(result.excursion_phi0, 0.5 - result.flux_phi0, 1e-12, "excursion")
        f01 = ctx.oracles.phase_grid_spectrum(ej, ec, el, result.flux_phi0, n_levels=2)[0][1]
        _close(f01, target, SPECTRUM_REL_TOL, f"oracle f01 at reset flux {result.flux_phi0!r}")

    def corrupt(result):
        flux = result.flux_phi0 - 2e-3
        return dataclasses.replace(result, flux_phi0=flux, excursion_phi0=0.5 - flux)

    return Op(index, "reset", run, check, corrupt)


# Two equal-cost spectra and two reset searches per rotation: the median falls
# inside the spectrum group and the tail inside the reset group.
FLUX_SWEEP = (
    partial(_spectrum, points=21, levels=3, lo=0.0, hi=0.5),
    _tradeoff,
    _reset,
    partial(_spectrum, points=21, levels=4, lo=0.5, hi=1.0),
    _reset,
)


# ---------------------------------------------------------------------------
# gate_calibration: pi-pulse and drive-frequency searches, Rabi scans
# ---------------------------------------------------------------------------


def _scenario(ctx, rng, stream, index, levels, time_step):
    """A drive scenario near the reference qubit.

    Channel cutoffs below 0.095 GHz push the pre-distorted pi pulse of some
    nearby circuits past the AWG full scale, so the draw stays above it.
    """
    doc = {
        "qubit": {
            "e_j": float(4.5 * rng.uniform(0.97, 1.03)),
            "e_c": float(1.1 * rng.uniform(0.97, 1.03)),
            "e_l": float(0.5 * rng.uniform(0.97, 1.03)),
        },
        "channel": {"kind": "gaussian", "f_c": float(rng.uniform(0.095, 0.12))},
        "levels": levels,
        "time_step_ns": float(time_step),
    }
    path = ctx.path(stream, index, "scenario.json")
    pathlib.Path(path).write_text(json.dumps(doc))
    return path, doc


def _half_step_population(ctx, doc, amplitude, duration, frequency, predistort):
    """Excited population of one cosine pulse evolved at half the time step.

    ``frequency`` None drives at the circuit's f01, as the CLI does.
    """
    fl, dyn, filters = ctx.m.fluxonium, ctx.m.dynamics, ctx.m.filters
    scenario = dyn.DriveScenario(
        qubit=fl.FluxoniumParams(**doc["qubit"]),
        line=ctx.m.cli.REFERENCE_LINE,
        channel=filters.gaussian_lowpass(doc["channel"]["f_c"]),
        levels=doc["levels"],
        time_step=doc["time_step_ns"] / 2.0,
    )
    f01 = float(dyn.qubit_frame(scenario)[0][1])
    wave = dyn.cosine_drive(duration, amplitude, f01 if frequency is None else frequency)
    if predistort:
        wave = dyn.predistort_drive(wave, scenario.channel, f01)
    return float(dyn.evolve(scenario, wave).populations[-1, 1])


def _gate(ctx, rng, stream, index, levels, time_step, duration, predistort=True, trim=False):
    scenario, doc = _scenario(ctx, rng, stream, index, levels, time_step)
    out = ctx.path(stream, index, "gate.json")
    argv = [
        "simulate", "gate", "--scenario", scenario, "--duration", fmt(duration),
        "--predistort" if predistort else "--no-predistort", "-o", out,
    ] + (["--trim-frequency"] if trim else [])

    def check(_):
        report = json.loads(pathlib.Path(out).read_text())
        _require(0.0 <= report["fidelity"] <= 1.0, f"fidelity {report['fidelity']!r}")
        _require(report["leakage"] >= -1e-9, f"leakage {report['leakage']!r}")
        half = _half_step_population(
            ctx, doc, report["amplitude_v"], duration, report["drive_frequency_ghz"], predistort
        )
        _require(
            abs(half - report["population_transfer"]) <= GATE_HALF_STEP_TOL,
            f"population {report['population_transfer']!r} vs {half!r} at half the step",
        )

    def corrupt(result):
        _edit_json(out, lambda d: d.update(population_transfer=d["population_transfer"] - 0.01))
        return result

    return _cli_op(ctx, index, "gate_trim" if trim else "gate", argv, check, corrupt)


def _rabi(ctx, rng, stream, index, levels, time_step, duration, predistort=True):
    scenario, doc = _scenario(ctx, rng, stream, index, levels, time_step)
    amp_max = float(rng.uniform(0.012, 0.02))
    points = 11
    out = ctx.path(stream, index, "rabi.csv")
    argv = [
        "simulate", "rabi", "--scenario", scenario, "--duration", fmt(duration),
        "--predistort" if predistort else "--no-predistort",
        "--amp-max", fmt(amp_max), "--points", str(points), "-o", out,
    ]

    def check(_):
        _, rows = _read_csv(out)
        _allclose(rows[:, 0], np.linspace(0.0, amp_max, points)[1:], 1e-15, 0.0, "amplitude grid")
        _require(np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0)), "population outside [0, 1]")
        peak = int(np.argmax(rows[:, 1]))
        half = _half_step_population(ctx, doc, rows[peak, 0], duration, None, predistort)
        _require(
            abs(half - rows[peak, 1]) <= GATE_HALF_STEP_TOL,
            f"peak population {float(rows[peak, 1])!r} vs {half!r} at half the step",
        )

    def corrupt(result):
        header, rows = _read_csv(out)
        rows[int(np.argmax(rows[:, 1])), 1] -= 0.01
        _write_csv(out, header, rows)
        return result

    return _cli_op(ctx, index, "rabi", argv, check, corrupt)


# Slots come in three cost groups: 3 Rabi scans, 4 two-level gates at 0.05
# ns, 4 three-level gates at 0.04 ns, plus one frequency trim. Each group
# recurs often enough that the median and the tail each fall inside one group
# rather than on the edge between two.
GATE_CALIBRATION = (
    partial(_rabi, levels=2, time_step=0.05, duration=24.0),
    partial(_gate, levels=2, time_step=0.05, duration=20.0),
    partial(_gate, levels=3, time_step=0.04, duration=24.0),
    partial(_gate, levels=2, time_step=0.05, duration=24.0, predistort=False),
    partial(_rabi, levels=3, time_step=0.025, duration=20.0, predistort=False),
    partial(_gate, levels=3, time_step=0.04, duration=32.0, predistort=False),
    partial(_gate, levels=2, time_step=0.05, duration=20.0, trim=True),
    partial(_gate, levels=3, time_step=0.04, duration=20.0),
    partial(_gate, levels=2, time_step=0.05, duration=28.0),
    partial(_rabi, levels=2, time_step=0.05, duration=28.0),
    partial(_gate, levels=3, time_step=0.04, duration=28.0),
    partial(_gate, levels=2, time_step=0.05, duration=32.0),
)


# ---------------------------------------------------------------------------
# rb_waveform: Clifford sequences compiled, synthesized and evolved
# ---------------------------------------------------------------------------


def _rb(ctx, rng, stream, index, length):
    # At 0.05 ns per step one 65 536-step eigh chunk covers about 87
    # Cliffords of 20-ns pulses, so the longer sequences span several chunks.
    scenario, _ = _scenario(ctx, rng, stream, index, 2, 0.05)
    out = ctx.path(stream, index, "rb.csv")
    argv = [
        "simulate", "rb", "--scenario", scenario, "--mode", "waveform",
        "--lengths", str(length), "--sequences", "1",
        "--seed", str(int(rng.integers(0, 2**31))),
        "--gate-amplitude", fmt(rng.uniform(0.015, 0.025)), "-o", out,
    ]

    def check(_):
        header, rows = _read_csv(out)
        _require(header == ["length", "seq_index", "survival"], f"header {header}")
        _require(rows.shape == (1, 3) and rows[0, 0] == length, f"rows {rows.tolist()}")
        _require(0.0 <= rows[0, 2] <= 1.0, f"survival {float(rows[0, 2])!r} outside [0, 1]")

    def corrupt(result):
        pathlib.Path(out).write_text(f"length,seq_index,survival\n{length},0,1.000001\n")
        return result

    return _cli_op(ctx, index, "rb", argv, check, corrupt)


# Three 320-Clifford and three 96-Clifford sequences per rotation put the
# tail inside the longest group and the median inside the 96 group.
RB_WAVEFORM = tuple(partial(_rb, length=n) for n in (320, 24, 96, 320, 48, 96, 320, 32, 96, 64))


# ---------------------------------------------------------------------------
# compile_fit: filter design feeding long compiles; fits on noisy data
# ---------------------------------------------------------------------------


def _design_fir(ctx, rng, stream, index):
    out = ctx.path(stream, index, "fir.json")
    argv = [
        "design", "fir", "--rate", fmt(RATE), "--fc", fmt(rng.uniform(0.09, 0.11)),
        "--fq", fmt(rng.uniform(0.2, 0.25)), "--taps", "16", "-o", out,
    ]

    def check(_):
        doc = json.loads(pathlib.Path(out).read_text())
        taps = np.array(doc["taps_int16"])
        floats = np.array(doc["taps_float"])
        _require(len(taps) == 16 and doc["sample_rate_gsps"] == RATE, "FIR shape")
        _require(np.max(np.abs(taps)) == 32767, "int16 taps not normalized to full scale")
        _require(np.all(np.abs(taps - taps[::-1]) <= 1), "int16 taps not symmetric")
        _require(np.array_equal(floats, floats[::-1]), "float taps not symmetric")
        scaled = floats / np.max(np.abs(floats)) * 32767
        _require(np.all(np.abs(taps - scaled) <= 0.5 + 1e-9), "int16 taps are not the rounded float taps")

    def corrupt(result):
        _edit_json(out, lambda d: d["taps_int16"].__setitem__(0, d["taps_int16"][0] + 5))
        return result

    return _cli_op(ctx, index, "design_fir", argv, check, corrupt)


def _design_iir(ctx, rng, stream, index):
    out = ctx.path(stream, index, "iir.json")
    terms = [
        (rng.uniform(-0.025, -0.01), rng.uniform(20.0, 50.0)),
        (rng.uniform(-0.025, -0.01), rng.uniform(100.0, 300.0)),
        (rng.uniform(-0.025, -0.01), rng.uniform(500.0, 1500.0)),
    ]
    argv = ["design", "iir", "--rate", fmt(RATE), "-o", out]
    for amp, tau in terms:
        argv += ["--exp", f"{fmt(amp)}:{fmt(tau)}"]

    def check(_):
        doc = json.loads(pathlib.Path(out).read_text())
        sections = doc["parameters"]["sections"]
        _require(len(sections) == len(terms), "one section per settling term")
        for (amp, tau), (b0, b1, a1) in zip(terms, sections):
            # The corrector zero cancels the tail pole exp(-T/tau); unit dc gain.
            _close(-b1 / b0, math.exp(-1.0 / (RATE * tau)), 1e-12, "corrector zero")
            _close((b0 + b1) / (1.0 + a1), 1.0, 1e-11, "dc gain")
            _require(abs(a1) < 1.0, "unstable corrector pole")

    def corrupt(result):
        _edit_json(out, lambda d: d["parameters"]["sections"][0].__setitem__(
            0, d["parameters"]["sections"][0][0] * 1.01))
        return result

    return _cli_op(ctx, index, "design_iir", argv, check, corrupt)


def _program(rng, variant):
    """A long `.pulse` program; returns (text, samples, stored_ns).

    The sample count is summed here from the program's own structure, not
    read back from the compiler.
    """
    n_env = int(rng.choice([16, 24, 32, 40]))
    n_edge = 8
    env = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_env) / n_env))
    edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_edge) / (n_edge - 1)))
    lines = [
        "prim g envelope " + " ".join(fmt(x) for x in env),
        "prim e edge " + " ".join(fmt(x) for x in edge),
        f"carrier {fmt(rng.uniform(0.2, 0.25))}",
    ]
    amp = lambda: fmt(rng.uniform(0.02, 0.06))  # noqa: E731
    delay = int(rng.integers(2, 20))  # ns
    hold = int(rng.integers(30, 60))  # ns; holds the nested delay and pulse
    inner = int(rng.integers(1, 8))  # ns
    hold_amp = fmt(rng.uniform(0.1, 0.3))
    if variant == "a":
        body = [
            f"  xy g amp={amp()} phase={fmt(rng.uniform(-math.pi, math.pi))}",
            f"  vz {fmt(rng.uniform(-math.pi, math.pi))}",
            f"  delay {fmt(delay)}",
            f"  z rise=e hold={hold_amp},{fmt(hold)} fall=e {{",
            f"    delay {fmt(inner)}",
            f"    xy g amp={amp()}",
            "  }",
            f"  xy g amp={amp()}",
        ]
        per_body = n_env + delay * RATE + 2 * n_edge + hold * RATE + n_env
    else:
        inner_count = int(rng.integers(2, 6))
        body = [
            f"  repeat {inner_count} {{",
            f"    xy g amp={amp()}",
            f"    vz {fmt(rng.uniform(-math.pi, math.pi))}",
            "  }",
            f"  z rise=e hold={hold_amp},{fmt(hold)} fall=e",
            f"  delay {fmt(delay)}",
        ]
        per_body = inner_count * n_env + 2 * n_edge + hold * RATE + delay * RATE
    per_body = int(per_body)
    count = 400_000 // per_body
    lines += [f"repeat {count} {{"] + body + ["}"]
    return "\n".join(lines) + "\n", count * per_body, (n_env + n_edge) / RATE


def _compile(ctx, rng, stream, index, variant, designs_back):
    """Compile a generated program with the filters designed ``designs_back``
    and ``designs_back - 1`` ops earlier in the same rotation."""
    text, samples, stored = _program(rng, variant)
    source = ctx.path(stream, index, "program.pulse")
    pathlib.Path(source).write_text(text)
    out = ctx.path(stream, index, "waveform.bin")
    argv = [
        "compile", source, "--rate", fmt(RATE),
        "--fir", ctx.path(stream, index - designs_back, "fir.json"),
        "--iir", ctx.path(stream, index - designs_back + 1, "iir.json"),
        "--report-memory", "-o", out,
    ]

    def check(stdout):
        report = dict(line.split(" ", 1) for line in stdout.splitlines())
        payload = pathlib.Path(out).read_bytes()
        sidecar = json.loads(pathlib.Path(out + ".json").read_text())
        _require(int(report["samples"]) == samples, f"samples {report['samples']}, want {samples}")
        _require(len(payload) == 2 * samples, f"{len(payload)} bytes, want {2 * samples}")
        _require(sidecar["length"] == samples, "sidecar length")
        digest = hashlib.sha256(payload).hexdigest()
        _require(report["sha256"] == digest == sidecar["sha256"], "waveform sha256 mismatch")
        _close(float(report["sequence_ns"]), samples / RATE, 1e-12, "sequence_ns")
        _close(float(report["stored_ns"]), stored, 1e-12, "stored_ns")

    def corrupt(result):
        _flip_byte(out)
        return result

    return _cli_op(ctx, index, "compile", argv, check, corrupt)


def _compile_example(ctx, rng, stream, index):
    out = ctx.path(stream, index, "example.bin")
    argv = ["compile", str(ctx.example_program), "--rate", "2", "-o", out]

    def check(stdout):
        digest = hashlib.sha256(pathlib.Path(out).read_bytes()).hexdigest()
        _require(digest == EXAMPLE_SHA256, f"example waveform sha256 {digest}")
        _require(f"sha256 {EXAMPLE_SHA256}" in stdout.splitlines(), "printed sha256")

    def corrupt(result):
        _flip_byte(out)
        return result

    return _cli_op(ctx, index, "compile_example", argv, check, corrupt)


def _fit_cli(ctx, stream, index, model, header, rows, extra, check_report):
    data = ctx.path(stream, index, f"{model}.csv")
    _write_csv(data, header, rows)
    out = ctx.path(stream, index, f"{model}-fit.json")
    argv = ["fit", model, data, "-o", out] + extra

    def check(_):
        check_report(json.loads(pathlib.Path(out).read_text()))

    def corrupt(result):
        key = {"t1": "t1_eff", "dephasing": "t_phi_g", "rb": "p", "reset": "weight_e"}[model]
        _edit_json(out, lambda d: d.update({key: d[key] * 1.5}))
        return result

    return _cli_op(ctx, index, f"fit_{model}", argv, check, corrupt)


def _fit_t1(ctx, rng, stream, index):
    o = ctx.oracles
    a, b = rng.uniform(0.85, 0.95), rng.uniform(0.02, 0.06)
    t_exp, t_qp, n_qp = rng.uniform(80.0, 200.0), rng.uniform(15.0, 40.0), rng.uniform(0.5, 1.5)
    t = np.concatenate([[0.0], np.geomspace(0.5, 4.0 * t_exp, 120)])
    p = o.double_exp_population(t, a, b, t_exp, t_qp, n_qp) + rng.normal(0.0, 0.003, len(t))
    want = o.one_over_e_crossing(a, b, t_exp, t_qp, n_qp)

    def check_report(r):
        _close(r["t1_eff"], want, 0.03, "1/e time")

    return _fit_cli(ctx, stream, index, "t1", ["t_us", "p_e"], np.column_stack([t, p]), [], check_report)


def _fit_dephasing(ctx, rng, stream, index):
    c, d = rng.uniform(0.85, 0.95), rng.uniform(0.02, 0.06)
    t1 = rng.uniform(120.0, 250.0)
    t_exp, t_g = rng.uniform(60.0, 150.0), rng.uniform(80.0, 200.0)
    t = np.linspace(0.0, 400.0, 81)
    env = ctx.oracles.dephasing_envelope(t, c, d, t1, t_exp, t_g) + rng.normal(0.0, 0.003, len(t))

    def check_report(r):
        _require(abs(r["c"] - c) <= 0.02 and abs(r["d"] - d) <= 0.02, "envelope offsets")
        _close(r["t_phi_exp"], t_exp, 0.1, "exponential dephasing time")
        _close(r["t_phi_g"], t_g, 0.1, "Gaussian dephasing time")

    return _fit_cli(
        ctx, stream, index, "dephasing", ["t_us", "p_env"], np.column_stack([t, env]),
        ["--t1-us", fmt(t1)], check_report,
    )


def _fit_rb(ctx, rng, stream, index):
    p = rng.uniform(0.99, 0.998)
    lengths = np.repeat(2 ** np.arange(10), 2)
    survival = ctx.oracles.depolarized_survival(p, lengths) + rng.normal(0.0, 0.002, len(lengths))
    rows = np.column_stack([lengths, np.tile([0, 1], 10), survival])

    def check_report(r):
        _require(abs(r["p"] - p) <= 1.5e-3, f"p {r['p']!r}, want {p!r}")

    return _fit_cli(ctx, stream, index, "rb", ["length", "seq_index", "survival"], rows, [], check_report)


def _fit_reset(ctx, rng, stream, index):
    n = 10_000
    weight = rng.uniform(0.01, 0.05)
    sigma = rng.uniform(0.12, 0.18)
    excited = rng.random(n) < weight
    signal = np.where(excited, rng.normal(1.0, sigma, n), rng.normal(0.0, sigma, n))
    realized = float(excited.mean())

    def check_report(r):
        _require(abs(r["weight_e"] - realized) <= 0.005, f"weight_e {r['weight_e']!r}, want {realized!r}")

    return _fit_cli(ctx, stream, index, "reset", ["signal"], signal[:, None], [], check_report)


def _fit_tail(ctx, rng, stream, index):
    terms = [
        (rng.uniform(-0.03, -0.01), rng.uniform(20.0, 50.0)),
        (rng.uniform(-0.03, -0.01), rng.uniform(200.0, 600.0)),
    ]
    amps, taus = [a for a, _ in terms], [t for _, t in terms]
    delays = np.geomspace(5.0, 3000.0, 40)
    values = [ctx.oracles.windowed_tail_quad(amps, taus, d, 20.0) for d in delays]
    noisy = np.array(values) + rng.normal(0.0, 2e-5, len(delays))

    def run():
        dist = ctx.m.distortion
        records = [dist.TailProbeRecord(float(d), float(v)) for d, v in zip(delays, noisy)]
        return dist.fit_multi_exponential(records, 2)

    def check(result):
        for (amp, tau), (got_amp, got_tau) in zip(terms, result.model.terms):
            _close(got_tau, tau, 0.05, "settling time")
            _close(got_amp, amp, 0.05, "settling amplitude")

    def corrupt(result):
        model = result.model
        bent = ((model.terms[0][0], model.terms[0][1] * 1.3),) + tuple(model.terms[1:])
        return dataclasses.replace(result, model=dataclasses.replace(model, terms=bent))

    return Op(index, "fit_tail", run, check, corrupt)


COMPILE_FIT = (
    _design_fir,
    _design_iir,
    partial(_compile, variant="a", designs_back=2),
    _fit_t1,
    _compile_example,
    _fit_dephasing,
    _fit_rb,
    _fit_reset,
    _fit_tail,
    partial(_compile, variant="b", designs_back=9),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    wid: int
    slots: tuple
    warmup: tuple  # slot indices run once, untimed, before the timed phase
    cold_slot: int  # the representative command timed in a fresh interpreter
    rotation_s: float  # time one rotation took when the benchmark was set

    def op(self, ctx, seed, stream, index) -> Op:
        rng = np.random.default_rng([seed, self.wid, stream, index])
        return self.slots[index % len(self.slots)](ctx, rng, stream, index)

    def rotations(self, seconds) -> int:
        """Whole rotations that took about ``seconds`` when the benchmark was set.

        The count depends only on ``seconds``, never on a measurement, so two
        commits run with the same arguments run the same ops.
        """
        return max(1, round(seconds / self.rotation_s))


WORKLOADS = {
    "flux_sweep": Workload(1, FLUX_SWEEP, (0, 1, 2, 3), 0, rotation_s=1.43),
    "gate_calibration": Workload(2, GATE_CALIBRATION, (0, 1), 1, rotation_s=4.9),
    "rb_waveform": Workload(3, RB_WAVEFORM, (1,), 4, rotation_s=3.0),
    "compile_fit": Workload(4, COMPILE_FIT, tuple(range(10)), 4, rotation_s=0.8),
}
