"""End-to-end checks of the command-line front end.

Commands run in-process through cli.main so exit codes and output can be
asserted without subprocess overhead; one test drives `python -m uniflux.cli`
for real to cover the module entry point. A new refusal, or any command
checked only by its exit code and the start of its output, is a row of
``byte_matrix.CASES``; the few stand-alone refusal tests left here predate the
table and keep their names. The exit-code matrix asserts the rows that carry
an exit code and message, on the session's one run of them.
"""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import byte_matrix
import oracles
from uniflux import analysis, cli, dynamics, fluxonium

DATA = pathlib.Path(__file__).parent / "data"
EXAMPLE_PROGRAM = DATA / "example_program.pulse"
EXAMPLE_SHA256 = (DATA / "example_program.sha256").read_text().strip()

FAST_SCENARIO = {
    "channel": {"kind": "gaussian", "f_c": 0.092},
    "levels": 2,
    "time_step_ns": 0.02,
}


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse reports a bad command line this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, scenario=FAST_SCENARIO):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def load_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ("design", "iir", "--rate", "2", "--exp", "-0.0174:34", "--exp", "-0.0189:170"),
        ("design", "iir", "--exp", "-0.0158:996", "--rate", "1"),
        ("spectrum", "--from", "0.4", "--to", "0.5", "-n", "2", "--levels", "2"),
        ("tradeoff", "--alpha-from", "-8e1", "-n", "3"),
        ("design", "fir", "--rate", "2", "--fq", "0.208", "--no-quantize"),
        ("design", "fir", "--rate", "2", "--fq", "0.208"),
    ]
    warm = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert warm == fresh
    assert all(code == 0 for code, _, _ in warm)
    assert len(json.loads(warm[1][1])["parameters"]["source_exponentials"]) == 1


def test_version_provenance(capsys):
    code, out, _ = run_cli(capsys, "--version", "--provenance")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("uniflux ")
    registry = (
        pathlib.Path(cli.__file__).parent / "data" / "devices.json"
    ).read_bytes()
    assert lines[1] == f"device-table sha256 {hashlib.sha256(registry).hexdigest()}"


def test_version_alone(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "command is required" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_module_entry_point():
    # the package need not be installed: the child finds it through src/
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "uniflux.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("uniflux ")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_sweep_symmetric_about_half_flux(tmp_path, capsys):
    out_csv = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(
        capsys,
        "spectrum",
        "--ej", "4.5", "--ec", "1.1", "--el", "0.5",
        "--from", "0.3", "--to", "0.7", "-n", "81",
        "-o", str(out_csv),
    )
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("flux_phi0,f01_ghz")
    assert header.endswith("m01_abs")
    table = load_csv(out_csv)
    assert len(table) == 81
    f01 = table["f01_ghz"]
    np.testing.assert_allclose(f01, f01[::-1], rtol=1e-9)
    assert np.argmin(f01) == 40  # the half-flux row
    np.testing.assert_allclose(f01[40], 0.22376881665330772, rtol=1e-9)


def test_spectrum_default_parameters_dip_at_half_flux(tmp_path, capsys):
    out_csv = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(
        capsys, "spectrum", "--from", "0.4", "--to", "0.6", "-n", "21",
        "--levels", "2", "-o", str(out_csv),
    )
    assert code == 0
    table = load_csv(out_csv)
    assert np.argmin(table["f01_ghz"]) == 10
    assert 0.2 <= table["f01_ghz"][10] <= 0.4


def test_spectrum_m01_matches_phase_matrix_element(tmp_path, capsys):
    out_csv = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(
        capsys, "spectrum", "--ej", "6.2", "--ec", "0.9", "--el", "0.7",
        "--from", "-0.4", "--to", "1.2", "-n", "9", "--levels", "3",
        "-o", str(out_csv),
    )
    assert code == 0
    table = load_csv(out_csv)
    params = fluxonium.FluxoniumParams(6.2, 0.9, 0.7)
    for flux, m01 in zip(table["flux_phi0"], table["m01_abs"]):
        expected = fluxonium.phase_matrix_element(params.replace(phi_ext=flux), 0, 1)
        assert m01 == pytest.approx(expected, rel=1e-12, abs=0)


def test_spectrum_stdout_is_built_from_the_eigh_oracle(capsys):
    # every row from scipy.linalg.eigh on the rung the row stops on; m01 is
    # a product of the vectors, which rounds by their layout, so this pins
    # the Fortran order LAPACK returns them in as well as their values
    code, out, _ = run_cli(
        capsys, "spectrum", "--ej", "6.2", "--ec", "0.9", "--el", "0.7",
        "--from", "-0.4", "--to", "1.2", "-n", "17", "--levels", "4",
    )
    params = fluxonium.FluxoniumParams(6.2, 0.9, 0.7)
    lines = ["flux_phi0,f01_ghz,f02_ghz,f03_ghz,m01_abs"]
    for flux in np.linspace(-0.4, 1.2, 17):
        for size in (80, 100, 120):
            h = fluxonium.build_hamiltonian(params.replace(phi_ext=flux, basis_size=size))
            levels, vecs, tails = oracles.eigh_eigensystem(h, 4)
            if tails.max() <= fluxonium.TAIL_CONVERGED:
                break
        spec = fluxonium.EnergySpectrum(levels, tails.max(), vecs)
        m01 = fluxonium.phase_matrix(params, spec)[0, 1]
        lines.append(",".join(repr(float(v)) for v in (flux, *levels[1:], abs(m01))))
    assert code == 0
    assert out == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tradeoff
# ---------------------------------------------------------------------------


def test_tradeoff_default_grid(tmp_path, capsys):
    out_csv = tmp_path / "tradeoff.csv"
    code, _, _ = run_cli(capsys, "tradeoff", "-o", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert text.splitlines()[0] == "alpha_db,rabi_mhz,t1_line_us,max_excursion_phi0"
    table = load_csv(out_csv)
    assert len(table) == 61
    at_50 = table[table["alpha_db"] == -50.0]
    # Regression pin: this budget normalization crosses 100 us near -54 dB,
    # so the -50 dB row sits below it.
    np.testing.assert_allclose(at_50["t1_line_us"], 39.25520604002662, rtol=1e-9)
    in_excursion_band = (table["alpha_db"] >= -30.0) & (table["alpha_db"] <= -20.0)
    assert np.all(table["max_excursion_phi0"][in_excursion_band] >= 0.3)
    slopes = {
        line.split(" = ")[0]: float(line.split(" = ")[1])
        for line in text.splitlines()
        if line.startswith("# slope_")
    }
    assert slopes["# slope_rabi_mhz_vs_amplitude"] == pytest.approx(1.0, abs=1e-9)
    assert slopes["# slope_t1_line_us_vs_amplitude"] == pytest.approx(-2.0, abs=1e-9)
    assert slopes["# slope_max_excursion_phi0_vs_amplitude"] == pytest.approx(
        1.0, abs=1e-9
    )


def test_tradeoff_zero_span_grid_has_no_slope_footer(capsys):
    # pytest raises RuntimeWarning as an error, so a 0/0 slope would fail here
    code, out, err = run_cli(capsys, "tradeoff", "--alpha-from", "-30", "--alpha-to", "-30",
                             "-n", "3")
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "alpha_db,rabi_mhz,t1_line_us,max_excursion_phi0"
    assert len(rows) == 3 and len(set(rows)) == 1 and rows[0].startswith("-30.0,")
    one_point = run_cli(capsys, "tradeoff", "--alpha-from", "-30", "--alpha-to", "-30", "-n", "1")
    assert one_point == (0, "\n".join([header, rows[0]]) + "\n", "")


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def test_design_fir_inverse_invariants(capsys):
    code, out, _ = run_cli(
        capsys, "design", "fir",
        "--target", "inverse", "--fq", "0.208", "--rate", "2", "--taps", "16",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "fir"
    taps = doc["taps_int16"]
    assert len(taps) == 16
    assert max(abs(t) for t in taps) == 32767
    assert all(abs(a - b) <= 1 for a, b in zip(taps, taps[::-1]))
    assert doc["sample_rate_gsps"] == 2.0


def test_design_iir_three_sections(capsys):
    code, out, _ = run_cli(
        capsys, "design", "iir",
        "--exp", "-0.0174:34", "--exp", "-0.0189:170", "--exp", "-0.0158:996",
        "--rate", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "iir"
    assert len(doc["parameters"]["sections"]) == 3
    assert doc["parameters"]["source_exponentials"] == [
        [-0.0174, 34.0],
        [-0.0189, 170.0],
        [-0.0158, 996.0],
    ]


def test_design_gauss_document(capsys):
    code, out, _ = run_cli(capsys, "design", "gauss", "--fc", "0.092")
    assert code == 0
    assert json.loads(out)["parameters"]["f_c_ghz"] == 0.092


@pytest.mark.parametrize("argv, provenance", [
    (("gauss", "--fc", "0.1", "--rate", "2", "--exp", "-0.02:30"), "gauss --fc 0.1"),
    (("inverse", "--fq", "0.2", "--taps", "8"),
     "inverse --fc 0.092 --fq 0.2 --gmax 50.0 --window-cutoff 1.0"),
    (("fir", "--rate", "2", "--fq", "0.2"),
     "fir --fc 0.092 --fq 0.2 --gmax 50.0 --window-cutoff 1.0 --target inverse --taps 16 "
     "--rate 2.0"),
    (("fir", "--rate", "2", "--target", "gauss", "--fq", "0.2", "--gmax", "30"),
     "fir --fc 0.092 --target gauss --taps 16 --rate 2.0"),
    (("fir", "--rate", "2", "--fq", "0.2", "--no-quantize", "--taps", "8"),
     "fir --fc 0.092 --fq 0.2 --gmax 50.0 --window-cutoff 1.0 --target inverse --taps 8 "
     "--rate 2.0 --no-quantize"),
    (("gauss", "--fc", "0.1", "--no-quantize"), "gauss --fc 0.1"),
    (("iir", "--rate", "2", "--exp", "-0.02:30", "--fc", "0.1", "--exp", "-1e-2:5e2"),
     "iir --rate 2.0 --exp -0.02:30 --exp -1e-2:5e2"),
])
def test_design_provenance_records_the_options_its_kind_reads(capsys, argv, provenance):
    code, out, _ = run_cli(capsys, "design", *argv)
    assert code == 0
    assert json.loads(out)["provenance"] == f"uniflux design {provenance}"


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_example_program_golden(tmp_path, capsys):
    wave = tmp_path / "wave.bin"
    code, out, _ = run_cli(
        capsys, "compile", str(EXAMPLE_PROGRAM), "--rate", "2", "-o", str(wave)
    )
    assert code == 0
    assert f"sha256 {EXAMPLE_SHA256}" in out
    codes, meta = oracles.load_waveform_binary(wave)
    assert meta["sha256"] == EXAMPLE_SHA256
    assert len(codes) == 98


def test_compile_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    for target in (first, second):
        code, _, _ = run_cli(
            capsys, "compile", str(EXAMPLE_PROGRAM), "--rate", "2",
            "-o", str(target),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_compile_report_memory(capsys):
    code, out, _ = run_cli(
        capsys, "compile", str(EXAMPLE_PROGRAM), "--rate", "2", "--report-memory"
    )
    assert code == 0
    report = dict(line.split(" ", 1) for line in out.splitlines())
    assert float(report["stored_ns"]) == 6.5
    assert float(report["sequence_ns"]) == 49.0
    assert float(report["ratio"]) == pytest.approx(49.0 / 6.5)


@pytest.mark.parametrize("line", ["vz nan", "carrier inf", "xy gate amp=nan"])
def test_compile_non_finite_instruction_names_the_line(tmp_path, capsys, line):
    program = tmp_path / "nan.pulse"
    program.write_text(f"prim gate envelope 0.0 0.5 1.0 0.5\nvz 0.1\n{line}\n")
    code, _, err = run_cli(capsys, "compile", str(program), "--rate", "2")
    assert code == 3
    assert "line 3" in err


@pytest.mark.parametrize("rate", ["inf", "nan", "0"])
def test_compile_bad_rate_is_usage_error(capsys, rate):
    code, _, err = run_cli(capsys, "compile", str(EXAMPLE_PROGRAM), "--rate", rate)
    assert code == 2
    assert err.splitlines() == [
        f"uniflux: error: argument --rate: must be positive and finite, got {rate!r}"
    ]


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_compile_bad_full_scale_is_usage_error(capsys, scale):
    # the DAC full scale in volts belongs to the scenario's line, not to compile
    code, out, err = run_cli(
        capsys, "compile", str(EXAMPLE_PROGRAM), "--rate", "2", "--full-scale", scale
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"uniflux: error: unrecognized arguments: --full-scale {scale}"
    ]


def test_readme_pulse_assembly_example_compiles(tmp_path, capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Pulse assembly"):]
    start = section.index("```\n") + 4
    program = tmp_path / "readme.pulse"
    program.write_text(section[start:section.index("```", start)])
    code, out, err = run_cli(capsys, "compile", str(program), "--rate", "2")
    assert (code, err) == (0, "")
    # xy, delay 8 ns, z (rise, 16 ns hold, fall), then three more plays at 2 GS/s
    assert out.splitlines()[1] == f"samples {8 + 16 + (5 + 32 + 5) + 3 * 8}"


def test_compile_with_designed_filters(tmp_path, capsys):
    fir_doc = tmp_path / "fir.json"
    iir_doc = tmp_path / "iir.json"
    code, _, _ = run_cli(
        capsys, "design", "fir", "--target", "inverse", "--fq", "0.2238",
        "--rate", "2", "--taps", "16", "-o", str(fir_doc),
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "design", "iir", "--exp", "-0.0174:34", "--rate", "2",
        "-o", str(iir_doc),
    )
    assert code == 0
    wave = tmp_path / "wave.bin"
    code, out, _ = run_cli(
        capsys, "compile", str(EXAMPLE_PROGRAM), "--rate", "2",
        "--fir", str(fir_doc), "--iir", str(iir_doc), "-o", str(wave),
    )
    assert code == 0
    # Conditioning changes the waveform relative to the bare compile.
    assert EXAMPLE_SHA256 not in out


# The traced peak of a compile may grow by at most this many bytes per added
# output sample: the 2 bytes of its DAC code, plus the compiled schedule's
# records. A compile that holds float timelines of the whole program grows
# by about 37.
COMPILE_BYTES_PER_SAMPLE = 10.0


def test_compile_memory_grows_by_the_codes_and_the_records_only(tmp_path, capsys):
    import tracemalloc

    fir, iir = str(tmp_path / "fir.json"), str(tmp_path / "iir.json")
    assert run_cli(capsys, "design", "fir", "--rate", "2", "--fc", "0.1", "--fq", "0.22",
                   "--taps", "16", "-o", fir)[0] == 0
    assert run_cli(capsys, "design", "iir", "--rate", "2", "--exp", "-0.02:30",
                   "--exp", "-0.015:200", "-o", iir)[0] == 0
    env = " ".join(repr(0.5 - 0.5 * math.cos(2 * math.pi * k / 32)) for k in range(32))
    edge = " ".join(repr(0.5 - 0.5 * math.cos(math.pi * k / 7)) for k in range(8))
    peaks = {}
    for count in (1000, 4000, 1000):  # the first run loads what a compile imports
        program = tmp_path / f"p{count}.pulse"
        program.write_text(
            f"prim g envelope {env}\nprim e edge {edge}\ncarrier 0.22\nrepeat {count} {{\n"
            "  xy g amp=0.04 phase=0.3\n  vz 0.7\n  delay 7.0\n"
            "  z rise=e hold=0.2,45.0 fall=e {\n    delay 3.0\n    xy g amp=0.05\n  }\n"
            "  xy g amp=0.03\n}\n")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "compile", str(program), "--rate", "2",
                                     "--fir", fir, "--iir", iir, "-o", str(tmp_path / "w.bin"))
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err, out.splitlines()[1]) == (0, "", f"samples {184 * count}")
    growth = (peaks[4000] - peaks[1000]) / (184 * 3000)
    assert growth <= COMPILE_BYTES_PER_SAMPLE, f"{growth:.1f} bytes per sample"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_rabi_contrast(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    on_csv = tmp_path / "on.csv"
    off_csv = tmp_path / "off.csv"
    for target, flag in ((on_csv, "--predistort"), (off_csv, "--no-predistort")):
        code, _, _ = run_cli(
            capsys, "simulate", "rabi", "--scenario", scenario,
            "--points", "9", "--amp-max", "0.016", flag, "-o", str(target),
        )
        assert code == 0
    peak_on = load_csv(on_csv)["p1"].max()
    peak_off = load_csv(off_csv)["p1"].max()
    assert peak_on > 0.99
    assert peak_off < 0.15
    assert "# predistortion: on" in on_csv.read_text()
    assert "# predistortion: off" in off_csv.read_text()


def test_simulate_rabi_never_prints_a_population_above_one(tmp_path, capsys):
    # The sweep ends on the trimmed 2-level pi pulse, whose P1 once printed
    # as 1 + 1.4e-12.
    scenario = write_scenario(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", "gate", "--scenario", scenario,
                           "--trim-frequency")
    assert code == 0
    report = json.loads(out)
    code, out, _ = run_cli(
        capsys, "simulate", "rabi", "--scenario", scenario,
        "--frequency", repr(report["drive_frequency_ghz"]),
        "--amp-max", repr(report["amplitude_v"]), "--points", "5",
    )
    assert code == 0
    p1 = [float(line.split(",")[1]) for line in out.splitlines()[1:]
          if line and not line.startswith("#")]
    assert len(p1) == 4
    assert p1[-1] > 1.0 - 1e-10
    assert all(0.0 <= p <= 1.0 for p in p1)


def test_simulate_gate_report(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    report_path = tmp_path / "gate.json"
    code, _, _ = run_cli(
        capsys, "simulate", "gate", "--scenario", scenario,
        "--trim-frequency", "-o", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["gate"] == "x_pi"
    assert report["population_transfer"] > 0.9999
    assert report["fidelity"] > 0.9999
    assert report["leakage"] < 1e-6
    assert report["drive_frequency_ghz"] > 0.2238  # trimmed above resonance


@pytest.mark.parametrize("seed", range(12))
def test_simulate_gate_trimmed_report_is_bounded(tmp_path, capsys, seed):
    # 2-level scenarios near the reference qubit, drawn as the benchmark
    # draws its gate scenarios; trimmed gates reach 1 - F ~ 2e-12, so the
    # fidelity bound is checked as strictly as the benchmark checks it.
    rng = np.random.default_rng(seed)
    scenario = write_scenario(tmp_path, {
        "qubit": {name: float(ref * rng.uniform(0.97, 1.03))
                  for name, ref in (("e_j", 4.5), ("e_c", 1.1), ("e_l", 0.5))},
        "channel": {"kind": "gaussian", "f_c": float(rng.uniform(0.095, 0.12))},
        "levels": 2,
        "time_step_ns": 0.05,
    })
    code, out, _ = run_cli(capsys, "simulate", "gate", "--scenario", scenario,
                           "--trim-frequency")
    assert code == 0
    report = json.loads(out)
    assert 0.0 <= report["fidelity"] <= 1.0
    assert report["leakage"] >= -1e-9
    assert report["population_transfer"] > 1.0 - 1e-9


@pytest.mark.parametrize("trim", [False, True], ids=["untrimmed", "trimmed"])
def test_simulate_gate_propagates_nothing_after_its_calibration(tmp_path, capsys, monkeypatch,
                                                               trim):
    propagations, at_return = [], []
    propagate = dynamics._propagate

    def spy(*args, **kwargs):
        propagations.append(None)
        return propagate(*args, **kwargs)

    def counted(calibrate):
        def wrapper(*args, **kwargs):
            record = calibrate(*args, **kwargs)
            at_return.append(len(propagations))
            return record
        return wrapper

    monkeypatch.setattr(dynamics, "_propagate", spy)
    for name in ("calibrate_pi", "calibrate_drive_frequency"):
        monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
    scenario = write_scenario(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", "gate", "--scenario", scenario,
                           *(["--trim-frequency"] if trim else []))
    assert code == 0
    assert at_return == [len(propagations)]  # one calibration, and nothing after it
    # the calibration record's residuals and counts stay off stdout
    assert set(json.loads(out)) == {
        "gate", "duration_ns", "predistortion", "drive_frequency_ghz", "amplitude_v",
        "population_transfer", "fidelity", "leakage", "levels",
    }


def test_simulate_gate_leakage_is_not_negative(tmp_path, capsys):
    # this scenario's U is unitary to ~1e-12, and 1 - tr(B^dag B)/2 rounds
    # to -2.4e-12; leakage is bounded below by 0
    scenario = write_scenario(tmp_path, {"levels": 2, "time_step_ns": 0.02})
    code, out, _ = run_cli(capsys, "simulate", "gate", "--scenario", scenario)
    assert code == 0
    report = json.loads(out)
    assert 0.0 <= report["leakage"] < 1e-9
    assert 0.99 < report["population_transfer"] <= 1.0


def test_simulate_gate_transfer_is_at_most_one(tmp_path, capsys, monkeypatch):
    # an X_pi whose columns have norm 1 + 1e-10, within the unitarity drift
    # gate_fidelity accepts: |U10|^2 rounds above 1 and is bounded by it
    scale = 1.0 + 1e-10
    record = dynamics.Calibration(
        amplitude_v=0.01, frequency_ghz=0.2237, propagations=1, theta=np.pi, n_z=0.0,
        unitary=scale * np.array([[0.0, -1.0j], [-1.0j, 0.0]]),
    )
    monkeypatch.setattr(dynamics, "calibrate_pi", lambda *args, **kwargs: record)
    scenario = write_scenario(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", "gate", "--scenario", scenario)
    assert code == 0
    report = json.loads(out)
    assert report["population_transfer"] == 1.0
    assert report["leakage"] == 0.0
    assert report["fidelity"] <= 1.0


@pytest.fixture
def per_circuit_terms(monkeypatch):
    """Call to switch the package to the per-circuit eigendecomposition of the
    phase operator; the qubit-frame cache is emptied at the switch and
    after the test, so no frame crosses it."""
    def clear():
        dynamics._qubit_frame.cache_clear()

    def switch():
        clear()
        monkeypatch.setattr(fluxonium, "_flux_free_terms", oracles.tridiagonal_flux_free_terms)

    clear()
    yield switch
    clear()


def test_spectrum_csv_matches_the_per_circuit_decomposition(tmp_path, capsys, per_circuit_terms):
    argv = ("spectrum", "--ej", "6.2", "--ec", "0.9", "--el", "0.7",
            "--from", "-0.4", "--to", "1.2", "-n", "33", "--levels", "4")
    assert run_cli(capsys, *argv, "-o", str(tmp_path / "got.csv"))[0] == 0
    per_circuit_terms()
    assert run_cli(capsys, *argv, "-o", str(tmp_path / "want.csv"))[0] == 0
    got, want = (load_csv(tmp_path / name) for name in ("got.csv", "want.csv"))
    assert got.dtype.names == want.dtype.names
    for name in got.dtype.names:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)


def _gate_scenario(seed):
    """A gate scenario near the reference qubit, drawn as the benchmark draws
    them: 2 levels at 0.05 ns for even seeds, 3 levels at 0.04 ns for odd."""
    rng = np.random.default_rng(seed)
    return {
        "qubit": {name: float(ref * rng.uniform(0.97, 1.03))
                  for name, ref in (("e_j", 4.5), ("e_c", 1.1), ("e_l", 0.5))},
        "channel": {"kind": "gaussian", "f_c": float(rng.uniform(0.095, 0.12))},
        "levels": 2 + seed % 2,
        "time_step_ns": (0.05, 0.04)[seed % 2],
    }


@pytest.mark.parametrize("seed, trim", [(0, False), (1, False), (2, True), (3, True)])
def test_simulate_gate_matches_the_per_circuit_decomposition(tmp_path, capsys, per_circuit_terms,
                                                             seed, trim):
    # bounds: drive frequency 1e-12 GHz; amplitude 1e-7 relative, inside the
    # Newton stop at 1e-6 of the amplitude; transfer, fidelity and leakage
    # 2e-11, where those values are rounding noise below about 1e-11
    scenario = write_scenario(tmp_path, _gate_scenario(seed))
    argv = ("simulate", "gate", "--scenario", scenario, *(["--trim-frequency"] if trim else []))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    per_circuit_terms()
    code, reference, _ = run_cli(capsys, *argv)
    assert code == 0
    got, want = json.loads(out), json.loads(reference)
    assert got.keys() == want.keys()
    assert abs(got["drive_frequency_ghz"] - want["drive_frequency_ghz"]) <= 1e-12
    assert got["amplitude_v"] == pytest.approx(want["amplitude_v"], rel=1e-7, abs=0)
    for name in ("population_transfer", "fidelity", "leakage"):
        assert abs(got[name] - want[name]) <= 2e-11, name
    for name in ("gate", "duration_ns", "predistortion", "levels"):
        assert got[name] == want[name]


def test_waveform_rb_matches_the_per_circuit_decomposition(capsys, per_circuit_terms):
    argv = ("simulate", "rb", "--mode", "waveform", "--lengths", "1,4,8", "--sequences", "2",
            "--seed", "3")
    outputs = []
    for switch in (lambda: None, per_circuit_terms):
        switch()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.append(np.genfromtxt(out.splitlines(), delimiter=",", names=True))
    got, want = outputs
    assert np.array_equal(got["length"], want["length"])
    np.testing.assert_allclose(got["survival"], want["survival"], rtol=0, atol=1e-10)


def test_simulate_gate_bytes_do_not_depend_on_cached_bases(tmp_path, capsys):
    # cold: no phase basis and no frame cached; warm basis, cold frame; all
    # warm; and two fresh interpreters
    scenario = write_scenario(tmp_path, _gate_scenario(1))
    argv = ("simulate", "gate", "--scenario", scenario)
    outputs = []
    for clear in (fluxonium._phase_basis.cache_clear, dynamics._qubit_frame.cache_clear, None):
        if clear is not None:
            clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.append(out)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "uniflux.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(set(outputs)) == 1


@pytest.mark.parametrize("duration", ["3.9999999", "4.0000001"])
def test_a_gate_within_the_sample_rule_of_four_samples_is_the_four_sample_gate(
        tmp_path, capsys, duration):
    # the option check and the calibration count samples by the one rule, and
    # the report names the length that plays; a 5 V full scale lets the
    # 4-sample pulse calibrate
    line = dict(mutual_inductance=2e-12, attenuation_db=-30.0, awg_noise_dbm_per_hz=-130.0,
                awg_vmax=5.0)
    scenario = write_scenario(tmp_path, {"line": line, "levels": 2, "time_step_ns": 0.05})
    argv = ("simulate", "gate", "--scenario", scenario, "--duration")
    want = run_cli(capsys, *argv, "4")
    assert want[0] == 0
    assert run_cli(capsys, *argv, duration) == want


def test_simulate_rb_seeded_csv_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        code, _, _ = run_cli(
            capsys, "simulate", "rb", "--lengths", "1,2,4", "--sequences", "2",
            "--seed", "9", "--depolarizing", "0.995", "-o", str(target),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    # one row per record, the survival in repr: equal results are byte-equal
    records = dynamics.run_rb(cli._default_scenario(), [1, 2, 4], 2, 9, depolarizing=0.995)
    assert first.read_text().splitlines() == ["length,seq_index,survival"] + [
        f"{r.length},{r.seq_index},{r.survival!r}" for r in records]


def test_simulate_rb_interleaved_perfect_gate(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "rb", "--lengths", "1,4", "--sequences", "2",
        "--seed", "3", "--interleaved", "4",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert float(line.split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_simulate_missing_scenario_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "rb", "--scenario", str(tmp_path / "absent.json")
    )
    assert code == 3
    assert err.count("\n") == 1
    assert "absent.json" in err


def test_simulate_infinite_time_step_exits_3(tmp_path, capsys):
    scenario = tmp_path / "inf.json"
    scenario.write_text('{"time_step_ns": Infinity}')
    code, _, err = run_cli(capsys, "simulate", "rb", "--scenario", str(scenario))
    assert code == 3
    assert "finite" in err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _write_relaxation_fixture(path):
    t = np.linspace(0.0, 600.0, 121)
    values = analysis.relaxation_model(t, 1.0, 0.0, 150.0, 30.0, 1.0)
    np.savetxt(
        path, np.column_stack([t, values]), delimiter=",",
        header="t_us,p_e", comments="", fmt="%.17g",
    )


def test_fit_t1_recovers_fixture(tmp_path, capsys):
    fixture = tmp_path / "t1.csv"
    _write_relaxation_fixture(fixture)
    code, out, _ = run_cli(capsys, "fit", "t1", str(fixture))
    assert code == 0
    report = json.loads(out)
    assert report["model"] == "RelaxationFit"
    assert report["t_exp"] == pytest.approx(150.0, rel=0.02)
    assert report["t_qp"] == pytest.approx(30.0, rel=0.02)
    assert report["n_qp"] == pytest.approx(1.0, rel=0.02)
    assert report["t1_eff"] == pytest.approx(39.801739957266, rel=1e-3)


def test_fit_dephasing_recovers_fixture(tmp_path, capsys):
    fixture = tmp_path / "env.csv"
    t = np.linspace(0.0, 400.0, 81)
    values = analysis.dephasing_model(t, 0.95, 0.03, 180.0, 1 / 90.0, 1 / 128.0)
    np.savetxt(
        fixture, np.column_stack([t, values]), delimiter=",",
        header="t_us,p_env", comments="", fmt="%.17g",
    )
    code, out, _ = run_cli(
        capsys, "fit", "dephasing", str(fixture), "--t1-us", "180"
    )
    assert code == 0
    report = json.loads(out)
    assert report["t_phi_exp"] == pytest.approx(90.0, rel=0.02)
    assert report["t_phi_g"] == pytest.approx(128.0, rel=0.02)


def test_fit_rb_roundtrip_through_cli(tmp_path, capsys):
    rb_csv = tmp_path / "rb.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "rb", "--seed", "5", "--sequences", "2",
        "--depolarizing", "0.998", "-o", str(rb_csv),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "rb", str(rb_csv))
    assert code == 0
    report = json.loads(out)
    assert report["p"] == pytest.approx(0.998, abs=1e-6)
    assert report["f_avg"] == pytest.approx(0.999, abs=1e-6)


def test_fit_reset_recovers_two_percent(tmp_path, capsys):
    fixture = tmp_path / "reset.csv"
    rng = np.random.default_rng(11)
    n = 10000
    excited = rng.random(n) < 0.02
    samples = np.where(
        excited, rng.normal(1.0, 0.15, n), rng.normal(0.0, 0.15, n)
    )
    np.savetxt(fixture, samples, delimiter=",", header="signal", comments="",
               fmt="%.17g")
    code, out, _ = run_cli(capsys, "fit", "reset", str(fixture))
    assert code == 0
    report = json.loads(out)
    assert report["model"] == "ResetEstimate"
    assert report["weight_e"] == pytest.approx(0.02, abs=0.003)
    assert report["fidelity"] == pytest.approx(0.98, abs=0.003)


def _strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, as jq and other strict parsers do."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_fit_reports_are_strict_json_with_null_for_non_finite_values(tmp_path, capsys):
    t = np.concatenate([[0.0, 1.0, 2.0, 5.0], np.linspace(10.0, 600.0, 20)])
    p = oracles.double_exp_population(t, a=1.0, b=0.0, t_exp=2e4, t_qp=30.0, n_qp=0.0)
    t1_csv = tmp_path / "t1.csv"
    np.savetxt(t1_csv, np.column_stack([t, p]), delimiter=",", header="t_us,p_e",
               comments="", fmt="%.17g")
    code, out, _ = run_cli(capsys, "fit", "t1", str(t1_csv))
    assert code == 0
    report = _strict_json(out)
    assert report["t1_eff"] is None
    assert report["flags"] == ["one-over-e-unreached"]

    rb_csv = tmp_path / "rb.csv"  # three lengths for three parameters
    rb_csv.write_text("length,seq_index,survival\n1,0,0.99\n16,0,0.9\n256,0,0.6\n")
    code, out, _ = run_cli(capsys, "fit", "rb", str(rb_csv))
    assert code == 0
    report = _strict_json(out)
    assert report["covariance"] == [[None] * 3] * 3
    assert report["flags"] == ["covariance-undetermined"]
    assert 0.0 < report["p"] < 1.0

    t = np.linspace(0.0, 300.0, 121)  # a pure Gaussian envelope, noisy
    env = oracles.dephasing_envelope(t, c=1.0, d=0.0, t1_de=200.0, t_phi_exp=math.inf,
                                     t_phi_g=128.0)
    env = env + 0.005 * np.random.default_rng(42).standard_normal(len(t))
    dephasing_csv = tmp_path / "dephasing.csv"
    np.savetxt(dephasing_csv, np.column_stack([t, env]), delimiter=",",
               header="t_us,p_env", comments="", fmt="%.17g")
    code, out, _ = run_cli(capsys, "fit", "dephasing", str(dephasing_csv), "--t1-us", "200")
    assert code == 0
    report = _strict_json(out)
    assert report["t_phi_exp"] is None
    assert report["flags"] == ["exponential-rate-vanished"]


def test_fit_malformed_csv_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_us,p1\n0,1.0\n1,bad,extra\n")
    code, _, err = run_cli(capsys, "fit", "t1", str(bad))
    assert code == 3
    assert "Line #3" in err


def test_fit_missing_csv_exits_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fit", "t1", str(tmp_path / "absent.csv"))
    assert code == 3
    assert err.count("\n") == 1
    assert "absent.csv" in err


def test_fit_non_finite_sample_exits_3(tmp_path, capsys):
    fixture = tmp_path / "t1.csv"
    _write_relaxation_fixture(fixture)
    lines = fixture.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    fixture.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "fit", "t1", str(fixture))
    assert code == 3
    assert "finite" in err


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------


def test_devices_json_has_explicit_nulls(capsys):
    code, out, _ = run_cli(capsys, "devices")
    assert code == 0
    records = json.loads(out)
    assert [r["name"] for r in records] == list("ABCDEFGH")
    by_name = {r["name"]: r for r in records}
    assert by_name["A"]["fidelity_pct"] == 99.990
    assert by_name["A"]["f_q_mhz"] == 208
    assert by_name["H"]["gate_ns"] == 200
    for name in "FGH":
        assert by_name[name]["fidelity_pct"] is None
    assert '"fidelity_pct": null' in out
    assert all(r["fidelity_pct"] != 0 for r in records)


def test_devices_csv_leaves_missing_fidelity_empty(capsys):
    code, out, _ = run_cli(capsys, "devices", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,f_q_mhz,fidelity_pct,gate_ns,t1_us,t2r_us,t2echo_us"
    row_f = next(line for line in lines if line.startswith("F,"))
    assert row_f.split(",")[2] == ""


def test_device_registry_loads_and_validates():
    records = cli.load_devices()
    assert len(records) == 8
    assert len({r["name"] for r in records}) == 8
    for record in records:
        for key in ("f_q_mhz", "gate_ns", "t1_us", "t2r_us", "t2echo_us"):
            assert record[key] > 0


# ---------------------------------------------------------------------------
# exit-code matrix: the cases of byte_matrix.CASES that carry an exit code,
# read from the session's one fresh run of the table; in every case exactly
# one stderr line and no warning
# ---------------------------------------------------------------------------

_EXPECTED = [case for case in byte_matrix.CASES if len(case) == 4]


@pytest.mark.parametrize(
    "name, code, message",
    [(name, code, message) for name, _, code, message in _EXPECTED],
    ids=[case[0] for case in _EXPECTED],
)
def test_exit_code_matrix(cli_records, name, code, message):
    record = cli_records[name]
    assert record["warnings"] == []
    assert record["exit"] == code
    assert "Traceback" not in record["stderr"]
    if code == 0:
        assert record["stderr"] == ""
        assert record["stdout"].startswith(message or "")
    else:
        [line] = record["stderr"].splitlines()
        assert line.startswith(f"uniflux: error: {message}"), line


def test_exit_code_matrix_covers_every_subcommand():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    covered = {argv[0] for _, argv, _, _ in _EXPECTED if argv}
    assert set(commands) <= covered
