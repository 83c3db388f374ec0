"""Byte matrix of the command-line tool: a fixed list of `uniflux` command
lines, each with the stdout, stderr and exit code it gives, the warnings it
raises and the sha256 of every file it writes.

The inputs are written from fixed seeds into a temporary working directory
and named by relative paths, so no record holds a machine path. The records
live in ``data/byte_matrix.json``; ``test_byte_matrix.py`` compares them
with a fresh in-process run. A change that moves an output on purpose
re-records the file and names each moved command.

    python tests/byte_matrix.py                # run in-process, list moved records
    python tests/byte_matrix.py --record       # rewrite data/byte_matrix.json
    python tests/byte_matrix.py --processes N  # each command in N fresh interpreters

``--processes N`` runs every command in N fresh interpreters, with
PYTHONHASHSEED 0 to N - 1, and lists each command whose bytes differ
between them or from the records.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TESTS = pathlib.Path(__file__).resolve().parent
RECORDS = TESTS / "data" / "byte_matrix.json"
EXAMPLE_PROGRAM = TESTS / "data" / "example_program.pulse"


def _column(header: str, values) -> str:
    return header + "\n" + "".join(f"{v!r}\n" for v in values)


def _table(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


_GATE9 = "prim gate envelope 0.0 0.25 0.5 0.75 1.0 0.75 0.5 0.25 0.0\nprim edge edge 0.0 0.5 1.0\n"


def _inputs() -> dict[str, str]:
    """Every input file, by relative path: scenarios, programs, designs and
    CSVs, the random ones from fixed seeds."""
    rng = np.random.default_rng(36)
    t = np.concatenate(([0.0], np.geomspace(0.5, 300.0, 40)))
    t1 = 0.85 * np.exp(-t / 60.0) + 0.05 * np.exp(-t / 4.0) + 0.02
    env = 0.45 * np.exp(-t / 80.0 - 0.01 * t - (t / 50.0) ** 2) + 0.5
    lengths = [1, 2, 4, 8, 16, 32, 64, 128]
    rb = [(m, k, float(0.5 + 0.48 * 0.985**m + rng.normal(0, 0.004)))
          for m in lengths for k in range(3)]
    excited = rng.random(1200) < 0.03
    reset = np.where(excited, rng.normal(4.0, 1.0, 1200), rng.normal(0.0, 1.0, 1200))
    taps = rng.normal(0.0, 0.05, 16)
    taps[7] += 1.0
    fast = {"channel": {"kind": "gaussian", "f_c": 0.092}, "levels": 2, "time_step_ns": 0.02}
    return {
        "example.pulse": EXAMPLE_PROGRAM.read_text(),
        "repeat.pulse": ("prim gate envelope 0.0 0.5 1.0 0.5 0.0\ncarrier 0.2238\n"
                         "repeat 200 {\n  xy gate amp=0.9\n  vz 0.3\n}\n"),
        "z-burst.pulse": ("prim gate envelope 0.0 0.5 1.0 0.5 0.0\nprim edge edge 0.0 0.5 1.0\n"
                          "carrier 0.2238\nz rise=edge hold=0.8,40.0 fall=edge {\n"
                          "  xy gate amp=0.5\n  delay 5.0\n  xy gate amp=0.5\n}\n"),
        "brace.pulse": "prim gate envelope 0.0 0.5 0.0\nrepeat 2 { xy gate\n}\n",
        "nan.pulse": "prim gate envelope 0.0 0.5 1.0 0.5\nxy gate amp=nan\n",
        "carrier-only.pulse": "carrier 0.2\n",
        # 225 000 samples at 1 GS/s: plays, FIR tails, Z edges, holds and the
        # IIR state all cross the synthesizer's block boundaries
        "long.pulse": (_GATE9 + "carrier 0.2238\nrepeat 1500 {\n  xy gate amp=0.3 phase=0.4\n"
                       "  vz 0.7\n  z rise=edge hold=0.15,120.0 fall=edge {\n    delay 10.0\n"
                       "    xy gate amp=0.25\n  }\n  delay 15.0\n}\n"),
        # passes full scale first near sample 54 500 (1.05), and further near
        # 119 900 (1.15), past the first block
        "saturates-late.pulse": (_GATE9 + "repeat 500 {\n  xy gate amp=0.5\n  delay 100.0\n}\n"
                                 "z rise=edge hold=0.6,20.0 fall=edge {\n  xy gate amp=0.45\n}\n"
                                 "repeat 600 {\n  xy gate amp=0.5\n  delay 100.0\n}\n"
                                 "z rise=edge hold=0.7,20.0 fall=edge {\n  xy gate amp=0.45\n}\n"
                                 "delay 50.0\n"),
        # saturates at once through a FIR of gain 4.8, then an IIR whose output
        # overflows turns a later block into NaN
        "nan-late.pulse": _GATE9 + "xy gate amp=1.0\ndelay 70000.0\nz rise=edge hold=0.5,10.0 fall=edge\n",
        "carrier-overflow.pulse": _GATE9 + "carrier 1e308\ndelay 2.0\nxy gate\n",
        "loud-fir.json": json.dumps({"kind": "fir", "taps_float": [0.3] * 16, "taps_int16": None,
                                     "sample_rate_gsps": 1.0}),
        "overflowing-iir.json": json.dumps({"kind": "iir", "sample_rate_gsps": 1.0, "parameters": {
            "sections": [[1e308, 1e308, 0.5]] * 2, "source_exponentials": []}}),
        "fir.json": json.dumps({"kind": "fir", "taps_float": taps.tolist(), "taps_int16": None,
                                "sample_rate_gsps": 1.0}),
        "iir.json": json.dumps({"kind": "iir", "sample_rate_gsps": 1.0, "parameters": {
            "sections": [[1.0, -0.9, -0.95]], "source_exponentials": []}}),
        "fast.json": json.dumps(fast),
        "flat.json": json.dumps({"channel": {"kind": "flat"}, "levels": 2,
                                 "time_step_ns": 0.05}),
        "flat-fc.json": json.dumps({"channel": {"kind": "flat", "f_c": 0.1}}),
        "weak-line.json": json.dumps({**fast, "line": {
            "mutual_inductance": 2e-12, "attenuation_db": -60.0,
            "awg_noise_dbm_per_hz": -130.0, "awg_vmax": 0.05}}),
        "step-0.25.json": json.dumps({"time_step_ns": 0.25}),
        "garbled.json": '{"qubit": ',
        "t1.csv": _table("t_us,p_e", zip(t.tolist(), (t1 + rng.normal(0, 0.003, t.size)).tolist())),
        "dephasing.csv": _table("t_us,envelope",
                                zip(t.tolist(), (env + rng.normal(0, 0.003, t.size)).tolist())),
        "rb.csv": _table("length,seq_index,survival", rb),
        "rb-columns.csv": _table("m,p", [(m, s) for m, _, s in rb]),
        "reset.csv": _column("signal", reset.tolist()),
        "reset-nan.csv": "signal\n" + "0.0\n" * 1000 + "nan\n",
        "reset-overflow.csv": "signal\n" + "1e300\n" * 500 + "-1e300\n" * 500,
        # samples that 512 equal bins cannot resolve: no spread, or less
        # spread than 512 steps of the doubles near 1e17
        "reset-zeros.csv": _column("signal", [0.0] * 1000),
        "reset-1e17.csv": _column("signal", [1e17] * 1000),
        "reset-1e17-steps.csv": _column("signal", [1e17 + 8 * k for k in range(1000)]),
        "empty.csv": "",
        "t1-bad-cell.csv": "t_us,p_e\n0,1\n1,abc\n",
        # data that put every fit start outside the bounds, and survivals that rise
        "offset-1.2.csv": _table("t_us,p_e", zip(t.tolist(),
                                                 (1.5 * np.exp(-t / 60.0) + 1.2).tolist())),
        "rb-above-1.csv": _table("length,seq_index,survival",
                                 [(1, 0, 1.5), (2, 0, 1.4), (4, 0, 1.3), (8, 0, 1.2),
                                  (16, 0, 1.1)]),
        "rb-rising.csv": _table("length,seq_index,survival",
                                [(1, 0, 0.5), (2, 0, 0.6), (4, 0, 0.7), (8, 0, 0.8)]),
        # a length past int64
        "rb-1e19.csv": _table("length,seq_index,survival",
                              [(1, 0, 0.97), (2, 0, 0.95), (4, 0, 0.91), (8, 0, 0.84),
                               (1e19, 0, 0.5)]),
        # a cutoff whose Gaussian squares past the float range
        "tiny-fc.json": json.dumps({"channel": {"kind": "gaussian", "f_c": 1e-300}}),
    }


FIR_IIR = ("--fir", "fir.json", "--iir", "iir.json")

# (id, argv); every subcommand, with successes and refusals
COMMANDS = [
    ("version", ("--version", "--provenance")),
    ("no-command", ()),
    ("unknown-command", ("frobnicate",)),
    ("spectrum", ("spectrum", "-n", "7", "--levels", "6")),
    ("spectrum-to-file", ("spectrum", "--from", "0.4", "--to", "0.5", "-n", "3", "--levels",
                          "3", "-o", "spectrum.csv")),
    ("spectrum-overflowing-ej", ("spectrum", "--ej", "1.7e308", "--ec", "1.2", "--el", "0.9",
                                 "--from", "0.3", "--to", "0.3", "-n", "1", "--levels", "3")),
    ("spectrum-basis-too-small", ("spectrum", "--basis-size", "24", "--levels", "4", "-n", "5")),
    ("spectrum-levels-over-a-third", ("spectrum", "--levels", "50")),
    ("spectrum-non-finite", ("spectrum", "--to", "nan")),
    ("tradeoff", ("tradeoff", "-n", "5")),
    ("tradeoff-one-point", ("tradeoff", "-n", "1", "--alpha-from", "-50", "--alpha-to", "-50")),
    ("tradeoff-silent-awg", ("tradeoff", "--noise", "-inf", "-n", "5")),
    ("tradeoff-to-file", ("tradeoff", "--vmax", "0.3", "-n", "4", "-o", "tradeoff.csv")),
    ("tradeoff-reversed", ("tradeoff", "--alpha-from", "-20", "--alpha-to", "-80")),
    ("tradeoff-rate-underflows", ("tradeoff", "--alpha-from", "-4000", "-n", "3")),
    ("tradeoff-transmission-underflows", ("tradeoff", "--alpha-from", "-20000", "-n", "3")),
    ("tradeoff-coupling-overflows", ("tradeoff", "--mutual", "1e200", "-n", "3")),
    ("tradeoff-noise-overflows", ("tradeoff", "--noise", "4000", "-n", "3")),
    ("design-gauss", ("design", "gauss")),
    ("design-inverse", ("design", "inverse", "--fq", "0.2238")),
    ("design-fir-to-file", ("design", "fir", "--fq", "0.2238", "--rate", "1", "-o",
                            "fir-out.json")),
    ("design-fir-no-quantize", ("design", "fir", "--fq", "0.2238", "--rate", "1", "--no-quantize")),
    ("design-fir-gauss", ("design", "fir", "--fq", "0.2238", "--rate", "1", "--target", "gauss")),
    ("design-iir-to-file", ("design", "iir", "--exp", "-0.0174:34", "--exp", "0.01:200",
                            "--rate", "1", "-o", "iir-out.json")),
    ("design-iir-no-exp", ("design", "iir", "--rate", "1")),
    ("design-fir-rate-below-twice-fq", ("design", "fir", "--rate", "0.3", "--fq", "0.208")),
    ("design-fir-tiny-fc", ("design", "fir", "--fc", "1e-300", "--fq", "0.2", "--rate", "1")),
    ("compile", ("compile", "example.pulse", "--rate", "1")),
    ("compile-memory", ("compile", "example.pulse", "--rate", "2", "--report-memory")),
    ("compile-filtered", ("compile", "example.pulse", "--rate", "1", *FIR_IIR,
                          "--report-memory")),
    ("compile-to-file", ("compile", "example.pulse", "--rate", "1", "-o", "example.bin",
                         "--report-memory")),
    ("compile-repeat", ("compile", "repeat.pulse", "--rate", "1", "--report-memory")),
    ("compile-repeat-filtered-12-bit", ("compile", "repeat.pulse", "--rate", "1", *FIR_IIR,
                                        "--dac-bits", "12", "--report-memory")),
    ("compile-z-burst-saturates", ("compile", "z-burst.pulse", "--rate", "1")),
    ("compile-carrier-only-iir", ("compile", "carrier-only.pulse", "--rate", "1", "--iir",
                                  "iir.json")),
    ("compile-long-filtered-to-file", ("compile", "long.pulse", "--rate", "1", *FIR_IIR,
                                       "--report-memory", "-o", "long.bin")),
    ("compile-long-filtered", ("compile", "long.pulse", "--rate", "1", *FIR_IIR,
                               "--report-memory")),
    ("compile-saturates-past-the-first-block", ("compile", "saturates-late.pulse", "--rate", "1",
                                                "-o", "late.bin")),
    ("compile-nan-after-saturation", ("compile", "nan-late.pulse", "--rate", "1", "--fir",
                                      "loud-fir.json", "--iir", "overflowing-iir.json", "-o",
                                      "nan.bin")),
    ("compile-carrier-phase-overflows", ("compile", "carrier-overflow.pulse", "--rate", "1",
                                         "-o", "carrier.bin")),
    ("compile-brace-not-ending-line", ("compile", "brace.pulse", "--rate", "1")),
    ("compile-non-finite-program", ("compile", "nan.pulse", "--rate", "1")),
    ("compile-missing-program", ("compile", "absent.pulse", "--rate", "1")),
    ("simulate-rabi", ("simulate", "rabi", "--scenario", "fast.json", "--points", "5")),
    ("simulate-rabi-flat", ("simulate", "rabi", "--scenario", "flat.json", "--no-predistort",
                            "--points", "9")),
    ("simulate-rabi-saturates", ("simulate", "rabi", "--scenario", "weak-line.json",
                                 "--points", "5", "--amp-max", "0.2")),
    ("simulate-gate", ("simulate", "gate", "--scenario", "fast.json")),
    ("simulate-gate-trim", ("simulate", "gate", "--scenario", "fast.json", "--trim-frequency")),
    ("simulate-gate-flat", ("simulate", "gate", "--scenario", "flat.json", "--no-predistort")),
    ("simulate-gate-saturates", ("simulate", "gate", "--scenario", "weak-line.json")),
    ("simulate-gate-just-under-four-samples", ("simulate", "gate", "--duration", "3.9999999")),
    ("simulate-gate-flat-channel-with-fc", ("simulate", "gate", "--scenario", "flat-fc.json")),
    ("simulate-gate-tiny-fc", ("simulate", "gate", "--scenario", "tiny-fc.json")),
    ("simulate-rb-to-file", ("simulate", "rb", "-o", "rb-out.csv")),
    ("simulate-rb-waveform", ("simulate", "rb", "--mode", "waveform", "--lengths", "1,4,8",
                              "--sequences", "2", "--scenario", "fast.json")),
    ("simulate-rb-waveform-interleaved", ("simulate", "rb", "--mode", "waveform", "--lengths",
                                          "1,4", "--sequences", "2", "--interleaved", "4",
                                          "--scenario", "fast.json")),
    ("simulate-rb-waveform-unstable-step", ("simulate", "rb", "--mode", "waveform",
                                            "--lengths", "1", "--sequences", "1",
                                            "--scenario", "step-0.25.json")),
    ("simulate-rb-interleaved-24", ("simulate", "rb", "--interleaved", "24")),
    ("simulate-garbled-scenario", ("simulate", "rb", "--scenario", "garbled.json")),
    ("fit-t1", ("fit", "t1", "t1.csv")),
    ("fit-dephasing", ("fit", "dephasing", "dephasing.csv", "--t1-us", "60")),
    ("fit-dephasing-no-t1", ("fit", "dephasing", "dephasing.csv")),
    ("fit-rb", ("fit", "rb", "rb.csv")),
    ("fit-rb-wrong-columns", ("fit", "rb", "rb-columns.csv")),
    ("fit-t1-offset-outside-bounds", ("fit", "t1", "offset-1.2.csv")),
    ("fit-dephasing-offset-outside-bounds", ("fit", "dephasing", "offset-1.2.csv", "--t1-us",
                                            "50")),
    ("fit-rb-offset-outside-bounds", ("fit", "rb", "rb-above-1.csv")),
    ("fit-rb-rising", ("fit", "rb", "rb-rising.csv")),
    ("fit-rb-length-past-int64", ("fit", "rb", "rb-1e19.csv")),
    ("fit-reset-to-file", ("fit", "reset", "reset.csv", "-o", "reset-out.json")),
    ("fit-reset-lower", ("fit", "reset", "reset.csv", "--excited-component", "lower")),
    ("fit-reset-non-finite", ("fit", "reset", "reset-nan.csv")),
    ("fit-reset-overflowing", ("fit", "reset", "reset-overflow.csv")),
    ("fit-reset-zeros", ("fit", "reset", "reset-zeros.csv")),
    ("fit-reset-1e17", ("fit", "reset", "reset-1e17.csv")),
    ("fit-reset-1e17-steps", ("fit", "reset", "reset-1e17-steps.csv")),
    ("fit-empty-csv", ("fit", "t1", "empty.csv")),
    ("fit-t1-bad-cell", ("fit", "t1", "t1-bad-cell.csv")),
    ("devices", ("devices",)),
    ("devices-csv", ("devices", "--format", "csv")),
    ("devices-csv-to-file", ("devices", "--format", "csv", "-o", "devices.csv")),
    ("devices-bad-format", ("devices", "--format", "nan")),
]


def _digests(root: pathlib.Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


def _run(argv) -> dict:
    """One command through ``cli.main`` in the working directory."""
    from uniflux import cli

    out, err = io.StringIO(), io.StringIO()
    before = _digests(pathlib.Path.cwd())
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse reports a bad command line this way
            code = exc.code
    after = _digests(pathlib.Path.cwd())
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [str(w.message) for w in caught],
        "files": {name: sha for name, sha in after.items() if before.get(name) != sha},
    }


@contextlib.contextmanager
def _workdir():
    """A fresh temporary working directory holding the inputs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _inputs().items():
            (pathlib.Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def run_all(commands=COMMANDS) -> dict:
    """The records of ``commands``, run in one process, in one working directory."""
    with _workdir():
        return {name: _run(argv) for name, argv in commands}


def recorded() -> dict:
    return json.loads(RECORDS.read_text())


def moved(records: dict) -> list[str]:
    """Ids whose record differs from the kept one, or that either side lacks."""
    kept = recorded()
    return sorted(name for name in kept.keys() | records.keys()
                  if kept.get(name) != records.get(name))


def _in_fresh_interpreters(processes: int) -> dict[str, list]:
    """Each command's record from ``processes`` fresh interpreters."""
    src = str(TESTS.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def child(job):
        name, seed = job
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
        done = subprocess.run([sys.executable, __file__, "--child", name], env=env,
                              capture_output=True, text=True, check=True)
        return name, json.loads(done.stdout)

    jobs = [(name, seed) for name, _ in COMMANDS for seed in range(processes)]
    runs: dict[str, list] = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, record in pool.map(child, jobs):
            runs.setdefault(name, []).append(record)
    return runs


def main() -> int:
    sys.path.insert(0, str(TESTS.parent / "src"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="rewrite the records")
    parser.add_argument("--processes", type=int, metavar="N",
                        help="run each command in N fresh interpreters")
    parser.add_argument("--child", metavar="ID", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        json.dump(run_all([c for c in COMMANDS if c[0] == args.child])[args.child], sys.stdout)
        return 0
    if args.processes:
        kept = recorded()
        runs = _in_fresh_interpreters(args.processes)
        differ = [name for name, _ in COMMANDS
                  if any(record != kept.get(name) for record in runs[name])]
        print(f"{len(COMMANDS) - len(differ)} of {len(COMMANDS)} commands gave the recorded "
              f"bytes in each of {args.processes} fresh interpreters")
        for name in differ:
            print(f"differs: {name}")
        return 1 if differ else 0
    records = run_all()
    if args.record:
        RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(records)} commands in {RECORDS.name}")
        return 0
    changed = moved(records)
    print(f"{len(records) - len(changed)} of {len(records)} records unchanged")
    for name in changed:
        print(f"moved: {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
