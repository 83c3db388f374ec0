"""The one table of command-line cases: a fixed list of `uniflux` command
lines, each recorded with the stdout, stderr and exit code it gives, the
warnings it raises and the sha256 of every file it writes. A case of the
exit-code matrix also carries the exit code and message that
``test_cli.py::test_exit_code_matrix`` expects of it. A CLI fix adds its case
here, once.

The inputs are written from fixed seeds into a temporary working directory
and named by relative paths, so no record holds a machine path. The records
live in ``data/byte_matrix.json``; ``test_byte_matrix.py`` compares them
with a fresh in-process run and checks that each keeps the CLI contract. A
change that moves an output on purpose re-records the file and names each
moved command.

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


def _inputs() -> dict[str, str | bytes | None]:
    """Every input file, by relative path: text, bytes, or None for a
    directory. Scenarios, programs, designs and CSVs, the random ones from
    fixed seeds."""
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
        "dir": None,
        # programs
        "example.pulse": EXAMPLE_PROGRAM.read_text(),
        "repeat.pulse": ("prim gate envelope 0.0 0.5 1.0 0.5 0.0\ncarrier 0.2238\n"
                         "repeat 200 {\n  xy gate amp=0.9\n  vz 0.3\n}\n"),
        "z-burst.pulse": ("prim gate envelope 0.0 0.5 1.0 0.5 0.0\nprim edge edge 0.0 0.5 1.0\n"
                          "carrier 0.2238\nz rise=edge hold=0.8,40.0 fall=edge {\n"
                          "  xy gate amp=0.5\n  delay 5.0\n  xy gate amp=0.5\n}\n"),
        "brace.pulse": "prim gate envelope 0.0 0.5 0.0\nrepeat 2 { xy gate\n}\n",
        "nan.pulse": "prim gate envelope 0.0 0.5 1.0 0.5\nxy gate amp=nan\n",
        "amp-oops.pulse": "prim gate envelope 0.0 0.5 1.0 0.5\ncarrier 0.2\nxy gate amp=oops\n",
        "vz-nan.pulse": "prim gate envelope 0.0 0.5 1.0 0.5\nvz 0.1\nvz nan\n",
        "carrier-inf.pulse": "prim gate envelope 0.0 0.5 1.0 0.5\nvz 0.1\ncarrier inf\n",
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
        "garbled.pulse": b"\xff\xfe\x00prim",
        "samples.txt": "1.0 x 0.5\n",
        "file-primitive.pulse": "prim p file samples.txt\nxy p\n",
        # the carrier phase overflows: 2 pi * 1e308 is inf
        "huge-carrier-silent.pulse": "carrier 1e308\ndelay 2\n",
        "huge-carrier-play.pulse": "prim p envelope 0.5 0.5\ncarrier 1e308\nxy p\n",
        # the composite rounds to 1.0000000000000002
        "full-scale-play.pulse": (
            "prim p envelope 0.0 1.0 0.0\ncarrier 2.9884235703558835\n"
            "xy p amp=1.0 phase=3.1052242272650368\n"
        ),
        # designs
        "loud-fir.json": json.dumps({"kind": "fir", "taps_float": [0.3] * 16, "taps_int16": None,
                                     "sample_rate_gsps": 1.0}),
        "overflowing-iir.json": json.dumps({"kind": "iir", "sample_rate_gsps": 1.0, "parameters": {
            "sections": [[1e308, 1e308, 0.5]] * 2, "source_exponentials": []}}),
        "fir.json": json.dumps({"kind": "fir", "taps_float": taps.tolist(), "taps_int16": None,
                                "sample_rate_gsps": 1.0}),
        "iir.json": json.dumps({"kind": "iir", "sample_rate_gsps": 1.0, "parameters": {
            "sections": [[1.0, -0.9, -0.95]], "source_exponentials": []}}),
        "list.json": "[]",
        "fir-kind-only.json": '{"kind": "fir"}',
        "fir-nan-tap.json": (
            '{"kind": "fir", "taps_float": [NaN, 0.5], "taps_int16": null, '
            '"sample_rate_gsps": 2.0}'
        ),
        "iir-nan-section.json": (
            '{"kind": "iir", "sample_rate_gsps": 2.0, "parameters": '
            '{"sections": [[NaN, 0.0, -0.5]], "source_exponentials": []}}'
        ),
        "fir-int16-beside-float.json": (
            '{"kind": "fir", "taps_float": [0.5, 0.5], "taps_int16": [99999, 1, 2], '
            '"sample_rate_gsps": 2.0}'
        ),
        "fir-empty-taps.json": (
            '{"kind": "fir", "taps_float": [], "taps_int16": null, "sample_rate_gsps": 2.0}'
        ),
        "fir-nested-taps.json": (
            '{"kind": "fir", "taps_float": [[0.5], [0.5]], "taps_int16": null, '
            '"sample_rate_gsps": 2.0}'
        ),
        "fir-boolean-taps.json": (
            '{"kind": "fir", "taps_float": [true, false], "taps_int16": null, '
            '"sample_rate_gsps": 2.0}'
        ),
        "fir-infinite-rate.json": (
            '{"kind": "fir", "taps_float": [0.5, 0.5], "taps_int16": null, '
            '"sample_rate_gsps": Infinity}'
        ),
        "iir-nan-rate.json": (
            '{"kind": "iir", "sample_rate_gsps": NaN, "parameters": '
            '{"sections": [[1.0, -0.5, -0.5]], "source_exponentials": []}}'
        ),
        # a first-order inverse section is stable only with its pole inside the
        # unit circle (Rol et al., Appl. Phys. Lett. 116, 054001 (2020))
        "iir-unstable-pole.json": (
            '{"kind": "iir", "sample_rate_gsps": 2.0, "parameters": '
            '{"sections": [[1.0, -0.5, -1.5]], "source_exponentials": []}}'
        ),
        # scenarios
        "fast.json": json.dumps(fast),
        "flat.json": json.dumps({"channel": {"kind": "flat"}, "levels": 2,
                                 "time_step_ns": 0.05}),
        "flat-fc.json": json.dumps({"channel": {"kind": "flat", "f_c": 0.1}}),
        "weak-line.json": json.dumps({**fast, "line": {
            "mutual_inductance": 2e-12, "attenuation_db": -60.0,
            "awg_noise_dbm_per_hz": -130.0, "awg_vmax": 0.05}}),
        # 0.25 ns exceeds 1/(20 f01) = 0.2234 ns at the reference f01
        "step-0.25.json": json.dumps({"time_step_ns": 0.25}),
        "garbled.json": '{"qubit": ',
        # a cutoff whose (f sigma)^2 overflows to inf, and |H| = exp(-inf) = 0
        "tiny-fc.json": json.dumps({"channel": {"kind": "gaussian", "f_c": 1e-300}}),
        # a cutoff whose sigma = sqrt(ln 2) / f_c overflows
        "subnormal-fc.json": json.dumps({"channel": {"kind": "gaussian", "f_c": 5e-324}}),
        "qubit-5.json": '{"qubit": 5}',
        "chanel.json": '{"chanel": {"kind": "flat"}}',
        "bessel.json": '{"channel": {"kind": "bessel"}}',
        "ej-nan.json": '{"qubit": {"e_j": NaN, "e_c": 1.1, "e_l": 0.5}}',
        "inf-step.json": '{"time_step_ns": Infinity}',
        "levels-2.7.json": '{"levels": 2.7}',
        "levels-true.json": '{"levels": true}',
        # f01 = 5.40 GHz, where the 92 MHz Gaussian's |H| underflows to 0
        "zero-flux.json": '{"qubit": {"e_j": 4.5, "e_c": 1.1, "e_l": 0.5, "phi_ext": 0.0}}',
        "basis-60.7.json": '{"qubit": {"e_j": 4.5, "e_c": 1.1, "e_l": 0.5, "basis_size": 60.7}}',
        # f01 = 4.08 and 2.49 GHz, where the 92 MHz Gaussian passes ~3e-297 and ~4e-109
        "quarter-flux.json": (
            '{"qubit": {"e_j": 4.5, "e_c": 1.1, "e_l": 0.5, "phi_ext": 0.25}, "levels": 2, '
            '"time_step_ns": 0.01}'
        ),
        "flux-0.35.json": (
            '{"qubit": {"e_j": 4.5, "e_c": 1.1, "e_l": 0.5, "phi_ext": 0.35}, "levels": 2, '
            '"time_step_ns": 0.01}'
        ),
        # a 1 MHz Gaussian, whose |H| underflows to 0 at f01 = 0.224 GHz
        "deaf-channel.json": '{"channel": {"kind": "gaussian", "f_c": 0.001}}',
        # f01 = 0.858 GHz, above the 0.5 GHz Nyquist frequency of the 1 GS/s drive sampling
        "flux-0.45-wide-channel.json": (
            '{"qubit": {"e_j": 4.5, "e_c": 1.1, "e_l": 0.5, "phi_ext": 0.45}, '
            '"channel": {"kind": "gaussian", "f_c": 5.0}}'
        ),
        # every scenario field but the channel's kind and levels is a JSON number
        "step-true.json": '{"time_step_ns": true}',
        "step-string.json": '{"time_step_ns": "0.02"}',
        "step-null.json": '{"time_step_ns": null}',
        "ej-true.json": '{"qubit": {"e_j": true, "e_c": 1.1, "e_l": 0.5}}',
        "ej-null.json": '{"qubit": {"e_j": null, "e_c": 1.1, "e_l": 0.5}}',
        "fc-true.json": '{"channel": {"f_c": true}}',
        "vmax-string.json": (
            '{"line": {"mutual_inductance": 2e-12, "attenuation_db": -30, '
            '"awg_noise_dbm_per_hz": -130, "awg_vmax": "0.5"}}'
        ),
        # CSVs
        "t1.csv": _table("t_us,p_e", zip(t.tolist(), (t1 + rng.normal(0, 0.003, t.size)).tolist())),
        "dephasing.csv": _table("t_us,envelope",
                                zip(t.tolist(), (env + rng.normal(0, 0.003, t.size)).tolist())),
        "rb.csv": _table("length,seq_index,survival", rb),
        "rb-columns.csv": _table("m,p", [(m, s) for m, _, s in rb]),
        "reset.csv": _column("signal", reset.tolist()),
        "reset-nan.csv": "signal\n" + "0.0\n" * 1000 + "nan\n",
        "reset-inf.csv": "signal\n" + "0.0\n" * 1000 + "-inf\n",
        # finite samples whose spread, squared, overflows
        "reset-overflow.csv": "signal\n" + "1e300\n" * 500 + "-1e300\n" * 500,
        # samples that 512 equal bins cannot resolve: no spread, or less
        # spread than 512 steps of the doubles near 1e17
        "reset-zeros.csv": _column("signal", [0.0] * 1000),
        "reset-1e17.csv": _column("signal", [1e17] * 1000),
        "reset-1e17-steps.csv": _column("signal", [1e17 + 8 * k for k in range(1000)]),
        "empty.csv": "",
        "t1-bad-cell.csv": "t_us,p_e\n0,1\n1,abc\n",
        "garbled.csv": "t_us,p1\n0,1.0\n1,bad,extra\n",
        "wrong-shape.csv": "a,b,c\n1,2,3\n",
        "nan.csv": "t_us,p_e\n0,1.0\n1,nan\n2,0.5\n",
        "rb-nan.csv": "length,seq_index,survival\n1,0,0.9\nnan,0,0.8\n",
        "rb-fractional.csv": ("length,seq_index,survival\n1,0,0.99\n2,0,0.98\n2.5,0,0.5\n"
                              "4,0,0.96\n"),
        "rb-length-0.csv": "length,seq_index,survival\n0,0,1.0\n1,0,0.99\n2,0,0.98\n4,0,0.96\n",
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
    }


FIR_IIR = ("--fir", "fir.json", "--iir", "iir.json")
_PROGRAM = ("compile", "example.pulse", "--rate", "2")
_TRADEOFF_HEADER = "alpha_db,rabi_mhz,t1_line_us,max_excursion_phi0"
_BAD_EXP = ("argument --exp: must be AMPLITUDE:TAU_NS with a finite amplitude and a positive "
            "finite tau, e.g. -0.0174:34")
_BAD_RATE = "argument --rate: must be positive and finite, got"
_FOUR_SAMPLE_GATE = ("a pi pulse at f01 = 0.223769 GHz starts at a 3.51 V peak, beyond the "
                     "AWG full scale 0.5 V: the line passes |H| = 0.98 of it")

# The one table of CLI cases, every subcommand with successes and refusals.
# A row is (id, argv), or (id, argv, exit code, message) for a case of the
# exit-code matrix: 2 the command line is wrong, 3 an input file is wrong or
# a domain error occurred, 4 a numerical result failed its convergence check.
# The message is the start of the one stderr line after "uniflux: error: ",
# or on exit 0 the start of stdout (None: any).
CASES = [
    ("version", ("--version", "--provenance")),
    ("no-command", (), 2, "a command is required"),
    ("unknown-command", ("frobnicate",), 2, "argument COMMAND: invalid choice"),
    # spectrum
    ("spectrum", ("spectrum", "-n", "7", "--levels", "6")),
    ("spectrum-to-file", ("spectrum", "--from", "0.4", "--to", "0.5", "-n", "3", "--levels",
                          "3", "-o", "spectrum.csv")),
    ("spectrum-non-finite-option", ("spectrum", "--to", "nan"), 2,
     "argument --to: must be finite"),
    ("spectrum-reversed-range", ("spectrum", "--from", "0.7", "--to", "0.3"), 2,
     "--from must not exceed --to"),
    ("spectrum-infinite-ej", ("spectrum", "--ej", "inf"), 2, "argument --ej: must be"),
    ("spectrum-basis-size-5", ("spectrum", "--basis-size", "5"), 2, "argument --basis-size:"),
    ("spectrum-one-level", ("spectrum", "--levels", "1"), 2, "argument --levels:"),
    ("spectrum-levels-over-a-third-of-basis", ("spectrum", "--levels", "50"), 2,
     "--levels 50 exceeds 40"),
    # at flux 0 the reference circuit keeps 1.0e-5 of level 1 in the top 4 of 24 states
    ("spectrum-basis-too-small", ("spectrum", "--basis-size", "24", "--levels", "4", "-n", "5"),
     4, "sweep row 0 (flux=0.0): basis 24 too small: level"),
    # E_J 1.7e308 overflows H + H^T; E_C 1e308 overflows phi_zpf and the LC diagonal
    ("spectrum-overflowing-ej",
     ("spectrum", "--ej", "1.7e308", "--ec", "1.2", "--el", "0.9", "--from", "0.3", "--to",
      "0.3", "-n", "1", "--levels", "3"), 3,
     "sweep row 0 (flux=0.3): Hamiltonian is not finite"),
    ("spectrum-overflowing-ec",
     ("spectrum", "--ec", "1e308", "--from", "0.3", "--to", "0.3", "-n", "1", "--levels", "3"),
     3, "sweep row 0 (flux=0.3): Hamiltonian is not finite"),
    ("spectrum-negative-exponent",
     ("spectrum", "--from", "-1e-3", "--to", "0.01", "-n", "2", "--levels", "2"), 0, None),
    # tradeoff
    ("tradeoff", ("tradeoff", "-n", "5")),
    ("tradeoff-one-point", ("tradeoff", "-n", "1", "--alpha-from", "-50", "--alpha-to", "-50")),
    # a silent AWG leaves T1_line unlimited at every attenuation
    ("tradeoff-silent-awg", ("tradeoff", "--noise", "-inf", "-n", "5"), 0,
     f"{_TRADEOFF_HEADER}\n-80.0,8.032884102209929,unlimited,0.0009671956970500271\n"
     "-65.0,45.17222691137219,unlimited,0.005438941099975157\n"
     "-50.0,254.02209943140193,unlimited,0.030585413457922848\n"
     "-35.0,1428.4712402188918,unlimited,0.17199441935423074\n"
     "-20.0,8032.884102209929,unlimited,"),
    ("tradeoff-to-file", ("tradeoff", "--vmax", "0.3", "-n", "4", "-o", "tradeoff.csv")),
    ("tradeoff-reversed", ("tradeoff", "--alpha-from", "-20", "--alpha-to", "-80")),
    ("tradeoff-non-finite-option", ("tradeoff", "--mutual", "nan"), 2, "argument --mutual:"),
    ("tradeoff-nan-alpha-from", ("tradeoff", "--alpha-from", "nan"), 2,
     "argument --alpha-from: must be finite"),
    ("tradeoff-no-points", ("tradeoff", "-n", "0"), 2,
     "argument -n/--points: must be an integer in [1, inf], got '0'"),
    ("tradeoff-vmax-0", ("tradeoff", "--vmax", "0"), 2, "argument --vmax:"),
    ("tradeoff-noise-plus-inf", ("tradeoff", "--noise", "inf"), 2, "argument --noise:"),
    ("tradeoff-negative-exponent", ("tradeoff", "--alpha-from", "-8e1", "-n", "3"), 0, None),
    ("tradeoff-abbreviated-option", ("tradeoff", "--alpha-f", "-8e1"), 2,
     "unrecognized arguments: --alpha-f"),
    # a rate past the float range: T1_line 0.0 when it overflows, unlimited when it underflows
    ("tradeoff-rate-underflows", ("tradeoff", "--alpha-from", "-4000", "-n", "3"), 0,
     f"{_TRADEOFF_HEADER}\n-4000.0,8.032884102209929e-196,unlimited,"),
    ("tradeoff-transmission-underflows", ("tradeoff", "--alpha-from", "-20000", "-n", "3"), 0,
     f"{_TRADEOFF_HEADER}\n-20000.0,0.0,unlimited,0.0\n"),
    ("tradeoff-coupling-overflows", ("tradeoff", "--mutual", "1e200", "-n", "3"), 0,
     f"{_TRADEOFF_HEADER}\n-80.0,4.016442051104964e+212,0.0,"),
    ("tradeoff-noise-overflows", ("tradeoff", "--noise", "4000", "-n", "3"), 0,
     f"{_TRADEOFF_HEADER}\n-80.0,8.032884102209929,0.0,"),
    # a drive past the float range reads inf; "unlimited" is T1_line's word alone
    ("tradeoff-drive-overflows",
     ("tradeoff", "-n", "2", "--mutual", "1e300", "--alpha-from", "-1", "--alpha-to", "0"), 0,
     f"{_TRADEOFF_HEADER}\n-1.0,inf,0.0,inf\n0.0,inf,0.0,inf\n"),
    # design
    ("design-gauss", ("design", "gauss")),
    ("design-inverse", ("design", "inverse", "--fq", "0.2238")),
    ("design-fir-to-file", ("design", "fir", "--fq", "0.2238", "--rate", "1", "-o",
                            "fir-out.json")),
    ("design-fir-no-quantize", ("design", "fir", "--fq", "0.2238", "--rate", "1", "--no-quantize")),
    ("design-fir-gauss", ("design", "fir", "--fq", "0.2238", "--rate", "1", "--target", "gauss")),
    ("design-iir-to-file", ("design", "iir", "--exp", "-0.0174:34", "--exp", "0.01:200",
                            "--rate", "1", "-o", "iir-out.json")),
    ("design-iir-no-exp", ("design", "iir", "--rate", "1"), 2,
     "design iir requires at least one --exp"),
    ("design-fir-no-rate", ("design", "fir", "--target", "inverse", "--fq", "0.208", "--taps",
                            "16"), 2, "design fir requires --rate"),
    ("design-inverse-no-fq", ("design", "inverse"), 2, "an inverse design requires --fq"),
    ("design-iir-garbled-exp", ("design", "iir", "--rate", "2", "--exp", "oops"), 2,
     f"{_BAD_EXP}, got 'oops'"),
    ("design-iir-nan-amplitude", ("design", "iir", "--rate", "2", "--exp", "nan:34"), 2,
     f"{_BAD_EXP}, got 'nan:34'"),
    ("design-iir-infinite-tau", ("design", "iir", "--rate", "2", "--exp", "-0.0174:inf"), 2,
     f"{_BAD_EXP}, got '-0.0174:inf'"),
    ("design-iir-nan-tau", ("design", "iir", "--rate", "2", "--exp", "-0.0174:nan"), 2,
     f"{_BAD_EXP}, got '-0.0174:nan'"),
    *((f"design-{kind}-rate-{rate}",
       ("design", kind, "--fq", "0.2", "--exp", "-0.0174:34", "--rate", rate), 2,
       f"{_BAD_RATE} {rate!r}") for kind in ("fir", "iir") for rate in ("inf", "nan", "0")),
    ("design-non-finite-option", ("design", "gauss", "--fc", "inf"), 2, "argument --fc:"),
    ("design-fc-0", ("design", "gauss", "--fc", "0"), 2, "argument --fc:"),
    ("design-no-taps", ("design", "fir", "--rate", "2", "--taps", "0"), 2, "argument --taps:"),
    ("design-odd-taps", ("design", "fir", "--rate", "2", "--taps", "15"), 2,
     "argument --taps: must be an even integer"),
    ("design-fir-tiny-fc", ("design", "fir", "--fc", "1e-300", "--fq", "0.2", "--rate", "1"),
     3, "cannot quantize all-zero taps"),
    # below sqrt(ln 2) / DBL_MAX a cutoff's sigma overflows, and |H(0)| = 0 * inf = NaN
    ("design-gauss-subnormal-fc", ("design", "gauss", "--fc", "5e-324"), 3,
     "f_c 5e-324 GHz is too small"),
    ("design-inverse-subnormal-window-cutoff",
     ("design", "inverse", "--fq", "0.2", "--window-cutoff", "5e-324"), 3,
     "window_cutoff 5e-324 GHz is too small"),
    ("design-fir-subnormal-fc", ("design", "fir", "--fc", "5e-324", "--fq", "0.2", "--rate", "1"),
     3, "f_c 5e-324 GHz is too small"),
    ("design-fir-rate-below-twice-fq", ("design", "fir", "--rate", "0.3", "--fq", "0.208"), 2,
     "--rate 0.3 GS/s cannot represent the 0.208 GHz band"),
    # compile
    ("compile", ("compile", "example.pulse", "--rate", "1")),
    ("compile-memory", ("compile", "example.pulse", "--rate", "2", "--report-memory")),
    ("compile-filtered", ("compile", "example.pulse", "--rate", "1", *FIR_IIR,
                          "--report-memory")),
    ("compile-to-file", ("compile", "example.pulse", "--rate", "1", "-o", "example.bin",
                         "--report-memory")),
    ("compile-repeat", ("compile", "repeat.pulse", "--rate", "1", "--report-memory")),
    ("compile-repeat-filtered-12-bit", ("compile", "repeat.pulse", "--rate", "1", *FIR_IIR,
                                        "--dac-bits", "12", "--report-memory")),
    ("compile-z-burst-saturates", ("compile", "z-burst.pulse", "--rate", "1"), 3,
     "peak 1.1666276731112803 at sample 5"),
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
    ("compile-non-finite-option", ("compile", "example.pulse", "--rate", "inf"), 2,
     f"{_BAD_RATE} 'inf'"),
    ("compile-nan-rate", ("compile", "example.pulse", "--rate", "nan"), 2, f"{_BAD_RATE} 'nan'"),
    ("compile-rate-0", ("compile", "example.pulse", "--rate", "0"), 2, f"{_BAD_RATE} '0'"),
    # at 1e17 GS/s the example's 24 ns of delays and holds take 2.4e18 int16
    # codes, and at 1e19 GS/s more samples than an int64 index counts
    ("compile-rate-1e17", ("compile", "example.pulse", "--rate", "1e17"), 3,
     "Unable to allocate 4.16 EiB for an array with shape (2400000000000000050,) and data type "
     "int16"),
    ("compile-rate-1e19", ("compile", "example.pulse", "--rate", "1e19"), 3,
     "240000000000000000050 samples at 1e+19 GS/s overflow an int64 sample index"),
    # the DAC full scale in volts belongs to the scenario's line, not to compile
    ("compile-full-scale", (*_PROGRAM, "--full-scale", "nan"), 2,
     "unrecognized arguments: --full-scale nan"),
    ("compile-dac-bits-20", (*_PROGRAM, "--dac-bits", "20"), 2, "argument --dac-bits:"),
    ("compile-missing-program", ("compile", "absent.pulse", "--rate", "1"), 3,
     "absent.pulse: No such file"),
    ("compile-directory-program", ("compile", "dir", "--rate", "2"), 3, "dir: "),
    ("compile-garbled-program", ("compile", "garbled.pulse", "--rate", "2"), 3, "garbled.pulse: "),
    ("compile-non-finite-program", ("compile", "nan.pulse", "--rate", "1"), 3,
     "nan.pulse: amplitude nan outside [-1, 1] (line 2"),
    ("compile-garbled-amplitude", ("compile", "amp-oops.pulse", "--rate", "2"), 3,
     "amp-oops.pulse: bad amplitude 'oops' (line 3"),
    ("compile-non-finite-vz", ("compile", "vz-nan.pulse", "--rate", "2"), 3,
     "vz-nan.pulse: virtual-Z phase must be finite, got nan (line 3"),
    ("compile-infinite-carrier", ("compile", "carrier-inf.pulse", "--rate", "2"), 3,
     "carrier-inf.pulse: carrier frequency must be non-negative and finite, got inf (line 3"),
    ("compile-silent-non-finite-carrier-phase",
     ("compile", "huge-carrier-silent.pulse", "--rate", "2"), 0, None),
    ("compile-play-on-non-finite-carrier-phase",
     ("compile", "huge-carrier-play.pulse", "--rate", "2"), 3,
     "xy play 0 in program order: carrier phase is not finite"),
    ("compile-full-scale-play", ("compile", "full-scale-play.pulse", "--rate", "2"), 0, None),
    # no sample to correct: the Z path passes the empty waveform as it is
    ("compile-carrier-only-iir", ("compile", "carrier-only.pulse", "--rate", "1", "--iir",
                                  "iir.json"), 0,
     f"sha256 {hashlib.sha256(b'').hexdigest()}\nsamples 0\n"),
    ("compile-garbled-primitive-file", ("compile", "file-primitive.pulse", "--rate", "2"), 3,
     "file-primitive.pulse: cannot read samples.txt: could not convert"),
    ("compile-missing-fir", (*_PROGRAM, "--fir", "absent.json"), 3, "absent.json: "),
    ("compile-missing-iir", (*_PROGRAM, "--iir", "absent.json"), 3, "absent.json: No such file"),
    ("compile-directory-fir", (*_PROGRAM, "--fir", "dir"), 3, "dir: "),
    ("compile-list-fir", (*_PROGRAM, "--fir", "list.json"), 3, "list.json: "),
    ("compile-kind-only-fir", (*_PROGRAM, "--fir", "fir-kind-only.json"), 3,
     "fir-kind-only.json: missing key"),
    ("compile-garbled-fir", (*_PROGRAM, "--fir", "garbled.json"), 3, "garbled.json: "),
    ("compile-non-finite-fir", (*_PROGRAM, "--fir", "fir-nan-tap.json"), 3, "fir-nan-tap.json: "),
    ("compile-list-iir", (*_PROGRAM, "--iir", "list.json"), 3, "list.json: "),
    ("compile-wrong-kind-iir", (*_PROGRAM, "--iir", "fir-kind-only.json"), 3,
     "fir-kind-only.json: expected"),
    ("compile-non-finite-iir", (*_PROGRAM, "--iir", "iir-nan-section.json"), 3,
     "iir-nan-section.json: "),
    ("compile-int16-taps-beside-float-taps", (*_PROGRAM, "--fir", "fir-int16-beside-float.json"),
     3, "fir-int16-beside-float.json: taps_int16 must be null or one integer in "
     "[-32768, 32767] per float tap"),
    ("compile-empty-fir-taps", (*_PROGRAM, "--fir", "fir-empty-taps.json"), 3,
     "fir-empty-taps.json: taps_float must be a non-empty list of numbers"),
    ("compile-nested-fir-taps", (*_PROGRAM, "--fir", "fir-nested-taps.json"), 3,
     "fir-nested-taps.json: taps_float must be a non-empty list of numbers"),
    ("compile-boolean-fir-taps", (*_PROGRAM, "--fir", "fir-boolean-taps.json"), 3,
     "fir-boolean-taps.json: taps_float must be a non-empty list of numbers"),
    ("compile-infinite-rate-fir", (*_PROGRAM, "--fir", "fir-infinite-rate.json"), 3,
     "fir-infinite-rate.json: sample_rate must be positive and finite"),
    ("compile-nan-rate-iir", (*_PROGRAM, "--iir", "iir-nan-rate.json"), 3,
     "iir-nan-rate.json: sample_rate must be positive and finite"),
    ("compile-unstable-pole-iir", (*_PROGRAM, "--iir", "iir-unstable-pole.json"), 3,
     "iir-unstable-pole.json: IIR section pole 1.5 must lie inside the unit circle"),
    # simulate
    ("simulate-rabi", ("simulate", "rabi", "--scenario", "fast.json", "--points", "5")),
    ("simulate-rabi-flat", ("simulate", "rabi", "--scenario", "flat.json", "--no-predistort",
                            "--points", "9")),
    ("simulate-rabi-saturates", ("simulate", "rabi", "--scenario", "weak-line.json",
                                 "--points", "5", "--amp-max", "0.2")),
    ("simulate-gate", ("simulate", "gate", "--scenario", "fast.json")),
    ("simulate-gate-trim", ("simulate", "gate", "--scenario", "fast.json", "--trim-frequency")),
    ("simulate-gate-saturates", ("simulate", "gate", "--scenario", "weak-line.json")),
    ("simulate-rb-to-file", ("simulate", "rb", "-o", "rb-out.csv")),
    ("simulate-rb-waveform", ("simulate", "rb", "--mode", "waveform", "--lengths", "1,4,8",
                              "--sequences", "2", "--scenario", "fast.json")),
    ("simulate-rb-waveform-interleaved", ("simulate", "rb", "--mode", "waveform", "--lengths",
                                          "1,4", "--sequences", "2", "--interleaved", "4",
                                          "--scenario", "fast.json")),
    ("simulate-rabi-infinite-amp-max", ("simulate", "rabi", "--amp-max", "inf"), 2,
     "argument --amp-max:"),
    ("simulate-gate-nan-duration", ("simulate", "gate", "--duration", "nan"), 2,
     "argument --duration:"),
    ("simulate-gate-half-sample-duration", ("simulate", "gate", "--duration", "0.5"), 2,
     "argument --duration: must be a whole number of at least 4 samples"),
    ("simulate-rabi-fractional-duration", ("simulate", "rabi", "--duration", "2.5"), 2,
     "argument --duration: must be a whole number of at least 2 samples"),
    ("simulate-rb-half-sample-gate-duration", ("simulate", "rb", "--gate-duration", "0.5"), 2,
     "argument --gate-duration: must be a whole number of at least 2 samples"),
    ("simulate-rb-waveform-one-sample-gate",
     ("simulate", "rb", "--mode", "waveform", "--gate-duration", "1"), 2,
     "argument --gate-duration: must be a whole number of at least 2 samples"),
    # a length within 1e-6 of 4 samples is the 4-sample pulse, which the
    # reference line cannot drive through a pi rotation
    ("simulate-gate-four-samples", ("simulate", "gate", "--duration", "4"), 3,
     _FOUR_SAMPLE_GATE),
    ("simulate-gate-just-under-four-samples", ("simulate", "gate", "--duration", "3.9999999"),
     3, _FOUR_SAMPLE_GATE),
    # each experiment takes only the options it reads
    ("simulate-gate-frequency", ("simulate", "gate", "--frequency", "0.3"), 2,
     "unrecognized arguments: --frequency"),
    ("simulate-rabi-trim-frequency", ("simulate", "rabi", "--trim-frequency"), 2,
     "unrecognized arguments: --trim-frequency"),
    # the uncompensated 92 MHz channel tilts the axis to n_z ~ -0.75 across the bracket
    ("simulate-gate-trim-uncompensated", ("simulate", "gate", "--trim-frequency",
                                          "--no-predistort"), 3,
     "no drive frequency in the bracket [0.223769, 0.226769] GHz levels the pi rotation's "
     "axis: n_z = -0.741 at 0.225869 GHz"),
    ("simulate-gate-channel-passes-nothing-at-f01",
     ("simulate", "gate", "--scenario", "zero-flux.json"), 3,
     "the channel passes nothing at f01 = 5.4039 GHz (|H| = 0): no drive reaches the qubit"),
    ("simulate-gate-uncompensated-channel-passes-nothing-at-f01",
     ("simulate", "gate", "--no-predistort", "--scenario", "zero-flux.json"), 3,
     "the channel passes nothing at f01 = 5.4039 GHz (|H| = 0): no drive reaches the qubit"),
    ("simulate-rabi-channel-passes-nothing-at-f01",
     ("simulate", "rabi", "--scenario", "deaf-channel.json"), 3,
     "the channel passes nothing at f01 = 0.223769 GHz (|H| = 0): no drive reaches the qubit"),
    # a Rabi drive is checked against the sampling before it is built and compensated
    ("simulate-rabi-at-f01-5.4-ghz",
     ("simulate", "rabi", "--points", "3", "--scenario", "zero-flux.json"), 3,
     "a drive at 5.4039 GHz aliases at the 1 GS/s drive sampling: drive frequencies must lie "
     "below 0.5 GHz"),
    ("simulate-rabi-uncompensated-at-f01-5.4-ghz",
     ("simulate", "rabi", "--no-predistort", "--points", "3", "--scenario", "zero-flux.json"), 3,
     "a drive at 5.4039 GHz aliases at the 1 GS/s drive sampling: drive frequencies must lie "
     "below 0.5 GHz"),
    # a drive pulse sampled at 1 GS/s cannot carry 0.5 GHz or more
    ("simulate-rabi-frequency-above-nyquist",
     ("simulate", "rabi", "--frequency", "1.22376881665", "--points", "3", "--amp-max", "0.02"),
     2, "argument --frequency: must lie below 0.5 GHz, the Nyquist frequency of the 1 GS/s "
     "drive sampling, got '1.22376881665'"),
    ("simulate-rabi-frequency-at-nyquist", ("simulate", "rabi", "--frequency", "0.5"), 2,
     "argument --frequency: must lie below 0.5 GHz"),
    ("simulate-rabi-negative-frequency", ("simulate", "rabi", "--frequency", "-1"), 2,
     "argument --frequency: must be positive and finite, got '-1'"),
    ("simulate-rb-gate-frequency-above-nyquist",
     ("simulate", "rb", "--mode", "waveform", "--lengths", "2", "--seed", "3",
      "--gate-frequency", "1.22376881665"), 2,
     "argument --gate-frequency: must lie below 0.5 GHz, the Nyquist frequency of the 1 GS/s "
     "drive sampling, got '1.22376881665'"),
    ("simulate-rabi-uncompensated-f01-above-nyquist",
     ("simulate", "rabi", "--no-predistort", "--points", "3", "--scenario",
      "flux-0.45-wide-channel.json"), 3,
     "a drive at 0.858252 GHz aliases at the 1 GS/s drive sampling: drive frequencies must lie "
     "below 0.5 GHz"),
    ("simulate-rabi-f01-above-nyquist",
     ("simulate", "rabi", "--points", "3", "--scenario", "flux-0.45-wide-channel.json"),
     3, "a drive at 0.858252 GHz aliases at the 1 GS/s drive sampling"),
    ("simulate-rb-waveform-f01-above-nyquist",
     ("simulate", "rb", "--mode", "waveform", "--lengths", "2", "--scenario",
      "flux-0.45-wide-channel.json"), 3,
     "a drive at 0.858252 GHz aliases at the 1 GS/s drive sampling"),
    # the calibrations check the top of their frequency bracket, f01 + 3 MHz at 20 ns
    ("simulate-gate-f01-above-nyquist",
     ("simulate", "gate", "--scenario", "flux-0.45-wide-channel.json"), 3,
     "a drive at 0.861252 GHz aliases at the 1 GS/s drive sampling: drive frequencies must lie "
     "below 0.5 GHz"),
    ("simulate-gate-uncompensated-f01-above-nyquist",
     ("simulate", "gate", "--no-predistort", "--trim-frequency", "--scenario",
      "flux-0.45-wide-channel.json"), 3,
     "a drive at 0.861252 GHz aliases at the 1 GS/s drive sampling"),
    ("simulate-gate-start-beyond-full-scale",
     ("simulate", "gate", "--scenario", "quarter-flux.json"), 3,
     "a pi pulse at f01 = 4.08328 GHz starts at a 3.05e+295 V peak, beyond the AWG full "
     "scale 0.5 V: the line passes |H| = 3.1e-297 of it"),
    ("simulate-gate-uncompensated-start-beyond-full-scale",
     ("simulate", "gate", "--no-predistort", "--scenario", "quarter-flux.json"), 3,
     "a pi pulse at f01 = 4.08328 GHz starts at a 2.12e+295 V peak, beyond the AWG full "
     "scale 0.5 V: the line passes |H| = 3.2e-297 of it"),
    ("simulate-gate-start-beyond-full-scale-at-flux-0.35",
     ("simulate", "gate", "--scenario", "flux-0.35.json"), 3,
     "a pi pulse at f01 = 2.48707 GHz starts at a 4.38e+109 V peak, beyond the AWG full "
     "scale 0.5 V: the line passes |H| = 3.7e-109 of it"),
    # pre-distortion needs a Gaussian channel: both experiments say so alike
    ("simulate-rabi-predistorted-flat-channel", ("simulate", "rabi", "--scenario", "flat.json"),
     3, "pre-distortion requires a Gaussian low-pass channel, got FlatResponse()"),
    ("simulate-gate-predistorted-flat-channel", ("simulate", "gate", "--scenario", "flat.json"),
     3, "pre-distortion requires a Gaussian low-pass channel, got FlatResponse()"),
    ("simulate-gate-tiny-fc", ("simulate", "gate", "--scenario", "tiny-fc.json"), 3,
     "the channel passes nothing at f01 = 0.223769 GHz (|H| = 0): no drive reaches the qubit"),
    ("simulate-rabi-subnormal-fc", ("simulate", "rabi", "--no-predistort", "--points", "3",
                                    "--scenario", "subnormal-fc.json"), 3,
     "subnormal-fc.json: f_c 5e-324 GHz is too small"),
    ("simulate-gate-flat-channel-with-fc", ("simulate", "gate", "--scenario", "flat-fc.json"), 3,
     "flat-fc.json: flat channel takes no f_c"),
    ("simulate-rb-waveform-unstable-time-step",
     ("simulate", "rb", "--mode", "waveform", "--lengths", "1", "--sequences", "1",
      "--scenario", "step-0.25.json"), 4,
     "sequence (length=1, index=0): time_step 0.25 ns violates the stability bound"),
    ("simulate-rabi-uncompensated-flat-channel",
     ("simulate", "rabi", "--no-predistort", "--points", "3", "--scenario", "flat.json"), 0,
     None),
    ("simulate-gate-uncompensated-flat-channel",
     ("simulate", "gate", "--scenario", "flat.json", "--no-predistort"), 0, None),
    ("simulate-rb-duration", ("simulate", "rb", "--duration", "24"), 2,
     "unrecognized arguments: --duration"),
    ("simulate-rb-garbled-lengths", ("simulate", "rb", "--lengths", "1,two"), 2,
     "argument --lengths: must be comma-separated integers >= 1, got '1,two'"),
    ("simulate-rb-empty-length", ("simulate", "rb", "--lengths", "1,,4"), 2,
     "argument --lengths: must be comma-separated integers >= 1, got '1,,4'"),
    ("simulate-rb-no-sequences", ("simulate", "rb", "--sequences", "0"), 2,
     "argument --sequences:"),
    ("simulate-rb-interleaved-24", ("simulate", "rb", "--interleaved", "24"), 2,
     "argument --interleaved:"),
    ("simulate-rb-depolarizing-1.5", ("simulate", "rb", "--depolarizing", "1.5"), 2,
     "argument --depolarizing: must be in [0, 1]"),
    ("simulate-rb-gate-amplitude-2", ("simulate", "rb", "--gate-amplitude", "2"), 2,
     "argument --gate-amplitude: must be non-zero and within [-1, 1]"),
    ("simulate-rb-gate-amplitude-0", ("simulate", "rb", "--gate-amplitude", "0"), 2,
     "argument --gate-amplitude: must be non-zero and within [-1, 1]"),
    ("simulate-missing-scenario", ("simulate", "rb", "--scenario", "absent.json"), 3,
     "absent.json: "),
    ("simulate-directory-scenario", ("simulate", "rb", "--scenario", "dir"), 3, "dir: "),
    ("simulate-garbled-scenario", ("simulate", "rb", "--scenario", "garbled.json"), 3,
     "garbled.json: Expecting value"),
    ("simulate-list-scenario", ("simulate", "rb", "--scenario", "list.json"), 3, "list.json: "),
    ("simulate-qubit-5-scenario", ("simulate", "rb", "--scenario", "qubit-5.json"), 3,
     "qubit-5.json: "),
    ("simulate-non-finite-scenario", ("simulate", "rb", "--scenario", "inf-step.json"), 3,
     "inf-step.json: time_step must be positive and finite"),
    ("simulate-nan-qubit-field", ("simulate", "rb", "--scenario", "ej-nan.json"), 3,
     "ej-nan.json: e_j must be non-negative and finite"),
    ("simulate-unknown-scenario-key", ("simulate", "rb", "--scenario", "chanel.json"), 3,
     "chanel.json: unknown scenario key 'chanel'; valid keys: channel, levels, line, qubit, "
     "time_step_ns"),
    ("simulate-unknown-channel-kind", ("simulate", "rb", "--scenario", "bessel.json"), 3,
     "bessel.json: unknown channel kind 'bessel'; valid kinds: flat, gaussian"),
    ("simulate-fractional-levels", ("simulate", "rb", "--scenario", "levels-2.7.json"), 3,
     "levels-2.7.json: levels must be an integer >= 2, got 2.7"),
    ("simulate-boolean-levels", ("simulate", "rb", "--scenario", "levels-true.json"), 3,
     "levels-true.json: levels must be an integer >= 2, got True"),
    ("simulate-fractional-basis-size", ("simulate", "rb", "--scenario", "basis-60.7.json"), 3,
     "basis-60.7.json: basis_size must be an integer >= 12, got 60.7"),
    ("simulate-boolean-time-step", ("simulate", "gate", "--scenario", "step-true.json"), 3,
     "step-true.json: scenario time_step_ns must be a number, got true"),
    ("simulate-string-time-step", ("simulate", "gate", "--scenario", "step-string.json"), 3,
     'step-string.json: scenario time_step_ns must be a number, got "0.02"'),
    ("simulate-null-time-step", ("simulate", "gate", "--scenario", "step-null.json"), 3,
     "step-null.json: scenario time_step_ns must be a number, got null"),
    ("simulate-boolean-qubit-field", ("simulate", "gate", "--scenario", "ej-true.json"), 3,
     "ej-true.json: scenario qubit e_j must be a number, got true"),
    ("simulate-null-qubit-field", ("simulate", "gate", "--scenario", "ej-null.json"), 3,
     "ej-null.json: scenario qubit e_j must be a number, got null"),
    ("simulate-boolean-channel-field", ("simulate", "gate", "--scenario", "fc-true.json"), 3,
     "fc-true.json: scenario channel f_c must be a number, got true"),
    ("simulate-string-line-field", ("simulate", "gate", "--scenario", "vmax-string.json"), 3,
     'vmax-string.json: scenario line awg_vmax must be a number, got "0.5"'),
    # fit
    ("fit-t1", ("fit", "t1", "t1.csv")),
    ("fit-dephasing", ("fit", "dephasing", "dephasing.csv", "--t1-us", "60")),
    ("fit-dephasing-no-t1", ("fit", "dephasing", "dephasing.csv"), 2,
     "fit dephasing requires --t1-us"),
    ("fit-rb", ("fit", "rb", "rb.csv")),
    ("fit-rb-rising", ("fit", "rb", "rb-rising.csv")),
    ("fit-reset-to-file", ("fit", "reset", "reset.csv", "-o", "reset-out.json")),
    ("fit-reset-lower", ("fit", "reset", "reset.csv", "--excited-component", "lower")),
    ("fit-non-finite-option", ("fit", "dephasing", "nan.csv", "--t1-us", "nan"), 2,
     "argument --t1-us:"),
    ("fit-t1-us-0", ("fit", "dephasing", "nan.csv", "--t1-us", "0"), 2, "argument --t1-us:"),
    ("fit-missing-csv", ("fit", "t1", "absent.csv"), 3, "absent.csv: "),
    ("fit-directory-csv", ("fit", "t1", "dir"), 3, "dir: "),
    ("fit-empty-csv", ("fit", "t1", "empty.csv"), 3, "empty.csv: "),
    ("fit-garbled-csv", ("fit", "t1", "garbled.csv"), 3, "garbled.csv: Line #3"),
    ("fit-bad-cell-csv", ("fit", "t1", "t1-bad-cell.csv"), 3,
     "t1-bad-cell.csv: Line #3 (column 2 is 'abc', not a number)"),
    ("fit-wrong-shape-csv", ("fit", "t1", "wrong-shape.csv"), 3, "wrong-shape.csv: "),
    ("fit-non-finite-csv", ("fit", "t1", "nan.csv"), 3, "nan.csv: t and values must be finite"),
    ("fit-rb-non-finite-csv", ("fit", "rb", "rb-nan.csv"), 3, "rb-nan.csv: "),
    ("fit-rb-fractional-length", ("fit", "rb", "rb-fractional.csv"), 3,
     "rb-fractional.csv: lengths must be integers"),
    ("fit-rb-length-0", ("fit", "rb", "rb-length-0.csv"), 3,
     "rb-length-0.csv: sequence lengths must be >= 1"),
    ("fit-rb-length-past-int64", ("fit", "rb", "rb-1e19.csv"), 0, '{\n  "a": '),
    ("fit-rb-wrong-columns", ("fit", "rb", "rb-columns.csv"), 3,
     "rb-columns.csv: expected CSV columns length,seq_index,survival"),
    ("fit-t1-offset-outside-bounds", ("fit", "t1", "offset-1.2.csv"), 3,
     "offset-1.2.csv: the data put every start outside the fit's bounds: parameter 2 starts at "
     "1.22419, outside [-1, 1]"),
    ("fit-dephasing-offset-outside-bounds",
     ("fit", "dephasing", "offset-1.2.csv", "--t1-us", "50"), 3,
     "offset-1.2.csv: the data put every start outside the fit's bounds: parameter 2 starts at "
     "1.22419, outside [-1, 1]"),
    ("fit-rb-offset-outside-bounds", ("fit", "rb", "rb-above-1.csv"), 3,
     "rb-above-1.csv: the data put every start outside the fit's bounds: parameter 2 starts at "
     "1.1, outside [0, 1]"),
    ("fit-reset-non-finite-csv", ("fit", "reset", "reset-nan.csv"), 3,
     "reset-nan.csv: signal samples must be finite"),
    ("fit-reset-infinite-csv", ("fit", "reset", "reset-inf.csv"), 3,
     "reset-inf.csv: signal samples must be finite"),
    ("fit-reset-overflowing-csv", ("fit", "reset", "reset-overflow.csv"), 3,
     "reset-overflow.csv: signal samples from -1e+300 to 1e+300 overflow"),
    ("fit-reset-zeros", ("fit", "reset", "reset-zeros.csv"), 3,
     "reset-zeros.csv: signal samples from 0.0 to 0.0 span too little to cut into 512 "
     "histogram bins"),
    ("fit-reset-1e17", ("fit", "reset", "reset-1e17.csv"), 3,
     "reset-1e17.csv: signal samples from 1e+17 to 1e+17 span too little"),
    ("fit-reset-1e17-steps", ("fit", "reset", "reset-1e17-steps.csv"), 3,
     "reset-1e17-steps.csv: signal samples from 1e+17 to 1.00000000000008e+17 span too little"),
    # devices has no numeric option; its one value option takes a choice
    ("devices", ("devices",)),
    ("devices-csv", ("devices", "--format", "csv")),
    ("devices-csv-to-file", ("devices", "--format", "csv", "-o", "devices.csv")),
    ("devices-non-finite-option", ("devices", "--format", "nan"), 2, "argument --format:"),
    ("devices-unknown-option", ("devices", "--points", "3"), 2, "unrecognized arguments"),
]


def _digests(root: pathlib.Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


def run(argv) -> dict:
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


def write_inputs(root: pathlib.Path) -> None:
    """Write every input file under ``root``."""
    for name, content in _inputs().items():
        if content is None:
            (root / name).mkdir()
        elif isinstance(content, bytes):
            (root / name).write_bytes(content)
        else:
            (root / name).write_text(content)


@contextlib.contextmanager
def _workdir():
    """A fresh temporary working directory holding the inputs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def run_all(cases=CASES) -> dict:
    """The records of ``cases``, run in one process, in one working directory."""
    with _workdir():
        return {name: run(argv) for name, argv, *_ in cases}


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

    jobs = [(name, seed) for name, *_ in CASES for seed in range(processes)]
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
        json.dump(run_all([c for c in CASES if c[0] == args.child])[args.child], sys.stdout)
        return 0
    if args.processes:
        kept = recorded()
        runs = _in_fresh_interpreters(args.processes)
        differ = [name for name, *_ in CASES
                  if any(record != kept.get(name) for record in runs[name])]
        print(f"{len(CASES) - len(differ)} of {len(CASES)} commands gave the recorded "
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
