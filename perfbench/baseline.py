"""Re-measure the ROADMAP baseline table with the benchmark's thread settings.

    python3 perfbench/baseline.py

Library rows are timed in-process, median of three; CLI rows are timed as
fresh `python -m uniflux.cli` interpreters, median of three. Prints a
Markdown table.
"""

from run import ROOT, SRC, _child_env  # first: pins BLAS threads before numpy loads

import os
import statistics
import subprocess
import sys
import time

REPEATS = 3


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _cli_time(argv):
    def fresh():
        subprocess.run(
            [sys.executable, "-m", "uniflux.cli", *argv, "-o", os.devnull],
            cwd=ROOT, env=_child_env(), check=True, stdout=subprocess.DEVNULL,
        )

    return _median_time(fresh)


def main():
    sys.path.insert(0, str(SRC))
    import numpy as np

    from uniflux import analysis, cli, dynamics, filters, fluxonium

    qubit = fluxonium.FluxoniumParams(4.5, 1.1, 0.5)
    fine = dynamics.DriveScenario(qubit, cli.REFERENCE_LINE, filters.gaussian_lowpass(0.092))
    search = fine.replace(levels=2, time_step=0.02)
    drive = dynamics.cosine_drive(100.0, 0.01, 0.2238, lead_ns=0.0, tail_ns=0.0)
    t = np.linspace(0.0, 600.0, 121)
    p_e = analysis.relaxation_model(t, 1.0, 0.0, 150.0, 30.0, 1.0)
    rows = [
        ("`build_hamiltonian`", lambda: fluxonium.build_hamiltonian(qubit)),
        ("`spectrum_sweep`, 101 points", lambda: fluxonium.spectrum_sweep(qubit, np.linspace(0, 1, 101))),
        ("`find_reset_flux`", lambda: fluxonium.find_reset_flux(qubit, 0.5)),
        ("`evolve`, 100 ns drive, 4 levels, 5 ps step (20 000 steps)", lambda: dynamics.evolve(fine, drive)),
        ("`calibrate_pi`, 2-level search scenario", lambda: dynamics.calibrate_pi(search, 20.0)),
        ("`fit_t1_double_exponential`", lambda: analysis.fit_t1_double_exponential(t, p_e)),
    ]
    print("| What | Time (1 thread) |")
    print("| --- | --- |")
    for label, fn in rows:
        print(f"| {label} | {_median_time(fn):.3f} s |")
    for label, argv in (
        ("CLI `spectrum`", ["spectrum"]),
        ("CLI `simulate rabi`", ["simulate", "rabi"]),
        ("CLI `simulate gate`", ["simulate", "gate"]),
        ("CLI `devices`", ["devices"]),
    ):
        print(f"| {label} | {_cli_time(argv):.3f} s |")


if __name__ == "__main__":
    main()
