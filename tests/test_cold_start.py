"""Cold start: a command loads only the library modules it runs, and no
scipy until a function that calls it runs.

A fresh `import uniflux.cli` loads numpy and the package core: `errors`,
`waveform`, `fluxonium` and `linebudget` (the parser's basis bounds and the
reference line). Each command imports the other modules
inside the functions that run them: `design` adds `filters`, `compile`
adds `filters` and `pulsec`, `fit` adds `analysis`, and `simulate` adds
`dynamics`, `filters` and `pulsec`; `devices`, `spectrum` and `tradeoff`
add none. Every scipy module is loaded inside the function that calls it,
so a compile loads no scipy unless it runs the Z-path IIR (``--iir``), and
an ideal-mode `simulate rb`, the closed-form decay, loads none either.
The eigensolves of `spectrum`, `tradeoff` and `simulate`, the fits of
`fit t1|dephasing|rb` and the library's settling-tail fit load one scipy
module, its LAPACK extension ``scipy.linalg._flapack``, without importing
``scipy.linalg``; a later
``import scipy.linalg`` reuses that module. The library's reset search adds
brentq's kernel, ``scipy.optimize._zeros``, without ``scipy.optimize``. The
IIR loads sosfilt's kernel, ``scipy.signal._sosfilt``, and what it imports,
without ``scipy.signal``. Each of these comes through
``errors._scipy_extension``: no module in the package has a scipy import
statement.

The AST checks below are where these rules are written down; the
subprocess checks show what a fresh interpreter actually loads.
"""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import uniflux
from uniflux import cli

PACKAGE = pathlib.Path(uniflux.__file__).parent
DATA = pathlib.Path(__file__).parent / "data"
EXAMPLE_PROGRAM = DATA / "example_program.pulse"
EXAMPLE_SHA256 = (DATA / "example_program.sha256").read_text().strip()

# Runs cli.main on its argv, then reports the exit code and every loaded
# scipy and uniflux module on the last stderr line.
_DRIVER = """
import json, sys
from uniflux import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
def loaded(root):
    return sorted(m for m in sys.modules if m == root or m.startswith(root + "."))
print(json.dumps({"code": code, "scipy": loaded("scipy"), "uniflux": loaded("uniflux")}),
      file=sys.stderr)
"""

# What a fresh `import uniflux.cli` loads of the package, and what each
# command adds to it.
_CORE = ("", "cli", "errors", "fluxonium", "linebudget", "waveform")
# All an eigensolve or a fit loads of scipy.
_LAPACK = ["scipy.linalg._flapack"]
# All the Z-path IIR loads of scipy: sosfilt's Cython kernel and what it imports.
_SOSFILT = ["scipy", "scipy.__config__", "scipy._cyutility", "scipy._distributor_init",
            "scipy._lib", "scipy._lib._ccallback", "scipy._lib._ccallback_c",
            "scipy._lib._pep440", "scipy._lib._testutils", "scipy.signal._sosfilt",
            "scipy.version"]


def _package(*modules):
    return sorted(f"uniflux.{m}" if m else "uniflux" for m in (*_CORE, *modules))


def _fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def _run_fresh_command(*argv):
    proc = _fresh("-c", _DRIVER, *argv)
    report = json.loads(proc.stderr.splitlines()[-1])
    return report, proc.stdout


def test_import_cli_loads_no_scipy():
    proc = _fresh(
        "-c",
        "import sys, uniflux.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'uniflux'))",
    )
    assert proc.returncode == 0, proc.stderr
    scipy, package = proc.stdout.splitlines()
    assert scipy == "[]"
    assert package == repr(_package())


def test_devices_loads_no_scipy():
    report, stdout = _run_fresh_command("devices")
    assert report == {"code": 0, "scipy": [], "uniflux": _package()}
    assert json.loads(stdout)[0]["name"]


@pytest.mark.parametrize("argv, rows", [
    (("spectrum", "--from", "0.4", "--to", "0.5", "-n", "3", "--levels", "2"), 3),
    (("tradeoff", "-n", "3"), 3 + 3),  # and the three slope lines
])
def test_sweeps_load_only_the_package_core(argv, rows):
    report, stdout = _run_fresh_command(*argv)
    assert report == {"code": 0, "scipy": _LAPACK, "uniflux": _package()}
    assert len(stdout.splitlines()) == 1 + rows


@pytest.mark.parametrize("argv", [
    ("simulate", "gate"),
    ("simulate", "rb", "--mode", "waveform", "--lengths", "1,4", "--sequences", "1"),
])
def test_simulations_load_only_scipys_lapack_extension(argv):
    report, stdout = _run_fresh_command(*argv)
    assert report == {"code": 0, "scipy": _LAPACK,
                      "uniflux": _package("dynamics", "filters", "pulsec")}
    assert stdout


def test_a_later_scipy_linalg_reuses_the_lapack_extension():
    proc = _fresh("-c", """
import numpy as np
from uniflux import cli, fluxonium
assert cli.main(["spectrum", "--from", "0.4", "--to", "0.5", "-n", "3", "--levels", "2"]) == 0
import scipy.linalg
from scipy.linalg import _flapack
from uniflux.errors import _scipy_extension
syevr, query = scipy.linalg.get_lapack_funcs(("syevr", "syevr_lwork"), dtype=np.float64)
print([_flapack is _scipy_extension("linalg", "_flapack"), syevr is fluxonium._syevr(80)[0],
       query is _scipy_extension("linalg", "_flapack").dsyevr_lwork])
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[True, True, True]"


def test_reset_search_loads_only_the_lapack_and_brentq_kernels():
    # brentq's compiled kernel, without the 300-odd modules of scipy.optimize;
    # a later import of scipy.optimize reuses it and lacks only the attribute
    proc = _fresh("-c", """
import sys
from uniflux import fluxonium
params = fluxonium.FluxoniumParams(e_j=4.5, e_c=1.1, e_l=0.5, phi_ext=0.5)
fluxonium.find_reset_flux(params, 4.98, scan_points=48)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
zeros = sys.modules["scipy.optimize._zeros"]
import scipy.optimize
from scipy.optimize import _zeros
root = scipy.optimize.brentq(lambda x: x * x - 2.0, 0.0, 2.0)
print([_zeros is zeros, hasattr(scipy.optimize, "_zeros"), abs(root - 2.0 ** 0.5) < 1e-12])
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        str([*_LAPACK, "scipy.optimize._zeros"]), "[True, False, True]"]


def test_design_loads_only_filters():
    report, stdout = _run_fresh_command("design", "fir", "--rate", "2", "--fq", "0.22")
    assert report["code"] == 0
    assert report["uniflux"] == _package("filters")
    assert json.loads(stdout)["kind"] == "fir"


def _decay_csv(path, header, t, values):
    path.write_text(header + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(t, values)))
    return str(path)


def test_fit_rb_loads_only_analysis(tmp_path):
    data = tmp_path / "rb.csv"
    data.write_text("length,seq_index,survival\n"
                    + "".join(f"{m},0,{0.5 + 0.5 * 0.99 ** m!r}\n" for m in (1, 4, 16, 64)))
    report, stdout = _run_fresh_command("fit", "rb", str(data))
    assert report == {"code": 0, "scipy": _LAPACK, "uniflux": _package("analysis")}
    assert json.loads(stdout)


def test_decay_fits_load_only_scipys_lapack_extension(tmp_path):
    # the fit kernel runs SciPy's trf itself and takes dgesdd from _flapack,
    # so no fit loads scipy.optimize or scipy.linalg
    t = [0.0, *np.geomspace(0.5, 600.0, 30).tolist()]
    t1 = _decay_csv(tmp_path / "t1.csv", "t_us,p_e", t, [
        0.9 * math.exp(-x / 150.0) * math.exp(math.exp(-x / 30.0) - 1.0) + 0.04 for x in t])
    envelope = _decay_csv(tmp_path / "env.csv", "t_us,p_env", t, [
        math.exp(-x / 400.0 - (x / 300.0) ** 2) for x in t])
    for argv in (("t1", t1), ("dephasing", envelope, "--t1-us", "200")):
        report, stdout = _run_fresh_command("fit", *argv)
        assert report == {"code": 0, "scipy": _LAPACK, "uniflux": _package("analysis")}, argv
        assert json.loads(stdout)


def test_tail_fit_loads_only_scipys_lapack_extension():
    # the settling-tail fit runs on the same kernel as the CLI's fits
    proc = _fresh("-c", """
import sys
import numpy as np
from uniflux import distortion
records = [distortion.TailProbeRecord(d, -0.02 * np.exp(-d / 40.0) - 0.015 * np.exp(-d / 400.0))
           for d in np.geomspace(5.0, 3000.0, 40)]
fit = distortion.fit_multi_exponential(records, 2)
print(len(fit.model.terms), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"2 {_LAPACK}"


def test_iir_compile_loads_only_sosfilts_kernel(tmp_path):
    iir = tmp_path / "iir.json"
    assert cli.main(["design", "iir", "--exp", "-0.0174:34", "--exp", "0.01:200",
                     "--rate", "2", "-o", str(iir)]) == 0
    report, stdout = _run_fresh_command(
        "compile", str(EXAMPLE_PROGRAM), "--rate", "2", "--iir", str(iir)
    )
    assert report == {"code": 0, "scipy": _SOSFILT, "uniflux": _package("filters", "pulsec")}
    assert stdout.startswith("sha256 ")


def test_example_compile_loads_no_scipy_and_keeps_its_golden_digest():
    report, stdout = _run_fresh_command("compile", str(EXAMPLE_PROGRAM), "--rate", "2")
    assert report == {"code": 0, "scipy": [], "uniflux": _package("filters", "pulsec")}
    assert stdout.splitlines()[0] == f"sha256 {EXAMPLE_SHA256}"


def test_fir_compile_loads_no_scipy(tmp_path):
    fir = tmp_path / "fir.json"
    design = ("design", "fir", "--rate", "2", "--fc", "0.1", "--fq", "0.22", "--taps", "16")
    assert cli.main([*design, "-o", str(fir)]) == 0
    report, stdout = _run_fresh_command(
        "compile", str(EXAMPLE_PROGRAM), "--rate", "2", "--fir", str(fir)
    )
    assert report == {"code": 0, "scipy": [], "uniflux": _package("filters", "pulsec")}
    assert stdout.splitlines()[0] == (
        "sha256 0393591644efe18ef4aeaa1c3cc26d3f77eb4da0c449fc09f077424bcb76cd57"
    )


def test_multi_block_fir_compile_loads_no_scipy(tmp_path):
    # the FIR plays without scipy in every block, not only in the first
    from uniflux import pulsec

    fir = tmp_path / "fir.json"
    design = ("design", "fir", "--rate", "2", "--fc", "0.1", "--fq", "0.22", "--taps", "16")
    assert cli.main([*design, "-o", str(fir)]) == 0
    program = tmp_path / "long.pulse"
    program.write_text("prim g envelope 0.0 0.5 1.0 0.5 0.0\ncarrier 0.22\n"
                       "repeat 30000 {\n  xy g amp=0.05\n  delay 2.0\n}\n")
    report, stdout = _run_fresh_command(
        "compile", str(program), "--rate", "2", "--fir", str(fir), "-o", str(tmp_path / "w.bin")
    )
    assert report == {"code": 0, "scipy": [], "uniflux": _package("filters", "pulsec")}
    assert stdout.splitlines()[1] == "samples 270000"
    assert 270000 > 4 * pulsec._BLOCK


def test_default_rb_loads_no_scipy():
    report, stdout = _run_fresh_command("simulate", "rb")
    assert report == {"code": 0, "scipy": [],
                      "uniflux": _package("dynamics", "filters", "pulsec")}
    # depolarizing strength 1: every sequence survives with 0.5 + 0.5 * 1^m
    assert stdout.splitlines() == ["length,seq_index,survival"] + [
        f"{2 ** j},{k},1.0" for j in range(9) for k in range(2)
    ]


def _module_level_imports(node):
    """Import statements executed when the module is imported (not in a def)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def _imported_roots(stmt):
    if isinstance(stmt, ast.Import):
        return [alias.name.split(".")[0] for alias in stmt.names]
    return [(stmt.module or "").split(".")[0]] if stmt.level == 0 else []


def _imported_package_modules(stmt):
    """The uniflux modules an import statement inside the package names."""
    if isinstance(stmt, ast.Import):
        names = [alias.name for alias in stmt.names]
    elif stmt.level == 0:
        names = [f"{stmt.module}.{alias.name}" for alias in stmt.names]
    elif stmt.module:
        names = [f"uniflux.{stmt.module}"]
    else:
        names = [f"uniflux.{alias.name}" for alias in stmt.names]
    return [name.split(".")[1] for name in names if name.startswith("uniflux.")]


def _scipy_imports(source):
    """Lines of ``source`` with a scipy import statement, at any depth."""
    return [stmt.lineno for stmt in ast.walk(ast.parse(source))
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and "scipy" in _imported_roots(stmt)]


@pytest.mark.parametrize("source, lines", [
    ("import scipy.linalg", [1]),
    ("import numpy, scipy as sp", [1]),
    ("from scipy.linalg import _flapack", [1]),
    ("def f():\n    from scipy.optimize import brentq", [2]),
    ("class C:\n    def f(self):\n        import scipy.signal", [3]),
    ("from .errors import _scipy_extension\nimport numpy as np", []),
])
def test_the_scipy_import_rule_sees_every_statement(source, lines):
    assert _scipy_imports(source) == lines


def test_no_module_level_scipy_import():
    """Rule: SciPy enters the package only through ``errors._scipy_extension``,
    one compiled kernel at a time; no module, and no function, imports scipy."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    offenders = [f"{path.name}:{line}" for path in sources
                 for line in _scipy_imports(path.read_text())]
    assert offenders == []


def test_cli_imports_no_command_module_at_module_level():
    """Rule: `cli` imports the modules that only commands run inside the
    functions that run them, so every command pays only for its own."""
    path = PACKAGE / "cli.py"
    imported = {
        module
        for stmt in _module_level_imports(ast.parse(path.read_text(), str(path)))
        for module in _imported_package_modules(stmt)
    }
    assert "fluxonium" in imported  # the rule sees relative imports
    assert imported.isdisjoint({"analysis", "distortion", "dynamics", "filters", "pulsec"})
