"""Cold start: the command-line front end loads no scipy until a command needs it.

A compile loads none unless it runs the Z-path IIR (``--iir``).

Every scipy subpackage is imported inside the function that calls it, so a
fresh `import uniflux.cli` costs numpy and the package alone. The AST check
below is where that rule is written down; the subprocess checks show what a
fresh interpreter actually loads.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import uniflux
from uniflux import cli

PACKAGE = pathlib.Path(uniflux.__file__).parent
DATA = pathlib.Path(__file__).parent / "data"
EXAMPLE_PROGRAM = DATA / "example_program.pulse"
EXAMPLE_SHA256 = (DATA / "example_program.sha256").read_text().strip()

# Runs cli.main on its argv, then reports the exit code and every loaded
# scipy module on the last stderr line.
_DRIVER = """
import json, sys
from uniflux import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}), file=sys.stderr)
"""


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
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_devices_loads_no_scipy():
    report, stdout = _run_fresh_command("devices")
    assert report == {"code": 0, "scipy": []}
    assert json.loads(stdout)[0]["name"]


def test_example_compile_loads_no_scipy_and_keeps_its_golden_digest():
    report, stdout = _run_fresh_command("compile", str(EXAMPLE_PROGRAM), "--rate", "2")
    assert report == {"code": 0, "scipy": []}
    assert stdout.splitlines()[0] == f"sha256 {EXAMPLE_SHA256}"


def test_fir_compile_loads_no_scipy(tmp_path):
    fir = tmp_path / "fir.json"
    design = ("design", "fir", "--rate", "2", "--fc", "0.1", "--fq", "0.22", "--taps", "16")
    assert cli.main([*design, "-o", str(fir)]) == 0
    report, stdout = _run_fresh_command(
        "compile", str(EXAMPLE_PROGRAM), "--rate", "2", "--fir", str(fir)
    )
    assert report == {"code": 0, "scipy": []}
    assert stdout.splitlines()[0] == (
        "sha256 0393591644efe18ef4aeaa1c3cc26d3f77eb4da0c449fc09f077424bcb76cd57"
    )


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


def test_no_module_level_scipy_import():
    """Rule: import each scipy subpackage inside the function that calls it."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    offenders = [
        f"{path.name}:{stmt.lineno}"
        for path in sources
        for stmt in _module_level_imports(ast.parse(path.read_text(), str(path)))
        if "scipy" in _imported_roots(stmt)
    ]
    assert offenders == []

