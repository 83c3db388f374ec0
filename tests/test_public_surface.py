"""Every public name in the package has a caller, and every option a setter.

A public function, class, method or property of ``src/uniflux`` must be
referenced somewhere in ``src/`` outside its own definition, or by the
benchmark in ``perfbench/``; so must every private top-level function. Names
only the tests call belong in ``tests/oracles.py`` or in the test that uses
them. Matching is by name, so a method counts as referenced when any
attribute of that name is read.

Likewise every defaulted parameter of a public function or method, and every
defaulted dataclass field, must be set by some call in ``src/`` (outside its
own definition) or ``perfbench/``: by keyword, by position, through a ``*`` or
``**`` splat, or, for a field, through ``replace(field=...)``. A value that a
function only forwards from one of its own parameters counts when that
parameter is itself set.
"""

import ast
import pathlib
from typing import NamedTuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "uniflux").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# Kept without a caller: attach_interleaved fills RbFit.interleaved with the
# interleaved_fidelity of a second decay, and that field is the `interleaved`
# key of every `fit rb` report. Removing the pair would drop the key.
ALLOWED = ("analysis.attach_interleaved", "analysis.interleaved_fidelity")


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node, is_member) for each public def and class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, True


def _private_functions(module: str, tree: ast.Module):
    """(qualified name, node, False) for each private top-level function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False


def _references(tree: ast.AST, skip=frozenset()):
    """(name, is_attribute) for every name a tree reads or imports."""
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, False  # perfbench names traced functions as strings


def _unreferenced(definitions=_public_definitions):
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    bench = {ref for path in BENCHMARK for ref in _references(ast.parse(path.read_text()))}
    missing = []
    for module, tree in trees.items():
        for qualified, node, is_member in definitions(module, tree):
            name = node.name
            inside = set(ast.walk(node))
            # a method or property is reached only as an attribute
            wanted = {(name, True)} if is_member else {(name, True), (name, False)}
            used = any(
                ref in wanted
                for other, other_tree in trees.items()
                for ref in _references(other_tree, inside if other == module else frozenset())
            )
            if not used and not wanted & bench:
                missing.append(qualified)
    return missing


def test_every_public_name_has_a_caller():
    missing = [name for name in _unreferenced() if name not in ALLOWED]
    assert missing == [], f"public names with no caller in src/ or perfbench/: {missing}"


def test_every_private_function_has_a_caller():
    # a private helper that only tests call is a test helper: it moves to
    # tests/oracles.py or into the test
    missing = _unreferenced(_private_functions)
    assert missing == [], f"private functions with no caller in src/ or perfbench/: {missing}"



# ---------------------------------------------------------------------------
# every option has a setter
# ---------------------------------------------------------------------------

# Options kept although nothing in src/ or perfbench/ sets them, one reason each.
OPTIONS_ALLOWED = {
    "distortion.fit_multi_exponential.probe_window":
        "must equal the measured window; a test shows a wrong one biases the fit",
    "distortion.fit_multi_exponential.n_starts":
        "the 100-seed Monte-Carlo test pins its hit rate at 8 starts",
    "pulsec.parse_program.base_dir":
        "the CLI forwards it through _read_input(..., *args), which name matching cannot follow",
}


class _Slot(NamedTuple):
    """A parameter or field that calls can set."""

    module: str
    callee: str  # the name a call uses: the function, method or class
    key: str  # module.owner.name
    name: str
    position: int | None  # None: keyword-only
    is_member: bool  # reached only as an attribute
    is_field: bool
    owner: ast.AST
    is_option: bool  # False for a private function's parameter, tracked for forwarding


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _parameters(fn: ast.FunctionDef, defaulted: bool, drop_self: bool = False):
    """(name, position or None) of ``fn``'s parameters, or of only those with
    a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first_default = len(positional) - len(fn.args.defaults)
    for index, arg in enumerate(positional):
        if index >= drop_self and (not defaulted or index >= first_default):
            yield arg.arg, index - drop_self
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if not defaulted or default is not None:
            yield arg.arg, None


def _slots(module: str, tree: ast.Module):
    """The options of a module, and the parameters of its private top-level
    functions, through which options are forwarded."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            public = not node.name.startswith("_")
            for name, position in _parameters(node, defaulted=public):
                yield _Slot(module, node.name, f"{module}.{node.name}.{name}", name, position,
                            False, False, node, public)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields = [stmt for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            for position, stmt in enumerate(fields if _is_dataclass(node) else ()):
                if stmt.value is not None:
                    name = stmt.target.id
                    yield _Slot(module, node.name, f"{module}.{node.name}.{name}", name,
                                position, False, True, node, True)
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    bound = not any(getattr(d, "id", None) == "staticmethod"
                                    for d in member.decorator_list)
                    for name, position in _parameters(member, True, drop_self=bound):
                        key = f"{module}.{node.name}.{member.name}.{name}"
                        yield _Slot(module, member.name, key, name, position,
                                    True, False, member, True)


def _calls(node: ast.AST, stack=()):
    """(call, enclosing functions, innermost last) for every call under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        stack = stack + (node,)
    if isinstance(node, ast.Call):
        yield node, stack
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, stack)


def _passed(call: ast.Call, slot: _Slot, replace: set):
    """The expressions ``call`` passes to ``slot``; None stands for a splat."""
    func = call.func
    callee = getattr(func, "attr", getattr(func, "id", None))
    if slot.is_field and callee in replace:
        return [kw.value for kw in call.keywords if kw.arg == slot.name]
    if callee != slot.callee or (slot.is_member and not isinstance(func, ast.Attribute)):
        return []
    values = [kw.value if kw.arg else None for kw in call.keywords if kw.arg in (slot.name, None)]
    for index, arg in enumerate(call.args if slot.position is not None else ()):
        if isinstance(arg, ast.Starred) or index == slot.position:
            values.append(None if isinstance(arg, ast.Starred) else arg)
            break
    return values


def _forwarded(value, stack, tracked: dict) -> str | None:
    """The key of the tracked parameter that ``value`` passes on unchanged
    from an enclosing function, or None when ``value`` is anything else."""
    if not isinstance(value, ast.Name):
        return None
    for fn in reversed(stack):
        args = fn.args
        if value.id in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
            rebound = any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                          and n.id == value.id for n in ast.walk(fn))
            return None if rebound else tracked.get((fn, value.id))
    return None


def _unset_options():
    sources = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    bench = [ast.parse(path.read_text()) for path in BENCHMARK]
    trees = [*sources.items(), *((None, tree) for tree in bench)]
    replace = {"replace"} | {  # names bound to dataclasses.replace
        alias.asname for _, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        for alias in node.names if alias.name == "replace" and alias.asname
    }
    slots = [slot for module, tree in sources.items() for slot in _slots(module, tree)]
    tracked = {(s.owner, s.name): s.key for s in slots if not s.is_field}
    calls = [(module, call, stack) for module, tree in trees for call, stack in _calls(tree)]
    facts = []  # (slot key, key of the parameter it is forwarded from, or None)
    for slot in slots:
        inside = set(ast.walk(slot.owner))
        for module, call, stack in calls:
            if module != slot.module or call not in inside:  # not its own definition
                facts.extend((slot.key, _forwarded(value, stack, tracked))
                             for value in _passed(call, slot, replace))
    fed = {key for key, source in facts if source is None}
    while more := {key for key, source in facts if source in fed} - fed:
        fed |= more
    return [s.key for s in slots if s.is_option and s.key not in fed]


def test_every_option_has_a_setter():
    unset = _unset_options()
    missing = [name for name in unset if name not in OPTIONS_ALLOWED]
    assert missing == [], f"options no call in src/ or perfbench/ sets: {missing}"
    assert set(OPTIONS_ALLOWED) <= set(unset), "an allowed option now has a setter"


# ---------------------------------------------------------------------------
# each file format has one owner
# ---------------------------------------------------------------------------

# String constants that only the module owning the format may spell: the
# design-file keys belong to `filters`, the int16 DAC payload to `pulsec`.
# "sample_rate_gsps" is left out: the waveform sidecar uses it too.
FORMAT_OWNERS = {
    "taps_float": "filters",
    "taps_int16": "filters",
    "source_exponentials": "filters",
    "<i2": "pulsec",
}

# Spellings that only the listed modules may have anywhere in their text, in
# a constant, a name or a docstring: the RB survival CSV is written and read
# by `cli` alone, only a SetCarrier instruction sets a program's carrier, the
# full-scale tolerance is `pulsec.FULL_SCALE`, a compiled program's length and
# carrier live in its timeline and frame segments, and a sweep names its bad
# row where it builds the spectra.
SPELLING_OWNERS = {
    "length,seq_index,survival": ("cli",),
    "initial_carrier": (),
    "1.0 + 1e-12": ("pulsec",),
    "FrameState": (),
    "final_frame": (),
    "exc.row": (),
}


def test_each_format_constant_lives_in_its_owner():
    strays = sorted(
        (constant, path.stem)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for constant in (node.value,)
        if constant in FORMAT_OWNERS and FORMAT_OWNERS[constant] != path.stem
    ) + sorted(
        (spelling, path.stem)
        for path in SOURCES
        for spelling, owners in SPELLING_OWNERS.items()
        if spelling in path.read_text() and path.stem not in owners
    )
    assert strays == [], f"format constants outside their owning module: {strays}"



# ---------------------------------------------------------------------------
# each step of the drive, and each fit, has one home
# ---------------------------------------------------------------------------

# Functions that one function in src/ alone may call: every drive reaches the
# channel through `dynamics._prepare`, which alone pre-distorts it, every fit
# runs through the one kernel, `analysis._least_squares_fit`, and its one
# solver, `analysis._lockstep`, and every SVD, the trust region's and the
# covariance's, through `analysis._svd`.
CALL_OWNERS = {
    "predistort_drive": "dynamics._prepare",
    "_lockstep": "analysis._least_squares_fit",
    "dgesdd": "analysis._svd",
}


def test_each_owned_function_has_one_caller():
    callers = {}
    for path in SOURCES:
        for call, stack in _calls(ast.parse(path.read_text())):
            callee = getattr(call.func, "attr", getattr(call.func, "id", None))
            if callee in CALL_OWNERS:
                names = [fn.name for fn in stack if isinstance(fn, ast.FunctionDef)]
                callers.setdefault(callee, set()).add(".".join([path.stem, *names]))
    assert callers == {callee: {owner} for callee, owner in CALL_OWNERS.items()}, (
        f"calls outside their owning function: {callers}"
    )


def test_no_module_imports_a_private_scipy_module():
    private = sorted(
        (path.stem, name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name.split(".")[0] == "scipy" and any(part.startswith("_") for part in name.split("."))
    )
    assert private == [], f"imports of private scipy modules: {private}"


# ---------------------------------------------------------------------------
# one eigensolver for every Hamiltonian
# ---------------------------------------------------------------------------


def _scipy_eigh_references(source: str) -> list[int]:
    """Lines of ``source`` that reach scipy.linalg.eigh, however it is imported."""
    tree = ast.parse(source)
    bound = {}  # local name -> the dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id, expr.id)
        if isinstance(expr, ast.Attribute):
            base = dotted(expr.value)
            return base and f"{base}.{expr.attr}"
        return None

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and dotted(node) == "scipy.linalg.eigh"]


@pytest.mark.parametrize("source, lines", [
    ("import scipy.linalg\nscipy.linalg.eigh(h)", [2]),
    ("from scipy import linalg\nlinalg.eigh(h)", [2]),
    ("from scipy.linalg import eigh as solve\nsolve(h)", [2]),
    ("import numpy as np\nnp.linalg.eigh(h)", []),
    ("import scipy.linalg\nscipy.linalg.eigh_tridiagonal(d, e)", []),
])
def test_the_eigh_rule_sees_every_import_form(source, lines):
    assert _scipy_eigh_references(source) == lines


def test_only_fluxonium_diagonalizes_a_hamiltonian():
    # every Hamiltonian goes through fluxonium._eigensolve, which alone names
    # LAPACK's dsyevr; dynamics' np.linalg.eigh at the Chebyshev nodes is
    # another problem and stays
    calls = {path.stem: _scipy_eigh_references(path.read_text()) for path in SOURCES}
    assert {module: lines for module, lines in calls.items() if lines} == {}, (
        "scipy.linalg.eigh in src/: diagonalize through fluxonium._eigensolve"
    )
    named = [path.stem for path in SOURCES if "syevr" in path.read_text()]
    assert named == ["fluxonium"], f"syevr named outside fluxonium: {named}"
