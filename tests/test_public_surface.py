"""Every public name in the package has a caller.

A public function, class, method or property of ``src/uniflux`` must be
referenced somewhere in ``src/`` outside its own definition, or by the
benchmark in ``perfbench/``. Names only the tests call belong in
``tests/oracles.py`` or in the test that uses them. Matching is by name, so a
method counts as referenced when any attribute of that name is read.
"""

import ast
import pathlib

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


def _unreferenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    bench = {ref for path in BENCHMARK for ref in _references(ast.parse(path.read_text()))}
    missing = []
    for module, tree in trees.items():
        for qualified, node, is_member in _public_definitions(module, tree):
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

