"""The public surface of distsym is what its pipeline runs.

A public top-level name of a module in src/distsym counts as used when a
Name or Attribute node in src/distsym, scripts/ or perfbench/ refers to
it, or a string constant in perfbench/ names it (the tracer resolves the
functions it wraps by name).  A public method or property of a class in
the package counts as used when those sources read it on the class itself
(Class.name), or read an attribute of that name on anything else (an
instance, whose class the syntax does not tell).
The tests do not count: a helper only tests need belongs in the test that
uses it.

The package is its modules.  __init__.py imports nothing and binds nothing
but __version__, so every name has one import path, the module that
defines it, and distsym.<module> is always that module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "distsym"

# Public names nothing in the package, the scripts or the benchmark uses,
# each kept on purpose.
ALLOWED_UNUSED = {
    "cli.entrypoint": "the console script that pyproject.toml declares",
    "wchar.sym_character": "the S_n Murnaghan-Nakayama rule behind the "
    "induced-construction cross-check of the B_n table",
    "partitions.is_even_paired_shape": "the definition route B's generator is "
    "cross-checked against",
    "wchar.induction_product": "the generic induction that the induced-construction "
    "test of the B_n table and the certificate of route A's block closed form "
    "compare against",
    "symbols.reduce_symbol": "the normaliser that Symbol's error message points users to",
}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def public_names() -> set[str]:
    """Every public top-level name defined in the package, as module.name."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out.update(f"{path.stem}.{name}" for name in names if not name.startswith("_"))
    return out


def public_methods() -> set[str]:
    """Every public method and property of the package's classes, as
    module.Class.name."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out.update(
                    f"{path.stem}.{node.name}.{f.name}"
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                )
    return out


def _sources() -> tuple[list[Path], list[Path]]:
    """The package and the scripts; the benchmark."""
    sources = list(PACKAGE.glob("*.py")) + list((ROOT / "scripts").glob("*.py"))
    return sources, list((ROOT / "perfbench").glob("*.py"))


def used_names() -> set[str]:
    """Names referred to by the package, the scripts and the benchmark."""
    sources, bench = _sources()
    used = set()
    for tree in _trees(sources + bench):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for tree in _trees(bench):
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def used_methods(classes: set[str]) -> set[str]:
    """Class.name for every attribute read on a package class by name, and
    *.name for every attribute read on anything else; string constants in
    the benchmark count as the latter."""
    sources, bench = _sources()
    used = set()
    for tree in _trees(sources + bench):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                used.add(f"{owner if owner in classes else '*'}.{node.attr}")
    for tree in _trees(bench):
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(f"*.{node.value}")
    return used


def unused_public() -> set[str]:
    """Public names, methods and properties that nothing but the tests uses."""
    names = used_names()
    unused = {name for name in public_names() if name.split(".")[1] not in names}
    methods = public_methods()
    reads = used_methods({name.split(".")[1] for name in methods})
    for name in methods:
        _, cls, attr = name.split(".")
        if f"{cls}.{attr}" not in reads and f"*.{attr}" not in reads:
            unused.add(name)
    return unused


def test_every_unused_public_name_is_allowed():
    unused = unused_public()
    assert sorted(unused - set(ALLOWED_UNUSED)) == []
    assert sorted(set(ALLOWED_UNUSED) - unused) == []


def test_allowed_names_exist():
    assert set(ALLOWED_UNUSED) <= public_names() | public_methods()


def test_init_reexports_nothing():
    nodes = list(ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())))
    assert [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    bound = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert bound == {"__version__"}


def test_submodule_path_gives_the_module():
    # in a fresh interpreter, so no earlier import has bound distsym.xi
    code = (
        "import distsym.xi as m\n"
        "from distsym import xi\n"
        "print(m.__name__, xi is m)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["distsym.xi", "True"]
