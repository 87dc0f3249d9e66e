"""The public surface of distsym is what its pipeline runs.

A public top-level name of a module in src/distsym counts as used when a
Name or Attribute node in src/distsym (other than __init__.py), scripts/
or perfbench/ refers to it, or a string constant in perfbench/ names it
(the tracer resolves the functions it wraps by name).  Re-exports in
__init__.py do not count, and neither do the tests: a helper only tests
need belongs in the test that uses it.
"""

import ast
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
    "symbols.reduce_symbol": "the normaliser that Symbol's error message points users to",
}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def public_names() -> set[str]:
    """Every public top-level name defined in the package, as module.name."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
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


def used_names() -> set[str]:
    """Names referred to by the package, the scripts and the benchmark."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "scripts").glob("*.py"))
    bench = list((ROOT / "perfbench").glob("*.py"))
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


def test_every_unused_public_name_is_allowed():
    used = used_names()
    unused = {name for name in public_names() if name.split(".")[1] not in used}
    assert sorted(unused - set(ALLOWED_UNUSED)) == []
    assert sorted(set(ALLOWED_UNUSED) - unused) == []


def test_allowed_names_exist():
    assert set(ALLOWED_UNUSED) <= public_names()
