"""Every module of the package uses every name it imports and every
private name it defines, imports only at module level, and copies records
one way.

An import left behind by a deletion keeps a dead name reachable and hides
that nothing uses it any more.  So does a private helper (`_x`) that its
own module never uses: only a test that imports it keeps it alive.  A
name a module exports through `__all__` counts as used; an import line
marked `# noqa: F401` is kept on purpose and exempt.  An import inside a
function hides a module's dependencies from its import block and runs
again on every call.  Frozen records are copied with `values.copy_with`,
never with `dataclasses.replace`, which walks the fields and runs
`__init__` on every call.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plcreach"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(path: Path) -> list:
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def dead_private_names(path: Path) -> list:
    """The module-level private names (`_x`, not `__x__`) that the module
    defines, by `def`, `class` or assignment, and never reads."""
    tree = ast.parse(path.read_text())
    defined = {}  # name -> line number
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return sorted(
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_dead_private_names(path):
    assert dead_private_names(path) == []


def test_dead_private_names_are_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "_KEY = 'k'\n_SEEN = set()\n_SEEN = {1}\n\n"
        "def _dead(x):\n    return _KEY\n\n"
        "def _kept():\n    return _SEEN\n\n"
        "class _Gone:\n    pass\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n\n"
        "def public():\n    return _kept()\n"
    )
    assert dead_private_names(src) == ["_Gone (line 11)", "_dead (line 5)"]


def function_imports(path: Path) -> list:
    out = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.extend(
                f"{fn.name} (line {node.lineno})"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_imports_inside_functions(path):
    assert function_imports(path) == []


def test_function_imports_are_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\n\ndef f():\n    from . import x\n    return x\n")
    assert function_imports(src) == ["f (line 4)"]


def dataclasses_replace_uses(path: Path) -> list:
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            out.extend(f"import (line {node.lineno})" for a in node.names if a.name == "replace")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "replace"
            and isinstance(node.value, ast.Name)
            and node.value.id == "dataclasses"
        ):
            out.append(f"dataclasses.replace (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_records_are_not_copied_with_dataclasses_replace(path):
    assert dataclasses_replace_uses(path) == []


def test_dataclasses_replace_is_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import dataclasses\nfrom dataclasses import field, replace\n\n"
        "def f(x):\n    return dataclasses.replace(x), replace, field, 'a'.replace('a', 'b')\n"
    )
    assert dataclasses_replace_uses(src) == ["import (line 2)", "dataclasses.replace (line 5)"]
