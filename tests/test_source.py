"""Static checks over the package source, the tests and the benchmark, using only the standard library."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dmdk"
BENCH = TESTS.parent / "bench"


def exports(tree: ast.Module) -> set[str]:
    """The names the module's ``__all__`` lists."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each name the module imports and never reads.

    In a package ``__init__`` an import re-exports a name, so it counts as
    read only when ``__all__`` lists it.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    if path.name == "__init__.py":
        used = exports(tree)
    else:
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\nimport numpy as np\nfrom os import path, sep\n"
        "def f(x: np.ndarray):\n    return sep\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["m.py:2: json", "m.py:4: path"]
    init = tmp_path / "__init__.py"
    init.write_text("from .m import f, g\nf()\n__all__ = ['g']\n", encoding="utf-8")
    assert unused_imports(init) == ["__init__.py:1: f"]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py"))
    hits = [hit for path in paths for hit in unused_imports(path)]
    assert hits == []


def orphaned_privates(path: Path) -> list[str]:
    """``file:line: name`` for each module-level ``_name`` function, class or
    constant that nothing else in its module references."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    defined: list[tuple[str, ast.stmt]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    hits = []
    for name, owner in defined:
        if not name.startswith("_") or name.startswith("__"):
            continue
        read = (
            n.id
            for stmt in tree.body
            if stmt is not owner
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        )
        if name not in read:
            hits.append(f"{path.name}:{owner.lineno}: {name}")
    return hits


def test_orphan_check_flags_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "_LIMIT = 3\n_USED = 4\n__all__ = []\n"
        "def _helper():\n    return _helper()\n"
        "def _kept():\n    return _USED\n"
        "class _Spare:\n    pass\n"
        "def public():\n    return _kept()\n",
        encoding="utf-8",
    )
    assert orphaned_privates(module) == ["m.py:1: _LIMIT", "m.py:4: _helper", "m.py:8: _Spare"]


def test_no_private_module_name_is_orphaned():
    paths = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    hits = [hit for path in paths for hit in orphaned_privates(path)]
    assert hits == []


def undefined_exports(path: Path) -> list[str]:
    """``file:line: name`` for each ``__all__`` entry that the module neither
    defines nor imports at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound: set[str] = set()
    exports: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            bound |= set(names)
            if "__all__" in names:
                exports += [(node.lineno, name) for name in ast.literal_eval(node.value)]
    return [f"{path.name}:{line}: {name}" for line, name in exports if name not in bound]


def test_export_check_flags_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from os import path\nimport numpy as np\nLIMIT: int = 3\n"
        "def f():\n    gone = 1\n    return gone\n"
        "class C:\n    pass\n"
        "__all__ = ['path', 'np', 'LIMIT', 'f', 'C', 'gone', 'removed']\n",
        encoding="utf-8",
    )
    assert undefined_exports(module) == ["m.py:9: gone", "m.py:9: removed"]


def test_every_export_names_a_module_binding():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in undefined_exports(path)]
    assert hits == []


def names_read(statements) -> set[str]:
    """Every name loaded and every attribute taken within ``statements``."""
    read = set()
    for stmt in statements:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def only_tests_read(package: Path, bench: Path) -> list[str]:
    """``file:line: name`` for each public top-level function or class of the
    package that only tests can be reading: no other package module, no bench
    script and no statement of its own module besides its definition reads it,
    and neither its module's ``__all__`` nor the package's lists it."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(package.glob("*.py"))}
    used = exports(trees[package / "__init__.py"])
    for path in bench.glob("*.py"):
        used |= names_read(ast.parse(path.read_text(encoding="utf-8"), str(path)).body)
    hits = []
    for path, tree in trees.items():
        elsewhere = used | exports(tree) | set().union(*(names_read(t.body) for p, t in trees.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere | names_read(stmt for stmt in tree.body if stmt is not node):
                hits.append(f"{path.name}:{node.lineno}: {node.name}")
    return hits


def test_test_only_check_flags_what_it_should(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .a import listed\n__all__ = ['listed']\n", encoding="utf-8")
    (package / "a.py").write_text(
        "def listed():\n    return 1\n"
        "def local():\n    return 2\n"
        "def caller():\n    return local()\n"
        "def recursive():\n    return recursive()\n"
        "class Spare:\n    pass\n"
        "def benched():\n    return 3\n"
        "def _private():\n    return 4\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text("from .a import caller\nVALUE = caller()\n", encoding="utf-8")
    (bench / "run.py").write_text("import pkg.a\npkg.a.benched()\n", encoding="utf-8")
    assert only_tests_read(package, bench) == ["a.py:7: recursive", "a.py:9: Spare"]


def test_no_public_definition_is_read_by_tests_alone():
    assert only_tests_read(SRC, BENCH) == []
