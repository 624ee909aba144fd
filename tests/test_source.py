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


def defaulted_parameters(path: Path) -> list[tuple[str, str, int, int | None, str, ast.expr]]:
    """(qualified name, called name, line, positional index or None, parameter,
    default) for each defaulted parameter of the module's functions and methods.

    A method's index leaves out ``self`` or ``cls``, and ``C.__init__`` is
    called as ``C``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    defs = [(None, node) for node in tree.body]
    defs += [(c.name, node) for c in tree.body if isinstance(c, ast.ClassDef) for node in c.body]
    out = []
    for owner, node in defs:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        skip = 1 if owner and not static else 0
        qual = f"{path.stem}.{owner + '.' if owner else ''}{node.name}"
        called = owner if node.name == "__init__" else node.name
        first = len(positional) - len(a.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:], a.defaults), start=first):
            out.append((qual, called, node.lineno, i - skip, arg.arg, default))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((qual, called, node.lineno, None, arg.arg, default))
    return out


def passes(call: ast.Call, index: int | None, name: str, default: ast.expr) -> bool:
    """Whether ``call`` may pass the parameter a value other than its default
    literal; an unpacked ``*args`` or ``**kwargs`` may pass anything."""
    given = None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) and index is not None and i <= index:
            return True
        if i == index:
            given = arg
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == name:
            given = kw.value
    return given is not None and ast.dump(given) != ast.dump(default)


def unpassed_defaults(package: Path, callers: list[Path], exempt: set[str]) -> list[str]:
    """``file:line: name(parameter)`` for each defaulted parameter of a function
    or method of ``package`` that no call in ``callers`` passes with a value
    other than its default literal. Calls match by name, as ``f(...)`` or
    ``x.f(...)``; ``exempt`` lists qualified names such as ``cli.main``."""
    calls: dict[str, list[ast.Call]] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    hits = []
    for path in sorted(package.glob("*.py")):
        for qual, called, line, index, name, default in defaulted_parameters(path):
            if qual in exempt or any(passes(c, index, name, default) for c in calls.get(called, [])):
                continue
            hits.append(f"{path.name}:{line}: {qual.split('.', 1)[1]}({name})")
    return hits


def test_unpassed_default_check_flags_what_it_should(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def f(x, order=4, *, beta=1.2, eps=1e-5):\n    return x\n"
        "def g(x, n=1, m=2):\n    return f(x, 4, beta=b, eps=1e-05)\n"
        "def spread(*args, k=0):\n    return g(*args)\n"
        "class C:\n"
        "    def __init__(self, width=3):\n        self.width = width\n"
        "    def grow(self, by=1):\n        return C().grow(1)\n"
        "    @staticmethod\n    def make(size=2):\n        return size\n"
        "def main(argv=None):\n    return C.make(5)\n",
        encoding="utf-8",
    )
    caller = tmp_path / "run.py"
    caller.write_text("import pkg.a\npkg.a.spread(1, k=0)\npkg.a.C().grow(2)\n", encoding="utf-8")
    assert unpassed_defaults(package, [package / "a.py", caller], {"a.main"}) == [
        "a.py:1: f(order)",
        "a.py:1: f(eps)",
        "a.py:5: spread(k)",
        "a.py:8: C.__init__(width)",
    ]


def test_every_defaulted_parameter_is_passed_by_some_caller():
    callers = sorted(SRC.glob("*.py")) + [p for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    assert unpassed_defaults(SRC, callers, {"cli.main"}) == []


# Each parameter container and the topic-label type trusts the shapes and
# contents its one builder gives it and checks nothing itself, so it may be
# built nowhere else: module.scope of the builder, by class name.
BUILDERS = {
    "MhaParams": "model.ReportModel",
    "FfnParams": "model.ReportModel",
    "ProjectionParams": "model.ReportModel",
    "GcnParams": "model.ReportModel",
    "DiseaseTopicLabels": "topics.extract_topic_labels",
}


def foreign_constructions(paths: list[Path], builders: dict[str, str]) -> list[str]:
    """``file:line: Name`` for each call ``Name(...)`` or ``x.Name(...)`` of a
    class of ``builders`` that is not inside the function or class that
    ``builders`` names for it; a method of that class counts as inside it."""
    hits = []

    def visit(path: Path, node: ast.AST, scopes: frozenset[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scopes
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scopes | {f"{path.stem}.{child.name}"}
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name in builders and builders[name] not in scopes:
                    hits.append(f"{path.name}:{child.lineno}: {name}")
            visit(path, child, inner)

    for path in paths:
        visit(path, ast.parse(path.read_text(encoding="utf-8"), str(path)), frozenset())
    return hits


def test_foreign_construction_check_flags_what_it_should(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "model.py").write_text(
        "from .attention import MhaParams\n"
        "class ReportModel:\n"
        "    def _mha(self, w):\n        return MhaParams(w, w, w, w, 2)\n"
        "    def _ffn(self, w):\n        def inner():\n            return FfnParams(w, w, w, w)\n        return inner()\n"
        "def load(w):\n    return MhaParams(w, w, w, w, 2)\n"
        "DEFAULT = ProjectionParams(None, None)\n",
        encoding="utf-8",
    )
    (package / "topics.py").write_text(
        "def extract_topic_labels(tags):\n    return DiseaseTopicLabels(tags, None)\n"
        "def from_file(tags):\n    return DiseaseTopicLabels(tags, None)\n"
        "class ReportModel:\n    def make(self, w):\n        return MhaParams(w, w, w, w, 1)\n",
        encoding="utf-8",
    )
    (bench / "run.py").write_text(
        "import pkg.graph\nimport pkg.model\nparams = pkg.graph.GcnParams([], None, [])\n"
        "model = pkg.model.ReportModel()\n",
        encoding="utf-8",
    )
    paths = [package / "model.py", package / "topics.py", bench / "run.py"]
    assert foreign_constructions(paths, BUILDERS) == [
        "model.py:10: MhaParams",
        "model.py:11: ProjectionParams",
        "topics.py:4: DiseaseTopicLabels",
        "topics.py:7: MhaParams",
        "run.py:3: GcnParams",
    ]


def test_each_container_is_built_by_its_one_builder_only():
    paths = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    assert foreign_constructions(paths, BUILDERS) == []
