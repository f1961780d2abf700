"""Every public name and top-level definition of ris_dps is run.

A name counts as used when code reaches it from the CLI, a demo, the
benchmark or the acceptance tests, directly or through library
definitions that are themselves reached, so a helper that only other
tests call fails; so does a method or property of a library class that
nothing reached calls by name.  References are read from the syntax
tree, so a docstring or comment that mentions a name does not count,
and neither does a library function that only its own unused callers
call.  Every name a library module imports is likewise read in that
module or exported through its __all__.

The syntax tree matches names, not objects: a method whose name reached
code reads for another object (json.load for a load method) passes.  So
the entry points are also run, in a fresh interpreter under a profile
hook (tests/entry_points.py), and every library function and method
must be called there.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import ris_dps
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ris_dps"


def _references(tree: ast.AST) -> set:
    """Names read and attributes taken anywhere in the tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _definitions() -> dict:
    """Top-level definitions of the library modules, by name."""
    defs = {}
    for path in LIBRARY.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    return defs


def _used(defs: dict) -> set:
    """Names the entry points reach, directly or through the definitions
    they reach."""
    entry_points = [LIBRARY / "cli.py", *ROOT.glob("demos/*.py"),
                    *ROOT.glob("perfbench/**/*.py"),
                    ROOT / "tests" / "test_acceptance.py"]
    assert len(entry_points) > 4
    used = set().union(*(_references(ast.parse(p.read_text()))
                         for p in entry_points))
    todo = list(used)
    while todo:
        for node in defs.get(todo.pop(), ()):
            new = _references(node) - used
            used |= new
            todo.extend(new)
    return used


def test_every_public_name_is_used_by_what_runs():
    defs = _definitions()
    used = _used(defs)
    names = sorted(set(ris_dps.__all__) | set(defs))
    assert len(names) > len(ris_dps.__all__)
    assert [name for name in names if name not in used] == []


def test_every_method_is_used_by_what_runs():
    # Methods and properties of the library's classes, dunders aside;
    # a dataclass field is no method and stays out.
    defs = _definitions()
    methods = sorted({
        f"{cls.name}.{node.name}"
        for nodes in defs.values() for cls in nodes
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))})
    assert len(methods) > 10
    used = _used(defs)
    assert [m for m in methods if m.split(".")[1] not in used] == []


def _functions() -> dict:
    """Every library function and method, dunders included, by its code
    object's (file name, first line): the first decorator's or the def's
    line."""
    found = {}
    for path in LIBRARY.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in node.body if owner else [node]:
                if isinstance(fn, ast.FunctionDef):
                    first = min([fn.lineno]
                                + [d.lineno for d in fn.decorator_list])
                    found[(path.name, first)] = \
                        f"{path.name}:{owner}{fn.name}"
    return found


def test_every_function_runs_from_the_entry_points(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "entry_points.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=600,
        env={**child_env(), "MPLBACKEND": "Agg"})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "ran.json").read_text())
    assert Path(doc["library"]) == LIBRARY.resolve()
    ran = {tuple(key) for key in doc["ran"]}
    functions = _functions()
    assert len(functions) > 90
    assert sorted(name for key, name in functions.items()
                  if key not in ran) == []


def _imported(tree: ast.AST) -> list:
    """(line, name) of every name an import statement binds."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(node.lineno, a.asname or a.name) for a in node.names]
    return found


def test_every_library_import_is_used():
    dead = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [t.id for t in node.targets
                         if isinstance(t, ast.Name)] == ["__all__"]):
                read |= set(ast.literal_eval(node.value))
        dead += [f"{path.name}:{line}: {name}"
                 for line, name in _imported(tree) if name not in read]
    assert dead == []


#: The library's layers, lowest first: a module imports only those below it.
LAYERS = ("geometry", "channel", "optimizer", "analysis", "metrics",
          "experiments", "cli")


def _package_imports(tree: ast.AST) -> list:
    """(line, name) of every import of the package, function bodies
    included: `from .x import y` names module x and `from . import y`
    names y.  An absolute import of ris_dps names the package as a whole,
    which is no layer: the modules import each other relatively."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += ([(node.lineno, node.module.split(".")[0])] if node.module
                      else [(node.lineno, a.name) for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            found += [(node.lineno, "ris_dps") for name in names
                      if name.split(".")[0] == "ris_dps"]
    return found


def test_each_module_imports_only_the_layers_below_it():
    assert sorted(LAYERS) == sorted(
        p.stem for p in LIBRARY.glob("*.py")
        if p.stem not in ("__init__", "__main__"))
    upward = []
    for rank, module in enumerate(LAYERS):
        tree = ast.parse((LIBRARY / f"{module}.py").read_text())
        upward += [f"{module}.py:{line}: {name}"
                   for line, name in _package_imports(tree)
                   if name not in LAYERS[:rank]
                   # the meta sidecar's package version
                   and (module, name) != ("experiments", "__version__")]
    assert upward == []
