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
"""

import ast
from pathlib import Path

import ris_dps

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
