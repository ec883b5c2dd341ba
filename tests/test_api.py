"""The package exports its public names, and no submodule; it keeps no unused private name and
no unused import."""

import ast
import pathlib
import types
from collections import Counter

import starchart


def test_all_names_resolve_to_no_module():
    assert len(set(starchart.__all__)) == len(starchart.__all__)
    for name in starchart.__all__:
        assert not isinstance(getattr(starchart, name), types.ModuleType), name
    namespace: dict = {}
    exec("from starchart import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(starchart.__all__)


def test_every_private_module_name_is_used():
    # a helper that a simplification leaves behind is referenced nowhere in
    # the package but at its own definition
    package = pathlib.Path(starchart.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dunder = lambda name: name.startswith("__") and name.endswith("__")
    private = [(m, name) for m, name in defined if name.startswith("_") and not dunder(name)]
    # names the scan must find, so that a scan that finds nothing fails
    sentinels = {("layering.py", "_reach"), ("rerouting.py", "_condition_of"), ("solution.py", "_NormalForms")}
    assert sentinels <= set(private)
    assert [(m, name) for m, name in private if name not in used] == []
    # so is a method or property of a private class: it is read as an
    # attribute somewhere outside its own body
    attributes = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute))
    methods = [(module, f"{cls.name}.{node.name}", node)
               for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
               for node in cls.body if isinstance(node, ast.FunctionDef) and not dunder(node.name)]
    own = lambda method: sum(isinstance(node, ast.Attribute) and node.attr == method.name
                             for node in ast.walk(method))
    sentinels = {("layering.py", "_Analysis.lengths"), ("solution.py", "_NormalForms.folded")}
    assert sentinels <= {(m, name) for m, name, _ in methods}
    assert [(m, name) for m, name, node in methods if attributes[node.name] == own(node)] == []


def test_every_imported_name_is_used():
    # an import that a deletion leaves behind is referenced nowhere in its
    # module; ``__init__`` imports to export
    package = pathlib.Path(starchart.__file__).parent
    imported, unused = set(), []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [(alias.asname or alias.name).partition(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported |= {(path.name, name) for name in names}
        unused += [(path.name, name) for name in names if name not in used]
    assert {("cli.py", "_eliminated_rows"), ("rerouting.py", "bisimilarity")} <= imported
    assert unused == []
