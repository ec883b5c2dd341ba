"""The package exports its public names, each for a stated reason, and no submodule; it keeps no
unused private name and no unused import."""

import ast
import dataclasses
import pathlib
import types
from collections import Counter

import pytest

import starchart
from starchart import (
    LabelledPrechart,
    Splitting,
    bisimilarity,
    certify,
    chart_of,
    check_bisimulation,
    is_homomorphism,
    parse,
    recheck_certificate,
    syntactic_witness,
    to_llee,
    verify_witness,
)
from starchart.layering import ENTRY

# Why each name is exported: a CLI entry, a result or error type, a paper
# construction (the charts, bisimulations, layering witnesses, reroutings
# and solutions of Grabmayer & Fokkink, and the syntax they are built on).
CLI = "CLI entry"
TYPE = "result or error type"
PAPER = "paper construction"
EXPORTED = {
    "main": f"{CLI}: the starchart console script",
    "certify": f"{CLI}: the certify command as a library call",
    "recheck_certificate": f"{CLI}: replay of a certify document",
    "Certificate": f"{TYPE}: what certify returns",
    "BisimViolation": f"{TYPE}: the failed clause that check_bisimulation names",
    "PartitionRelation": f"{TYPE}: the equivalence that bisimilarity returns and quotient takes",
    "InvalidWitnessError": f"{TYPE}: a labelling that is not a layering witness",
    "LabelledPrechart": f"{TYPE}: a prechart with entry and body tags",
    "WeightedLabelling": f"{TYPE}: the LLEE weights that to_llee returns",
    "WitnessViolation": f"{TYPE}: the violated clause that verify_witness names",
    "Splitting": f"{TYPE}: the inclusion and retraction that rerouting takes",
    "HomViolation": f"{TYPE}: the failed step that is_homomorphism names",
    "Prechart": f"{TYPE}: the chart every construction takes and returns",
    "MeasureError": f"{TYPE}: a solution recursion that fails to descend",
    "Solution": f"{TYPE}: what canonical_solution returns",
    "ParseError": f"{TYPE}: malformed expression text",
    "UnknownActionError": f"{TYPE}: an atom outside the declared alphabet",
    "Expr": f"{TYPE}: the expression tree that parse returns",
    "Atom": f"{PAPER}: an action",
    "Zero": f"{PAPER}: deadlock",
    "Sum": f"{PAPER}: alternative composition",
    "Seq": f"{PAPER}: sequential composition",
    "Star": f"{PAPER}: the binary star",
    "parse": f"{PAPER}: the concrete syntax of expressions",
    "render": f"{PAPER}: the concrete syntax of expressions",
    "declare_alphabet": f"{PAPER}: the actions that expressions are over",
    "atoms": f"{PAPER}: the actions an expression uses",
    "gsum": f"{PAPER}: the sum of a list of expressions",
    "size_bound": f"{PAPER}: a bound on the states of an expression's chart",
    "star_height": f"{PAPER}: the nesting depth of stars",
    "expr_step": f"{PAPER}: the transitions of an expression",
    "chart_of": f"{PAPER}: the chart of an expression",
    "coproduct": f"{PAPER}: the disjoint union of two charts",
    "generated": f"{PAPER}: the subchart generated by a state",
    "restriction": f"{PAPER}: a chart restricted to a closed set of states",
    "is_homomorphism": f"{PAPER}: functional bisimulations between charts",
    "kernel_partition": f"{PAPER}: the kernel of a map",
    "quotient": f"{PAPER}: the quotient by a bisimulation equivalence",
    "check_bisimulation": f"{PAPER}: the bisimulation clauses",
    "bisimilarity": f"{PAPER}: the largest bisimulation on a chart",
    "bisimilar": f"{PAPER}: bisimilarity of two expressions' charts",
    "verify_witness": f"{PAPER}: the layering witness conditions",
    "syntactic_witness": f"{PAPER}: the witness that an expression's chart carries",
    "infer_witness": f"{PAPER}: a witness of a chart given without one",
    "measures": f"{PAPER}: the loop level and body depth of a state",
    "derived_relations": f"{PAPER}: the loop relations a witness derives",
    "to_llee": f"{PAPER}: the LLEE weighting of a witness",
    "from_llee": f"{PAPER}: the tags read off an LLEE weighting",
    "rerouting": f"{PAPER}: a chart pushed along a splitting",
    "connect_through": f"{PAPER}: the one-state merge of the collapse",
    "check_condition": f"{PAPER}: the three safe-pair conditions",
    "find_pair": f"{PAPER}: the safe bisimilar pair the collapse merges next",
    "relabel": f"{PAPER}: the witness repaired across a merge",
    "collapse": f"{PAPER}: the witness-preserving bisimulation collapse",
    "canonical_solution": f"{PAPER}: the canonical solution of a witness",
    "verify_solution": f"{PAPER}: the equations a solution satisfies",
}


def test_every_exported_name_has_a_reason_and_every_reason_an_exported_name():
    assert sorted(set(starchart.__all__) - set(EXPORTED)) == [], "exported without a reason"
    assert sorted(set(EXPORTED) - set(starchart.__all__)) == [], "a reason for a name not exported"
    assert all(reason.startswith((CLI, TYPE, PAPER)) for reason in EXPORTED.values())


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


def _values():
    """One value of each frozen result type, made by the call that returns it."""
    X = chart_of(parse("(a a)*0 + a", ("a",)))
    x, y, z = X.states
    L = syntactic_witness(X)
    return {
        "Expr": parse("a", ("a",)),
        "Prechart": X,
        "LabelledPrechart": L,
        "WeightedLabelling": to_llee(L),
        "WitnessViolation": verify_witness(LabelledPrechart(X, {edge: ENTRY for edge in L.tags}))[1],
        "PartitionRelation": bisimilarity(X),
        "BisimViolation": check_bisimulation(X, X, [(x, y)])[1],
        "HomViolation": is_homomorphism({x: x, y: x, z: x}, X, X)[1],
        "Splitting": Splitting.merging(X, {x: y}),
        "Check": recheck_certificate(certify(parse("a", ("a",)), parse("a + a", ("a",))).to_json())[0],
    }


@pytest.mark.parametrize("name", ["Expr", "Prechart", "LabelledPrechart", "WeightedLabelling", "WitnessViolation",
                                  "PartitionRelation", "BisimViolation", "HomViolation", "Splitting", "Check"])
def test_every_result_type_is_an_immutable_value(name):
    value = _values()[name]
    assert isinstance(value, getattr(starchart, name, None) or getattr(starchart.replay, name))
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
