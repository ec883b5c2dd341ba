"""No hidden global state: no memo tables at module level retain expressions."""

import contextlib
import copy
import gc
import importlib
import io
import json
import pickle
import pkgutil
import random
import weakref

import pytest

import starchart
from starchart import (
    Sum,
    canonical_solution,
    certify,
    chart_of,
    collapse,
    measures,
    parse,
    recheck_certificate,
    syntactic_witness,
    to_llee,
    verify_solution,
    verify_witness,
)
from starchart.cli import main
from starchart.formats import chart_to_json
from starchart.layering import _reachability, analysis_of_verified, enumerate_witnesses, infer_witness
from gen import distinct_nodes, local_certify, random_chart


def _modules():
    yield starchart
    for info in pkgutil.iter_modules(starchart.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        yield importlib.import_module(f"starchart.{info.name}")


def test_no_function_carries_a_cache():
    cached = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, value in vars(module).items()
        if callable(value) and hasattr(value, "cache_info")
    ]
    assert cached == []


def _table_sizes():
    """The size of every dict, list and set bound at module level in
    ``starchart.*``, or as an attribute of a class defined there."""
    sizes = {}
    for module in _modules():
        for name, value in vars(module).items():
            bound = [(f"{module.__name__}.{name}", value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                bound += [(f"{module.__name__}.{name}.{attr}", v) for attr, v in vars(value).items()]
            sizes.update((where, len(v)) for where, v in bound if isinstance(v, (dict, list, set)))
    return sizes


def _solve_file(text, tmp_path):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart_to_json(chart_of(parse(text, ("a", "b", "c"))))), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["solve", str(path)]) == 0
    return out.getvalue()


def _witness(text):
    return syntactic_witness(chart_of(parse(text, ("a", "b", "c"))))


# each public operation, on the text of an expression over a, b, c
OPERATIONS = {
    "parse": lambda text, tmp_path: parse(text, ("a", "b", "c")),
    "chart_of": lambda text, tmp_path: chart_of(parse(text, ("a", "b", "c"))),
    "certify": lambda text, tmp_path: certify(parse(text, ("a", "b", "c")), parse(f"({text}) + c b", ("a", "b", "c"))),
    "recheck_certificate": lambda text, tmp_path: _replayed(
        parse(text, ("a", "b", "c")), parse(f"({text}) + c b", ("a", "b", "c")), "inequivalent"),
    "solve": _solve_file,
    "infer_witness": lambda text, tmp_path: infer_witness(chart_of(parse(text, ("a", "b", "c")))),
    "collapse": lambda text, tmp_path: collapse(_witness(f"{text} + ({text})")),
    "verify_solution": lambda text, tmp_path: verify_solution(_witness(text).base, canonical_solution(_witness(text))),
}


@pytest.mark.parametrize("op", OPERATIONS)
def test_no_module_level_table_grows(op, tmp_path):
    # a table that outlives the call, such as an intern table bound at
    # module level, grows with the inputs it has seen; one that the
    # operation owns dies with it
    before = _table_sizes()
    for text in ("(a b + a)*(b a*0) c + c", "a (b c + a)*(c a*0) + b*(a c)", "((a a)*0 + b) c"):
        assert OPERATIONS[op](text, tmp_path) is not None
    after = _table_sizes()
    assert {where: (n, after.get(where)) for where, n in before.items() if after.get(where) != n} == {}
    assert after.keys() == before.keys()


def test_expressions_die_after_use():
    e = parse("(a b + a)*(b a*0) + c", ("a", "b", "c"))
    X = chart_of(e)
    cert = local_certify(e, Sum(e, e))
    assert cert.verdict == "equivalent"
    refs = [weakref.ref(x) for x in (e, cert.common, *X.states)]
    del e, X, cert
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_parses_share_nothing_and_keep_nothing():
    # the table that makes equal subterms one node is the call's own
    text = "(a b + a)*(a b + a) + (a b + a)*(b a*0) + a b"
    gc.collect()
    gc.disable()
    try:
        e, twin = parse(text, ("a", "b")), parse(text, ("a", "b"))
        assert e == twin and len(distinct_nodes(e)) == 11
        assert {id(x) for x in distinct_nodes(e)}.isdisjoint(map(id, distinct_nodes(twin)))
        refs = [weakref.ref(x) for x in distinct_nodes(e) + distinct_nodes(twin)]
        del e, twin
        assert gc.collect() == 0  # freed by reference counting alone
    finally:
        gc.enable()
    assert [r for r in refs if r() is not None] == []


def test_witnesses_and_their_analyses_die_after_use():
    e = parse("(a b + a)*(b a*0) + (a b + a)*(b a*0)", ("a", "b"))
    L = syntactic_witness(chart_of(e))
    assert verify_witness(L) == (True, None)
    analysis = analysis_of_verified(L)
    collapsed, _ = collapse(L)
    refs = [weakref.ref(x) for x in (L, analysis, collapsed, analysis_of_verified(collapsed))]
    del e, L, analysis, collapsed
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_reachability_dies_with_its_chart():
    e = parse("(a b + a)*(b a*0) + c", ("a", "b", "c"))
    X = chart_of(e)
    reach = _reachability(X)
    assert _reachability(X) is reach  # computed once per chart
    assert "_reachability" in vars(X)
    # copies and pickles are rebuilt from the fields, without the memo
    for twin in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
        assert twin == X and "_reachability" not in vars(twin)
        assert _reachability(twin) == reach
    refs = [weakref.ref(x) for x in (e, X, *X.states)]
    del e, X, reach, twin
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_charts_and_collapses_leave_no_reference_cycles():
    # everything is freed by reference counting, without waiting for the
    # cyclic collector: no expression memo refers back to its node (a star
    # keeps no step memo), and no witness that a collapse builds and drops
    # on the way refers back to itself
    e = parse("(a b + a)*(b a*0) + (a b + a)*(b a*0)", ("a", "b"))
    gc.collect()
    gc.disable()
    try:
        L = syntactic_witness(chart_of(e))
        collapsed, _ = collapse(L)
        assert len(collapsed.base.states) < len(L.base.states)
        del e, L, collapsed
        assert gc.collect() == 0
    finally:
        gc.enable()


def _replayed(e, f, verdict):
    """Replay the round-tripped certificate of ``e`` against ``f``, of the given verdict."""
    doc = json.loads(json.dumps(certify(e, f).to_json()))
    assert doc["verdict"] == verdict
    return recheck_certificate(doc)


# each is freed by reference counting alone: no helper on these paths is a
# closure that refers to itself
FREED_WITHOUT_THE_COLLECTOR = {
    "certify": lambda e, L: certify(e, Sum(e, e)),
    "replay_equivalent": lambda e, L: _replayed(e, Sum(e, e), "equivalent"),
    "replay_inequivalent": lambda e, L: _replayed(e, Sum(e, parse("b", ("b",))), "inequivalent"),
    # the local proof, which ``certify`` does not run on ``e`` and ``e + e``,
    # whose normal forms meet
    "local_certify": lambda e, L: local_certify(e, Sum(e, e)),
    "replay_local": lambda e, L: recheck_certificate(json.loads(json.dumps(local_certify(e, Sum(e, e)).to_json()))),
    "canonical_solution": lambda e, L: canonical_solution(L),
    "verify_solution": lambda e, L: verify_solution(L.base, canonical_solution(L)),
    "measures": lambda e, L: [measures(L, x) for x in L.base.states],
    "to_llee": lambda e, L: to_llee(L),
}


@pytest.mark.parametrize("op", FREED_WITHOUT_THE_COLLECTOR)
def test_certify_solve_and_measures_leave_no_reference_cycles(op):
    e = parse("(a b + a)*(b a*0) + c", ("a", "b", "c"))
    L = syntactic_witness(chart_of(e))
    gc.collect()
    gc.disable()
    try:
        FREED_WITHOUT_THE_COLLECTOR[op](e, L)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("infer", [infer_witness, enumerate_witnesses])
def test_witness_inference_leaves_no_reference_cycles(infer):
    # the search is one loop over an explicit stack, with no closure that
    # refers to itself; the chart is built inside the call, as in the CLI
    gc.collect()
    gc.disable()
    try:
        assert infer(random_chart(random.Random(3), n_states=5))
        assert gc.collect() == 0
    finally:
        gc.enable()
