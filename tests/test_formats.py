import random

import pytest

from starchart import Atom, Prechart, Seq, Star, Zero, chart_of, coproduct, parse, to_llee, verify_witness
from starchart import formats, semantics
from starchart.formats import (
    chart_from_json,
    chart_to_json,
    state_ids,
    to_dot,
    weighted_to_json,
    witness_from_json,
    witness_to_json,
)
from starchart.layering import syntactic_witness
from gen import deadline, random_chart, random_expr

A = Atom("a")
AA0 = Star(Seq(A, A), Zero())


def rows(X: Prechart):
    """A chart by state number: its alphabet, outputs, successors and root."""
    return X.alphabet, [X.out(x) for x in X.states], X.numbered_succ(), None if X.root is None else X.index(X.root)


def test_chart_json_round_trip_preserves_structure():
    rng = random.Random(113)
    charts = [chart_of(random_expr(rng, depth=4)) for _ in range(30)]
    # declared actions that no state uses are rows too
    charts += [chart_of(random_expr(rng, depth=4), ("c", "a", "b", "z_1")) for _ in range(20)]
    charts += [random_chart(rng, n_states=2 + i % 6, alphabet=("b", "a0"), rooted=i % 2 == 0) for i in range(40)]
    for X in charts:
        doc = chart_to_json(X)
        Y = chart_from_json(doc)
        assert chart_to_json(Y) == doc
        assert rows(Y) == rows(X)


@pytest.mark.parametrize("alphabet", [["a", "B C"], ["a", ""], ["a", "1"]])
def test_no_chart_has_an_action_that_its_document_cannot_name(alphabet):
    # chart_from_json reads an alphabet as ``--alphabet`` does, so a chart
    # under any other alphabet could be written but never read back
    e = parse("a", ["a"])
    with pytest.raises(ValueError, match=f"invalid action name: {alphabet[1]!r}"):
        chart_of(e, alphabet)
    with pytest.raises(ValueError, match="invalid action name"):
        Prechart.make(alphabet, ("x",), {}, {})


def test_witness_json_round_trip_preserves_tags_and_validity():
    rng = random.Random(127)
    for _ in range(30):
        L = syntactic_witness(chart_of(random_expr(rng, depth=4)))
        doc = witness_to_json(L)
        M = witness_from_json(doc)
        assert witness_to_json(M) == doc
        assert verify_witness(M) == (True, None)


def test_weighted_json_carries_the_llee_weights():
    rng = random.Random(137)
    for _ in range(20):
        W = to_llee(syntactic_witness(chart_of(random_expr(rng, depth=4))))
        ids = state_ids(W.base)
        written = {(t["from"], t["action"], t["to"]): t["weight"] for t in weighted_to_json(W)["transitions"]}
        assert written == {(ids[x], a, ids[y]): n for (x, a, y), n in W.weights.items()}


def test_state_ids_are_uniquified_on_label_clashes():
    from starchart import Prechart

    X = Prechart.make(("a",), ((0, "x"), (1, "x")), {}, {})
    ids = state_ids(X)
    assert len(set(ids.values())) == 2


def test_dot_escapes_quotes_and_marks_structure():
    X = chart_of(AA0)
    text = to_dot(X, syntactic_witness(X))
    assert text.count("penwidth=2") == 1
    assert text.count("peripheries=2") == 1  # the root only
    # thick strokes on the entry transitions only: one entry, two body steps
    X = chart_of(parse("(a a a)*0", ("a",)))
    assert to_dot(X, syntactic_witness(X)).count("penwidth=2") == 1


def test_lazy_ids_are_the_state_ids():
    X = Prechart.make(("a",), ("L:x", (0, "x"), "L:x#2", (0, "y"), "L:x#3"), {}, {})
    # an id whose first suffix is taken gets the next free one
    Y = Prechart.make(("a",), ("L:x", "L:x#2", (0, "x")), {}, {})
    with deadline(5, "state_ids"):
        ids, ids_y = state_ids(X), state_ids(Y)
    assert list(ids) == list(X.states)
    assert list(ids.values()) == ["L:x", "L:x#2", "L:x#2#2", "L:y", "L:x#3"]
    assert list(ids_y.values()) == ["L:x", "L:x#2", "L:x#3"]


def test_a_coproducts_states_are_named_by_their_side():
    X, Y = chart_of(parse("a*0", ("a",))), chart_of(parse("(a a)*0", ("a",)))
    doc = chart_to_json(coproduct(X, Y)[0])
    assert doc["states"] == ["L:a*0", "R:(a a)*0", "R:a(a a)*0"]
    assert doc["transitions"] == [{"from": "L:a*0", "action": "a", "to": "L:a*0"},
                                  {"from": "R:(a a)*0", "action": "a", "to": "R:a(a a)*0"},
                                  {"from": "R:a(a a)*0", "action": "a", "to": "R:(a a)*0"}]


def test_a_chart_is_checked_once_per_make_and_per_document(monkeypatch):
    # ``Prechart.make`` and ``chart_from_json`` each build the prechart on
    # the index of their own ``_check_chart``, which runs once
    calls = []

    def spy(*fields):
        calls.append(fields)
        return check(*fields)

    check = semantics._check_chart
    monkeypatch.setattr(semantics, "_check_chart", spy)
    monkeypatch.setattr(formats, "_check_chart", spy)
    X = Prechart.make(("a", "b"), ("x", "y"), {"y": {"a"}}, {"x": {"a": ["y", "y"], "b": ["x"]}}, root="x")
    assert len(calls) == 1
    Y = chart_from_json(chart_to_json(X))
    assert len(calls) == 2
    assert Y == X and [Y.index(x) for x in Y.states] == [0, 1] and Y.numbered_succ() == X.numbered_succ()
    # a prechart built from its fields, and every chart of an expression,
    # is checked as before
    Prechart(X.alphabet, X.states, X.outputs, X.transitions, X.root)
    chart_of(AA0)
    assert len(calls) == 4
