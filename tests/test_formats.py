import random

from starchart import Atom, Prechart, Seq, Star, Zero, chart_of, to_llee, verify_witness
from starchart.formats import (
    chart_from_json,
    chart_to_json,
    iter_state_ids,
    state_ids,
    to_dot,
    weighted_to_json,
    witness_from_json,
    witness_to_json,
)
from starchart.layering import syntactic_witness
from gen import random_expr

A = Atom("a")
AA0 = Star(Seq(A, A), Zero())


def test_chart_json_round_trip_preserves_structure():
    rng = random.Random(113)
    for _ in range(30):
        X = chart_of(random_expr(rng, depth=4))
        doc = chart_to_json(X)
        Y = chart_from_json(doc)
        assert chart_to_json(Y) == doc
        assert len(Y.states) == len(X.states)


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
    assert "peripheries=2" in text


def test_lazy_ids_are_the_state_ids():
    X = Prechart.make(("a",), ("L:x", (0, "x"), "L:x#2", (0, "y"), "L:x#3"), {}, {})
    pairs_ = list(iter_state_ids(X.states))
    assert [name for _, name in pairs_] == ["L:x", "L:x#2", "L:x#2#2", "L:y", "L:x#3"]
    assert dict(pairs_) == state_ids(X)
