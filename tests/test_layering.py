import copy
import pickle
import random
import signal

import pytest

from starchart import (
    Atom,
    InvalidWitnessError,
    LabelledPrechart,
    Prechart,
    Seq,
    Star,
    Sum,
    Zero,
    chart_of,
    derived_relations,
    enumerate_witnesses,
    from_llee,
    generated,
    infer_witness,
    loop_depth,
    measures,
    parse,
    restrict_witness,
    syntactic_witness,
    to_llee,
    union_witness,
    verify_witness,
)
from starchart.layering import ENTRY, _Analysis, analysis_of_verified
from gen import (
    all_labellings,
    exhaustive_witnesses,
    fig3_left,
    fig3_right,
    path_relations,
    random_chart,
    random_expr,
    simple_cycles,
)

A, B = Atom("a"), Atom("b")
AA0 = Star(Seq(A, A), Zero())
X1 = Seq(A, AA0)


def all_body(X: Prechart) -> LabelledPrechart:
    return LabelledPrechart(X, {edge: "b" for edge in X.edges()})


def acyclic_chart() -> Prechart:
    return chart_of(Seq(Sum(A, B), B), ("a", "b"))


def erased(X: Prechart, extra: Prechart | None = None) -> Prechart:
    """``X`` with states renamed s0, s1, ..., plus a disjoint copy of ``extra``."""
    parts = [X] if extra is None else [X, extra]
    ids: dict = {}
    outputs: dict = {}
    transitions: dict = {}
    for i, Y in enumerate(parts):
        for x in Y.states:
            ids[(i, x)] = f"s{len(ids)}"
            outputs[ids[(i, x)]] = set(Y.out(x))
        for x, a, y in Y.edges():
            transitions.setdefault(ids[(i, x)], {}).setdefault(a, []).append(ids[(i, y)])
    return Prechart.make(X.alphabet, list(ids.values()), outputs, transitions, ids[(0, X.root)])


def cycle_witness() -> LabelledPrechart:
    # the two-state a-cycle with the entry placed at the root
    X = chart_of(AA0)
    return LabelledPrechart(X, {(AA0, "a", X1): "e", (X1, "a", AA0): "b"})


def entry_jump_witness() -> LabelledPrechart:
    # x -b-> y -e-> w -b-> y: a valid witness where a body step raises the
    # loop level (x has level 0, y level 1)
    X = Prechart.make(
        ("a",),
        ("x", "y", "w"),
        {},
        {"x": {"a": ["y"]}, "y": {"a": ["w"]}, "w": {"a": ["y"]}},
        root="x",
    )
    return LabelledPrechart(
        X, {("x", "a", "y"): "b", ("y", "a", "w"): "e", ("w", "a", "y"): "b"}
    )


class TestDerivedRelations:
    def test_all_body_gives_empty_relations(self):
        diredge, loopright = derived_relations(all_body(acyclic_chart()))
        assert diredge == frozenset() and loopright == frozenset()

    def test_two_state_cycle(self):
        diredge, loopright = derived_relations(cycle_witness())
        assert diredge == frozenset({(AA0, X1)})
        assert loopright == frozenset({(X1, AA0)})

    def test_entry_self_loop_contributes_nothing(self):
        L = syntactic_witness(chart_of(Star(A, B)))
        diredge, loopright = derived_relations(L)
        assert diredge == frozenset() and loopright == frozenset()

    def test_is_the_path_definition_on_every_labelling(self):
        # every labelling, witnesses and non-witnesses (non-flat ones too)
        rng = random.Random(139)
        checked = members = 0
        while checked < 40:
            X = random_chart(rng, n_states=rng.randint(2, 4), edge_prob=0.4)
            if not 3 <= sum(1 for _ in X.edges()) <= 8:
                continue
            checked += 1
            for L in all_labellings(X):
                relations = derived_relations(L)
                assert relations == path_relations(L)
                members += len(relations[1])
        assert members > 1000


class TestVerifyWitness:
    def test_all_body_on_acyclic_chart(self):
        assert verify_witness(all_body(acyclic_chart())) == (True, None)

    def test_all_body_on_a_cycle_fails_fully_specified(self):
        ok, violation = verify_witness(all_body(chart_of(AA0)))
        assert not ok
        assert violation.clause == "fully_specified_a"
        assert set(violation.detail) == {AA0, X1}

    def test_both_entries_on_the_cycle_fail_layeredness(self):
        X = chart_of(AA0)
        L = LabelledPrechart(X, {(AA0, "a", X1): "e", (X1, "a", AA0): "e"})
        ok, violation = verify_witness(L)
        assert not ok and violation.clause == "layered"

    def test_goto_freeness(self):
        # an entry into a state with output is rejected
        X = Prechart.make(
            ("a",), ("u", "v"), {"v": {"a"}}, {"u": {"a": ["v"]}, "v": {"a": ["u"]}}
        )
        L = LabelledPrechart(X, {("u", "a", "v"): "e", ("v", "a", "u"): "b"})
        ok, violation = verify_witness(L)
        assert not ok and violation.clause == "goto_free"
        assert violation.detail == ("u", "v")

    def test_fully_specified_b_requires_a_return_path(self):
        X = chart_of(Seq(A, B), ("a", "b"))
        L = LabelledPrechart(X, {**all_body(X).tags, (Seq(A, B), "a", B): "e"})
        ok, violation = verify_witness(L)
        assert not ok and violation.clause == "fully_specified_b"

    def test_every_labelling_of_fig3_right_fails(self):
        for L in all_labellings(fig3_right()):
            assert not verify_witness(L)[0]

    def test_fig3_left_witness_from_the_figure(self):
        _, L = fig3_left()
        assert verify_witness(L) == (True, None)

    def test_entry_jump_witness_is_valid(self):
        assert verify_witness(entry_jump_witness()) == (True, None)


class TestTheAnalysisIsBuiltOnce:
    def test_tags_are_a_read_only_copy(self):
        X = chart_of(AA0)
        tags = {(AA0, "a", X1): "e", (X1, "a", AA0): "b"}
        L = LabelledPrechart(X, tags)
        tags[(X1, "a", AA0)] = "e"
        assert L.tag(X1, "a", AA0) == "b"
        with pytest.raises(TypeError):
            L.tags[(X1, "a", AA0)] = "e"
        assert L == cycle_witness()
        assert LabelledPrechart(X, {**L.tags, (X1, "a", AA0): "e"}).tag(X1, "a", AA0) == "e"

    def test_every_query_shares_one_analysis(self):
        L = syntactic_witness(chart_of(Star(Sum(A, Seq(A, B)), B)))
        first = analysis_of_verified(L)
        verify_witness(L), measures(L, L.base.root), to_llee(L)
        assert analysis_of_verified(L) is first

    def test_a_violation_is_remembered_and_raised_each_time(self):
        L = all_body(chart_of(AA0))
        assert verify_witness(L) == verify_witness(L)
        for _ in range(2):
            with pytest.raises(InvalidWitnessError, match="fully_specified_a"):
                analysis_of_verified(L)

    def test_copies_and_pickles_leave_the_memo_behind(self):
        L = cycle_witness()
        analysis_of_verified(L)
        for twin in (copy.deepcopy(L), pickle.loads(pickle.dumps(L))):
            assert twin == L and "_checked" not in vars(twin)
            assert verify_witness(twin) == (True, None)


class TestMeasures:
    def test_all_body_acyclic_has_level_zero(self):
        L = all_body(acyclic_chart())
        for x in L.base.states:
            assert measures(L, x)[0] == 0

    def test_cycle_levels(self):
        L = cycle_witness()
        assert measures(L, AA0) == (1, 0)
        assert measures(L, X1) == (0, 1)

    def test_body_depth_zero_without_body_steps(self):
        L = syntactic_witness(chart_of(Star(A, B)))
        assert measures(L, Star(A, B))[1] == 0

    def test_invalid_witness_rejected(self):
        with pytest.raises(InvalidWitnessError):
            measures(all_body(chart_of(AA0)), AA0)


def brute_force_longest(adj, x):
    """Longest path out of ``x`` by trying every path."""
    return max((1 + brute_force_longest(adj, y) for y in adj.get(x, ())), default=0)


class TestLongestPaths:
    @staticmethod
    def longest_paths(states, adj):
        # the method reads only ``states`` off the analysis
        return _Analysis.longest_paths(type("Nodes", (), {"states": tuple(states)})(), adj)

    def test_matches_brute_force_on_random_dags(self):
        rng = random.Random(131)
        shared = isolated = 0
        for _ in range(150):
            n = rng.randint(1, 9)
            order = rng.sample(range(n), n)  # edges only go forward in this order
            adj: dict[int, list[int]] = {}
            for i, x in enumerate(order):
                later = order[i + 1:]
                succ = rng.sample(later, rng.randint(0, min(3, len(later))))
                if succ or rng.random() < 0.5:  # a sink may have no entry at all
                    adj[x] = succ
            preds = [y for ys in adj.values() for y in ys]
            shared += len(preds) != len(set(preds))
            isolated += any(not adj.get(x) and x not in preds for x in range(n))
            states = rng.sample(range(n), n)
            assert self.longest_paths(states, adj) == {x: brute_force_longest(adj, x) for x in states}
        assert shared > 50 and isolated > 50

    @pytest.mark.parametrize("adj", [
        {"x": ["x"]},
        {"x": ["y"], "y": ["x"]},
        {"x": ["y", "z"], "y": ["z"], "z": ["w"], "w": ["y"]},
    ])
    def test_a_cycle_raises_instead_of_hanging(self, adj):
        def expired(signum, frame):
            raise TimeoutError("longest_paths ran past 5 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(5)
        try:
            with pytest.raises(RuntimeError, match="cycle"):
                self.longest_paths("xyzw", adj)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestLoopDepth:
    def test_body_steps_have_depth_zero(self):
        L = cycle_witness()
        assert loop_depth(L, X1, "a", AA0) == 0

    def test_star_self_loop(self):
        e = Star(A, B)
        L = syntactic_witness(chart_of(e))
        assert loop_depth(L, e, "a", e) == 1

    def test_nested_star_self_loop(self):
        e = Star(Star(A, A), B)
        L = syntactic_witness(chart_of(e))
        assert loop_depth(L, e, "a", e) == 2

    def test_sequencing_preserves_depth(self):
        L = cycle_witness()
        assert loop_depth(L, AA0, "a", X1) == 1  # star unrolling at level 0 + 1


class TestLlee:
    def test_all_body_weights_are_zero(self):
        W = to_llee(all_body(acyclic_chart()))
        assert set(W.weights.values()) == {0}

    def test_cycle_weights(self):
        W = to_llee(cycle_witness())
        assert W.weights[(AA0, "a", X1)] == 1
        assert W.weights[(X1, "a", AA0)] == 0

    def test_entry_self_loop_gets_a_positive_weight(self):
        e = Star(A, B)
        W = to_llee(syntactic_witness(chart_of(e)))
        assert W.weights[(e, "a", e)] == 1

    def test_round_trip_on_random_valid_witnesses(self):
        rng = random.Random(37)
        seen = 0
        while seen < 100:
            if rng.random() < 0.6:
                L = syntactic_witness(chart_of(random_expr(rng, depth=4)))
            else:
                found = infer_witness(random_chart(rng, n_states=rng.randint(2, 5)))
                if found is None:
                    continue
                L = found
            seen += 1
            assert from_llee(to_llee(L)).tags == L.tags


class TestSyntacticWitness:
    def test_star_self_loop_is_entry(self):
        e = Star(A, B)
        L = syntactic_witness(chart_of(e))
        assert L.tag(e, "a", e) == "e"

    def test_seq_output_step_is_body(self):
        e = Seq(A, B)
        L = syntactic_witness(chart_of(e))
        assert L.tag(e, "a", B) == "b"

    def test_two_state_cycle_tags(self):
        L = syntactic_witness(chart_of(AA0))
        assert L.tag(AA0, "a", X1) == "e"
        assert L.tag(X1, "a", AA0) == "b"

    def test_always_verifies(self):
        rng = random.Random(41)
        for _ in range(60):
            L = syntactic_witness(chart_of(random_expr(rng, depth=4)))
            assert verify_witness(L) == (True, None)


class TestInferWitness:
    def test_two_state_cycle_has_exactly_two(self):
        X = chart_of(AA0)
        found = enumerate_witnesses(X)
        assert len(found) == 2
        assert infer_witness(X) is not None
        # agreement with brute-force enumeration over all labellings
        brute = [L for L in all_labellings(X) if verify_witness(L)[0]]
        assert {frozenset(L.tags.items()) for L in found} == {
            frozenset(L.tags.items()) for L in brute
        }

    def test_a_limit_stops_the_search(self):
        X = chart_of(parse("(a b)*0 + a*b", "ab"))
        every = enumerate_witnesses(X)
        assert len(every) == 2
        assert [L.tags for L in enumerate_witnesses(X, limit=1)] == [every[0].tags]
        assert enumerate_witnesses(X, limit=0) == []
        with pytest.raises(ValueError, match="limit"):
            enumerate_witnesses(X, limit=-1)

    def test_fig3_right_has_none(self):
        assert infer_witness(fig3_right()) is None

    def test_acyclic_chart_yields_all_body(self):
        X = acyclic_chart()
        L = infer_witness(X)
        assert L is not None
        assert set(L.tags.values()) == {"b"}

    def test_agrees_with_exhaustive_enumeration_on_small_charts(self):
        rng = random.Random(43)
        checked = 0
        while checked < 40:
            X = random_chart(rng, n_states=rng.randint(2, 4), edge_prob=0.3)
            if sum(1 for _ in X.edges()) > 8:
                continue
            checked += 1
            brute = [L for L in all_labellings(X) if verify_witness(L)[0]]
            found = enumerate_witnesses(X)
            assert (len(found) > 0) == (len(brute) > 0)
            assert {frozenset(L.tags.items()) for L in found} == {
                frozenset(L.tags.items()) for L in brute
            }


class TestPrunedSearch:
    """``enumerate_witnesses`` returns what the unpruned search returns, in order."""

    @staticmethod
    def assert_same(X: Prechart) -> int:
        reference = exhaustive_witnesses(X)
        assert [L.tags for L in enumerate_witnesses(X)] == [L.tags for L in reference]
        return len(reference)

    def test_random_charts(self):
        rng = random.Random(61)
        checked = found = 0
        while checked < 100:
            X = random_chart(rng, n_states=rng.randint(1, 6))
            if sum(1 for _ in X.edges()) > 16:  # keeps the reference under a second
                continue
            checked += 1
            found += self.assert_same(X)
        assert found > 20

    def test_erased_expression_charts(self):
        rng = random.Random(67)
        checked = found = 0
        while checked < 60:
            X = chart_of(random_expr(rng, depth=4))
            if len(X.states) > 8:
                continue
            checked += 1
            found += self.assert_same(erased(X))
        assert found > 20

    def test_erased_expression_charts_joined_with_fig3_right(self):
        rng = random.Random(71)
        checked = 0
        while checked < 6:
            X = chart_of(random_expr(rng, depth=4), ("a", "b", "c"))
            if len(X.states) > 5:
                continue
            checked += 1
            assert self.assert_same(erased(X, fig3_right())) == 0

    def test_inference_on_eight_state_charts_is_bounded(self):
        def expired(signum, frame):
            raise TimeoutError("infer_witness ran past 10 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(10)
        try:
            for seed in range(20):
                infer_witness(random_chart(random.Random(seed), n_states=8))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestWitnessClosureProperties:
    def test_restriction_preserves_validity(self):
        rng = random.Random(47)
        for _ in range(40):
            e = random_expr(rng, depth=4)
            X = chart_of(e)
            L = syntactic_witness(X)
            x = rng.choice(X.states)
            sub = generated(X, x)
            restricted = restrict_witness(L, sub.states, root=x)
            assert verify_witness(restricted) == (True, None)

    def test_disjoint_union_preserves_validity(self):
        rng = random.Random(53)
        for _ in range(40):
            e, f = random_expr(rng, depth=3), random_expr(rng, depth=3)
            L1 = syntactic_witness(chart_of(e, ("a", "b", "c")))
            L2 = syntactic_witness(chart_of(f, ("a", "b", "c")))
            joined, _, _ = union_witness(L1, L2)
            assert verify_witness(joined) == (True, None)

    def test_minimal_cycles_contain_exactly_one_entry(self):
        rng = random.Random(59)
        for _ in range(40):
            L = syntactic_witness(chart_of(random_expr(rng, depth=4)))
            pair_adj: dict = {}
            for (x, _, y) in L.base.edges():
                pair_adj.setdefault(x, set()).add(y)
            entries = {(x, y) for (x, _, y), t in L.tags.items() if t == ENTRY}
            for cycle in simple_cycles({k: sorted(v, key=str) for k, v in pair_adj.items()}):
                hops = list(zip(cycle, cycle[1:] + cycle[:1]))
                assert sum(1 for hop in hops if hop in entries) == 1
