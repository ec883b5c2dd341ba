import copy
import pickle
import random
import sys
from collections import Counter
from functools import reduce

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
    measures,
    parse,
    restrict_witness,
    syntactic_witness,
    to_llee,
    union_witness,
    verify_witness,
)
from starchart import canonical_solution, layering
from starchart.layering import ENTRY, WeightedLabelling, analysis_of_verified
from gen import (
    all_labellings,
    assert_same_witness,
    deadline,
    eliminable_pairs,
    exhaustive_witnesses,
    fig3_left,
    fig3_right,
    holding_every_state,
    pair_closure,
    path_relations,
    random_chart,
    random_expr,
    recursive_syntactic_tag,
    searched_longest_paths,
    simple_cycles,
    without_pair,
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


def a_then(n: int, e):
    """``e`` after a sequence of ``n`` ``a`` steps."""
    return reduce(lambda f, _: Seq(A, f), range(n), e)


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

    def test_is_the_path_definition_past_one_machine_word(self):
        # a loop header and the states of its loops numbered past 64
        e = a_then(66, Star(a_then(6, Star(Seq(A, B), B)), Atom("c")))
        X = chart_of(e, ("a", "b", "c"))
        assert len(X.states) >= 70
        L = syntactic_witness(X)
        diredge, loopright = relations = derived_relations(L)
        assert relations == path_relations(L)
        assert min(X.index(x) for _, x in loopright) > 64 and len(diredge) > 6


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


class TestTagsCoverTheTransitions:
    # checked by count and membership; the message names what is off
    X = Prechart.make(("a",), ("x", "y"), {}, {"x": {"a": ["y"]}, "y": {"a": ["x"]}}, root="x")

    @pytest.mark.parametrize("tags, missing, extra", [
        # as many tags as transitions, one of them on no transition
        ({("x", "a", "y"): "e", ("x", "a", "x"): "b"}, "{('y', 'a', 'x')}", "{('x', 'a', 'x')}"),
        # one tag short, and one too many
        ({("x", "a", "y"): "e"}, "{('y', 'a', 'x')}", "set()"),
        ({("x", "a", "y"): "e", ("y", "a", "x"): "b", ("y", "a", "y"): "b"}, "set()", "{('y', 'a', 'y')}"),
    ])
    def test_tags_off_the_transitions_raise_naming_them(self, tags, missing, extra):
        with pytest.raises(ValueError) as failure:
            LabelledPrechart(self.X, tags)
        assert str(failure.value) == f"tags must cover the transitions exactly (missing {missing}, extra {extra})"

    def test_a_bad_tag_raises_naming_it_after_the_coverage_check(self):
        with pytest.raises(ValueError) as failure:
            LabelledPrechart(self.X, {("x", "a", "y"): "e", ("y", "a", "x"): "x"})
        assert str(failure.value) == "bad tag 'x' on ('y', 'a', 'x')"
        # a labelling off the transitions, with a bad tag too, fails its coverage first
        with pytest.raises(ValueError, match=r"^tags must cover the transitions exactly \(missing set\(\), extra "):
            LabelledPrechart(self.X, {("x", "a", "y"): "x", ("y", "a", "x"): "x", ("x", "a", "x"): "x"})
        with pytest.raises(ValueError, match=r"^tags must cover the transitions exactly \(missing \{"):
            LabelledPrechart(self.X, {("x", "a", "y"): "x"})


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

    def test_every_query_shares_one_analysis(self, monkeypatch):
        # the labelling is analysed once, as it is built, and no query analyses it again
        built = []
        init = layering._Analysis.__init__
        monkeypatch.setattr(layering._Analysis, "__init__", lambda a, *args: built.append(a) or init(a, *args))
        L = syntactic_witness(chart_of(Star(Sum(A, Seq(A, B)), B)))
        assert built == [L.analysis]
        verify_witness(L), derived_relations(L), canonical_solution(L)
        [measures(L, x) for x in L.base.states], to_llee(L)
        assert analysis_of_verified(L) is L.analysis and built == [L.analysis]

    def test_the_measures_fold_the_searches_of_the_check(self, monkeypatch):
        # the body and descent searches of ``_first_violation`` are the only
        # ones: every reader of the measures folds their finishing orders
        searched = []
        depth_first = layering._depth_first

        def recorded(states, adj):
            searched.append(adj)
            return depth_first(states, adj)

        monkeypatch.setattr(layering, "_depth_first", recorded)
        L = syntactic_witness(chart_of(parse("(a (b a)*c + b)*(a b*0)", "abc")))
        for _ in range(2):
            assert [measures(L, x) for x in L.base.states]
            to_llee(L), canonical_solution(L)
        a = analysis_of_verified(L)
        assert len(searched) == 2 and searched[0] is a.body and searched[1] is a.descent
        assert max(a.lengths[0]) == 2 and max(a.lengths[1]) > 0

    def test_a_violation_is_remembered_and_raised_each_time(self):
        L = all_body(chart_of(AA0))
        assert verify_witness(L) == verify_witness(L)
        for _ in range(2):
            with pytest.raises(InvalidWitnessError, match="fully_specified_a"):
                analysis_of_verified(L)

    def test_copies_and_pickles_are_analysed_afresh(self):
        L = cycle_witness()
        analysis_of_verified(L)
        for twin in (copy.deepcopy(L), pickle.loads(pickle.dumps(L))):
            assert twin == L and twin.analysis is not L.analysis
            assert_same_witness(twin.analysis, L.analysis, L.base.states)
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
        # with every step a body step, a state's body depth is the longest
        # path out of it, folded from the finishing order of the body search
        X = Prechart.make(("a",), states, {}, {x: {"a": ys} for x, ys in adj.items()})
        L = all_body(X)
        return {x: measures(L, x)[1] for x in states}

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
            expected = {x: brute_force_longest(adj, x) for x in states}
            assert self.longest_paths(states, adj) == searched_longest_paths(states, adj) == expected
        assert shared > 50 and isolated > 50

    @pytest.mark.parametrize("adj", [
        {"x": ["x"]},
        {"x": ["y"], "y": ["x"]},
        {"x": ["y", "z"], "y": ["z"], "z": ["w"], "w": ["y"]},
    ])
    def test_a_cycle_raises_instead_of_hanging(self, adj):
        with deadline(5, "longest_paths"), pytest.raises(InvalidWitnessError, match="fully_specified_a"):
            self.longest_paths("xyzw", adj)


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

    @pytest.mark.parametrize("weight", [-1, 1.0, "1", None])
    def test_a_weight_that_is_no_natural_number_is_refused(self, weight):
        W = to_llee(cycle_witness())
        with pytest.raises(ValueError, match=f"bad weight {weight!r}"):
            WeightedLabelling(W.base, {**W.weights, (AA0, "a", X1): weight})

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

    @pytest.mark.parametrize("e, f", [("(a + b) c", "b b"), ("a*b", "b b")])
    def test_a_transition_that_no_rule_derives_is_refused(self, e, f):
        # a chart of expressions whose step is none of the expression's:
        # not a step of the left operand, nor a star's unrolling
        e, f = parse(e, ("a", "b", "c")), parse(f, ("a", "b", "c"))
        X = Prechart.make(("a", "b", "c"), (e, f), {}, {e: {"a": (f,)}})
        with pytest.raises(ValueError, match="no rule derives"):
            syntactic_witness(X)

    def test_always_verifies(self):
        rng = random.Random(41)
        for _ in range(60):
            L = syntactic_witness(chart_of(random_expr(rng, depth=4)))
            assert verify_witness(L) == (True, None)


class TestOneDerivationWalk:
    """The one derivation walk, and the fold over one depth-first search,
    against the recursive tagging and the searched longest paths they
    replace."""

    @staticmethod
    def charts():
        rng = random.Random(347)
        for i in range(300):
            yield chart_of(random_expr(rng, depth=2 + i % 5))
        for n in (1, 2, 7, 40):
            chain = reduce(Seq, [A] * n)  # nested on the left, so walked n deep
            yield chart_of(chain)
            yield chart_of(reduce(lambda left, right: Seq(right, left), [A] * n))
            yield chart_of(Star(chain, B))
            yield chart_of(reduce(Seq, [Star(Seq(A, B), Sum(A, Zero()))] + [B] * n))

    def test_tags_and_measures_are_unchanged(self):
        for X in self.charts():
            L = syntactic_witness(X)
            assert dict(L.tags) == {edge: recursive_syntactic_tag(*edge) for edge in X.edges()}
            descent = {}
            for x, y in derived_relations(L)[0]:
                descent.setdefault(x, []).append(y)
            body = {}
            for (x, _, y), t in L.tags.items():
                if t == "b":
                    body.setdefault(x, []).append(y)
            en = searched_longest_paths(X.states, descent)
            bd = searched_longest_paths(X.states, body)
            assert [measures(L, x) for x in X.states] == [(en[x], bd[x]) for x in X.states]
            assert to_llee(L).weights == {
                (x, act, y): max(en[x], 1) if t == ENTRY else 0 for (x, act, y), t in L.tags.items()}

    def test_a_long_sequence_is_tagged_without_recursion(self):
        X = chart_of(reduce(Seq, [A] * 300))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            L = syntactic_witness(X)
        finally:
            sys.setrecursionlimit(limit)
        assert set(L.tags.values()) == {"b"} and len(L.tags) == 299


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

    def test_bench_shaped_negatives(self):
        # as in the solve_infer bench: depth-4 expression charts of at most
        # 10 states and 16 transitions, joined with fig3_right
        rng = random.Random(79)
        checked = 0
        while checked < 40:
            X = chart_of(random_expr(rng, depth=4), ("a", "b", "c"))
            if len(X.states) > 10 or sum(1 for _ in X.edges()) > 16:
                continue
            checked += 1
            assert self.assert_same(erased(X, fig3_right())) == 0

    def test_no_states(self):
        assert self.assert_same(Prechart.make((), (), {}, {})) == 1

    def test_a_cyclic_part_numbered_past_one_machine_word(self):
        # a 70-step sequence into two star loops, alone and joined
        # with fig3_right
        X = chart_of(a_then(70, parse("(a a a)*(b (a b)*0)", ("a", "b"))))
        assert len(X.states) >= 70
        reach_plus = pair_closure((x, y) for x, _, y in X.edges())
        assert min(X.index(x) for x in X.states if (x, x) in reach_plus) > 64
        assert self.assert_same(erased(X)) > 1
        assert self.assert_same(erased(X, fig3_right())) == 0

    def test_output_free_random_charts(self):
        rng = random.Random(83)
        checked = found = 0
        while checked < 150:
            X = random_chart(rng, n_states=rng.randint(1, 8), out_prob=0)
            if sum(1 for _ in X.edges()) > 14:
                continue
            checked += 1
            found += self.assert_same(X)
        assert found > 100

    def test_inference_on_eight_state_charts_is_bounded(self):
        with deadline(10, "infer_witness"):
            for seed in range(20):
                infer_witness(random_chart(random.Random(seed), n_states=8))


def two_cycles_beside_a_body_cycle(k: int) -> Prechart:
    """Two output states stepping into each other, whose steps are forced
    body steps that close a body cycle, beside ``k`` output-free 2-cycles,
    each of whose two pairs is free."""
    transitions = {"o0": {"a": ["o1"]}, "o1": {"a": ["o0"]}}
    for i in range(k):
        transitions[f"p{i}"] = {"a": [f"q{i}"]}
        transitions[f"q{i}"] = {"a": [f"p{i}"]}
    return Prechart.make(("a",), list(transitions), {"o0": {"a"}, "o1": {"a"}}, transitions)


class TestSearchLeaves:
    """``enumerate_witnesses`` checks only complete labellings that are witnesses."""

    @pytest.fixture
    def leaves(self, monkeypatch) -> list:
        calls: list = []

        def counting(L):
            calls.append(L)
            return verify_witness(L)

        monkeypatch.setattr(layering, "verify_witness", counting)
        return calls

    def test_a_forced_body_cycle_ends_the_search(self, leaves):
        X = two_cycles_beside_a_body_cycle(10)
        assert enumerate_witnesses(X) == []
        assert leaves == []

    def test_every_surviving_leaf_is_a_witness(self, leaves):
        rng = random.Random(73)
        checked = found = 0
        while checked < 420:
            X = random_chart(rng, n_states=rng.randint(1, 7), out_prob=(0, 0.3, 0.6)[checked % 3])
            if sum(1 for _ in X.edges()) > 18:  # keeps the whole search under a second
                continue
            checked += 1
            leaves.clear()
            witnesses = enumerate_witnesses(X)
            assert len(leaves) == len(witnesses)
            found += len(witnesses)
        assert found > 300


def one_action_charts(max_states: int):
    """Every chart over one action of up to ``max_states`` states, with
    every set of output states."""
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        pairs = [(x, y) for x in states for y in states]
        for chosen in range(1 << len(pairs)):
            transitions: dict = {}
            for bit, (x, y) in enumerate(pairs):
                if chosen >> bit & 1:
                    transitions.setdefault(x, {}).setdefault("a", []).append(y)
            for outs in range(1 << n):
                outputs = {x: {"a"} for i, x in enumerate(states) if outs >> i & 1}
                yield Prechart.make(("a",), states, outputs, transitions)


def eliminable(X: Prechart) -> bool:
    """Whether ``layering._eliminated``, on the state-number masks of ``X``,
    clears it of cycles."""
    succ = [0] * len(X.states)
    for x, _, y in X.edges():
        succ[X.index(x)] |= 1 << X.index(y)
    return layering._eliminated(succ, sum(1 << X.index(x) for x in X.outputs)) is not None


def counted(counts: Counter, name: str, f):
    """``f``, counting its calls in ``counts[name]``."""
    def call(*args):
        counts[name] += 1
        return f(*args)
    return call


class TestLoopElimination:
    """Greedy loop elimination clears a chart of cycles exactly when the
    chart has a layering witness."""

    def test_agrees_with_the_search_on_every_chart_of_three_states(self):
        answers = [(eliminable(X), bool(exhaustive_witnesses(X))) for X in one_action_charts(3)]
        assert len(answers) == 4164
        assert all(eliminated == has for eliminated, has in answers)
        assert sum(has for _, has in answers) == 3048

    def test_removing_an_eliminable_pair_keeps_a_witness(self):
        removed = 0
        for X in one_action_charts(3):
            if exhaustive_witnesses(X):
                for v, w in eliminable_pairs(X):
                    assert exhaustive_witnesses(without_pair(X, v, w)), (X, v, w)
                    removed += 1
        assert removed > 1000

    def test_agrees_with_the_search_on_random_charts(self):
        rng = random.Random(89)
        checked = found = 0
        while checked < 400:
            X = random_chart(rng, n_states=rng.randint(4, 6), out_prob=(0, 0.2)[checked % 2])
            if sum(1 for _ in X.edges()) > 12:
                continue
            checked += 1
            has = bool(exhaustive_witnesses(X))
            assert eliminable(X) == has
            found += has
        assert 100 < found < 300

    def test_output_free_ten_state_charts_have_none(self):
        # the answers the full search gave; s = 2 and 4 it never finished
        for seed in (0, 1, 3, 5, 6, 7, 8, 9):
            assert infer_witness(random_chart(random.Random(seed), n_states=10, out_prob=0)) is None

    def test_a_search_that_misses_an_eliminated_chart_raises(self, monkeypatch):
        monkeypatch.setattr(layering, "_eliminated", lambda succ, outputs: set())
        with pytest.raises(RuntimeError, match="3-state"):
            enumerate_witnesses(fig3_right())
        assert enumerate_witnesses(fig3_right(), limit=0) == []


class TestEliminationWitness:
    """``infer_witness`` builds its witness from the trace of loop
    elimination, with no search."""

    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        # the search is the oracle here, called from the tests only
        search = layering.enumerate_witnesses

        def refused(*args, **kwargs):
            raise AssertionError("infer_witness ran the search")

        monkeypatch.setattr(layering, "enumerate_witnesses", refused)
        return search

    def assert_agrees(self, search, X: Prechart) -> bool:
        L = infer_witness(X)
        assert (L is not None) == bool(search(X, limit=1))
        assert L is None or verify_witness(L) == (True, None)
        return L is not None

    def test_agrees_with_the_search_on_every_chart_of_three_states(self, no_search):
        found = [self.assert_agrees(no_search, X) for X in one_action_charts(3)]
        assert len(found) == 4164 and sum(found) == 3048

    def test_agrees_with_the_search_on_seeded_charts(self, no_search):
        rng = random.Random(283)
        checked = found = 0
        while checked < 2000:
            X = random_chart(rng, n_states=rng.randint(4, 8), out_prob=(0, 0.25)[checked % 2])
            if sum(1 for _ in X.edges()) > 14:
                continue
            checked += 1
            found += self.assert_agrees(no_search, X)
        assert 800 < found < 1800

    def test_a_loop_body_is_frozen(self):
        # s2 -> s0 is eliminated first, and its loop holds s0; the body step
        # s0 -> s2 that returns out of it is never eliminated after it
        X = random_chart(random.Random(284), n_states=5, out_prob=0)
        L = infer_witness(X)
        assert sorted(edge for edge, t in L.tags.items() if t == ENTRY) == [
            ("s0", "a", "s0"), ("s0", "b", "s0"), ("s2", "a", "s1"), ("s2", "a", "s2"),
            ("s2", "a", "s3"), ("s2", "b", "s0"), ("s2", "b", "s3"), ("s2", "b", "s4"),
            ("s3", "b", "s3"), ("s4", "a", "s4"),
        ]
        unfrozen = LabelledPrechart(X, {**L.tags, ("s0", "a", "s2"): ENTRY})
        assert str(verify_witness(unfrozen)[1]) == "layered: ('s0', 's2', 's0')"

    def test_erased_depth_twelve_expression_charts_each_infer_within_a_second(self):
        for seed in range(100):
            X = erased(chart_of(random_expr(random.Random(seed), depth=12)))
            with deadline(1, "infer_witness"):
                L = infer_witness(X)
            assert L is not None and verify_witness(L) == (True, None)

    @pytest.mark.parametrize("text, n", [("a*(b*(c*0))", 3), ("(a*a)*b", 2)])
    def test_a_stuck_run_raises_naming_the_chart_size(self, monkeypatch, text, n):
        # removing a*'s self-loop holds back the other steps, so the frozen
        # run is left with cycles that unfrozen elimination clears: in one
        # pass over the held steps for a*(b*(c*0)), and in a second pass
        # over every step for (a*a)*b
        X = chart_of(parse(text, "abc"))
        assert infer_witness(X) is not None
        monkeypatch.setattr(layering, "_loop_spanned", holding_every_state(layering._loop_spanned))
        with pytest.raises(RuntimeError, match=f"clears the {n}-state chart of cycles, yet the frozen run"):
            infer_witness(X)

    def test_fig3_right_is_answered_by_one_frozen_pass(self, monkeypatch):
        # fig3_right holds no step back: six pairs, none eliminable, each
        # searched for a cycle inside its loop, and the chart searched once
        counts = Counter()
        for name in ("_loop_spanned", "_depth_first"):
            monkeypatch.setattr(layering, name, counted(counts, name, getattr(layering, name)))
        assert infer_witness(fig3_right()) is None
        assert counts == {"_loop_spanned": 6, "_depth_first": 7}

    def test_a_stalled_run_looks_again_only_at_the_held_steps(self, monkeypatch):
        # removing s0 -> s1 holds back s1 -> s0; the run then stalls on
        # fig3_right's cycle among s2, s3 and s4
        X = erased(chart_of(parse("(a b)*0", "ab")), extra=fig3_right())
        tested = []
        loop_spanned, depth_first = layering._loop_spanned, layering._depth_first

        def spanned(succ, outputs, v, w):
            tested.append((v, w))
            return loop_spanned(succ, outputs, v, w)

        def searched(states, adj):
            if states == (1 << len(adj)) - 1:
                tested.append("stalled")
            return depth_first(states, adj)

        monkeypatch.setattr(layering, "_loop_spanned", spanned)
        monkeypatch.setattr(layering, "_depth_first", searched)
        assert infer_witness(X) is None
        assert tested[tested.index("stalled"):] == ["stalled", (1, 0)]


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
