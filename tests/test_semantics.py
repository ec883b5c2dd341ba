import random

import pytest

from starchart import (
    Atom,
    PartitionRelation,
    Prechart,
    Seq,
    Star,
    Sum,
    Splitting,
    Zero,
    bisimilarity,
    chart_of,
    check_bisimulation,
    connect_through,
    coproduct,
    expr_step,
    generated,
    is_homomorphism,
    kernel_partition,
    parse,
    quotient,
    rerouting,
    restriction,
    size_bound,
)
from gen import (all_exprs, connect_through_reference, is_chart, random_chart, random_expr, reference_generated,
                 reference_quotient, reference_restriction, reference_rerouting, reference_step, rewrite_steps,
                 same_partition)
from starchart.layering import _members, _reachability, _recompute_reach
from starchart.semantics import _first_round, _outputs

A, B = Atom("a"), Atom("b")
AA0 = Star(Seq(A, A), Zero())  # (aa)*0, the two-state a-cycle


class TestExprStep:
    def test_zero_is_inert(self):
        assert expr_step(Zero()) == (frozenset(), {})

    def test_seq_steps_into_its_continuation(self):
        outs, succ = expr_step(Seq(A, B))
        assert outs == frozenset()
        assert succ == {"a": (B,)}

    def test_star_outputs_right_and_self_loops_left(self):
        outs, succ = expr_step(Star(A, B))
        assert outs == frozenset({"b"})
        assert succ == {"a": (Star(A, B),)}

    def test_sum_merges_both_sides(self):
        outs, succ = expr_step(Sum(Star(A, B), Seq(B, A)))
        assert outs == frozenset({"b"})
        assert succ == {"a": (Star(A, B),), "b": (A,)}


    def test_memoised_on_the_node(self):
        def build():
            return Seq(Sum(Seq(A, Star(A, B)), Atom("c")), Seq(B, A))

        e = build()
        first = expr_step(e)
        assert expr_step(e) is first
        # an equal but distinct node has its own memo, with equal contents
        assert expr_step(build()) == first

    def test_a_star_rebuilds_its_step_from_its_childrens_memos(self):
        e = Star(Seq(A, B), A)
        first = expr_step(e)
        assert first == (frozenset({"a"}), {"a": (Seq(B, e),)})
        assert expr_step(e) == first and expr_step(e) is not first
        assert expr_step(e.left) is expr_step(e.left)

    def test_the_memo_cannot_be_changed_through_a_result(self):
        _, succ = expr_step(Seq(A, B))
        with pytest.raises(TypeError):
            succ["a"] = ()
        assert expr_step(Seq(A, B)) == (frozenset(), {"a": (B,)})


def subterms(e):
    stack, seen = [e], []
    while stack:
        x = stack.pop()
        seen.append(x)
        if isinstance(x, (Sum, Seq, Star)):
            stack += (x.right, x.left)
    return seen


def hash_formula(x):
    if isinstance(x, Atom):
        return hash(("Atom", x.action))
    if isinstance(x, Zero):
        return hash("Zero")
    return hash((type(x).__name__, hash_formula(x.left), hash_formula(x.right)))


class TestFirstRound:
    def test_agrees_with_expr_step_on_random_expressions(self):
        # the outputs, and each step's action with its target's outputs
        rng = random.Random(1985)
        for alpha in (("a", "b"), ("a", "b", "c")):
            for i in range(10000):
                e = random_expr(rng, alpha, depth=1 + i % 5)
                o, s = expr_step(e)
                assert _outputs(e) == o
                assert _first_round(e) == (o, frozenset((a, expr_step(x)[0]) for a, xs in s.items() for x in xs))

    def test_outputs_agree_with_expr_step_on_every_derivative(self):
        # a decision and a formula's replay read the outputs of derivatives
        # from the syntax, not only those of parsed roots
        rng = random.Random(1990)
        states = 0
        for alpha in (("a", "b"), ("a", "b", "c")):
            for i in range(1500):
                for x in chart_of(random_expr(rng, alpha, depth=2 + i % 5), alpha).states:
                    assert _outputs(x) == expr_step(x)[0]
                    states += 1
        assert states >= 9000

    def test_reads_the_syntax_and_steps_no_node(self):
        e = parse("(a b + c)*(b*a) a + (a + 0)*(c c)", ("a", "b", "c"))
        # steps into sequences reach no output; the left summand steps on
        # ``a`` into ``a``, as its star outputs ``a``; ``c c`` steps into
        # ``c``, and ``(a + 0)*(c c)`` loops on ``a``, outputting nothing
        steps = {("a", ""), ("a", "a"), ("b", ""), ("c", ""), ("c", "c")}
        assert _first_round(e) == (frozenset(), frozenset((a, frozenset(out)) for a, out in steps))
        assert _outputs(e) == frozenset()
        nodes, stack = [], [e]
        while stack:
            x = stack.pop()
            nodes.append(x)
            stack += [getattr(x, side) for side in ("left", "right") if hasattr(x, side)]
        assert not any(hasattr(x, "_step") for x in nodes)


class TestLeanStepAgainstTheReference:
    """``expr_step`` gives exactly what the closure-and-scan rules of
    ``gen.reference_step`` give: outputs, key order and successor tuples."""

    @staticmethod
    def assert_same_step(e):
        outs, succ = expr_step(e)
        ref_outs, ref_succ = reference_step(e)
        assert outs == ref_outs, e
        assert list(succ) == list(ref_succ), e
        assert list(succ.values()) == list(ref_succ.values()), e

    def test_every_small_expression(self):
        exprs = all_exprs(("a", "b", "c"), 7)
        assert len(exprs) == 35764
        for e in exprs:
            self.assert_same_step(e)

    def test_seeded_random_expressions_and_their_derivatives(self):
        rng = random.Random(2006)
        alphabets = [("x", "y"), ("b", "a"), ("p", "q", "r"), ("ab", "a", "b")]
        for i in range(600):
            e = random_expr(rng, alphabets[i % 4], depth=4 + i % 3)
            for x in chart_of(e).states:
                self.assert_same_step(x)

    def test_a_stars_step_is_not_memoised(self):
        for e in all_exprs(("a",), 5):
            expr_step(e)
            assert (getattr(e, "_step", None) is None) == isinstance(e, Star), e

    def test_every_node_stores_the_hash_formula(self):
        rng = random.Random(2006)
        exprs = all_exprs(("a", "b"), 5) + [random_expr(rng, ("x", "y"), depth=6) for _ in range(200)]
        for e in exprs:
            for x in subterms(e):
                assert hash(x) == hash_formula(x), x


class TestChartOf:
    def test_every_target_is_the_state_object(self):
        # the derivatives of distinct states are distinct but equal
        # objects; the chart stores the first one discovered
        rng = random.Random(211)
        copies = 0
        for _ in range(150):
            e = random_expr(rng, depth=5)
            f = rewrite_steps(rng, e, 2)
            X = chart_of(Sum(e, f), ("a", "b", "c"))
            state = {id(x) for x in X.states}
            for x, a, y in X.edges():
                assert id(y) in state
                copies += any(z == y and z is not y for z in expr_step(x)[1][a])
        assert copies > 0  # without canonical targets these would be copies

    def test_a_repeated_action_in_the_alphabet_is_rejected(self):
        # each action's successors are listed once per occurrence in the
        # alphabet, so a repeat would double them
        with pytest.raises(ValueError, match=r"alphabet \('a', 'a', 'b'\) repeats an action"):
            chart_of(parse("a*b", ["a", "b"]), ["a", "a", "b"])
        with pytest.raises(ValueError, match=r"alphabet \('a', 'a'\) repeats an action"):
            Prechart.make(["a", "a"], ["x"], {}, {})

    def test_single_atom(self):
        X = chart_of(A)
        assert X.states == (A,)
        assert X.out(A) == frozenset({"a"})
        assert X.transitions == {}
        assert X.root == A

    def test_two_state_cycle(self):
        X = chart_of(AA0)
        x1 = Seq(A, AA0)
        assert X.states == (AA0, x1)
        assert X.succ(AA0, "a") == (x1,)
        assert X.succ(x1, "a") == (AA0,)
        assert not X.outputs

    def test_nested_star_root_structure(self):
        f = parse("(a b)*(b a)", ("a", "b"))
        e = Star(f, A)
        X = chart_of(e)
        assert X.out(e) == frozenset({"a"})
        assert X.succ(e, "b") == (Seq(A, e),)
        assert X.succ(e, "a") == (Seq(Seq(B, f), e),)

    def test_closure_soundness_and_size_bound(self):
        rng = random.Random(7)
        for _ in range(50):
            e = random_expr(rng, depth=4)
            X = chart_of(e)
            assert len(X.states) <= size_bound(e)
            assert is_chart(X)
            for f in X.states:
                outs, succ = expr_step(f)
                assert X.out(f) == outs
                for a in X.alphabet:
                    assert X.succ(f, a) == tuple(
                        sorted(succ.get(a, ()), key=X.index)
                    )


class TestReachability:
    """The reachability masks of ``layering``: per state number, the states
    reachable in one or more steps."""

    @staticmethod
    def walked(X, x):
        # one or more steps: the states reachable from x's successors
        return set().union(*(X.reachable_from(y) for y in X.underlying_succ(x)))

    def test_every_closure_is_the_walked_one(self):
        rng = random.Random(223)
        for _ in range(60):
            X = random_chart(rng, n_states=rng.randint(1, 9), edge_prob=rng.choice((0.1, 0.3)))
            reach = _reachability(X)
            assert [{X.states[y] for y in _members(m)} for m in reach] == [self.walked(X, x) for x in X.states]

    def test_a_chain_looks_up_each_successor_list_about_once(self):
        # states are done in reverse number order, so each search takes
        # its successor's finished closure whole
        class Counting(list):
            lookups = 0

            def __getitem__(self, x):
                Counting.lookups += 1
                return list.__getitem__(self, x)

        n = 2000
        succ = Counting([1 << i + 1 if i + 1 < n else 0 for i in range(n)])
        reach = _recompute_reach(succ)
        assert reach[0] == (1 << n) - 2 and reach[n - 1] == 0
        assert all(m == (1 << n) - (2 << x) for x, m in enumerate(reach))
        assert Counting.lookups <= 2 * n


class TestGenerated:
    def test_whole_chart_is_already_generated(self):
        X = chart_of(AA0)
        Y = generated(X, AA0)
        assert Y.states == X.states
        assert Y.transitions == X.transitions

    def test_sink_state(self):
        X = chart_of(Seq(A, B))
        Y = generated(X, B)
        assert Y.states == (B,)
        assert Y.root == B

    def test_idempotent(self):
        X = chart_of(Star(A, Sum(B, A)))
        Y = generated(X, X.states[-1])
        assert generated(Y, Y.root).states == Y.states

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            generated(chart_of(A), B)


class TestCoproduct:
    def test_disjoint_union_of_sizes(self):
        X, Y = chart_of(A, ("a", "b")), chart_of(Seq(A, B), ("a", "b"))
        Z, inl, inr = coproduct(X, Y)
        assert len(Z.states) == 3
        assert Z.root is None
        assert Z.out(inl[A]) == frozenset({"a"})

    def test_unit_law_against_empty(self):
        X = chart_of(A)
        empty = Prechart.make(X.alphabet, (), {}, {})
        Z, inl, _ = coproduct(X, empty)
        assert len(Z.states) == len(X.states)
        assert is_homomorphism(inl, X, Z)[0]

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coproduct(chart_of(A, ("a",)), chart_of(B, ("b",)))

    def test_injections_are_homomorphisms(self):
        rng = random.Random(11)
        for _ in range(100):
            e, f = random_expr(rng, depth=3), random_expr(rng, depth=3)
            X = chart_of(e, ("a", "b", "c"))
            Y = chart_of(f, ("a", "b", "c"))
            Z, inl, inr = coproduct(X, Y)
            assert is_homomorphism(inl, X, Z) == (True, None)
            assert is_homomorphism(inr, Y, Z) == (True, None)


class TestQuotient:
    def test_identity_relation_gives_isomorphic_copy(self):
        X = chart_of(AA0)
        Q, proj = quotient(X, PartitionRelation.identity(X.states))
        assert len(Q.states) == len(X.states)
        assert proj == {x: x for x in X.states}

    def test_total_relation_on_the_two_state_cycle(self):
        X = chart_of(AA0)
        R = PartitionRelation.total(X.states)
        assert check_bisimulation(X, X, R.pairs()) == (True, None)
        Q, proj = quotient(X, R)
        assert Q.states == (AA0,)  # least member in discovery order survives
        assert Q.succ(AA0, "a") == (AA0,)
        assert Q.root == AA0

    def test_non_bisimulation_rejected(self):
        X = chart_of(Sum(A, Seq(A, B)))
        bad = PartitionRelation.total(X.states)
        with pytest.raises(ValueError):
            quotient(X, bad)

    def test_is_the_rerouting_onto_least_members(self):
        rng = random.Random(19)
        alpha = ("a", "b", "c")
        merged = 0
        for i in range(240):
            if i % 3 == 0:
                X = random_chart(rng, n_states=rng.randint(1, 8), out_prob=rng.choice((0.0, 0.25)),
                                 rooted=i % 2 == 0)
            else:
                e = random_expr(rng, depth=rng.randint(2, 4))
                X = chart_of(e, alpha)
                if i % 3 == 2:
                    X = coproduct(X, chart_of(rewrite_steps(rng, e, rng.randint(1, 3)), alpha))[0]
            for R in (bisimilarity(X), PartitionRelation.identity(X.states)):
                Q, proj = quotient(X, R)
                expected, expected_proj = reference_quotient(X, R)
                assert Q == expected and list(proj.items()) == list(expected_proj.items())
                # in the same order, with the numbered successors a copy computes
                assert list(Q.outputs.items()) == list(expected.outputs.items())
                assert [(x, list(row.items())) for x, row in Q.transitions.items()] == [
                    (x, list(row.items())) for x, row in expected.transitions.items()]
                assert Q.numbered_succ() == expected.numbered_succ()
                merged += len(Q.states) < len(X.states)
        assert merged >= 50

    def test_projection_kernel_is_the_relation(self):
        rng = random.Random(13)
        for _ in range(100):
            e = random_expr(rng, depth=3)
            f = rewrite_steps(rng, e, rng.randrange(4))
            X, _, _ = coproduct(chart_of(e, ("a", "b", "c")), chart_of(f, ("a", "b", "c")))
            R = bisimilarity(X)
            Q, proj = quotient(X, R)
            assert is_homomorphism(proj, X, Q) == (True, None)
            assert same_partition(kernel_partition(proj, X.states), R)


class TestConstructionsMatchTheirNameBasedReferences:
    """``restriction``, ``generated``, ``rerouting`` (and so
    ``connect_through``) and ``quotient`` are built by one rerouting on
    state numbers; ``tests/gen.py`` builds each by state name through
    ``Prechart.make`` instead."""

    @staticmethod
    def same(Y, Z):
        assert Y == Z
        assert list(Y.edges()) == list(Z.edges())
        assert Y.numbered_succ() == Z.numbered_succ()
        assert Y.root == Z.root

    @staticmethod
    def same_error(build, reference):
        with pytest.raises(ValueError) as got:
            build()
        with pytest.raises(ValueError) as expected:
            reference()
        assert str(got.value) == str(expected.value)

    def test_on_random_expression_and_joined_charts(self):
        rng = random.Random(23)
        alpha = ("a", "b", "c")
        faults = {"unknown": 0, "outside": 0, "root": 0, "missing": 0}
        for i in range(120):
            if i % 3 == 0:
                X = random_chart(rng, n_states=rng.randint(1, 7), out_prob=rng.choice((0.0, 0.25)),
                                 rooted=i % 2 == 0)
            else:
                e = random_expr(rng, depth=rng.randint(2, 4))
                X = chart_of(e, alpha)
                if i % 3 == 2:
                    X = coproduct(X, chart_of(rewrite_steps(rng, e, rng.randint(1, 3)), alpha))[0]
            for R in (bisimilarity(X), PartitionRelation.identity(X.states)):
                (Q, projection), (E, expected) = quotient(X, R), reference_quotient(X, R)
                self.same(Q, E)
                assert projection == expected
            self.same_error(lambda: generated(X, "nowhere"), lambda: reference_generated(X, "nowhere"))
            for x in X.states:
                self.same(generated(X, x), reference_generated(X, x))
                closed = X.reachable_from(x)
                shuffled = rng.sample(closed, len(closed))
                self.same(restriction(X, shuffled, x), reference_restriction(X, shuffled, x))
                self.same(restriction(X, closed), reference_restriction(X, closed))
                # one fault each: an unknown state, one kept state stepping
                # outside, a root outside
                ghost = [*closed, "nowhere"]
                self.same_error(lambda: restriction(X, ghost), lambda: reference_restriction(X, ghost))
                faults["unknown"] += 1
                for y in closed[1:]:
                    kept = [v for v in closed if v != y]
                    if sum(any(w == y for w in X.underlying_succ(v)) for v in kept) == 1:
                        self.same_error(lambda: restriction(X, kept), lambda: reference_restriction(X, kept))
                        faults["outside"] += 1
                outside = [v for v in X.states if v not in closed]
                if outside:
                    self.same_error(lambda: restriction(X, closed, outside[0]),
                                    lambda: reference_restriction(X, closed, outside[0]))
                    faults["root"] += 1
            for _ in range(3):
                kept = rng.sample(X.states, rng.randint(1, len(X.states)))  # in any order
                retract = {x: x if x in kept else rng.choice(kept) for x in X.states}
                s = Splitting(tuple(kept), retract)
                self.same(rerouting(X, s), reference_rerouting(X, s))
                ghost = Splitting((*kept, "nowhere"), {**retract, "nowhere": "nowhere"})
                self.same_error(lambda: rerouting(X, ghost), lambda: reference_rerouting(X, ghost))
                merged = [x for x in X.states if x not in kept]
                if merged:
                    partial = Splitting(tuple(kept), {x: u for x, u in retract.items() if x != merged[0]})
                    self.same_error(lambda: rerouting(X, partial), lambda: reference_rerouting(X, partial))
                    faults["missing"] += 1
                if len(X.states) > 1:
                    x1, x2 = rng.sample(X.states, 2)
                    self.same(connect_through(X, x1, x2), connect_through_reference(X, x1, x2))
        assert min(faults.values()) >= 100, faults


class TestIsHomomorphism:
    def test_identity(self):
        X = chart_of(AA0)
        assert is_homomorphism({x: x for x in X.states}, X, X) == (True, None)

    def test_quotient_projection(self):
        X = chart_of(AA0)
        Q, proj = quotient(X, PartitionRelation.total(X.states))
        assert is_homomorphism(proj, X, Q) == (True, None)

    def test_fold_onto_smaller_cycle(self):
        X = chart_of(AA0)
        Y = chart_of(Star(A, Zero()))
        h = {x: Y.root for x in X.states}
        assert is_homomorphism(h, X, Y) == (True, None)

    def test_output_violation_detected(self):
        X, Y = chart_of(A, ("a", "b")), chart_of(B, ("a", "b"))
        Z, inl, inr = coproduct(X, Y)
        ok, why = is_homomorphism({inl[A]: inr[B], inr[B]: inr[B]}, Z, Z)
        assert not ok and why.reason == "output"

    def test_partial_map_rejected(self):
        X = chart_of(AA0)
        with pytest.raises(ValueError):
            is_homomorphism({X.root: X.root}, X, X)

    def test_graph_of_homomorphism_is_a_bisimulation(self):
        rng = random.Random(17)
        for _ in range(50):
            e = random_expr(rng, depth=3)
            X, _, _ = coproduct(chart_of(e, ("a", "b", "c")), chart_of(e, ("a", "b", "c")))
            R = bisimilarity(X)
            Q, proj = quotient(X, R)
            assert check_bisimulation(X, Q, proj.items()) == (True, None)
