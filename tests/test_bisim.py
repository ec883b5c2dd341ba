import random
import zlib

import pytest

from starchart import (
    Atom,
    PartitionRelation,
    Seq,
    Star,
    Sum,
    Zero,
    bisimilar,
    bisimilarity,
    chart_of,
    check_bisimulation,
    coproduct,
    is_homomorphism,
    quotient,
)
from starchart.bisim import refine_once
from gen import AXIOM_NAMES, axiom_instances, fig3_left, random_expr

A, B = Atom("a"), Atom("b")
AA0 = Star(Seq(A, A), Zero())


class TestCheckBisimulation:
    def test_empty_relation_is_vacuously_fine(self):
        X = chart_of(A)
        assert check_bisimulation(X, X, []) == (True, None)

    def test_graph_of_a_homomorphism_passes(self):
        X = chart_of(AA0)
        Y = chart_of(Star(A, Zero()))
        h = {x: Y.root for x in X.states}
        assert is_homomorphism(h, X, Y)[0]
        assert check_bisimulation(X, Y, h.items()) == (True, None)

    def test_mismatched_outputs_are_pinpointed(self):
        X = chart_of(A, ("a", "b"))
        Y = chart_of(B, ("a", "b"))
        ok, why = check_bisimulation(X, Y, [(A, B)])
        assert not ok
        assert why.clause == "output"
        assert (why.left, why.right) == (A, B)

    def test_unknown_states_rejected(self):
        X = chart_of(A)
        with pytest.raises(ValueError):
            check_bisimulation(X, X, [(A, B)])

    def test_unmatched_transition_reported_forth(self):
        X = chart_of(Seq(A, B), ("a", "b"))
        Y = chart_of(Zero(), ("a", "b"))
        ok, why = check_bisimulation(X, Y, [(Seq(A, B), Zero())])
        assert not ok and why.clause == "forth" and why.action == "a"


class TestBisimilarity:
    def test_roots_of_duplicated_output_only_charts_merge(self):
        X, inl, inr = coproduct(chart_of(A), chart_of(Sum(A, A)))
        R = bisimilarity(X)
        assert R.related(inl[A], inr[Sum(A, A)])

    def test_unary_and_binary_cycles_merge(self):
        X, inl, inr = coproduct(chart_of(Star(A, Zero())), chart_of(AA0))
        R = bisimilarity(X)
        assert len(R.blocks) == 1

    def test_fig3_pair_is_bisimilar(self):
        X, _ = fig3_left()
        R = bisimilarity(X)
        assert R.related("x1", "x2")

    def test_greatest_fixpoint_is_stable(self):
        rng = random.Random(23)
        for _ in range(30):
            e = random_expr(rng, depth=4)
            X = chart_of(e)
            R = bisimilarity(X)
            assert refine_once(X, R).same_partition(R)
            assert check_bisimulation(X, X, R.pairs()) == (True, None)

    def test_any_passing_relation_is_contained_in_it(self):
        rng = random.Random(29)
        for _ in range(20):
            e = random_expr(rng, depth=3)
            X, _, _ = coproduct(chart_of(e, ("a", "b", "c")), chart_of(e, ("a", "b", "c")))
            R = bisimilarity(X)
            Q, proj = quotient(X, R)
            graph = list(zip(X.states, (proj[x] for x in X.states)))
            # the graph passes, and every related pair is inside bisimilarity
            assert check_bisimulation(X, Q, graph) == (True, None)
            for x, y in R.pairs():
                assert proj[x] == proj[y]

    def test_homomorphic_image_is_bisimilar_in_the_coproduct(self):
        X = chart_of(AA0)
        Y = chart_of(Star(A, Zero()))
        h = {x: Y.root for x in X.states}
        Z, inl, inr = coproduct(X, Y)
        R = bisimilarity(Z)
        for x in X.states:
            assert R.related(inl[x], inr[h[x]])


class TestBisimilar:
    def test_unrolled_cycle(self):
        assert bisimilar(Star(A, Zero()), AA0)

    def test_distinct_atoms(self):
        assert not bisimilar(A, B)

    def test_reflexive(self):
        rng = random.Random(31)
        for _ in range(20):
            e = random_expr(rng, depth=4)
            assert bisimilar(e, e)


class TestAxiomSoundness:
    @pytest.mark.parametrize("name", AXIOM_NAMES)
    def test_each_axiom_spot_check(self, name):
        # crc32, not hash(): string hashes change from one process to the next
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(25):
            e1, e2, e3 = (random_expr(rng, depth=2) for _ in range(3))
            lhs, rhs = axiom_instances(name, e1, e2, e3)
            assert bisimilar(lhs, rhs), name

    def test_rsp_consistency_small(self):
        # g ~ e.g + f forces g ~ e*f on a few directed instances
        e, f = A, B
        for g in (Star(A, B), Star(A, Sum(B, Zero())), Star(Sum(A, Zero()), B)):
            if bisimilar(g, Sum(Seq(e, g), f)):
                assert bisimilar(g, Star(e, f))


def test_partition_relation_shapes():
    R = PartitionRelation.from_pairs("xyz", [("x", "y")])
    assert R.related("x", "y") and not R.related("x", "z")
    assert sorted(R.nontrivial_pairs()) == [("x", "y"), ("y", "x")]
    assert not R.is_identity
    assert R.merge("x", "z").related("y", "z")
    assert PartitionRelation.identity("xyz").is_identity


def test_blocks_are_numbered_by_least_member():
    R = PartitionRelation.from_blocks("wxyz", [("z", "x"), ("y", "w")])
    assert R.blocks == (("w", "y"), ("x", "z"))


def test_without_drops_a_state_and_renumbers_the_blocks():
    R = PartitionRelation.from_blocks("wxyz", [("w", "z"), ("x",), ("y",)])
    S = R.without("w")
    assert S == PartitionRelation.from_blocks("xyz", [("x",), ("y",), ("z",)])
    assert S.blocks == (("x",), ("y",), ("z",)) and S.is_identity
