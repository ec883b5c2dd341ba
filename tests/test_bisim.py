import random
import zlib

import pytest

from starchart import (
    Atom,
    BisimViolation,
    PartitionRelation,
    Prechart,
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
from starchart.bisim import _coarsest, _partition, _partition_is_bisimulation, _stable, refine_once
from starchart.formats import chart_from_json, chart_to_json
from starchart.semantics import _coproduct_walk, joint_chart
from gen import (
    AXIOM_NAMES,
    axiom_instances,
    fig3_left,
    partition_from_pairs,
    partition_without,
    random_chart,
    random_expr,
    rewrite_steps,
    round_by_round_bisimilarity,
    same_partition,
)

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

    def test_actions_of_either_alphabet_are_checked(self):
        # the step on c, which only Y's alphabet has, is unmatched either way round
        X = Prechart.make(("a",), ["s"], {}, {})
        Y = Prechart.make(("a", "c"), ["t"], {}, {"t": {"c": ["t"]}})
        assert check_bisimulation(X, Y, [("s", "t")]) == (False, BisimViolation("back", "s", "t", "c", "t"))
        assert check_bisimulation(Y, X, [("t", "s")]) == (False, BisimViolation("forth", "t", "s", "c", "t"))
        # the left alphabet's actions come first, in its order
        X = Prechart.make(("b", "a"), ["s"], {}, {"s": {"b": ["s"]}})
        assert check_bisimulation(X, Y, [("s", "t")]) == (False, BisimViolation("forth", "s", "t", "b", "s"))


def seeded_charts(seed: int, count: int):
    """Random charts, expression charts and coproducts of rewrites, by turns."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            yield random_chart(rng, n_states=rng.randint(1, 8), edge_prob=rng.choice((0.15, 0.3, 0.5)),
                               out_prob=rng.choice((0.0, 0.25, 0.5)))
        elif kind == 1:
            yield chart_of(random_expr(rng, depth=rng.randint(2, 5)), ("a", "b", "c"))
        else:
            e = random_expr(rng, depth=rng.randint(2, 4))
            f = rewrite_steps(rng, e, rng.randint(1, 3))
            yield coproduct(chart_of(e, ("a", "b", "c")), chart_of(f, ("a", "b", "c")))[0]


def partitions_of(rng: random.Random, X):
    """Bisimilarity, identity, total, and random merges and splits of its blocks."""
    R = bisimilarity(X)
    yield R
    yield PartitionRelation.identity(X.states)
    yield PartitionRelation.total(X.states)
    blocks = [list(b) for b in R.blocks]
    if len(blocks) > 1:
        i, j = rng.sample(range(len(blocks)), 2)
        merged = [b for k, b in enumerate(blocks) if k not in (i, j)] + [blocks[i] + blocks[j]]
        yield PartitionRelation.from_blocks(X.states, merged)
    big = [b for b in blocks if len(b) > 1]
    if big:
        block = rng.choice(big)
        cut = rng.randint(1, len(block) - 1)
        members = rng.sample(block, len(block))
        split = [b for b in blocks if b is not block] + [members[:cut], members[cut:]]
        yield PartitionRelation.from_blocks(X.states, split)
    labels = [rng.randrange(3) for _ in X.states]
    yield PartitionRelation.from_blocks(
        X.states, [[x for x, n in zip(X.states, labels) if n == k] for k in range(3)]
    )
    if len(X.states) > 1:
        yield partition_without(R, rng.choice(X.states))  # successors may leave the universe


class TestOnePassPartitionCheck:
    def test_a_partition_gets_the_verdict_and_violation_of_its_pairs(self):
        rng = random.Random(41)
        outcomes = []
        for X in seeded_charts(43, 90):
            for R in partitions_of(rng, X):
                got = check_bisimulation(X, X, R)
                assert got == check_bisimulation(X, X, list(R.pairs()))
                # the pair scan behind the fast path would hide its wrong False;
                # a partition of another state set always answers False
                fast = _partition_is_bisimulation(X, R)
                assert fast == got[0] if R.universe == X.states else not fast
                outcomes.append(got[0])
        assert len(outcomes) >= 300
        assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100

    def test_unknown_states_raise_as_the_pairs_do(self):
        X = chart_of(Seq(A, B), ("a", "b"))
        R = PartitionRelation.from_blocks(X.states + ("z",), [X.states, ("z",)])
        with pytest.raises(ValueError) as from_pairs:
            check_bisimulation(X, X, list(R.pairs()))
        with pytest.raises(ValueError) as from_partition:
            check_bisimulation(X, X, R)
        assert str(from_partition.value) == str(from_pairs.value)

    def test_two_charts_are_checked_pairwise(self):
        X, Y = chart_of(AA0), chart_of(AA0)  # equal, but not the same chart
        for R in (PartitionRelation.total(X.states), PartitionRelation.identity(X.states)):
            assert check_bisimulation(X, Y, R) == check_bisimulation(X, Y, list(R.pairs()))


class TestBisimilarity:
    def test_equals_the_round_by_round_refinement(self):
        for X in seeded_charts(47, 510):
            assert bisimilarity(X) == round_by_round_bisimilarity(X)

    def test_every_constructor_gives_the_round_by_round_refinement(self):
        # a chart from the walk has its numbered successors from the walk;
        # one from any other constructor computes them on first use
        rng = random.Random(61)
        alpha = ("a", "b", "c")
        for X in seeded_charts(67, 150):
            e, f = random_expr(rng, depth=3), random_expr(rng, depth=3)
            built = [
                X,
                quotient(X, bisimilarity(X))[0],
                chart_from_json(chart_to_json(X)),
                Prechart.make(X.alphabet, X.states[::-1], X.outputs, X.transitions),
                chart_of(e, alpha),
                joint_chart([e, f, Sum(e, f)], alpha),
                coproduct(chart_of(e, alpha), chart_of(f, alpha))[0],
            ]
            for Y in built:
                assert bisimilarity(Y) == round_by_round_bisimilarity(Y)

    def test_one_round_splits_by_successor_blocks(self):
        rng = random.Random(53)
        for X in seeded_charts(59, 60):
            P = rng.choice([p for p in partitions_of(rng, X) if p.universe == X.states])
            groups: dict = {}
            for x in X.states:
                sig = (P.block_index(x),
                       tuple(frozenset(P.block_index(y) for y in X.succ(x, a)) for a in X.alphabet))
                groups.setdefault(sig, []).append(x)
            assert refine_once(X, P) == PartitionRelation.from_blocks(X.states, groups.values())

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
            assert same_partition(refine_once(X, R), R)
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


class TestRefinementOnStateNumbers:
    def test_the_walks_numbers_decide_as_the_coproduct_chart_does(self):
        # over declared orders other than the sorted one and multi-letter actions
        alphabets = [("a", "b", "c"), ("x", "y"), ("c", "a", "b"), ("ab", "b", "c1", "d")]
        rng = random.Random(467)
        outcomes = {"decided": [], "merged": [], "split": []}
        for i in range(520):
            alpha = alphabets[i % len(alphabets)]
            e = random_expr(rng, alpha, depth=rng.randint(1, 4))
            f = rewrite_steps(rng, e, rng.randint(1, 3)) if i % 2 == 0 else random_expr(rng, alpha, depth=3)
            (states, outs, numbered), n = _coproduct_walk(e, f, alpha)
            Z, inl, inr = coproduct(chart_of(e, alpha), chart_of(f, alpha))
            assert (len(states), n) == (len(Z.states), len(inl))
            block_of, count = _coarsest(outs, numbered)
            R = _partition(Z, block_of, count)
            assert R == bisimilarity(Z) == round_by_round_bisimilarity(Z)
            assert bisimilar(e, f, alpha) == (block_of[0] == block_of[n]) == R.related(inl[e], inr[f])
            # the decided partition, two of its blocks merged, one block split
            partitions = {"decided": (block_of, count)}
            if count > 1:
                b1, b2 = rng.sample(range(count), 2)
                partitions["merged"] = ([b1 if b == b2 else b for b in block_of], count - 1)
            sizes = [block_of.count(b) for b in range(count)]
            if max(sizes) > 1:
                big = rng.choice([b for b in range(count) if sizes[b] > 1])
                members = [x for x, b in enumerate(block_of) if b == big]
                moved = set(rng.sample(members, rng.randint(1, len(members) - 1)))
                partitions["split"] = ([count if x in moved else b for x, b in enumerate(block_of)], count + 1)
            for kind, (labels, k) in partitions.items():
                P = PartitionRelation.from_blocks(
                    Z.states, [[x for x, b in zip(Z.states, labels) if b == c] for c in set(labels)])
                got = _stable(outs, numbered, labels, k)
                assert got == check_bisimulation(Z, Z, list(P.pairs()))[0] == check_bisimulation(Z, Z, P)[0]
                outcomes[kind].append(got)
        assert all(outcomes["decided"]) and len(outcomes["decided"]) == 520
        # the bisimilarity is the largest bisimulation, so no merge is one
        assert not any(outcomes["merged"]) and len(outcomes["merged"]) >= 300
        assert outcomes["split"].count(True) >= 50 and outcomes["split"].count(False) >= 50


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
    R = partition_from_pairs("xyz", [("x", "y")])
    assert R.related("x", "y") and not R.related("x", "z")
    assert sorted(p for p in R.pairs() if p[0] != p[1]) == [("x", "y"), ("y", "x")]
    assert not R.is_identity
    assert PartitionRelation.identity("xyz").is_identity


def test_blocks_are_numbered_by_least_member():
    R = PartitionRelation.from_blocks("wxyz", [("z", "x"), ("y", "w")])
    assert R.blocks == (("w", "y"), ("x", "z"))


def test_without_drops_a_state_and_renumbers_the_blocks():
    R = PartitionRelation.from_blocks("wxyz", [("w", "z"), ("x",), ("y",)])
    S = partition_without(R, "w")
    assert S == PartitionRelation.from_blocks("xyz", [("x",), ("y",), ("z",)])
    assert S.blocks == (("x",), ("y",), ("z",)) and S.is_identity
