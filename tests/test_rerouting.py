import json
import random
import sys
import time
from collections import Counter

import pytest

from starchart import (
    Atom,
    LabelledPrechart,
    PartitionRelation,
    Prechart,
    Seq,
    Star,
    Sum,
    Zero,
    atoms,
    bisimilar,
    bisimilarity,
    canonical_solution,
    chart_of,
    check_bisimulation,
    check_condition,
    collapse,
    connect_through,
    find_pair,
    infer_witness,
    is_homomorphism,
    kernel_partition,
    parse,
    quotient,
    relabel,
    rerouting,
    restrict_relation,
    syntactic_witness,
    verify_witness,
)
from starchart import layering
from starchart.cli import main
from starchart.formats import chart_to_json
from starchart.layering import WitnessViolation, analysis_of_verified, union_witness
from starchart.rerouting import CONDITIONS, Splitting, _c2_promotion_state
from gen import (
    PairScan,
    connect_through_reference,
    fig3_left,
    fig3_right,
    isomorphic,
    partition_from_pairs,
    partition_without,
    random_chart,
    random_expr,
    rewrite_steps,
    same_partition,
    wstar_pair,
)
from test_golden_certs import RECORDED, corpus as golden_cert_pairs

A = Atom("a")
AA0 = Star(Seq(A, A), Zero())
X1 = Seq(A, AA0)


def two_sinks_chart() -> Prechart:
    # r branches to two bisimilar self-looping sinks
    return Prechart.make(
        ("a",),
        ("r", "w1", "w2"),
        {},
        {"r": {"a": ["w1", "w2"]}, "w1": {"a": ["w1"]}, "w2": {"a": ["w2"]}},
        root="r",
    )


def two_sinks_witness() -> LabelledPrechart:
    X = two_sinks_chart()
    tags = {
        ("r", "a", "w1"): "b",
        ("r", "a", "w2"): "b",
        ("w1", "a", "w1"): "e",
        ("w2", "a", "w2"): "e",
    }
    return LabelledPrechart(X, tags)


def cycle_witness() -> LabelledPrechart:
    X = chart_of(AA0)
    return LabelledPrechart(X, {(AA0, "a", X1): "e", (X1, "a", AA0): "b"})


class TestConnectThrough:
    def test_state_without_incoming_is_just_dropped(self):
        X = two_sinks_chart()
        Y = connect_through(X, "r", "w1")
        assert Y.states == ("w1", "w2")
        assert Y.succ("w1", "a") == ("w1",)

    def test_fig3_rerouting(self):
        X, _ = fig3_left()
        assert bisimilarity(X).related("x1", "x2")
        Y = connect_through(X, "x1", "x2")
        Z = fig3_right()
        assert Y.states == Z.states
        assert Y.transitions == Z.transitions
        assert Y.outputs == Z.outputs

    def test_merging_bisimilar_sinks(self):
        X = two_sinks_chart()
        assert bisimilarity(X).related("w1", "w2")
        Y = connect_through(X, "w1", "w2")
        assert Y.states == ("r", "w2")
        assert Y.succ("r", "a") == ("w2",)
        assert Y.succ("w2", "a") == ("w2",)

    def test_rejects_equal_states_and_unknowns(self):
        X = two_sinks_chart()
        with pytest.raises(ValueError):
            connect_through(X, "w1", "w1")
        with pytest.raises(ValueError):
            connect_through(X, "nope", "w1")

    def test_root_follows_the_merge(self):
        X = chart_of(AA0)
        Y = connect_through(X, AA0, X1)
        assert Y.root == X1


class TestRerouting:
    def test_identity_splitting_changes_nothing(self):
        X = two_sinks_chart()
        s = Splitting.merging(X, {})
        Y = rerouting(X, s)
        assert Y.states == X.states and Y.transitions == X.transitions

    def test_matches_connect_through_on_random_charts(self):
        rng = random.Random(83)
        done = 0
        while done < 100:
            e = random_expr(rng, depth=4)
            X = chart_of(e)
            if len(X.states) < 2:
                continue
            done += 1
            x1, x2 = rng.sample(X.states, 2)
            Y1 = connect_through(X, x1, x2)
            Y2 = connect_through_reference(X, x1, x2)
            assert Y1.states == Y2.states
            assert Y1.transitions == Y2.transitions
            assert Y1.outputs == Y2.outputs
            assert Y1.root == Y2.root

    def test_connecting_through_step_by_step_is_one_rerouting_along_the_composed_splitting(self):
        # arbitrary merges, bisimilar or not, on charts with outputs: the
        # splittings compose, and their composite reroutes in one step
        rng = random.Random(211)
        merges = 0
        for _ in range(200):
            X = random_chart(rng, n_states=rng.randint(2, 7), out_prob=0.3, rooted=rng.random() < 0.5)
            current, projection = X, {x: x for x in X.states}
            for _ in range(rng.randint(1, len(X.states) - 1)):
                w1, w2 = rng.sample(current.states, 2)
                current = connect_through(current, w1, w2)
                projection = {x: (w2 if v == w1 else v) for x, v in projection.items()}
                merges += 1
            assert current == rerouting(X, Splitting(current.states, projection))
        assert merges > 400

    def test_merging_bisimilar_sinks_preserves_bisimilarity(self):
        X = two_sinks_chart()
        R = bisimilarity(X)
        s = Splitting.merging(X, {"w2": "w1"})
        U = rerouting(X, s)
        assert len(U.states) == len(X.states) - 1
        assert check_bisimulation(X, U, restrict_relation(R, U.states)) == (True, None)

    def test_invalid_splitting_rejected(self):
        X = two_sinks_chart()
        with pytest.raises(ValueError):
            Splitting(("r", "w1"), {"r": "r", "w1": "w1", "w2": "w2"})


class TestCheckCondition:
    def test_c1_for_the_sink_pair(self):
        assert check_condition(two_sinks_witness(), "w1", "w2") == "C1"

    def test_c2_for_the_cycle_pair(self):
        assert check_condition(cycle_witness(), AA0, X1) == "C2"

    def test_none_for_the_reversed_cycle_pair(self):
        assert check_condition(cycle_witness(), X1, AA0) is None

    def test_distinct_pair_required(self):
        with pytest.raises(ValueError):
            check_condition(cycle_witness(), AA0, AA0)


class TestFindPair:
    def test_identity_relation_gives_none(self):
        L = cycle_witness()
        assert find_pair(L, PartitionRelation.identity(L.base.states)) is None

    def test_total_relation_on_the_cycle(self):
        L = cycle_witness()
        R = PartitionRelation.total(L.base.states)
        assert find_pair(L, R) == (AA0, X1, "C2")

    def test_sink_merge_pair_is_c1(self):
        L = two_sinks_witness()
        R = partition_from_pairs(L.base.states, [("w1", "w2")])
        w1, w2, condition = find_pair(L, R)
        assert {w1, w2} == {"w1", "w2"} and condition == "C1"

    def test_blocks_are_scanned_in_discovery_order_however_listed(self):
        _, L = fig3_left()
        R = bisimilarity(L.base)
        reversed_members = PartitionRelation(R.universe, tuple(tuple(reversed(b)) for b in R.blocks))
        assert find_pair(L, R) == find_pair(L, reversed_members) == ("x2", "v", "C2")

    def test_non_bisimulation_rejected(self):
        L = two_sinks_witness()
        bad = partition_from_pairs(L.base.states, [("r", "w1")])
        with pytest.raises(ValueError):
            find_pair(L, bad)


class TestRelabel:
    def test_c2_merge_of_the_cycle(self):
        L = cycle_witness()
        result = relabel(L, AA0, X1, "C2")
        assert result.base.states == (X1,)
        assert result.tags == {(X1, "a", X1): "e"}
        assert verify_witness(result) == (True, None)

    def test_c1_merge_of_the_sinks(self):
        L = two_sinks_witness()
        result = relabel(L, "w1", "w2", "C1")
        assert result.base.states == ("r", "w2")
        assert result.tags == {("r", "a", "w2"): "b", ("w2", "a", "w2"): "e"}
        assert verify_witness(result) == (True, None)

    def test_demotion_is_a_no_op_when_return_paths_survive(self):
        # merging one duplicated branch of a lasso keeps every tag
        X = Prechart.make(
            ("a",),
            ("r", "u", "v"),
            {},
            {"r": {"a": ["u", "v"]}, "u": {"a": ["u"]}, "v": {"a": ["v"]}},
            root="r",
        )
        L = LabelledPrechart(
            X,
            {
                ("r", "a", "u"): "b",
                ("r", "a", "v"): "b",
                ("u", "a", "u"): "e",
                ("v", "a", "v"): "e",
            },
        )
        result = relabel(L, "u", "v", check_condition(L, "u", "v"))
        assert result.tags == {("r", "a", "v"): "b", ("v", "a", "v"): "e"}

    def test_wrong_condition_rejected(self):
        with pytest.raises(ValueError):
            relabel(cycle_witness(), AA0, X1, "C1")


class TestCollapse:
    def test_already_minimal_chart_is_unchanged(self):
        e = Star(A, Sum(Atom("b"), Zero()))
        L = syntactic_witness(chart_of(e, ("a", "b")))
        assert bisimilarity(L.base).is_identity
        result, projection = collapse(L)
        assert result.tags == L.tags
        assert projection == {x: x for x in L.base.states}

    def test_cycle_collapses_to_the_entry_self_loop(self):
        L = syntactic_witness(chart_of(AA0))
        result, projection = collapse(L)
        assert len(result.base.states) == 1
        (state,) = result.base.states
        assert result.tags == {(state, "a", state): "e"}
        assert projection[AA0] == projection[X1] == state
        s = canonical_solution(result)
        assert bisimilar(s.assign[state], AA0)

    def test_duplicated_sum_collapses_like_the_original(self):
        rng = random.Random(89)
        for _ in range(25):
            e = random_expr(rng, depth=3)
            L1, _ = collapse(syntactic_witness(chart_of(Sum(e, e), ("a", "b", "c"))))
            L2, _ = collapse(syntactic_witness(chart_of(e, ("a", "b", "c"))))
            first = Prechart.make(
                L1.base.alphabet, L1.base.states, L1.base.outputs, L1.base.transitions
            )
            second = Prechart.make(
                L2.base.alphabet, L2.base.states, L2.base.outputs, L2.base.transitions
            )
            assert isomorphic(first, second)

    def test_projection_is_a_homomorphism_with_bisimilarity_kernel(self):
        rng = random.Random(97)
        for _ in range(25):
            e = random_expr(rng, depth=3)
            L = syntactic_witness(chart_of(e))
            R = bisimilarity(L.base)
            result, projection = collapse(L)
            assert bisimilarity(result.base).is_identity
            assert verify_witness(result) == (True, None)
            assert is_homomorphism(projection, L.base, result.base) == (True, None)
            assert same_partition(kernel_partition(projection, L.base.states), R)


def joined_witnesses(seed: int, count: int):
    # the joined syntactic witnesses that certify collapses: e beside an
    # axiom rewrite of e
    rng = random.Random(seed)
    for _ in range(count):
        e = random_expr(rng, depth=rng.randint(2, 4))
        f = rewrite_steps(rng, e, rng.randint(1, 3))
        L, _, _ = union_witness(syntactic_witness(chart_of(e, ("a", "b", "c"))),
                                syntactic_witness(chart_of(f, ("a", "b", "c"))))
        yield L


class TestCollapseDoesEachStepOnce:
    def test_carried_partition_is_bisimilarity_at_every_merge(self):
        merges = 0
        for L in joined_witnesses(173, 100):
            R = bisimilarity(L.base)
            current = L
            while not R.is_identity:
                w1, w2, condition = find_pair(current, R)
                current = relabel(current, w1, w2, condition)
                R = partition_without(R, w1)
                assert R == bisimilarity(current.base)
                merges += 1
            result, _ = collapse(L)
            assert result == current
        assert merges > 100

    def test_the_lazy_scan_finds_the_first_pair_in_sorted_order(self):
        def sorted_scan(L, R):
            index = L.base.index
            nontrivial = (p for p in R.pairs() if p[0] != p[1])
            for w1, w2 in sorted(nontrivial, key=lambda p: (index(p[0]), index(p[1]))):
                condition = check_condition(L, w1, w2)
                if condition is not None:
                    return w1, w2, condition
            return None

        merges = 0
        for L in joined_witnesses(191, 60):
            R = bisimilarity(L.base)
            current = L
            while not R.is_identity:
                found = find_pair(current, R)
                assert found == sorted_scan(current, R)
                # a universe in another order is scanned in discovery order too
                shuffled = PartitionRelation.from_blocks(reversed(R.universe), R.blocks)
                assert find_pair(current, shuffled) == found
                current = relabel(current, *found)
                R = partition_without(R, found[0])
                merges += 1
        assert merges > 50

    def test_one_reachability_per_merge(self, monkeypatch):
        computed = []
        closures = layering._recompute_reach
        monkeypatch.setattr(layering, "_recompute_reach",
                            lambda succ, *args: computed.append(list(succ)) or closures(succ, *args))
        merges = 0
        for L in joined_witnesses(193, 30):
            R = bisimilarity(L.base)
            current = L
            analysis_of_verified(current)
            while not R.is_identity:
                computed.clear()
                w1, w2, condition = find_pair(current, R)
                current = relabel(current, w1, w2, condition)
                # relabel's demotion snapshot and the new witness's analysis
                # share one computation, on the connected chart's steps
                assert computed == [layering._successors(current.base.numbered_succ())]
                R = partition_without(R, w1)
                merges += 1
        assert merges > 30

    def test_one_analysis_per_merge(self, monkeypatch):
        built = 0
        init = layering._Analysis.__init__

        def counting(self, *maps):
            nonlocal built
            built += 1
            init(self, *maps)

        monkeypatch.setattr(layering._Analysis, "__init__", counting)
        for L in joined_witnesses(179, 20):
            built = 0
            result, _ = collapse(L)
            merges = len(L.base.states) - len(result.base.states)
            assert built <= merges + 2

    def test_bisimilarity_is_computed_once_per_collapse(self, monkeypatch):
        calls = []
        module = sys.modules["starchart.rerouting"]
        monkeypatch.setattr(module, "bisimilarity", lambda X: calls.append(X) or bisimilarity(X))
        for L in joined_witnesses(181, 20):
            calls.clear()
            collapse(L)
            assert calls == [L.base]

    @staticmethod
    def fail_after_the_first_merge(monkeypatch, X):
        # every labelling smaller than X "fails" verification; the input passes.
        # relabel checks through verify_witness, which ends in _first_violation
        inferred = []
        for module in ("starchart.layering", "starchart.rerouting"):
            monkeypatch.setattr(sys.modules[module], "infer_witness", inferred.append, raising=False)
        monkeypatch.setattr(
            layering, "_first_violation",
            lambda a: None if len(a.states) == len(X.states)
            else WitnessViolation("layered", (a.states[-1],) * 2),
        )
        return inferred

    def test_a_relabelling_that_breaks_the_witness_raises(self, monkeypatch):
        L = two_sinks_witness()
        inferred = self.fail_after_the_first_merge(monkeypatch, L.base)
        with pytest.raises(RuntimeError, match=r"under C1 broke the witness \(layered: "):
            relabel(L, "w1", "w2", "C1")
        assert inferred == []

    def test_the_command_line_reports_it_as_an_internal_error(self, monkeypatch, tmp_path, capsys):
        X = two_sinks_chart()
        inferred = self.fail_after_the_first_merge(monkeypatch, X)
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps(chart_to_json(X)), encoding="utf-8")
        assert main(["collapse", str(chart)]) == 3
        assert "internal error: RuntimeError: relabelling after connecting" in capsys.readouterr().err
        assert inferred == []


def hand_stepped(L, R):
    """Collapse by the paper's steps, one public call each: find_pair, relabel.

    Returns the result, the projection and, per merge, the relabelled
    witness, the deleted state and the condition.
    """
    current, projection, steps = L, {x: x for x in L.base.states}, []
    while not R.is_identity:
        w1, w2, condition = find_pair(current, R)
        current = relabel(current, w1, w2, condition)
        projection = {x: (w2 if v == w1 else v) for x, v in projection.items()}
        R = partition_without(R, w1)
        steps.append((current, w1, condition))
    return current, projection, steps


def oracle_corpus():
    # joined syntactic witnesses, as certify collapses them, and inferred
    # witnesses of random charts: between them they reach all three
    # safe-pair conditions
    for seed in range(300):
        rng = random.Random(seed)
        e = random_expr(rng, depth=rng.randint(3, 5))
        f = rewrite_steps(rng, e, rng.randint(1, 3))
        yield union_witness(syntactic_witness(chart_of(e, ("a", "b", "c"))),
                            syntactic_witness(chart_of(f, ("a", "b", "c"))))[0]
    rng = random.Random(7)
    for _ in range(400):
        L = infer_witness(random_chart(rng, n_states=rng.randint(3, 6), edge_prob=0.4, out_prob=0.15))
        if L is not None:
            yield L


class TestCollapseOnTheWorkingChart:
    def test_collapse_is_the_hand_stepped_oracle(self):
        merges = Counter()
        for L in oracle_corpus():
            R = bisimilarity(L.base)
            result, projection, steps = hand_stepped(L, R)
            assert collapse(L) == (result, projection)
            assert result.base == rerouting(L.base, Splitting(result.base.states, projection))
            merges.update(condition for _, _, condition in steps)
        assert merges["C2"] >= 10 and merges["C3"] >= 3

    def test_certify_reports_a_wrong_partition_as_an_internal_error(self, monkeypatch, capsys):
        # the refinement seam of the decision answers one block; ``a b*0``
        # and ``(a b)*0`` agree on rounds 0 to 2, where both walks end, so
        # the layered check hands them to the full refinement, which no
        # longer separates them
        bisim, cli = sys.modules["starchart.bisim"], sys.modules["starchart.cli"]
        monkeypatch.setattr(bisim, "_coarsest", lambda outs, numbered: ([[0] * len(outs)], 1))
        built = []
        for name in ("infer_witness", "_quotient"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: built.append(name))
        assert main(["certify", "a b*0", "(a b)*0"]) == 3
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: certification checks failed: ['bisimulation-relation-valid']" in err
        # the relation check fails before any quotient or witness is built
        assert built == []

    def test_certify_reports_a_wrong_separation_as_an_internal_error(self, monkeypatch, capsys):
        # the decision seam separates bisimilar roots: it answers for ``a``
        # in place of the right input, so the formula it derives fails on
        # the inputs themselves.  The pair needs RSP*: its folded normal
        # forms differ, so ``certify`` reaches the decision
        cli = sys.modules["starchart.cli"]
        decide = cli._decide
        monkeypatch.setattr(cli, "_decide", lambda e, f, alphabet: decide(e, parse("a", alphabet), alphabet))
        built = []
        for name in ("infer_witness", "_quotient"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: built.append(name))
        assert main(["certify", "--alphabet", "a,b", "b*((b + b)*b)", "b + b*(b*b)"]) == 3
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: certification checks failed: ['distinguishing-formula']" in err
        assert built == []


class TestCollapseStaysPolynomial:
    """Collapse rebuilds and re-verifies the witness once per merge; on
    these inputs, of about 200 states each, it takes under a second, so a
    time past the bound means the loop has gone super-polynomial."""

    @staticmethod
    def joined_wstar_pair():
        return union_witness(*(syntactic_witness(chart_of(e, ("a", "b"))) for e in wstar_pair(100)))[0]

    @staticmethod
    def seed_88_sum():
        e = random_expr(random.Random(88), depth=12)
        return syntactic_witness(chart_of(Sum(e, e), tuple(sorted(atoms(e)))))

    @pytest.mark.parametrize("make", ["joined_wstar_pair", "seed_88_sum"])
    def test_a_200_state_collapse_takes_under_5_s(self, make):
        L = getattr(self, make)()
        start = time.perf_counter()
        result, _ = collapse(L)
        assert time.perf_counter() - start < 5.0
        assert len(result.base.states) < len(L.base.states)


class TestCollapseTheorem:
    """The collapse of a witness is isomorphic to the bisimulation quotient
    of its chart: the theorem that lets certify build the quotient instead."""

    @staticmethod
    def assert_collapses_to_the_quotient(L: LabelledPrechart) -> None:
        assert isomorphic(collapse(L)[0].base, quotient(L.base, bisimilarity(L.base))[0])

    def test_on_joined_syntactic_witnesses(self):
        for L in joined_witnesses(211, 100):
            self.assert_collapses_to_the_quotient(L)

    def test_on_the_equivalent_golden_certificate_pairs(self):
        pairs = [pair for pair, r in zip(golden_cert_pairs(), RECORDED) if r["verdict"] == "equivalent"]
        assert len(pairs) == 164
        for e, f in pairs:
            alpha = tuple(sorted(atoms(e) | atoms(f)))
            L, _, _ = union_witness(syntactic_witness(chart_of(e, alpha)), syntactic_witness(chart_of(f, alpha)))
            self.assert_collapses_to_the_quotient(L)


class TestTheConditionsAreThePairScan:
    def test_on_every_ordered_pair_of_distinct_states(self):
        # the set algebra on per-state relations against the pair-scan
        # definitions, on witnesses whose collapses merge under C2 and C3
        seen = Counter()
        for L in [*oracle_corpus(), *joined_witnesses(199, 60)]:
            a, scan = analysis_of_verified(L), PairScan(L)
            for w1 in L.base.states:
                for w2 in L.base.states:
                    if w1 != w2:
                        condition = check_condition(L, w1, w2)
                        assert condition == scan.condition(w1, w2)
                        if condition == "C2":
                            number, name = L.base.index, L.base.states
                            promote = name[_c2_promotion_state(a, number(w1), number(w2))]
                            assert promote == scan.promotion_state(w1, w2)
                        seen[condition] += 1
        assert min(seen[condition] for condition in (*CONDITIONS, None)) > 100


class TestRestrictRelation:
    def test_identity_restriction_is_the_identity_graph(self):
        X = two_sinks_chart()
        R = PartitionRelation.identity(X.states)
        pairs = restrict_relation(R, X.states)
        assert sorted(pairs) == sorted((x, x) for x in X.states)
        assert check_bisimulation(X, X, pairs) == (True, None)

    def test_total_relation_on_the_merged_cycle(self):
        X = chart_of(AA0)
        R = PartitionRelation.total(X.states)
        U = connect_through(X, AA0, X1)
        pairs = restrict_relation(R, U.states)
        assert set(pairs) == {(AA0, X1), (X1, X1)}
        assert check_bisimulation(X, U, pairs) == (True, None)

    def test_random_reroutings_with_kernel_inside_bisimilarity(self):
        rng = random.Random(101)
        done = 0
        while done < 100:
            e = random_expr(rng, depth=3)
            X, _, _ = __import__("starchart").coproduct(
                chart_of(e, ("a", "b", "c")), chart_of(e, ("a", "b", "c"))
            )
            R = bisimilarity(X)
            blocks = [b for b in R.blocks if len(b) > 1]
            if not blocks:
                continue
            done += 1
            merges = {}
            for block in blocks:
                if rng.random() < 0.8:
                    survivor = block[0]
                    for other in block[1:]:
                        if rng.random() < 0.7:
                            merges[other] = survivor
            s = Splitting.merging(X, merges)
            U = rerouting(X, s)
            assert check_bisimulation(X, U, restrict_relation(R, U.states)) == (True, None)
