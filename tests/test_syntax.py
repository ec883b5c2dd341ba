import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starchart import (
    Atom,
    ParseError,
    Seq,
    Star,
    Sum,
    UnknownActionError,
    Zero,
    atoms,
    canonical_solution,
    chart_of,
    gsum,
    parse,
    render,
    size_bound,
    star_height,
    syntactic_witness,
)
from starchart.syntax import _render, _split_actions, can_terminate
from gen import all_exprs, deadline, distinct_nodes, doubling_chain, random_expr

A, B, C = Atom("a"), Atom("b"), Atom("c")
ALPHABET = ("a", "b", "c")
WITH_AB = ("a", "b", "ab")


class TestParse:
    def test_star_of_atoms(self):
        assert parse("a*b", ALPHABET) == Star(A, B)

    def test_star_of_sequences(self):
        assert parse("(a b)*(b a)", ALPHABET) == Star(Seq(A, B), Seq(B, A))

    def test_sum_with_zero(self):
        assert parse("a + 0", ALPHABET) == Sum(A, Zero())

    def test_sum_right_nested(self):
        assert parse("a + b + c", ALPHABET) == Sum(A, Sum(B, C))

    def test_seq_left_nested(self):
        assert parse("a b c", ALPHABET) == Seq(Seq(A, B), C)

    def test_dot_is_sequencing(self):
        assert parse("a.b", ALPHABET) == Seq(A, B)

    def test_adjacent_letters_split_over_alphabet(self):
        assert parse("aa", ("a",)) == Seq(A, A)
        assert parse("(aa)*0", ("a",)) == Star(Seq(A, A), Zero())

    def test_multicharacter_action_wins_whole_token(self):
        assert parse("ab", ("a", "b", "ab")) == Atom("ab")

    def test_precedence(self):
        assert parse("a + b c*0", ALPHABET) == Sum(A, Seq(B, Star(C, Zero())))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("a + ", ALPHABET)
        assert err.value.pos == 4

    def test_unknown_atom(self):
        with pytest.raises(UnknownActionError):
            parse("a + d", ALPHABET)


# Runs of actions and "0" that split as the same words apart would parse.
SPLIT_RUNS = [
    ("a0", ALPHABET, Seq(A, Zero())),
    ("a0b", ALPHABET, Seq(Seq(A, Zero()), B)),
    ("ab0", ALPHABET, Seq(Seq(A, B), Zero())),
    ("a00", ALPHABET, Seq(Seq(A, Zero()), Zero())),
    ("a0*b", ALPHABET, Seq(A, Star(Zero(), B))),
    ("0a", ALPHABET, Seq(Zero(), A)),
    ("a0", ("a", "a0"), Atom("a0")),
    ("a00", ("a", "a0"), Seq(Atom("a0"), Zero())),
    ("a0a", ("a", "a0"), Seq(Atom("a0"), A)),
]


@pytest.mark.parametrize("text, alphabet, expected", SPLIT_RUNS)
def test_a_run_splits_over_the_declared_actions_and_zero(text, alphabet, expected):
    assert parse(text, alphabet) == expected


def test_a_run_that_the_longest_prefix_strands_splits_by_backtracking():
    # "ab" leaves "c", which no action reads, so the split backs up to "a"
    alphabet = ("a", "ab", "bc")
    assert parse("abc", alphabet) == Seq(A, Atom("bc")) == parse("a bc", alphabet)
    assert parse("abcab", alphabet) == Seq(Seq(A, Atom("bc")), Atom("ab"))
    # an error after such a run is placed at its own token, and a run that
    # does not split at all is reported where it starts
    with pytest.raises(ParseError) as err:
        parse("abc )", alphabet)
    assert (str(err.value), err.value.pos) == ("unexpected ')' (at position 4)", 4)
    with pytest.raises(UnknownActionError) as err:
        parse("a + abcc", alphabet)
    assert (str(err.value), err.value.pos) == ("unknown action 'abcc' (at position 4)", 4)


def greedy_split(word: str, alphabet: set[str]) -> list[str] | None:
    """The split that the parser made before it backtracked, frozen as an
    oracle: the longest declared prefix at each step, or "0"."""
    if word in alphabet:
        return [word]
    longest = max(map(len, alphabet), default=0)
    parts: list[str] = []
    i = 0
    while i < len(word):
        if word[i] == "0":
            parts.append("0")
            i += 1
            continue
        for k in range(min(longest, len(word) - i), 0, -1):
            if word[i:i + k] in alphabet:
                parts.append(word[i:i + k])
                i += k
                break
        else:
            return None
    return parts


def all_splits(word: str, alphabet: set[str]) -> list[list[str]]:
    """Every split of ``word`` into declared actions and "0", by brute force."""
    if not word:
        return [[]]
    return [[word[:k], *rest] for k in range(1, len(word) + 1) if word[:k] in alphabet or word[:k] == "0"
            for rest in all_splits(word[k:], alphabet)]


def test_a_run_splits_greedily_where_that_succeeds_and_whenever_any_split_exists():
    rng = random.Random(5110)
    outcomes = {"greedy": 0, "backtracked": 0, "none": 0}
    for _ in range(4000):
        letters = rng.choice(("ab", "abc"))
        alphabet = {"".join(rng.choices(letters, k=rng.randint(1, 3))) for _ in range(rng.randint(1, 4))}
        # declared actions and "0" run together, then one letter changed in
        # some, so that many runs split and many split in several ways
        actions = sorted(alphabet)
        word = rng.choice(actions) + "".join(rng.choices(actions + ["0"], k=rng.randint(0, 4)))
        if rng.random() < 0.3:
            i = rng.randrange(1, len(word)) if len(word) > 1 else 0
            word = word[:i] + rng.choice("abc0"[:4 if i else 3]) + word[i + 1:]
        got, greedy, splits = _split_actions(word, alphabet), greedy_split(word, alphabet), all_splits(word, alphabet)
        if greedy is not None:
            assert got == greedy, (word, alphabet)
        # the split found is the one that prefers the longest part first
        assert got == min(splits, key=lambda split: [-len(part) for part in split], default=None), (word, alphabet)
        outcomes["none" if got is None else "greedy" if greedy is not None else "backtracked"] += 1
    assert outcomes == {"greedy": 3194, "backtracked": 55, "none": 751}


# Malformed texts with the exception class, message and position that the
# parser gave before it read text into shared nodes; they must not change.
MALFORMED = [
    ("", ALPHABET, ParseError, "expected an expression (at position 0)", 0),
    ("   ", ALPHABET, ParseError, "expected an expression (at position 3)", 3),
    ("a +", ALPHABET, ParseError, "expected an expression (at position 3)", 3),
    ("a + ", ALPHABET, ParseError, "expected an expression (at position 4)", 4),
    ("+ a", ALPHABET, ParseError, "expected an expression (at position 0)", 0),
    ("(a", ALPHABET, ParseError, "expected ')' (at position 2)", 2),
    ("a)", ALPHABET, ParseError, "unexpected ')' (at position 1)", 1),
    ("()", ALPHABET, ParseError, "expected an expression (at position 1)", 1),
    ("(a))", ALPHABET, ParseError, "unexpected ')' (at position 3)", 3),
    ("a**b", ALPHABET, ParseError, "expected an expression (at position 2)", 2),
    ("a*", ALPHABET, ParseError, "expected an expression (at position 2)", 2),
    ("*a", ALPHABET, ParseError, "expected an expression (at position 0)", 0),
    ("a.", ALPHABET, ParseError, "expected expression after '.' (at position 2)", 2),
    (".a", ALPHABET, ParseError, "expected an expression (at position 0)", 0),
    ("a..b", ALPHABET, ParseError, "expected expression after '.' (at position 2)", 2),
    ("a.*b", ALPHABET, ParseError, "expected expression after '.' (at position 2)", 2),
    ("a . + b", ALPHABET, ParseError, "expected expression after '.' (at position 4)", 4),
    ("a + + b", ALPHABET, ParseError, "expected an expression (at position 4)", 4),
    ("d", ALPHABET, UnknownActionError, "unknown action 'd' (at position 0)", 0),
    ("a + d", ALPHABET, UnknownActionError, "unknown action 'd' (at position 4)", 4),
    ("ad", ALPHABET, UnknownActionError, "unknown action 'ad' (at position 0)", 0),
    ("a d b", ALPHABET, UnknownActionError, "unknown action 'd' (at position 2)", 2),
    ("a_b", ALPHABET, UnknownActionError, "unknown action 'a_b' (at position 0)", 0),
    ("A", ALPHABET, ParseError, "unexpected character 'A' (at position 0)", 0),
    ("a # b", ALPHABET, ParseError, "unexpected character '#' (at position 2)", 2),
    ("1", ALPHABET, ParseError, "unexpected character '1' (at position 0)", 0),
    ("a1", ALPHABET, UnknownActionError, "unknown action 'a1' (at position 0)", 0),
    ("a01", ALPHABET, UnknownActionError, "unknown action 'a01' (at position 0)", 0),
    ("b + a01", ALPHABET, UnknownActionError, "unknown action 'a01' (at position 4)", 4),
    ("a0 + a0d", ALPHABET, UnknownActionError, "unknown action 'a0d' (at position 5)", 5),
    ("0*", ALPHABET, ParseError, "expected an expression (at position 2)", 2),
    ("a*(b", ALPHABET, ParseError, "expected ')' (at position 4)", 4),
    ("a b )", ALPHABET, ParseError, "unexpected ')' (at position 4)", 4),
    ("\u00e9", ALPHABET, ParseError, "unexpected character '\u00e9' (at position 0)", 0),
    ("a\u00a0+\u2003b +", ALPHABET, ParseError, "expected an expression (at position 7)", 7),
    ("ab\tc)", ALPHABET, ParseError, "unexpected ')' (at position 4)", 4),
    ("(a b)(", ALPHABET, ParseError, "expected an expression (at position 6)", 6),
    ("abc d", WITH_AB + ("c",), UnknownActionError, "unknown action 'd' (at position 4)", 4),
    ("abd", WITH_AB, UnknownActionError, "unknown action 'abd' (at position 0)", 0),
    ("ab*", WITH_AB, ParseError, "expected an expression (at position 3)", 3),
    ("aab + ba)", WITH_AB, ParseError, "unexpected ')' (at position 8)", 8),
    ("a b c ab abc)", WITH_AB + ("c",), ParseError, "unexpected ')' (at position 12)", 12),
    ("aaaa *", ("a",), ParseError, "expected an expression (at position 6)", 6),
    ("aa.a.", ("a",), ParseError, "expected expression after '.' (at position 5)", 5),
    ("(((a", ALPHABET, ParseError, "expected ')' (at position 4)", 4),
    ("a)b", ALPHABET, ParseError, "unexpected ')' (at position 1)", 1),
    ("0 0 0 +", ALPHABET, ParseError, "expected an expression (at position 7)", 7),
    ("a*b*c*", ALPHABET, ParseError, "unexpected '*' (at position 3)", 3),
    ("a+b)*c", ALPHABET, ParseError, "unexpected ')' (at position 3)", 3),
    ("[a]", ALPHABET, ParseError, "unexpected character '[' (at position 0)", 0),
    ("a -b", ALPHABET, ParseError, "unexpected character '-' (at position 2)", 2),
    ("a*+b", ALPHABET, ParseError, "expected an expression (at position 2)", 2),
]


@pytest.mark.parametrize("text, alphabet, error, message, pos", MALFORMED)
def test_malformed_text_keeps_its_message_and_position(text, alphabet, error, message, pos):
    with pytest.raises(ParseError) as err:
        parse(text, alphabet)
    assert type(err.value) is error and str(err.value) == message and err.value.pos == pos


class TestSharedParse:
    def test_equal_subterms_are_one_node(self):
        e = parse("(a b)*(a b) + a b", ALPHABET)
        assert e == Sum(Star(Seq(A, B), Seq(A, B)), Seq(A, B))
        assert e.left.left is e.left.right is e.right
        assert e.right.left is e.left.left.left

    def test_one_node_per_distinct_subterm(self):
        rng = random.Random(23)
        texts = [render(random_expr(rng, ALPHABET, depth=6)) for _ in range(200)]
        texts += ["a " * 40 + "a", "(a + b)*(a + b) + (a + b)*(a + b)", "0 + 0 + 0*0"]
        for _ in range(40):  # canonical solutions print DAGs as trees
            solution = canonical_solution(syntactic_witness(chart_of(random_expr(rng, ALPHABET, depth=4))))
            texts += map(render, solution.assign.values())
        for text in texts:
            nodes = distinct_nodes(parse(text, ALPHABET))
            assert len(nodes) == len(set(nodes)), text

    def test_the_root_carries_the_actions_read(self):
        rng = random.Random(29)
        for _ in range(200):
            e = random_expr(rng, ALPHABET, depth=5)
            parsed = parse(render(e), ALPHABET)
            assert "_atoms" in vars(parsed)
            assert atoms(parsed) == atoms(e)
        assert atoms(parse("0*0", ALPHABET)) == frozenset()
        assert atoms(parse("aab", WITH_AB)) == {"a", "ab"}

    def test_a_parse_is_a_dag_of_its_distinct_subterms_however_long_its_text(self):
        # the text of e_12 prints a tree of ~25 000 nodes; it has 27 distinct subterms
        e = doubling_chain(12, Seq(A, Zero()))
        parsed = parse(render(e), ALPHABET)
        assert parsed == e and len(distinct_nodes(parsed)) == len(set(distinct_nodes(e))) == 27


class TestRender:
    def test_star(self):
        assert render(Star(A, B)) == "a*b"

    def test_right_nested_sum_prints_flat(self):
        assert render(Sum(A, Sum(B, C))) == "a + b + c"

    def test_precedence_forces_parentheses(self):
        assert render(Seq(Sum(A, B), C)) == "(a + b)c"

    def test_left_nested_sum_keeps_parentheses(self):
        assert render(Sum(Sum(A, B), C)) == "(a + b) + c"

    def test_right_nested_seq_keeps_parentheses(self):
        assert render(Seq(A, Seq(B, C))) == "a(b c)"

    def test_a_binary_node_in_the_table_is_emitted_as_its_entry(self):
        s, t, u = Star(A, B), Seq(A, B), Sum(B, C)
        texts = {id(s): "<s>", id(t): "<t>", id(u): "<u>"}
        assert _render(Sum(s, Sum(t, C)), texts) == "<s> + <t> + c"
        assert _render(Seq(Sum(s, t), u), texts) == "(<s> + <t>)(<u>)"
        # a leaf prints as itself, which is what its entry would copy
        assert _render(Sum(A, C), {id(A): "<a>"}) == "a + c"
        # the table is the caller's, so ``render`` and the nodes keep nothing
        assert render(Sum(s, C)) == "a*b + c"
        assert not hasattr(s, "_text")


class TestGsum:
    def test_empty_is_zero(self):
        assert gsum([]) == Zero()

    def test_singleton_is_itself(self):
        assert gsum([A]) == A

    def test_right_nesting(self):
        assert gsum([A, B, C]) == Sum(A, Sum(B, C))

    def test_keeps_order_and_multiplicity(self):
        assert gsum([B, A, B]) == Sum(B, Sum(A, B))


class TestMeasures:
    def test_star_height_of_atom(self):
        assert star_height(A) == 0

    def test_star_height_of_star(self):
        assert star_height(Star(A, B)) == 1

    def test_star_height_passes_through_seq_and_sum(self):
        assert star_height(Seq(Star(A, B), Sum(C, Zero()))) == 1

    def test_size_bound_of_zero(self):
        assert size_bound(Zero()) == 1

    def test_size_bound_of_seq(self):
        assert size_bound(Seq(A, B)) == 2

    def test_size_bound_of_star(self):
        assert size_bound(Star(A, B)) == 2


def exprs(alphabet=("a", "b", "c", "ab")):
    atom = st.sampled_from([Zero()] + [Atom(a) for a in alphabet])
    return st.recursive(
        atom,
        lambda sub: st.builds(Sum, sub, sub) | st.builds(Seq, sub, sub) | st.builds(Star, sub, sub),
        max_leaves=12,
    )


@settings(max_examples=300)
@given(exprs())
def test_parse_render_round_trip(e):
    assert parse(render(e), ("a", "b", "c", "ab")) == e


@settings(max_examples=300)
@given(exprs(), st.randoms(use_true_random=False))
def test_nodes_printed_from_a_table_print_the_same(e, rng):
    # ``solve`` prints each term once into a table and copies its text
    # wherever the term is held; a node prints the same wherever it stands,
    # so copying its text from the table changes nothing
    text = render(e)
    nodes, stack = [], [e]
    while stack:
        x = stack.pop()
        nodes.append(x)
        if isinstance(x, (Sum, Seq, Star)):
            stack += (x.left, x.right)
    texts: dict[int, str] = {}
    for x in reversed(nodes):  # inner nodes first
        if rng.random() < 0.5:
            texts[id(x)] = _render(x, texts)
    assert _render(e, texts) == text


@given(exprs(alphabet=("a", "b")))
def test_size_bound_positive_and_star_height_zero_iff_star_free(e):
    assert size_bound(e) >= 1
    has_star = "*" in render(e)
    assert (star_height(e) == 0) == (not has_star)


class TestNodeMemos:
    def test_equal_trees_built_apart_hash_alike(self):
        left, right = Star(Seq(A, B), Sum(C, Zero())), Star(Seq(A, B), Sum(C, Zero()))
        assert left is not right and left == right and hash(left) == hash(right)
        assert len({left, right, Seq(left, right), Seq(right, left)}) == 2

    def test_memos_do_not_change_equality_or_repr(self):
        e = Sum(Atom("a"), Zero())
        fresh = Sum(Atom("a"), Zero())
        atoms(e), size_bound(e), star_height(e), chart_of(e)
        assert e == fresh and repr(e) == repr(fresh) == "Sum(left=Atom(action='a'), right=Zero())"

    def test_copy_and_pickle_rebuild_the_hash(self):
        e = Star(Seq(A, B), Zero())
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and hash(twin) == hash(e)

    def test_copies_keywords_and_replace_rebuild_equal_nodes(self):
        e = Sum(Star(Seq(A, B), Zero()), Atom("c"))
        twins = [
            copy.copy(e),
            copy.deepcopy(e),
            pickle.loads(pickle.dumps(e)),
            Sum(left=Star(left=Seq(left=A, right=B), right=Zero()), right=Atom(action="c")),
            dataclasses.replace(e),
            dataclasses.replace(e, right=Atom("c")),
            dataclasses.replace(Sum(A, B), left=e.left, right=e.right),
        ]
        for twin in twins:
            assert twin == e and hash(twin) == hash(e)
        changed = dataclasses.replace(e, right=Atom("a"))
        assert changed != e and hash(changed) == hash(Sum(e.left, Atom("a")))

    def test_equality_is_structural_across_classes(self):
        assert Seq(A, B) != Sum(A, B) and Star(A, B) != Seq(A, B)
        assert Atom("a") != Atom("b") and Zero() == Zero() and Atom("a") != Zero()
        assert Seq(A, B) != ("Seq", A, B) and (A == "a") is False

    def test_equal_hashes_do_not_make_nodes_equal(self):
        # equality walks the nodes after the hashes: forge a collision
        collide = Atom("c")
        object.__setattr__(collide, "_hash", hash(B))
        assert Sum(A, collide) != Sum(A, B) and collide != B
        object.__setattr__(collide, "_hash", hash(Zero()))
        assert collide != Zero() and Zero() != collide

    def test_can_terminate_agrees_with_the_chart(self):
        for e in all_exprs(("a", "b"), 5):
            assert can_terminate(e) == bool(chart_of(e).outputs), e


class TestDeepInput:
    DEPTH = 30000

    def test_deep_trees_parse_render_and_measure_without_recursion(self):
        text = " ".join(["a"] * self.DEPTH)
        e = parse(text, ALPHABET)
        assert render(e) == text
        deep, twin = Zero(), Zero()
        for _ in range(self.DEPTH):
            deep, twin = Sum(B, Star(A, deep)), Sum(B, Star(A, twin))
        assert atoms(deep) == {"a", "b"}
        assert star_height(deep) == self.DEPTH and size_bound(deep) == 2 * self.DEPTH + 1
        assert not can_terminate(Star(A, Seq(deep, Zero())))
        assert hash(deep) == hash(twin)
        assert render(deep).count("*") == self.DEPTH

    def test_an_unspaced_action_run_splits_in_linear_time(self):
        with deadline(5, "splitting 30 000 actions"):
            e = parse("a" * self.DEPTH, ["a"])
        spaced = parse(" ".join("a" * self.DEPTH), ["a"])
        # render, hash and == are all iterative
        assert render(e) == render(spaced) and hash(e) == hash(spaced) and e == spaced

    def test_dags_compare_each_pair_of_nodes_once(self):
        # the trees of e_64 have ~10^20 nodes; a walk of the tree never ends
        e, twin = doubling_chain(64, Seq(A, Zero())), doubling_chain(64, Seq(A, Zero()))
        other = doubling_chain(64, Seq(B, Zero()))
        with deadline(1, "comparing e_64"):
            assert e is not twin and e == twin and not e != twin
            assert e != other and Sum(e, e) == Sum(twin, e) != Sum(other, e)

    def test_deep_trees_compare_without_recursion(self):
        text = " ".join(["a"] * self.DEPTH)
        e, twin = parse(text, ALPHABET), parse(text, ALPHABET)
        assert e is not twin and e == twin and not e != twin
        other = parse(text + " b", ALPHABET)
        assert e != other and other != e
        assert other == parse(text + " b", ALPHABET)

    def test_deep_syntax_errors_keep_their_position(self):
        with pytest.raises(ParseError) as err:
            parse("(" * self.DEPTH + "a", ALPHABET)
        assert err.value.pos == self.DEPTH + 1
