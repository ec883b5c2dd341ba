"""``syntax._parse`` agrees with a frozen copy of itself on valid and broken text.

Parse is the largest stage of every certificate replay, so a faster parse
must not parse differently.  The reference below is ``_parse`` as it stood
when the node builders started writing their fields straight into the
node's dict; it reads the same tokens, through ``syntax._tokens``.  Each
case parses two texts into one table, as ``certify`` parses a pair, by both
parsers: the trees, the table sizes, which nodes are one object and each
root's ``_atoms`` must agree, and a text that does not parse must raise the
same exception class, message and position.

The texts are renders of ``gen.random_expr`` with random spaces, ``.``
between sequenced operands and redundant parentheses; about half of them
then lose, gain or swap one token.
"""

from __future__ import annotations

import random
from typing import NoReturn

import pytest

from starchart import Atom, Expr, ParseError, Seq, Star, Sum, Zero
from starchart.syntax import _parse, _position, _tokens
from gen import random_expr

_set = object.__setattr__
_NON_OPERAND = frozenset("+*).")


def reference_parse(text: str, alpha: set[str], shared: dict) -> Expr:
    # ``syntax._parse`` as it was written when this test was added
    toks = _tokens(text, alpha)
    end = len(toks)

    def node(cls, left: Expr, right: Expr) -> Expr:
        key = (cls, id(left), id(right))
        x = shared.get(key)
        if x is None:
            x = shared[key] = cls(left, right)
        return x

    def fail(message: str, i: int) -> NoReturn:
        raise ParseError(message, _position(text, alpha, i))

    # A frame holds the finished summands, the sequence being extended, and
    # the left operand of a pending "*".
    frames: list[tuple[list[Expr], Expr | None, Expr | None]] = []
    terms: list[Expr] = []
    seq: Expr | None = None
    star_left: Expr | None = None
    pos = 0
    while True:
        # expect an operand of "*": an action, 0, or a parenthesised expression
        t = toks[pos] if pos < end else None
        if t == "(":
            pos += 1
            frames.append((terms, seq, star_left))
            terms, seq, star_left = [], None, None
            continue
        if t is None or t in _NON_OPERAND:
            fail("expected an expression", pos)
        e = shared.get(t)
        if e is None:
            e = shared[t] = Zero() if t == "0" else Atom(t)
        pos += 1
        # fold the finished operand upwards until something needs another one
        while True:
            if star_left is not None:
                e, star_left = node(Star, star_left, e), None
            elif pos < end and toks[pos] == "*":
                pos += 1
                star_left = e
                break
            seq = e if seq is None else node(Seq, seq, e)
            t = toks[pos] if pos < end else None
            if t == ".":
                pos += 1
                if pos == end or toks[pos] in _NON_OPERAND:
                    fail("expected expression after '.'", pos)
                break
            if t is not None and t not in _NON_OPERAND:
                break
            terms.append(seq)
            seq = None
            if t == "+":
                pos += 1
                break
            e = terms[-1]
            for term in reversed(terms[:-1]):
                e = node(Sum, term, e)
            if not frames:
                if pos != end:
                    fail(f"unexpected {t!r}", pos)
                _set(e, "_atoms", frozenset(alpha.intersection(toks)))
                return e
            if t != ")":
                fail("expected ')'", pos)
            pos += 1
            terms, seq, star_left = frames.pop()


def tokens_of(e: Expr, rng: random.Random) -> list[str]:
    """Tokens that parse to ``e``, with ``.`` and redundant parentheses at random."""
    def group(x: Expr, *bare: type) -> list[str]:
        toks = tokens_of(x, rng)
        return toks if type(x) in bare else ["(", *toks, ")"]

    kind = type(e)
    if kind is Atom:
        toks = [e.action]
    elif kind is Zero:
        toks = ["0"]
    elif kind is Sum:
        toks = [*group(e.left, Atom, Zero, Seq, Star), "+", *tokens_of(e.right, rng)]
    elif kind is Seq:
        dot = ["."] if rng.random() < 0.3 else []
        toks = [*group(e.left, Atom, Zero, Seq, Star), *dot, *group(e.right, Atom, Zero, Star)]
    else:
        toks = [*group(e.left, Atom, Zero), "*", *group(e.right, Atom, Zero)]
    return ["(", *toks, ")"] if rng.random() < 0.1 else toks


# what a mutation inserts: every punctuation mark, actions in and out of
# the alphabet, and a character that is no token
_INSERTED = ["+", "*", "(", ")", ".", "0", "a", "b", "ab", "d", "%"]
_SPACES = ["", "", " ", " ", "  ", "\t"]


def random_text(rng: random.Random, alphabet: tuple[str, ...]) -> str:
    toks = tokens_of(random_expr(rng, alphabet, depth=rng.randint(0, 6)), rng)
    if rng.random() < 0.5:
        i = rng.randrange(len(toks))
        mutation = rng.choice(("delete", "insert", "swap"))
        if mutation == "delete":
            del toks[i]
        elif mutation == "insert":
            toks.insert(i + rng.randint(0, 1), rng.choice(_INSERTED))
        elif i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    # adjacent actions with no space between them lex as one run, which the
    # parser splits over the alphabet or reports
    return rng.choice(_SPACES) + "".join(t + rng.choice(_SPACES) for t in toks)


def outcomes(parser, texts: list[str], alpha: set[str]) -> tuple[list, dict]:
    """Each text's root, or its error as (class, message, position), parsed
    in order into one table; and the table."""
    shared: dict = {}
    results = []
    for text in texts:
        try:
            results.append(parser(text, alpha, shared))
        except ParseError as exc:
            results.append((type(exc), str(exc), exc.pos))
    return results, shared


def assert_same_sharing(xs: list[Expr], ys: list[Expr]) -> None:
    # a node of one parse is one object exactly where the other's is
    image: dict[int, Expr] = {}
    preimage: dict[int, Expr] = {}
    stack = list(zip(xs, ys))
    while stack:
        x, y = stack.pop()
        if id(x) in image:
            assert image[id(x)] is y
            continue
        assert id(y) not in preimage
        image[id(x)], preimage[id(y)] = y, x
        if type(x) in (Sum, Seq, Star):
            stack += ((x.left, y.left), (x.right, y.right))


@pytest.mark.parametrize("alphabet", [("a", "b", "c"), ("a", "b", "ab")], ids=",".join)
def test_parse_agrees_with_the_reference(alphabet):
    rng = random.Random(",".join(alphabet))
    alpha = set(alphabet)
    parsed = failed = 0
    for _ in range(1_500):
        texts = [random_text(rng, alphabet), random_text(rng, alphabet)]
        got, got_table = outcomes(_parse, texts, alpha)
        want, want_table = outcomes(reference_parse, texts, alpha)
        assert len(got_table) == len(want_table), texts
        roots = []
        for text, x, y in zip(texts, got, want):
            if isinstance(y, tuple):
                assert x == y, text
                failed += 1
            else:
                assert isinstance(x, Expr) and x == y, text
                assert x.__dict__["_atoms"] == y.__dict__["_atoms"], text
                roots.append((x, y))
                parsed += 1
        assert_same_sharing([x for x, _ in roots], [y for _, y in roots])
    # both outcomes are common, so neither path is tested by chance alone
    assert parsed > 1_500 and failed > 500
