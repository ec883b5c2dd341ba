"""Syntax of 1-free star expressions: trees, concrete syntax, size measures.

Expressions are built from deadlock ``0``, atomic actions, alternative
composition ``e + f``, sequential composition ``ef``, and the binary star
``e*f`` (iterate ``e``, then proceed as ``f``).  There is no constant 1 and
no unary Kleene star.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields
from typing import Iterable, NoReturn

ACTION_TOKEN = re.compile(r"[a-z][a-z0-9_]*")


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownActionError(ParseError):
    """An atom that is not in (and cannot be split over) the alphabet."""


def declare_alphabet(actions: Iterable[str]) -> tuple[str, ...]:
    """Validate an alphabet declaration, preserving declaration order."""
    seen: list[str] = []
    for a in actions:
        if not ACTION_TOKEN.fullmatch(a):
            raise ValueError(f"invalid action name: {a!r}")
        if a not in seen:
            seen.append(a)
    return tuple(seen)


@dataclass(frozen=True)
class Expr:
    """Base class of expression nodes; immutable, compared structurally.

    A node's hash is stored in it when it is built, from its children's:
    ``hash(("Atom", a))``, ``hash("Zero")`` or ``hash((name, hash(left),
    hash(right)))``.  ``Sum``, ``Seq`` and ``Star`` write ``left``,
    ``right`` and the hash straight into the node's ``__dict__``, past the
    frozen ``__setattr__``.  Equality compares hashes first, then walks
    both expressions on an explicit stack, expanding each pair of nodes
    once, so it is linear in the DAGs.  Other facts (``atoms``, ``size_bound``,
    ``star_height``, ``can_terminate`` and, at every node but a star,
    ``semantics.expr_step``) are memoised on the node on first use, as
    attributes outside the dataclass fields: equality and repr see only the
    tree.  A memo write stores the value every caller computes, so racing
    threads are harmless, and the memos die with the expression.  Equal
    subterms of one ``parse`` are one node, so they share these memos.
    """

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        stack = [(self, other)]
        # a pair of binary nodes is expanded once, so shared subterms are
        # not walked again: comparing two DAGs is linear in their pairs
        expanded = set()
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            kind = type(x)
            if kind is not type(y) or x._hash != y._hash:
                return False
            if kind is Atom:
                if x.action != y.action:
                    return False
            elif kind is not Zero:
                pair = (id(x), id(y))
                if pair not in expanded:
                    expanded.add(pair)
                    stack += ((x.left, y.left), (x.right, y.right))
        return True

    def __reduce__(self):
        # Copies and pickles are rebuilt from the fields alone: a stored
        # hash is only valid in the process that computed it.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __str__(self) -> str:
        return render(self)


_set = object.__setattr__


def _node(cls):
    # Atom and the binary classes store the hash in their own __init__,
    # which dataclass keeps (Zero's is a class attribute); all inherit
    # __eq__ and __hash__ from Expr, since eq=False generates neither.
    return dataclass(frozen=True, eq=False)(cls)


@_node
class Zero(Expr):
    """Deadlock: no outputs and no transitions."""

    _hash = hash("Zero")


@_node
class Atom(Expr):
    action: str

    def __init__(self, action: str):
        _set(self, "action", action)
        _set(self, "_hash", hash(("Atom", action)))


def _binary_init(name: str):
    # The fields go straight into the node's dict: three item writes cost
    # about half of three object.__setattr__ calls, and parse and
    # expr_step build a node per step.  On 3.11 this materialises the dict,
    # so each later read of a field costs ~17 ns more than from the inline
    # values that object.__setattr__ leaves; the bench still gains.
    def __init__(self, left: Expr, right: Expr):
        d = self.__dict__
        d["left"] = left
        d["right"] = right
        d["_hash"] = hash((name, left._hash, right._hash))

    return __init__


@_node
class Sum(Expr):
    left: Expr
    right: Expr
    __init__ = _binary_init("Sum")


@_node
class Seq(Expr):
    left: Expr
    right: Expr
    __init__ = _binary_init("Seq")


@_node
class Star(Expr):
    """Binary star: iterate ``left``, then continue as ``right``."""

    left: Expr
    right: Expr
    __init__ = _binary_init("Star")


_MISSING = object()


def _memo_fold(e: Expr, slot: str, leaf, combine):
    """A bottom-up measure of ``e``, memoised in ``slot`` of every node visited.

    ``leaf(x)`` is the value at ``Zero`` and ``Atom``; ``combine`` maps each
    binary node class to a function of its children's values.  Iterative,
    so deep trees are fine.
    """
    value = getattr(e, slot, _MISSING)
    if value is not _MISSING:
        return value
    stack = [e]
    while stack:
        x = stack[-1]
        join = combine.get(type(x))
        if join is not None:
            left = getattr(x.left, slot, _MISSING)
            if left is _MISSING:
                stack.append(x.left)
                continue
            right = getattr(x.right, slot, _MISSING)
            if right is _MISSING:
                stack.append(x.right)
                continue
            value = join(left, right)
        elif isinstance(x, (Zero, Atom)):
            value = leaf(x)
        else:
            raise TypeError(f"not an expression: {x!r}")
        object.__setattr__(x, slot, value)
        stack.pop()
    return value


_ATOMS = {Sum: operator.or_, Seq: operator.or_, Star: operator.or_}
_SIZE_BOUND = {Sum: operator.add, Seq: lambda l, r: l * (1 + r), Star: operator.add}
_STAR_HEIGHT = {Sum: max, Seq: max, Star: lambda l, r: 1 + max(l, r)}
# a sum can terminate when either side can, a sequence when both sides can,
# and e1*e2 exactly when e2 can, since every way out of the loop is via e2
_CAN_TERMINATE = {Sum: operator.or_, Seq: operator.and_, Star: lambda l, r: r}


def atoms(e: Expr) -> frozenset[str]:
    """Action names occurring in ``e``."""
    return _memo_fold(
        e, "_atoms", lambda x: frozenset((x.action,)) if isinstance(x, Atom) else frozenset(), _ATOMS
    )


# --- parsing ---------------------------------------------------------------
#
# Grammar (precedence low to high): sum, sequencing (juxtaposition or "."),
# binary star.  Star operands are atoms: an action, "0", or a parenthesised
# expression.  "+" parses right-nested, juxtaposition left-nested.


# One token per match: a run that may name actions, or any other single
# non-space character.
_TOKEN = re.compile(ACTION_TOKEN.pattern + r"|\S")
_PUNCTUATION = frozenset("+*().0")
# the tokens that cannot begin an operand
_NON_OPERAND = frozenset("+*).")


def _split_actions(word: str, alphabet: set[str]) -> list[str] | None:
    # A split of an alphanumeric run into declared actions and "0", so "aa"
    # means a.a under alphabet {a}, "a0" means a.0 and "abc" means a.bc
    # under {a, ab, bc}, while a declared multi-character action still
    # lexes as itself; None if the run does not split.  No action starts
    # with "0", so a "0" is split off where it starts a remainder.  The
    # search runs depth first over run positions, on an explicit stack,
    # trying the longest part first, so where the greedy longest-prefix
    # split succeeds it is the split found.  A position from which no split
    # ends is remembered and never tried again, and only parts up to the
    # longest declared action can match, so the search is linear in the
    # run's length times the longest action.
    if word in alphabet:
        return [word]
    n = len(word)
    longest = max(map(len, alphabet), default=0)
    dead: set[int] = set()
    # where each part of the split so far starts, then where the next one
    # would; and per start, the longest part still to try there
    starts, lengths = [0], [min(longest, n)]
    while starts:
        i = starts[-1]
        if i == n:
            return [word[j:k] for j, k in zip(starts, starts[1:])]
        k = lengths[-1]
        while k and (i + k in dead or (part := word[i:i + k]) != "0" and part not in alphabet):
            k -= 1
        if k:
            lengths[-1] = k - 1
            starts.append(i + k)
            lengths.append(min(longest, n - i - k))
        else:
            dead.add(i)
            starts.pop()
            lengths.pop()
    return None


def _position(text: str, alphabet: set[str], k: int) -> int:
    # Where the k-th token starts (len(text) past the last one).  Only an
    # error needs a position, so the text is lexed again to find it.
    for m in _TOKEN.finditer(text):
        if k == 0:
            return m.start()
        t = m.group()
        k -= 1 if t in alphabet or t in _PUNCTUATION else len(_split_actions(t, alphabet))
        if k < 0:
            return m.start()
    return len(text)


def _tokens(text: str, alphabet: set[str]) -> list[str]:
    # One pass of the regex engine; a run outside the alphabet is split
    # over it, and positions are found only for an error.
    raw = _TOKEN.findall(text)
    known = alphabet | _PUNCTUATION
    if known.issuperset(raw):
        return raw
    out: list[str] = []
    for t in raw:
        if t in known:
            out.append(t)
            continue
        if not "a" <= t[0] <= "z":
            raise ParseError(f"unexpected character {t!r}", _position(text, alphabet, len(out)))
        parts = _split_actions(t, alphabet)
        if parts is None:
            raise UnknownActionError(f"unknown action {t!r}", _position(text, alphabet, len(out)))
        out += parts
    return out


def parse(text: str, alphabet: Iterable[str]) -> Expr:
    """Parse expression source over the declared alphabet.

    Equal subterms of one parse are one node, so they share their memos:
    a table that the call owns, and drops on return, maps each action and
    ``0`` to one leaf and each (class, left, right) to one node, keyed by
    the identities of the already shared children.  Two parses share no
    node; ``cli`` parses the two inputs of a pair into one table, so equal
    subterms of both are one node.  The root carries the ``atoms`` memo,
    the actions read.

    Recursive descent run on an explicit stack, one frame per open
    parenthesis, so nesting depth is bounded by memory, not the C stack.
    """
    return _parse(text, set(declare_alphabet(alphabet)), {})


def _parse(text: str, alpha: set[str], shared: dict) -> Expr:
    # ``parse`` under the declared actions ``alpha``, into the caller's table
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


# --- printing --------------------------------------------------------------


# A separating space is only needed where two alphanumeric tokens would
# otherwise merge into one.
_WORD_END = "abcdefghijklmnopqrstuvwxyz0123456789_"
_WORD_START = "abcdefghijklmnopqrstuvwxyz0123456789"


def render(e: Expr) -> str:
    """Print with minimal parentheses; ``parse(render(e))`` equals ``e``.

    Iterative: pieces are emitted left to right from an explicit stack.
    """
    return _render(e, None)


def _render(e: Expr, texts: dict[int, str] | None) -> str:
    # ``render``, where a node whose id is in the caller's table ``texts``
    # is emitted as its entry there, whatever its kind: a node prints the
    # same wherever it stands, as its parent adds the parentheses and the
    # space around it.  A leaf prints as cheaply as its entry is copied, so
    # only binary nodes are looked up.  The caller keeps the nodes alive, so
    # their ids are unique.
    out: list[str] = []
    # stack items: an expression to print, a literal piece, or a 1-tuple
    # holding a sequence's right operand, which marks the point before it
    stack: list = [e]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is str:
            out.append(x)
        elif kind is Atom:
            out.append(x.action)
        elif kind is Zero:
            out.append("0")
        elif kind is tuple:
            # the first character of the right operand's text, which is its
            # left operand's for a star, whose operands are Atom and Zero
            # leaves or parenthesised
            y = x[0].left if type(x[0]) is Star else x[0]
            first = y.action[0] if type(y) is Atom else "0" if type(y) is Zero else "("
            if out[-1][-1] in _WORD_END and first in _WORD_START:
                out.append(" ")
        elif texts is not None and (text := texts.get(id(x))) is not None:
            out.append(text)
        elif kind is Sum:
            stack += (x.right, " + ")
            stack += (")", x.left, "(") if type(x.left) is Sum else (x.left,)
        elif kind is Seq:
            stack += (")", x.right, "(") if type(x.right) in (Sum, Seq) else (x.right,)
            stack.append((x.right,))
            stack += (")", x.left, "(") if type(x.left) is Sum else (x.left,)
        elif kind is Star:
            stack += (x.right,) if type(x.right) in (Atom, Zero) else (")", x.right, "(")
            stack.append("*")
            stack += (x.left,) if type(x.left) in (Atom, Zero) else (")", x.left, "(")
        else:
            raise TypeError(f"not an expression: {x!r}")
    return "".join(out)


# --- generalised sums and measures ------------------------------------------


def gsum(terms: Iterable[Expr]) -> Expr:
    """Right-nested sum of ``terms``; empty is 0, a singleton is itself."""
    items = list(terms)
    if not items:
        return Zero()
    out = items[-1]
    for t in reversed(items[:-1]):
        out = Sum(t, out)
    return out


def star_height(e: Expr) -> int:
    return _memo_fold(e, "_star_height", lambda x: 0, _STAR_HEIGHT)


def size_bound(e: Expr) -> int:
    """Upper bound on the number of states of the chart of ``e``."""
    return _memo_fold(e, "_size_bound", lambda x: 1, _SIZE_BOUND)


def can_terminate(e: Expr) -> bool:
    """Whether some expression reachable from ``e`` has an output."""
    return _memo_fold(e, "_can_terminate", lambda x: isinstance(x, Atom), _CAN_TERMINATE)
