"""One-step unfolding, the canonical solution of a layered chart, and checks.

A solution assigns an expression to every state so that each state's
expression is equivalent to the sum of its outputs and of action-prefixed
successor expressions.  One equation loop checks them, after one step of
the fundamental theorem, in two stages.  The first proves them from sound
axioms of Milner's system: expressions are compared by normal forms modulo
ACI of ``+`` and the laws of sequencing.  Provable implies bisimilar, so a
proof is the answer.  The axioms used are not complete, so when they do not
suffice the same loop compares bisimilarity classes instead: bisimilarity
is an exact oracle for provable equivalence on this fragment.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, NoReturn

from .bisim import bisimilarity
from .layering import LabelledPrechart, analysis_of_verified
from .semantics import Prechart, StateId, expr_step, joint_chart
from .syntax import Atom, Expr, Seq, Star, Sum, Zero, atoms, gsum

# canonical solutions of deep charts nest expressions proportionally
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class MeasureError(RuntimeError):
    """The solution recursion failed to descend; the witness must be broken."""


@dataclass
class Solution:
    """An expression assignment for every chart state, plus the companion memo."""

    chart: Prechart
    assign: dict[StateId, Expr]
    companion: dict[tuple[StateId, StateId], Expr] = field(default_factory=dict)


def unfold(e: Expr) -> Expr:
    """One-step unfolding: outputs plus action-prefixed successors.

    Both halves are kept even when empty, so ``0`` unfolds to ``0 + 0``.
    """
    outs, succ = expr_step(e)
    outputs = [Atom(a) for a in sorted(outs)]
    steps = [Seq(Atom(a), f) for a in sorted(succ) for f in succ[a]]
    return Sum(gsum(outputs), gsum(steps))


def _component(first: list[Expr], second: list[Expr]) -> Expr:
    # a star component is the sum of its two halves; entirely empty ones
    # collapse to 0 rather than 0 + 0
    if not first and not second:
        return Zero()
    return Sum(gsum(first), gsum(second))


_OWN = object()  # the anchor of a state's own solution


def _fail(kind: str, x: StateId, y: StateId, *under: StateId) -> NoReturn:
    # formatted only here: a state's repr can be a whole expression tree
    what = f"{kind} {x!r}->{y!r}" + "".join(f" under {z!r}" for z in under)
    raise MeasureError(f"solution recursion failed to decrease: {what}")


class _Terms:
    """The starred term of each state of a verified witness, per anchor, on
    state numbers.

    ``term(x, _OWN)`` is the solution at ``x``; ``term(x, z)`` is the
    companion of ``x`` relative to the loop header ``z``, whose body steps
    back to ``z`` end the term.  Both are memoised in ``memo``.  The steps
    of each state, its loop descent and both measures are read off the
    witness's analysis.
    """

    def __init__(self, L: LabelledPrechart):
        a = analysis_of_verified(L)
        X = L.base
        self.states = X.states
        self.en, self.bd = a.lengths
        self.descent = a.descent
        self.outputs = [[act for act in X.alphabet if act in X.out(x)] for x in X.states]
        self.entry_self: list[list[str]] = [[] for _ in X.states]
        self.entry_steps: list[list[tuple[str, int]]] = [[] for _ in X.states]
        self.body_steps: list[list[tuple[str, int]]] = [[] for _ in X.states]
        for x, rows in enumerate(X.numbered_succ()):
            for act, ys in zip(X.alphabet, rows):
                for y in ys:  # a verified witness tags each state pair once
                    if not a.entry[x] >> y & 1:
                        self.body_steps[x].append((act, y))
                    elif y == x:
                        self.entry_self[x].append(act)
                    else:
                        self.entry_steps[x].append((act, y))
        self.memo: dict[tuple[int, object], Expr] = {}

    def term(self, x: int, anchor: object) -> Expr:
        key = (x, anchor)
        if key in self.memo:
            return self.memo[key]
        en, bd, descent, name = self.en, self.bd, self.descent, self.states
        first_terms = []
        for act, y in self.entry_steps[x]:
            if not (descent[x] >> y & 1 and en[y] < en[x]):
                _fail("entry", name[x], name[y])
            first_terms.append(Seq(Atom(act), self.term(y, x)))
        own = anchor is _OWN
        second_terms: list[Expr] = []
        for act, y in self.body_steps[x]:
            if not own and y == anchor:
                second_terms.append(Atom(act))
                continue
            if not (bd[y] < bd[x] and (own or descent[anchor] >> y & 1)):
                _fail("body", name[x], name[y], *(() if own else (name[anchor],)))
            second_terms.append(Seq(Atom(act), self.term(y, anchor)))
        result = Star(
            _component([Atom(act) for act in self.entry_self[x]], first_terms),
            _component([Atom(act) for act in self.outputs[x]], second_terms),
        )
        self.memo[key] = result
        return result


def canonical_solution(L: LabelledPrechart) -> Solution:
    """The explicit solution of a chart carried by a layering witness.

    Each state is assigned (entry self-loops + entries into the loop)*
    (outputs + body continuations); the companion expression of a loop state
    relative to an anchor follows the same shape but routes body steps back
    to the anchor.  Well-foundedness is enforced at run time: entry
    recursion must descend in loop level and body recursion in body depth,
    and companions are only ever taken inside the anchor's loop.
    """
    terms, name = _Terms(L), L.base.states
    assign = {x: terms.term(i, _OWN) for i, x in enumerate(name)}
    companion = {(name[x], name[z]): t for (x, z), t in terms.memo.items() if z is not _OWN}
    return Solution(L.base, assign, companion)


class _NormalForms:
    """Normal forms modulo sound axioms of Milner's system, interned as ints.

    The axioms: ACI of ``+`` with ``0`` as unit, associativity of ``·``,
    ``0·e = 0``, ``(e+f)·g = e·g + f·g`` and ``(e*f)·g = e*(f·g)``.  A
    normal form is the frozenset of its summands' ids, so ``0`` is the
    empty set.  A summand is a pair ``(head, tail)``: the head is an action
    or the normal form of a star's left operand, and the tail is the normal
    form that follows it, ``None`` for a bare action.  By associativity
    and the star axiom ``(head, tail)·g`` is ``(head, tail·g)``, or
    ``(head, g)`` for a bare action; by distributivity and ``0·g = 0`` a
    sum is sequenced summand by summand.  Equal keys get equal ids, so
    equal normal forms are equal ints.  Expressions are memoised by node
    identity, so no structural comparison of expressions ever runs, and
    both walks are iterative.
    """

    def __init__(self) -> None:
        self.ids: dict = {}
        self.keys: list = []
        # id(node) -> (node, normal form); holding the node keeps its id unique
        self.of_node: dict[int, tuple[Expr, int]] = {}
        self.seqs: dict[tuple[int, int], int] = {}
        self.zero = self.intern(frozenset())

    def intern(self, key) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def seq(self, n: int, g: int) -> int:
        """The normal form of ``n·g``: ``g`` appended to every summand's tail."""
        keys, seqs = self.keys, self.seqs
        stack = [n]
        while stack:
            m = stack[-1]
            if (m, g) in seqs:
                stack.pop()
                continue
            tails = [keys[s][1] for s in keys[m]]
            pending = [t for t in tails if t is not None and (t, g) not in seqs]
            if pending:
                stack += pending
                continue
            summands = (
                self.intern((keys[s][0], g if t is None else seqs[t, g]))
                for s, t in zip(keys[m], tails)
            )
            seqs[m, g] = self.intern(frozenset(summands))
            stack.pop()
        return seqs[n, g]

    def of(self, e: Expr) -> int:
        """The normal form of ``e``."""
        memo = self.of_node
        stack = [e]
        while stack:
            x = stack[-1]
            if id(x) in memo:
                stack.pop()
                continue
            kind = type(x)
            if kind is Zero:
                n = self.zero
            elif kind is Atom:
                n = self.intern(frozenset((self.intern((x.action, None)),)))
            else:
                left, right = memo.get(id(x.left)), memo.get(id(x.right))
                if left is None:
                    stack.append(x.left)
                    continue
                if right is None:
                    stack.append(x.right)
                    continue
                l, r = left[1], right[1]
                if kind is Sum:
                    n = self.intern(self.keys[l] | self.keys[r])
                elif kind is Seq:
                    n = self.seq(l, r)
                else:
                    n = self.intern(frozenset((self.intern((l, r)),)))
            memo[id(x)] = (x, n)
            stack.pop()
        return memo[id(e)][1]


def _first_unsolved(
    X: Prechart, assign: Mapping[StateId, Expr], cls: Callable[[Expr], object]
) -> StateId | None:
    """The first state in ``X.states`` order whose equation fails under ``cls``.

    By the fundamental theorem ``assign[x]`` equals the sum of its outputs
    and of ``a·f`` over its ``a``-derivatives ``f``.  So the equation at
    ``x`` holds when those outputs are ``X.out(x)``, no step leaves
    ``X.alphabet``, and per action the derivatives and the successors'
    assignments have the same classes.  Under normal forms this proves
    equations but decides nothing when it fails; under bisimilarity
    classes it is exact, as the right side's ``a``-derivatives are the
    successors' assignments.

    Canonical solutions pass under normal forms.  Along a body step the
    derivative of ``s(x)`` is the successor's solution itself.  Along an
    entry step into ``y`` it is ``t·s(x)`` for the companion ``t`` of ``y``
    relative to ``x``, which the sequencing axioms rewrite into ``s(y)``,
    because goto-freedom keeps the states of the loop free of outputs.
    """
    alphabet = set(X.alphabet)
    for x in X.states:
        outs, succ = expr_step(assign[x])
        if outs != X.out(x) or not alphabet.issuperset(succ):
            return x
        for a in X.alphabet:
            if {cls(f) for f in succ.get(a, ())} != {cls(assign[y]) for y in X.succ(x, a)}:
                return x
    return None


def _proved(X: Prechart, assign: Mapping[StateId, Expr]) -> bool:
    """``verify_solution``'s first stage: whether the axioms alone prove every equation."""
    return _first_unsolved(X, assign, _NormalForms().of) is None


def verify_solution(
    X: Prechart, solution: Solution | Mapping[StateId, Expr]
) -> tuple[bool, StateId | None]:
    """Check the per-state equations, reporting a failing state.

    Each assigned expression must be bisimilar to the sum of the state's
    outputs and of action-prefixed assignments of its successors.  The
    equation loop ``_first_unsolved`` first compares normal forms; if every
    equation is provable, it is bisimilar.  Otherwise the loop runs again
    on the bisimilarity classes of the joint chart of the assigned
    expressions and reports the first failing state in ``X.states`` order.
    """
    assign = solution.assign if isinstance(solution, Solution) else dict(solution)
    for x in X.states:
        if x not in assign:
            raise ValueError(f"partial assignment: no expression for state {x!r}")
    if _proved(X, assign):
        return True, None
    exprs = list(assign.values())
    R = bisimilarity(joint_chart(exprs, tuple(sorted(set().union(*map(atoms, exprs))))))
    bad = _first_unsolved(X, assign, R.block_index)
    return bad is None, bad


def simplify(e: Expr) -> Expr:
    """Cosmetic unit cleanup only: drop 0 summands and left-0 sequences.

    Iterative, with a per-call memo by node identity: linear in the DAG of
    ``e``, and its result shares what ``e`` shares.
    """
    # id(node) -> (node, simplified); holding the node keeps its id unique
    done: dict[int, tuple[Expr, Expr]] = {}
    stack = [e]
    while stack:
        x = stack[-1]
        if id(x) in done:
            stack.pop()
            continue
        kind = type(x)
        out = x
        if kind in (Sum, Seq, Star):
            left, right = done.get(id(x.left)), done.get(id(x.right))
            if left is None:
                stack.append(x.left)
                continue
            if right is None:
                stack.append(x.right)
                continue
            l, r = left[1], right[1]
            if kind is Sum and type(l) is Zero:
                out = r
            elif kind is Sum and type(r) is Zero or kind is Seq and type(l) is Zero:
                out = l
            elif l is not x.left or r is not x.right:
                out = kind(l, r)
        done[id(x)] = (x, out)
        stack.pop()
    return done[id(e)][1]
