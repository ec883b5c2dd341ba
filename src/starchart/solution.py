"""One-step unfolding, the canonical solution of a layered chart, and checks.

A solution assigns an expression to every state so that each state's
expression is equivalent to the sum of its outputs and of action-prefixed
successor expressions.  Equivalence is decided semantically: bisimilarity is
an exact oracle for provable equivalence on this fragment.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Mapping, NoReturn

from .bisim import bisimilarity
from .layering import BODY, LabelledPrechart, analysis_of_verified
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
    """The starred term of each state of a verified witness, per anchor.

    ``term(x, _OWN)`` is the solution at ``x``; ``term(x, z)`` is the
    companion of ``x`` relative to the loop header ``z``, whose body steps
    back to ``z`` end the term.  Both are memoised in ``memo``.
    """

    def __init__(self, L: LabelledPrechart):
        a = analysis_of_verified(L)
        X = L.base
        self.en = a.longest_paths(a.diredge_adj)
        self.bd = a.longest_paths(a.body_adj)
        self.descent = a.descent
        self.outputs = {x: [act for act in X.alphabet if act in X.out(x)] for x in X.states}
        self.entry_self: dict[StateId, list[str]] = {x: [] for x in X.states}
        self.entry_steps: dict[StateId, list[tuple[str, StateId]]] = {x: [] for x in X.states}
        self.body_steps: dict[StateId, list[tuple[str, StateId]]] = {x: [] for x in X.states}
        for edge in X.edges():
            x, act, y = edge
            if L.tags[edge] == BODY:
                self.body_steps[x].append((act, y))
            elif y == x:
                self.entry_self[x].append(act)
            else:
                self.entry_steps[x].append((act, y))
        self.memo: dict[tuple[StateId, object], Expr] = {}

    def term(self, x: StateId, anchor: object) -> Expr:
        key = (x, anchor)
        if key in self.memo:
            return self.memo[key]
        en, bd, descent = self.en, self.bd, self.descent
        first_terms = []
        for act, y in self.entry_steps[x]:
            if not (y in descent[x] and en[y] < en[x]):
                _fail("entry", x, y)
            first_terms.append(Seq(Atom(act), self.term(y, x)))
        own = anchor is _OWN
        second_terms: list[Expr] = []
        for act, y in self.body_steps[x]:
            if not own and y == anchor:
                second_terms.append(Atom(act))
                continue
            if not (bd[y] < bd[x] and (own or y in descent.get(anchor, ()))):
                _fail("body", x, y, *(() if own else (anchor,)))
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
    terms = _Terms(L)
    assign = {x: terms.term(x, _OWN) for x in L.base.states}
    companion = {key: t for key, t in terms.memo.items() if key[1] is not _OWN}
    return Solution(L.base, assign, companion)


def verify_solution(
    X: Prechart, solution: Solution | Mapping[StateId, Expr]
) -> tuple[bool, StateId | None]:
    """Semantically check the per-state equations, reporting a failing state.

    Each assigned expression must be bisimilar to the sum of the state's
    outputs and of action-prefixed assignments of its successors.  All
    equations are decided by one partition refinement over the joint chart
    of both sides; a state's class depends only on what it reaches, so this
    is the per-equation check.  The first failing state in ``X.states``
    order is reported.
    """
    assign = solution.assign if isinstance(solution, Solution) else dict(solution)
    for x in X.states:
        if x not in assign:
            raise ValueError(f"partial assignment: no expression for state {x!r}")
    rhs = {}
    for x in X.states:
        outputs = [Atom(a) for a in X.alphabet if a in X.out(x)]
        steps = [Seq(Atom(a), assign[y]) for a in X.alphabet for y in X.succ(x, a)]
        rhs[x] = Sum(gsum(outputs), gsum(steps))
    sides = [e for x in X.states for e in (assign[x], rhs[x])]
    alphabet = tuple(sorted(set().union(*map(atoms, sides))))
    R = bisimilarity(joint_chart(sides, alphabet))
    bad = next((x for x in X.states if not R.related(assign[x], rhs[x])), None)
    return bad is None, bad


def simplify(e: Expr) -> Expr:
    """Cosmetic unit cleanup only: drop 0 summands and left-0 sequences."""
    if isinstance(e, Sum):
        left, right = simplify(e.left), simplify(e.right)
        if left == Zero():
            return right
        if right == Zero():
            return left
        return Sum(left, right)
    if isinstance(e, Seq):
        left, right = simplify(e.left), simplify(e.right)
        if left == Zero():
            return Zero()
        return Seq(left, right)
    if isinstance(e, Star):
        return Star(simplify(e.left), simplify(e.right))
    return e
