"""One-step unfolding, the canonical solution of a layered chart, and checks.

A solution assigns an expression to every state so that each state's
expression is equivalent to the sum of its outputs and of action-prefixed
successor expressions.  One equation loop checks them, after one step of
the fundamental theorem, in two stages.  The first proves them from sound
axioms of Milner's system: terms are compared by normal forms modulo ACI
of ``+`` and the laws of sequencing.  Provable implies bisimilar, so a
proof is the answer.  The axioms used are not complete, so when they do not
suffice the same loop compares bisimilarity classes instead: bisimilarity
is an exact oracle for provable equivalence on this fragment.

The canonical solution of a witness is built by one recursion, as
expressions or straight as normal forms.  A certificate's solution is
proved on its normal forms, whose derivatives are taken on the normal
forms themselves, as Antimirov's partial derivatives are taken on
expressions, so proving it builds no expression.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Mapping, NoReturn, Sequence

from .bisim import _coarsest
from .layering import InvalidWitnessError, LabelledPrechart, _Analysis
from .semantics import Prechart, StateId, _walk, expr_step
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


def _starred(first, second) -> Expr:
    """The star of two sums, each given by its two halves, lists of steps
    ``(a, t)``: ``a·t``, or ``a`` for a ``t`` of ``None``.  A first sum of
    ``0`` is dropped, as ``0*t = t`` by the unfolding, ``0·e = 0`` and
    ``0 + t = t``: the star is then the second sum itself."""
    sums = []
    for halves in (first, second):
        # e + 0 = e: a sum is built from its non-empty halves only, so it
        # is a lone half when the other is empty and 0 when both are
        parts = []
        for half in filter(None, halves):
            terms = []
            for a, t in half:
                terms.append(Atom(a) if t is None else Seq(Atom(a), t))
            parts.append(gsum(terms))
        sums.append(gsum(parts))
    return sums[1] if type(sums[0]) is Zero else Star(*sums)


_OWN = object()  # the anchor of a state's own solution


def _fail(kind: str, x: StateId, y: StateId, *under: StateId) -> NoReturn:
    # formatted only here: a state's repr can be a whole expression tree
    what = f"{kind} {x!r}->{y!r}" + "".join(f" under {z!r}" for z in under)
    raise MeasureError(f"solution recursion failed to decrease: {what}")


class _Terms:
    """The starred term of each state of a verified witness by state number
    (``layering._Analysis``), per anchor.

    ``term(x, _OWN)`` is the solution at ``x``; ``term(x, z)`` is the
    companion of ``x`` relative to the loop header ``z``, whose body steps
    back to ``z`` end the term.  Both are memoised in ``memo``.  The steps
    of each state are read off the witness's output sets and successor
    numbers, and its loop descent and both measures off its relations; a
    witness that does not verify raises ``InvalidWitnessError``.  A term is
    the star of two sums of prefixed steps ``(a, t)``, built by ``starred``
    as in ``_starred``: as an expression by ``_starred`` itself, or as a
    normal form by ``_NormalForms.starred``.  A failed descent names its
    states by ``names``, their numbers by default.
    """

    def __init__(self, a: _Analysis, starred, names: Sequence[StateId] | None = None):
        if a.violation is not None:
            raise InvalidWitnessError(str(a.violation))
        self.names = a.states if names is None else names
        self.en, self.bd = a.lengths
        self.descent = a.descent
        # per state: its outputs and entry self-loops as steps (a, None),
        # and its other entry steps and its body steps (a, y)
        self.outputs: list[list[tuple[str, None]]] = []
        self.entry_self: list[list[tuple[str, None]]] = []
        self.entry_steps: list[list[tuple[str, int]]] = []
        self.body_steps: list[list[tuple[str, int]]] = []
        for x, (outs_x, rows) in enumerate(zip(a.outs, a.numbered)):
            outputs, entry_self, entry_steps, body_steps = [], [], [], []
            for act, ys in zip(a.alphabet, rows):
                if act in outs_x:
                    outputs.append((act, None))
                for y in ys:  # a verified witness tags each state pair once
                    if not a.entry[x] >> y & 1:
                        body_steps.append((act, y))
                    elif y == x:
                        entry_self.append((act, None))
                    else:
                        entry_steps.append((act, y))
            self.outputs.append(outputs)
            self.entry_self.append(entry_self)
            self.entry_steps.append(entry_steps)
            self.body_steps.append(body_steps)
        self.starred = starred
        self.memo: dict[tuple[int, object], Any] = {}

    def term(self, x: int, anchor: object = _OWN) -> Any:
        key = (x, anchor)
        if key in self.memo:
            return self.memo[key]
        en, bd, descent, name = self.en, self.bd, self.descent, self.names
        first_terms = []
        for act, y in self.entry_steps[x]:
            if not (descent[x] >> y & 1 and en[y] < en[x]):
                _fail("entry", name[x], name[y])
            first_terms.append((act, self.term(y, x)))
        own = anchor is _OWN
        second_terms = []
        for act, y in self.body_steps[x]:
            if not own and y == anchor:
                second_terms.append((act, None))
                continue
            if not (bd[y] < bd[x] and (own or descent[anchor] >> y & 1)):
                _fail("body", name[x], name[y], *(() if own else (name[anchor],)))
            second_terms.append((act, self.term(y, anchor)))
        result = self.starred((self.entry_self[x], first_terms), (self.outputs[x], second_terms))
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
    name = L.base.states
    terms = _Terms(L.analysis, _starred, name)
    assign = dict(zip(name, map(terms.term, range(len(name)))))
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
    all four walks are iterative.  ``of`` expands each node once and
    combines it once, so a subterm that both inputs of a pair share, when
    ``cli`` parses them into one table, is normalised once.

    ``of`` leaves out the one star axiom, Milner's unfolding ``h*t =
    h·(h*t) + t``.  ``folded`` rewrites a normal form by three instances of
    it afterwards, so only a caller that compares two forms which differ
    pays for it, and solutions and their derivatives never do.
    """

    def __init__(self) -> None:
        self.ids: dict = {}
        self.keys: list = []
        # id(node) -> (node, normal form); holding the node keeps its id unique
        self.of_node: dict[int, tuple[Expr, int]] = {}
        self.seqs: dict[tuple[int, int], int] = {}
        self.steps: dict[int, tuple[frozenset[str], dict[str, set[int]]]] = {}
        self.folds: dict[int, int] = {}
        self.star_ends: dict[int, frozenset[int]] = {}
        self.zero = self.intern(frozenset())

    def intern(self, key) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def starred(self, first, second) -> int:
        """The normal form of ``_starred(first, second)``: the prefixed
        step ``(a, t)`` is the summand of that key, and a head of ``0`` is
        dropped, ``0*t = t``, as ``_starred`` drops it."""
        intern = self.intern
        head = intern(frozenset(map(intern, chain(*first))))
        tail = intern(frozenset(map(intern, chain(*second))))
        return tail if head == self.zero else intern(frozenset((intern((head, tail)),)))

    def step(self, n) -> tuple[frozenset[str], dict[str, set[int]]]:
        """Outputs and per-action derivatives of the normal form ``n``.

        Read off its summands: ``(a, None)`` outputs ``a``; ``(a, t)``
        steps by ``a`` to ``t``; a star summand ``s = (h, t)`` steps to
        ``d·{s}`` for each derivative ``d`` of ``h``, by each output of
        ``h`` back to ``{s}``, and as ``t`` does.  So ``n`` is provably the
        sum of its outputs and of ``a·d`` over its derivatives: ``e``
        equals its normal form by the axioms, and the star axiom unfolds
        ``h*t`` to ``h·(h*t) + t``.  Memoised and iterative; a star's head
        and tail are interned before the normal forms it is a summand of.
        """
        keys, steps = self.keys, self.steps
        stack = [n]
        while stack:
            m = stack[-1]
            if m in steps:
                stack.pop()
                continue
            pending = []
            for s in keys[m]:
                head, tail = keys[s]
                if type(head) is int and (head not in steps or tail not in steps):
                    pending += (head, tail)
            if pending:
                stack += pending
                continue
            outs: set[str] = set()
            succ: dict[str, set[int]] = {}
            for s in keys[m]:
                head, tail = keys[s]
                if type(head) is str:
                    if tail is None:
                        outs.add(head)
                    else:
                        succ.setdefault(head, set()).add(tail)
                    continue
                star = self.intern(frozenset((s,)))
                (houts, hsucc), (touts, tsucc) = steps[head], steps[tail]
                outs |= touts
                for a, ds in tsucc.items():
                    succ.setdefault(a, set()).update(ds)
                for a, ds in hsucc.items():
                    row = succ.setdefault(a, set())
                    for d in ds:
                        row.add(self.seq(d, star))
                for a in houts:
                    succ.setdefault(a, set()).add(star)
            steps[m] = (frozenset(outs), succ)
            stack.pop()
        return steps[n]

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
        """The normal form of ``e``: each node is expanded once, and
        combined once, when the ``None`` above it on the stack is reached."""
        memo, keys, intern = self.of_node, self.keys, self.intern
        stack = [e]
        while stack:
            x = stack.pop()
            if x is None:
                x = stack.pop()
                l, r = memo[id(x.left)][1], memo[id(x.right)][1]
                kind = type(x)
                if kind is Sum:
                    n = intern(keys[l] | keys[r])
                elif kind is Seq:
                    n = self.seq(l, r)
                else:
                    n = intern(frozenset((intern((l, r)),)))
            elif id(x) in memo:
                continue
            elif type(x) is Zero:
                n = self.zero
            elif type(x) is Atom:
                n = intern(frozenset((intern((x.action, None)),)))
            else:
                stack += (x, None, x.right, x.left)
                continue
            memo[id(x)] = (x, n)
        return memo[id(e)][1]

    def folded(self, n: int) -> int:
        """``n`` with star unfoldings folded, bottom up, by three instances
        of Milner's axioms, each applied in context, so the result is
        provably equal to ``n``.  With the unfolding ``U(s) = h·{s} + t`` of
        a star summand ``s = (h, t)``:

        * ``0*t = t``: a star whose folded head is ``0`` becomes the
          summands of its tail, by the unfolding, ``0·e = 0`` and ``0 + t = t``;
        * a sum that holds every summand of ``U(s)`` holds ``s`` in their
          place: the unfolding, read right to left;
        * a sum that holds ``s`` drops the summands of ``U(s)``: ``s = s +
          U(s)`` by the unfolding and idempotence.

        The stars tried on a sum are its star summands and those whose
        singleton ends the tail of one of its summands, as every summand of
        ``h·{s}`` does; inner ones first, and again until none applies.
        That ends, as every star tried was built before, and each
        application shrinks the sum or swaps a summand ``u`` for a star
        ``s`` with ``U(s) = {u}``: either ``u = σ·{s}`` contains ``s``, or
        ``u = x*0`` and ``s`` is ``u*0`` or ``u*u``, which only ever swap
        on to larger stars, so no chain of swaps returns to ``u``.  The
        tails of a folded form are folded forms, so the stars that end
        each, those that end the tail of every summand and the one summand
        of a singleton star, are kept per folded form in ``star_ends``.
        Memoised and iterative.
        """
        keys, folds, ends, intern = self.keys, self.folds, self.star_ends, self.intern
        stack = [n]
        while stack:
            m = stack[-1]
            if m in folds:
                stack.pop()
                continue
            # the ints of a summand key are a star's head and a tail
            pending = [c for s in keys[m] for c in keys[s] if type(c) is int and c not in folds]
            if pending:
                stack += pending
                continue
            summands: set[int] = set()
            for s in keys[m]:
                head, tail = keys[s]
                if type(head) is str:
                    summands.add(s if tail is None else intern((head, folds[tail])))
                elif folds[head] == self.zero:
                    summands |= keys[folds[tail]]
                else:
                    summands.add(intern((folds[head], folds[tail])))
            changed = True
            while changed:
                stars, tails, changed = set(), set(), False
                for s in summands:
                    head, tail = keys[s]
                    tails.add(tail)
                    if type(head) is int:
                        stars.add(s)
                    if tail is not None:
                        stars |= ends[tail]
                for s in sorted(stars):
                    head, tail = keys[s]
                    unfolding = keys[self.seq(head, intern(frozenset((s,))))] | keys[tail]
                    if not unfolding.isdisjoint(summands) if s in summands else unfolding <= summands:
                        summands -= unfolding
                        summands.add(s)
                        changed = True
            r = folds[m] = intern(frozenset(summands))
            common = frozenset.intersection(*map(ends.get, tails)) if tails and None not in tails else frozenset()
            ends[r] = common | summands if len(summands) == 1 and summands <= stars else common
            stack.pop()
        return folds[n]


def _first_unsolved(chart: tuple, assign: Sequence[Any], step: Callable, cls: Callable) -> int | None:
    """The first state number whose equation fails under ``cls``, on a
    chart by state number, ``(alphabet, outs, numbered)`` (as in
    ``layering._Analysis``), and an assignment ``assign`` by state number.

    ``step`` gives a term's outputs and per-action derivatives, and
    ``assign[x]`` equals the sum of its outputs and of ``a·f`` over its
    ``a``-derivatives ``f``.  So the equation at ``x`` holds when those
    outputs are ``x``'s output set, no step leaves the alphabet, and per
    action the derivatives and the successors' assignments have the same
    classes.  Under normal forms this proves equations but decides nothing
    when it fails: on expressions stepped by ``expr_step`` and classed by
    ``_NormalForms.of``, or on normal forms stepped by ``_NormalForms.step``
    and compared as the ints they are, which is the same verdict, as a
    normal form's derivatives are those of its expression.  Under
    bisimilarity classes it is exact, as the right side's ``a``-derivatives
    are the successors' assignments.

    Canonical solutions pass under normal forms.  Along a body step the
    derivative of ``s(x)`` is the successor's solution itself.  Along an
    entry step into ``y`` it is ``t·s(x)`` for the companion ``t`` of ``y``
    relative to ``x``, which the sequencing axioms rewrite into ``s(y)``,
    because goto-freedom keeps the states of the loop free of outputs.
    """
    alphabet, outs, numbered = chart
    actions = set(alphabet)
    for x, (outs_x, rows) in enumerate(zip(outs, numbered)):
        got, succ = step(assign[x])
        if got != outs_x or not actions.issuperset(succ):
            return x
        for a, js in zip(alphabet, rows):
            fs = succ.get(a, ())
            if (fs or js) and {cls(f) for f in fs} != {cls(assign[j]) for j in js}:
                return x
    return None


def _proved(chart: tuple, assign: Sequence[Expr]) -> bool:
    """``verify_solution``'s first stage: whether the axioms alone prove
    every equation, on a chart and an assignment by state number."""
    return _first_unsolved(chart, assign, expr_step, _NormalForms().of) is None


def _witness_proved(witness: _Analysis) -> bool:
    """Whether the axioms alone prove the canonical solution of the verified
    witness by state number ``witness`` (``layering._Analysis``), built
    straight as normal forms."""
    forms = _NormalForms()
    terms = _Terms(witness, forms.starred)
    solution = list(map(terms.term, witness.states))
    chart = witness.alphabet, witness.outs, witness.numbered
    return _first_unsolved(chart, solution, forms.step, int) is None


def verify_solution(
    X: Prechart, solution: Solution | Mapping[StateId, Expr]
) -> tuple[bool, StateId | None]:
    """Check the per-state equations, reporting a failing state.

    Each assigned expression must be bisimilar to the sum of the state's
    outputs and of action-prefixed assignments of its successors.  The
    equation loop ``_first_unsolved`` first compares normal forms; if every
    equation is provable, it is bisimilar.  Otherwise the loop runs again
    on the bisimilarity classes of the assigned expressions, which
    ``bisim._coarsest`` numbers on their charting walk (as ``bisim._decide``
    does), and reports the first failing state in ``X.states`` order.
    """
    assign = solution.assign if isinstance(solution, Solution) else dict(solution)
    for x in X.states:
        if x not in assign:
            raise ValueError(f"partial assignment: no expression for state {x!r}")
    chart = X.alphabet, list(map(X.out, X.states)), X.numbered_succ()
    values = list(map(assign.__getitem__, X.states))
    if _proved(chart, values):
        return True, None
    exprs = list(assign.values())
    states, outs, numbered = _walk(exprs, tuple(sorted(set().union(*map(atoms, exprs)))))
    block_of = dict(zip(states, _coarsest(outs, numbered)[0][-1]))
    bad = _first_unsolved(chart, values, expr_step, block_of.__getitem__)
    return bad is None, None if bad is None else X.states[bad]

