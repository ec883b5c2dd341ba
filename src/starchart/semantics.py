"""Charts of star expressions and finite prechart (coalgebra) plumbing.

A prechart pairs a per-action output set with finitely many per-action
successors for each state.  A chart is a prechart rooted at a state from
which everything else is reachable.  States are arbitrary hashable values;
expression charts use the expressions themselves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from .syntax import Atom, Expr, Seq, Star, Sum, atoms

StateId = Hashable


@dataclass(frozen=True)
class Prechart:
    """Immutable finite prechart.

    ``states`` fixes the discovery order used for all deterministic
    tie-breaking downstream; transition targets are stored in that order.
    """

    alphabet: tuple[str, ...]
    states: tuple[StateId, ...]
    outputs: Mapping[StateId, frozenset[str]]
    transitions: Mapping[StateId, Mapping[str, tuple[StateId, ...]]]
    root: StateId | None = None

    def __post_init__(self) -> None:
        index = {x: i for i, x in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError("duplicate states")
        object.__setattr__(self, "_index", index)
        alpha = set(self.alphabet)
        for x, acts in self.outputs.items():
            if x not in index:
                raise ValueError(f"output at unknown state {x!r}")
            if not acts <= alpha:
                raise ValueError(f"output action outside alphabet at {x!r}")
        for x, row in self.transitions.items():
            if x not in index:
                raise ValueError(f"transition from unknown state {x!r}")
            for a, targets in row.items():
                if a not in alpha:
                    raise ValueError(f"transition action {a!r} outside alphabet")
                for y in targets:
                    if y not in index:
                        raise ValueError(f"transition target {y!r} not a state")
        if self.root is not None and self.root not in index:
            raise ValueError(f"root {self.root!r} not a state")

    @classmethod
    def make(
        cls,
        alphabet: Iterable[str],
        states: Iterable[StateId],
        outputs: Mapping[StateId, Iterable[str]],
        transitions: Mapping[StateId, Mapping[str, Iterable[StateId]]],
        root: StateId | None = None,
    ) -> "Prechart":
        """Normalise: drop empties, order targets by state discovery index."""
        states = tuple(states)
        index = {x: i for i, x in enumerate(states)}
        outs = {x: frozenset(v) for x, v in outputs.items() if v}
        trans: dict[StateId, dict[str, tuple[StateId, ...]]] = {}
        try:
            for x, row in transitions.items():
                new_row = {}
                for a, targets in row.items():
                    uniq = tuple(sorted(set(targets), key=index.__getitem__))
                    if uniq:
                        new_row[a] = uniq
                if new_row:
                    trans[x] = new_row
        except KeyError as exc:  # a target outside ``states`` has no index to sort by
            raise ValueError(f"transition target {exc.args[0]!r} not a state") from None
        return cls(tuple(alphabet), states, outs, trans, root)

    def index(self, x: StateId) -> int:
        return self._index[x]  # type: ignore[attr-defined]

    def has_state(self, x: StateId) -> bool:
        return x in self._index  # type: ignore[attr-defined]

    def out(self, x: StateId) -> frozenset[str]:
        return self.outputs.get(x, frozenset())

    def succ(self, x: StateId, a: str) -> tuple[StateId, ...]:
        return self.transitions.get(x, {}).get(a, ())

    def edges(self) -> Iterator[tuple[StateId, str, StateId]]:
        """All transitions in (state discovery, alphabet, target) order."""
        for x in self.states:
            for a in self.alphabet:
                for y in self.succ(x, a):
                    yield (x, a, y)

    def underlying_succ(self, x: StateId) -> tuple[StateId, ...]:
        """Successors of ``x`` forgetting action labels, in discovery order."""
        seen: set[StateId] = set()
        for a in self.alphabet:
            seen.update(self.succ(x, a))
        return tuple(sorted(seen, key=self.index))

    def reachable_from(self, x: StateId) -> tuple[StateId, ...]:
        seen = {x}
        order = [x]
        queue = deque([x])
        while queue:
            v = queue.popleft()
            for w in self.underlying_succ(v):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        return tuple(order)

    def reach_plus(self) -> Mapping[StateId, frozenset[StateId]]:
        """States reachable from each state in one or more steps.

        Computed once and memoised on the prechart, as an attribute outside
        the dataclass fields, so the memo dies with the prechart.
        """
        memo = getattr(self, "_reach_plus", None)
        if memo is None:
            memo = MappingProxyType(_reach_plus(self))
            object.__setattr__(self, "_reach_plus", memo)
        return memo

    def __reduce__(self):
        # copies and pickles are rebuilt from the fields, without the memo
        return type(self), (self.alphabet, self.states, self.outputs, self.transitions, self.root)

    def is_chart(self) -> bool:
        return self.root is not None and len(self.reachable_from(self.root)) == len(self.states)


def _reach_plus(X: Prechart) -> dict[StateId, frozenset[StateId]]:
    return _reach_closures({x: X.underlying_succ(x) for x in X.states}, X.states)


def _reach_closures(
    adj: Mapping[StateId, Iterable[StateId]],
    sources: Sequence[StateId],
    known: Mapping[StateId, Iterable[StateId]] = MappingProxyType({}),
) -> dict[StateId, frozenset[StateId]]:
    """The states reachable in one or more steps from each of ``sources``.

    ``adj`` maps every state to its successors.  ``known`` holds the still
    valid closures of states outside ``sources``: a search that meets such
    a state, or a source already done, takes its closure whole instead of
    walking it again.
    """
    closures: dict[StateId, frozenset[StateId]] = {}
    pending = set(sources)
    for x in sources:
        seen: set[StateId] = set()
        stack = list(adj[x])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if v in pending:
                stack.extend(adj[v])
            else:
                seen.update(closures[v] if v in closures else known[v])
        closures[x] = frozenset(seen)
        pending.discard(x)
    return closures


def restriction(X: Prechart, kept: Iterable[StateId], root: StateId | None = None) -> Prechart:
    """Restrict to a transition-closed subset, keeping relative state order."""
    kept_set = set(kept)
    for x in kept_set:
        if not X.has_state(x):
            raise ValueError(f"unknown state {x!r}")
        for y in X.underlying_succ(x):
            if y not in kept_set:
                raise ValueError(f"{x!r} steps outside the restriction to {y!r}")
    states = tuple(x for x in X.states if x in kept_set)
    return Prechart.make(
        X.alphabet,
        states,
        {x: X.out(x) for x in states},
        {x: {a: X.succ(x, a) for a in X.alphabet} for x in states},
        root,
    )


# --- the operational rules ----------------------------------------------------


def expr_step(e: Expr) -> tuple[frozenset[str], Mapping[str, tuple[Expr, ...]]]:
    """Outputs and per-action successors of one expression.

    Atoms output themselves; sums merge both sides; ``e1 e2`` steps into
    ``e2`` when ``e1`` outputs and otherwise sequences the left step;
    ``e1*e2`` behaves as ``e2``, steps from ``e1`` into ``f(e1*e2)``, and
    self-loops on the outputs of ``e1``.  Memoised on the node, so the
    successor expressions of one node are built once; a second call
    returns the same read-only result.  A star is the exception: its step
    contains the star itself (the self-loop and every ``f(e1*e2)``), so a
    memo would tie the node into a reference cycle that outlives its last
    use until the cyclic garbage collector runs.  A star's step is rebuilt
    from the memoised steps of its two children instead.
    """
    step = getattr(e, "_step", None)
    if step is not None:
        return step
    succ: dict[str, list[Expr]] = {}

    def add(a: str, f: Expr) -> None:
        row = succ.setdefault(a, [])
        if f not in row:
            row.append(f)

    out: frozenset[str] = frozenset()
    if isinstance(e, Atom):
        out = frozenset((e.action,))
    elif isinstance(e, Sum):
        louts, lsucc = expr_step(e.left)
        routs, rsucc = expr_step(e.right)
        out = louts | routs
        for a, fs in lsucc.items():
            for f in fs:
                add(a, f)
        for a, fs in rsucc.items():
            for f in fs:
                add(a, f)
    elif isinstance(e, Seq):
        louts, lsucc = expr_step(e.left)
        for a in sorted(louts):
            add(a, e.right)
        for a, fs in lsucc.items():
            for f in fs:
                add(a, Seq(f, e.right))
    elif isinstance(e, Star):
        louts, lsucc = expr_step(e.left)
        routs, rsucc = expr_step(e.right)
        out = routs
        for a, fs in rsucc.items():
            for f in fs:
                add(a, f)
        for a, fs in lsucc.items():
            for f in fs:
                add(a, Seq(f, e))
        for a in sorted(louts):
            add(a, e)
    step = (out, MappingProxyType({a: tuple(fs) for a, fs in succ.items()}))
    if not isinstance(e, Star):
        object.__setattr__(e, "_step", step)
    return step


def _alphabet_for(e: Expr, alphabet: Iterable[str] | None) -> tuple[str, ...]:
    if alphabet is None:
        return tuple(sorted(atoms(e)))
    alpha = tuple(alphabet)
    missing = atoms(e) - set(alpha)
    if missing:
        raise ValueError(f"atoms outside the declared alphabet: {sorted(missing)}")
    return alpha


def chart_of(e: Expr, alphabet: Iterable[str] | None = None) -> Prechart:
    """The chart of ``e``: its closure under outputs and transitions."""
    return joint_chart([e], _alphabet_for(e, alphabet), root=e)


def joint_chart(
    roots: Iterable[Expr], alphabet: tuple[str, ...], root: Expr | None = None
) -> Prechart:
    """The closure of several expressions under outputs and transitions.

    States are discovered breadth-first from the roots in the given order.
    Each transition targets the state object itself (the first discovered
    of equal expressions), so lookups on it hit by identity before any
    structural comparison.  ``alphabet`` must cover every atom of the roots.
    """
    canon: dict[Expr, Expr] = {}  # expression -> its state object
    for e in roots:
        canon.setdefault(e, e)
    order = list(canon)
    outputs: dict[Expr, frozenset[str]] = {}
    transitions: dict[Expr, dict[str, tuple[Expr, ...]]] = {}
    queue = deque(order)
    while queue:
        x = queue.popleft()
        outs, succ = expr_step(x)
        outputs[x] = outs
        row = transitions[x] = {}
        for a in alphabet:
            targets = []
            for y in succ.get(a, ()):
                state = canon.get(y)
                if state is None:
                    state = canon[y] = y
                    order.append(y)
                    queue.append(y)
                targets.append(state)
            if targets:
                row[a] = tuple(targets)
    return Prechart.make(alphabet, order, outputs, transitions, root=canon.get(root, root))


# --- coalgebra constructions ---------------------------------------------------


def coproduct(
    X: Prechart, Y: Prechart
) -> tuple[Prechart, dict[StateId, StateId], dict[StateId, StateId]]:
    """Disjoint union with injection maps; the result has no root."""
    if X.alphabet != Y.alphabet:
        raise ValueError("alphabet mismatch")
    inl = {x: (0, x) for x in X.states}
    inr = {y: (1, y) for y in Y.states}
    states = tuple(inl[x] for x in X.states) + tuple(inr[y] for y in Y.states)
    outputs = {inl[x]: X.out(x) for x in X.states}
    outputs.update({inr[y]: Y.out(y) for y in Y.states})
    transitions: dict[StateId, dict[str, tuple[StateId, ...]]] = {}
    for x in X.states:
        transitions[inl[x]] = {
            a: tuple(inl[y] for y in X.succ(x, a)) for a in X.alphabet if X.succ(x, a)
        }
    for y in Y.states:
        transitions[inr[y]] = {
            a: tuple(inr[z] for z in Y.succ(y, a)) for a in Y.alphabet if Y.succ(y, a)
        }
    return Prechart.make(X.alphabet, states, outputs, transitions), inl, inr


def generated(X: Prechart, x: StateId) -> Prechart:
    """Smallest subcoalgebra containing ``x``, rooted at ``x``."""
    if not X.has_state(x):
        raise ValueError(f"unknown state {x!r}")
    order = X.reachable_from(x)
    return Prechart.make(
        X.alphabet,
        order,
        {v: X.out(v) for v in order},
        {v: {a: X.succ(v, a) for a in X.alphabet} for v in order},
        root=x,
    )


@dataclass(frozen=True)
class HomViolation:
    """Why a map fails to be a homomorphism, pinned to one state and action."""

    reason: str  # "output" | "missing-edge" | "extra-edge"
    state: StateId
    action: str
    target: StateId | None = None


def is_homomorphism(
    h: Mapping[StateId, StateId], X: Prechart, Y: Prechart
) -> tuple[bool, HomViolation | None]:
    """Check the functional-bisimulation conditions for ``h : X -> Y``.

    True iff outputs are preserved and reflected and the image of each
    successor set is exactly the successor set of the image.
    """
    for x in X.states:
        if x not in h or not Y.has_state(h[x]):
            raise ValueError(f"map not total into the codomain at {x!r}")
    if X.alphabet != Y.alphabet:
        raise ValueError("alphabet mismatch")
    for x in X.states:
        hx = h[x]
        for a in X.alphabet:
            if (a in X.out(x)) != (a in Y.out(hx)):
                return False, HomViolation("output", x, a)
            image = {h[y] for y in X.succ(x, a)}
            actual = set(Y.succ(hx, a))
            for y in image - actual:
                return False, HomViolation("extra-edge", x, a, y)
            for y in actual - image:
                return False, HomViolation("missing-edge", x, a, y)
    return True, None


def quotient(X: Prechart, R: "PartitionRelation") -> tuple[Prechart, dict[StateId, StateId]]:
    """Quotient by a verified bisimulation equivalence: the rerouting along
    the splitting that keeps one representative per block.

    Block representatives are the least members in discovery order; the
    returned projection is a homomorphism whose kernel is ``R``.
    """
    from .bisim import check_bisimulation  # cycle: bisim builds on semantics
    from .rerouting import Splitting, rerouting  # and rerouting on both

    if set(R.universe) != set(X.states):
        raise ValueError("relation universe differs from the state set")
    ok, why = check_bisimulation(X, X, R)
    if not ok:
        raise ValueError(f"relation is not a bisimulation: {why}")
    projection = {x: min(R.block_containing(x), key=X.index) for x in X.states}
    reps = tuple(x for x in X.states if projection[x] == x)
    return rerouting(X, Splitting(reps, projection)), projection


def kernel_partition(h: Mapping[StateId, StateId], states: tuple[StateId, ...]) -> "PartitionRelation":
    """The kernel of a map as a partition of ``states``."""
    from .bisim import PartitionRelation

    groups: dict[Any, list[StateId]] = {}
    for x in states:
        groups.setdefault(h[x], []).append(x)
    return PartitionRelation.from_blocks(states, groups.values())
