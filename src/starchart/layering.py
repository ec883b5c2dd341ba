"""Entry/body labellings of precharts and layering witnesses.

A labelling tags every transition as an entry (descending into a loop) or a
body step (staying at the current loop level).  A layering witness is a
labelling that is flat, fully specified, layered and goto-free; charts of
star expressions always carry one, derived syntactically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .semantics import Prechart, StateId, coproduct, expr_step, restriction
from .syntax import Expr, Seq, Star, Sum, can_terminate, star_height

Edge = tuple[StateId, str, StateId]

ENTRY = "e"
BODY = "b"

_NO_STATE = object()  # sentinel: no forbidden state in a closure


class InvalidWitnessError(ValueError):
    """An operation required a verified layering witness and got none."""


@dataclass(frozen=True)
class LabelledPrechart:
    """A prechart whose every transition carries an entry/body tag."""

    base: Prechart
    tags: Mapping[Edge, str]

    def __post_init__(self) -> None:
        # a read-only copy: the memoised analysis (see ``_checked``) then
        # cannot go stale through the caller's mapping
        tags = MappingProxyType(dict(self.tags))
        object.__setattr__(self, "tags", tags)
        edges = set(self.base.edges())
        if tags.keys() != edges:
            missing = edges - tags.keys()
            extra = tags.keys() - edges
            raise ValueError(f"tags must cover the transitions exactly (missing {missing}, extra {extra})")
        for edge, tag in tags.items():
            if tag not in (ENTRY, BODY):
                raise ValueError(f"bad tag {tag!r} on {edge}")

    def __reduce__(self):
        # copies and pickles are rebuilt from the fields, without the memo
        return type(self), (self.base, dict(self.tags))

    def tag(self, x: StateId, a: str, y: StateId) -> str:
        return self.tags[(x, a, y)]


@dataclass(frozen=True)
class WeightedLabelling:
    """The weighted form: loop entries carry their level, body steps carry 0."""

    base: Prechart
    weights: Mapping[Edge, int]

    def __post_init__(self) -> None:
        if set(self.weights) != set(self.base.edges()):
            raise ValueError("weights must cover the transitions exactly")
        for edge, n in self.weights.items():
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"bad weight {n!r} on {edge}")


@dataclass(frozen=True)
class WitnessViolation:
    """First violated witness clause, with the offending states."""

    clause: str  # flat | fully_specified_a | fully_specified_b | layered | goto_free
    detail: tuple

    def __str__(self) -> str:
        return f"{self.clause}: {self.detail}"


def _find_cycle(nodes: tuple[StateId, ...], adj: Mapping[StateId, Iterable[StateId]]) -> list[StateId] | None:
    """A cycle in a finite digraph, as a closed node path, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {x: WHITE for x in nodes}
    for start in nodes:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[StateId, Iterator[StateId]]] = [(start, iter(adj.get(start, ())))]
        colour[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colour[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                path.pop()
                stack.pop()
    return None


def _descent(
    entry_adj: Mapping[StateId, Iterable[StateId]], body_adj: Mapping[StateId, Iterable[StateId]],
) -> dict[StateId, frozenset[StateId]]:
    """The loop descent of a labelling, given its entry and body adjacencies.

    Maps each state with an entry step to another state onto the states
    body-reachable from its entry successors, never passing the state
    itself; the entry step alone (no body steps) already counts.  Keys
    follow the order of ``entry_adj``.
    """
    descent: dict[StateId, frozenset[StateId]] = {}
    for x, ys in entry_adj.items():
        starts = [y for y in ys if y != x]
        if starts:
            descent[x] = _Analysis._closure(starts, body_adj, forbidden=x)
    return descent


class _Analysis:
    """Per-state loop relations of a labelling, shared by the checks and measures.

    Each relation is held once, as a map from a state: its entry and body
    successors (``entry_adj``, ``body_adj``, in discovery order) and body
    predecessors; its loop descent (``descent``; ``diredge_adj`` lists it in
    discovery order); ``descended``, the states some loop descends to; and,
    for every state, the headers of the loops it lies directly inside
    (``headers``) and their transitive closure (``headers_plus``).

    ``L`` is a ``LabelledPrechart``, or anything that reads like one: a
    ``base`` with ``states`` in discovery order, ``index``, ``out`` and
    ``reach_plus()``, and ``tags`` keyed by transition.  The collapse's
    integer-indexed working chart is analysed through the same code.
    """

    def __init__(self, L: LabelledPrechart):
        base = L.base
        self.base = base
        self.states = base.states
        succ: dict[str, dict[StateId, set[StateId]]] = {ENTRY: {}, BODY: {}}
        self.body_pred: dict[StateId, set[StateId]] = {}
        for (x, _, y), t in L.tags.items():
            succ[t].setdefault(x, set()).add(y)
            if t == BODY:
                self.body_pred.setdefault(y, set()).add(x)
        ordered = lambda adj: {x: sorted(adj[x], key=base.index) for x in self.states if x in adj}
        self.entry_adj = ordered(succ[ENTRY])
        self.body_adj = ordered(succ[BODY])
        # x -> states reachable in one or more steps, action labels forgotten
        self.reach_plus = base.reach_plus()
        self.descent = _descent(self.entry_adj, self.body_adj)
        self.diredge_adj = ordered(self.descent)
        self.descended = frozenset().union(*self.descent.values())
        none: frozenset[StateId] = frozenset()
        self.headers = dict.fromkeys(self.states, none)
        for x, forward in self.descent.items():
            # states lying on a body path from an entry successor back to x
            back = self._closure(self.body_pred.get(x, ()), self.body_pred, forbidden=x)
            for y in forward & back:
                self.headers[y] |= {x}
        plus = {none: none}  # the states of one loop share their headers: close each set once
        for xs in self.headers.values():
            if xs not in plus:
                plus[xs] = self._closure(xs, self.headers)
        self.headers_plus = {y: plus[xs] for y, xs in self.headers.items()}

    @staticmethod
    def _closure(seeds: Iterable[StateId], adj: Mapping[StateId, Iterable[StateId]],
                 forbidden: StateId | object = _NO_STATE) -> frozenset[StateId]:
        seen: set[StateId] = set()
        queue = deque(s for s in seeds if s != forbidden)
        seen.update(queue)
        while queue:
            v = queue.popleft()
            for w in adj.get(v, ()):
                if w != forbidden and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    def longest_paths(self, adj: Mapping[StateId, Iterable[StateId]]) -> dict[StateId, int]:
        """Longest path lengths out of each node of a DAG; raises on a cycle."""
        length: dict[StateId, int] = {}
        for start in self.states:
            if start in length:
                continue
            best = {start: 0}  # the nodes on the current path, and their best so far
            stack = [(start, iter(adj.get(start, ())))]
            while stack:
                x, successors = stack[-1]
                for y in successors:
                    if y in best:
                        raise RuntimeError("longest paths of a graph with a cycle")
                    if y not in length:
                        best[y] = 0
                        stack.append((y, iter(adj.get(y, ()))))
                        break
                    best[x] = max(best[x], 1 + length[y])
                else:
                    length[x] = best.pop(x)
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        best[parent] = max(best[parent], 1 + length[x])
        return length


def derived_relations(
    L: LabelledPrechart,
) -> tuple[frozenset[tuple[StateId, StateId]], frozenset[tuple[StateId, StateId]]]:
    """The loop-descent and loop-membership relations of a labelling.

    ``(x, y)`` is in the first component when an entry step out of ``x``
    followed by body steps reaches ``y`` without revisiting ``x`` (zero body
    steps allowed); ``(y, x)`` is in the second when ``y`` lies strictly
    inside a loop that leaves ``x`` by an entry step and returns to it by
    body steps.
    """
    a = _Analysis(L)
    return (frozenset((x, y) for x, ys in a.descent.items() for y in ys),
            frozenset((y, x) for y, xs in a.headers.items() for x in xs))


def _first_violation(a: _Analysis) -> WitnessViolation | None:
    """The first violated clause, scanning pairs in discovery order."""
    for x, ys in a.entry_adj.items():
        for y in ys:
            if y in a.body_adj.get(x, ()):
                return WitnessViolation("flat", (x, y))
    body_cycle = _find_cycle(a.states, a.body_adj)
    if body_cycle:
        return WitnessViolation("fully_specified_a", tuple(body_cycle))
    for x, ys in a.entry_adj.items():
        for y in ys:
            if y != x and x not in a.reach_plus[y]:
                return WitnessViolation("fully_specified_b", (x, y))
    loop_cycle = _find_cycle(a.states, a.diredge_adj)
    if loop_cycle:
        return WitnessViolation("layered", tuple(loop_cycle))
    for x, ys in a.diredge_adj.items():
        for y in ys:
            if a.base.out(y):
                return WitnessViolation("goto_free", (x, y))
    return None


def _checked(L: LabelledPrechart) -> tuple[_Analysis, WitnessViolation | None]:
    """The analysis of ``L`` and its first violated condition, built once.

    Memoised on the labelling itself, as an attribute outside the dataclass
    fields (``tags`` is read-only), so the memo dies with the labelling.
    """
    memo = getattr(L, "_checked", None)
    if memo is None:
        a = _Analysis(L)
        memo = (a, _first_violation(a))
        object.__setattr__(L, "_checked", memo)
    return memo


def verify_witness(L: LabelledPrechart) -> tuple[bool, WitnessViolation | None]:
    """Check the five layering-witness conditions, reporting the first failure.

    1. locally finite (holds by construction: a prechart has finitely many,
    distinct states), 2. flat (no pair both entry and body), 3. fully
    specified (no body cycles; non-loop entries can return), 4. layered
    (loop descent is acyclic), 5. goto-free (no output strictly inside a
    loop).
    """
    violation = _checked(L)[1]
    return violation is None, violation


def analysis_of_verified(L: LabelledPrechart) -> _Analysis:
    """Analysis of a witness that must verify; raises otherwise."""
    a, violation = _checked(L)
    if violation is not None:
        raise InvalidWitnessError(str(violation))
    return a


def measures(L: LabelledPrechart, x: StateId) -> tuple[int, int]:
    """Loop level and body depth of a state of a verified witness.

    The first component is the longest loop-descent chain out of ``x``, the
    second the longest body path out of ``x``.
    """
    a = analysis_of_verified(L)
    if not L.base.has_state(x):
        raise ValueError(f"unknown state {x!r}")
    en = a.longest_paths(a.diredge_adj)
    b = a.longest_paths(a.body_adj)
    return en[x], b[x]


def loop_depth(L: LabelledPrechart, x: StateId, action: str, y: StateId) -> int:
    """Loop depth of one transition of an expression-state labelling.

    Body steps have depth 0; sequencing preserves the depth of the left
    component's step; entering a star loop has depth one more than the star
    height of the iterated part.
    """
    tag = L.tag(x, action, y)
    if not isinstance(x, Expr) or not isinstance(y, Expr):
        raise ValueError("loop depth needs expression-structured states")
    if tag == BODY:
        return 0
    e, f = x, y
    while isinstance(e, Seq) and isinstance(f, Seq) and f.right == e.right:
        e, f = e.left, f.left
    if isinstance(e, Star) and (f == e or (isinstance(f, Seq) and f.right == e)):
        return star_height(e.left) + 1
    raise ValueError(f"no depth rule for {e} -> {f}")


# --- the weighted form --------------------------------------------------------


def to_llee(L: LabelledPrechart) -> WeightedLabelling:
    """Weight a verified witness: entries get their loop level, bodies 0.

    A loop level of 0 can only happen on an entry self-loop; it is lifted to
    1 so that entries stay positive and the translation inverts.
    """
    a = analysis_of_verified(L)
    en = a.longest_paths(a.diredge_adj)
    weights = {
        edge: (max(en[edge[0]], 1) if t == ENTRY else 0) for edge, t in L.tags.items()
    }
    return WeightedLabelling(L.base, weights)


def from_llee(W: WeightedLabelling) -> LabelledPrechart:
    """Read tags off weights: positive weight with a return path is an entry."""
    reach_plus = W.base.reach_plus()
    tags = {}
    for (x, a, y), n in W.weights.items():
        tags[(x, a, y)] = ENTRY if n > 0 and x in reach_plus[y] else BODY
    return LabelledPrechart(W.base, tags)


# --- the syntactic witness ------------------------------------------------------


def _syntactic_tag(e: Expr, action: str, f: Expr) -> str:
    """Tag of the transition ``e -action-> f`` under the structural rules.

    Sum steps are body; sequencing propagates the left tag and its
    output-step is body; a star's self-loop is an entry, its continuation
    steps are body, and its unrolling step into ``f(e1*e2)`` is an entry
    exactly when the residual ``f`` can still reach an output (so the loop
    can be re-entered; a dead residual never returns and must be a body
    step for the witness to stay fully specified).
    """
    found: set[str] = set()
    if isinstance(e, Sum):
        found.add(BODY)
    elif isinstance(e, Seq):
        louts, lsucc = expr_step(e.left)
        if action in louts and f == e.right:
            found.add(BODY)
        if isinstance(f, Seq) and f.right == e.right and f.left in lsucc.get(action, ()):
            found.add(_syntactic_tag(e.left, action, f.left))
    elif isinstance(e, Star):
        louts, lsucc = expr_step(e.left)
        routs, rsucc = expr_step(e.right)
        if f == e and action in louts:
            found.add(ENTRY)
        if f in rsucc.get(action, ()):
            found.add(BODY)
        if isinstance(f, Seq) and f.right == e and f.left in lsucc.get(action, ()):
            found.add(ENTRY if can_terminate(f.left) else BODY)
    if len(found) != 1:
        raise ValueError(f"no unique tag derivation for {e} -{action}-> {f}: {found}")
    return found.pop()


def syntactic_witness(X: Prechart) -> LabelledPrechart:
    """The structural layering witness on a chart of expressions."""
    for x in X.states:
        if not isinstance(x, Expr):
            raise ValueError("syntactic witness needs expression states")
    tags = {(x, a, y): _syntactic_tag(x, a, y) for (x, a, y) in X.edges()}
    return LabelledPrechart(X, tags)


# --- restriction and disjoint union ----------------------------------------------


def restrict_witness(L: LabelledPrechart, kept: Iterable[StateId],
                     root: StateId | None = None) -> LabelledPrechart:
    """Restrict a labelling to a transition-closed state subset."""
    sub = restriction(L.base, kept, root)
    keep = set(sub.states)
    tags = {edge: t for edge, t in L.tags.items() if edge[0] in keep}
    return LabelledPrechart(sub, tags)


def union_witness(
    L1: LabelledPrechart, L2: LabelledPrechart
) -> tuple[LabelledPrechart, dict[StateId, StateId], dict[StateId, StateId]]:
    """Disjoint union of labellings over the coproduct of their bases."""
    Z, inl, inr = coproduct(L1.base, L2.base)
    return _union_on(Z, inl, inr, L1, L2), inl, inr


def _union_on(
    Z: Prechart, inl: Mapping[StateId, StateId], inr: Mapping[StateId, StateId],
    L1: LabelledPrechart, L2: LabelledPrechart,
) -> LabelledPrechart:
    """The tags of both labellings carried along the injections into ``Z``,
    the coproduct of their bases."""
    tags: dict[Edge, str] = {}
    for (x, a, y), t in L1.tags.items():
        tags[(inl[x], a, inl[y])] = t
    for (x, a, y), t in L2.tags.items():
        tags[(inr[x], a, inr[y])] = t
    return LabelledPrechart(Z, tags)


# --- witness inference -----------------------------------------------------------


def enumerate_witnesses(X: Prechart, limit: int | None = None) -> list[LabelledPrechart]:
    """All layering witnesses of ``X``, in a fixed deterministic order.

    Flatness lets the search assign one tag per state pair.  Self-loops are
    forced entries (a body self-loop is a body cycle); pairs with no return
    path, and pairs into an output state, are forced bodies.  The rest is a
    depth-first search over the free pairs, body before entry.  A body tag
    that would close a body cycle is skipped, and a partial labelling is cut
    as soon as it is doomed: the loop descent of its decided tags (as in
    ``derived_relations``) reaches a state with an output, or has a cycle.
    Deciding more pairs only adds descent pairs, so both violations persist
    to every completion and the cut subtrees hold no witness.  Every
    complete labelling that survives is checked by ``verify_witness``.
    With a ``limit``, the search stops after that many witnesses; a limit
    of 0 returns none, and a negative limit raises ``ValueError``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    groups: dict[tuple[StateId, StateId], list[Edge]] = {}
    for x, a, y in X.edges():
        groups.setdefault((x, y), []).append((x, a, y))
    reach_plus = X.reach_plus()

    forced: dict[tuple[StateId, StateId], str] = {}
    free: list[tuple[StateId, StateId]] = []
    for x, y in sorted(groups, key=lambda p: (X.index(p[0]), X.index(p[1]))):
        if x == y:
            forced[(x, y)] = ENTRY
        elif x not in reach_plus[y]:
            forced[(x, y)] = BODY  # an entry here could never be fully specified
        elif X.out(y):
            forced[(x, y)] = BODY  # an entry here could never be goto-free
        else:
            free.append((x, y))

    adj: dict[str, dict[StateId, set[StateId]]] = {BODY: {}, ENTRY: {}}
    for (x, y), t in forced.items():
        adj[t].setdefault(x, set()).add(y)

    results: list[LabelledPrechart] = []
    assignment: dict[tuple[StateId, StateId], str] = {}  # the decided free pairs
    todo: list[list[str]] = []  # per decided free pair, the tags still to try
    while limit is None or len(results) < limit:
        # visit the node whose decided pairs are free[:len(todo)]
        descent = _descent(adj[ENTRY], adj[BODY])
        doomed = (any(X.out(y) for ys in descent.values() for y in ys)  # not goto-free
                  or _find_cycle(X.states, descent) is not None)  # not layered
        if not doomed and len(todo) == len(free):
            tags = {edge: forced.get(pair) or assignment[pair]
                    for pair, edges in groups.items() for edge in edges}
            candidate = LabelledPrechart(X, tags)
            if verify_witness(candidate)[0]:
                results.append(candidate)
        elif not doomed:
            x, y = free[len(todo)]
            # x -b-> y closes a body cycle iff x is body-reachable from y
            todo.append([ENTRY] if x in _Analysis._closure((y,), adj[BODY]) else [ENTRY, BODY])
        # move to the next node: retry the deepest pair with a tag left
        while todo:
            x, y = pair = free[len(todo) - 1]
            if pair in assignment:
                adj[assignment.pop(pair)][x].discard(y)
            if todo[-1]:
                t = assignment[pair] = todo[-1].pop()
                adj[t].setdefault(x, set()).add(y)
                break
            todo.pop()
        else:
            break
    return results


def infer_witness(X: Prechart) -> LabelledPrechart | None:
    """Some layering witness of ``X`` if one exists, deterministically."""
    found = enumerate_witnesses(X, limit=1)
    return found[0] if found else None
