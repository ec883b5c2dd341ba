"""Reroutings of precharts and the witness-preserving bisimulation collapse.

Connect-through deletes a state and redirects its incoming transitions to a
chosen survivor; a rerouting generalises this to any splitting (an inclusion
with a retraction).  Collapsing repeatedly connects carefully chosen
bisimilar pairs through each other, relabelling so that well-layeredness is
preserved at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .bisim import PartitionRelation, bisimilarity, check_bisimulation
from .layering import (
    BODY,
    ENTRY,
    Edge,
    InvalidWitnessError,
    LabelledPrechart,
    _Analysis,
    analysis_of_verified,
    verify_witness,
)
from .semantics import Prechart, StateId

CONDITIONS = ("C1", "C2", "C3")


@dataclass(frozen=True)
class Splitting:
    """An inclusion of kept states with a retraction of the full state set."""

    kept: tuple[StateId, ...]
    retract: Mapping[StateId, StateId]

    def __post_init__(self) -> None:
        kept = set(self.kept)
        if len(kept) != len(self.kept):
            raise ValueError("kept states repeat")
        for x, u in self.retract.items():
            if u not in kept:
                raise ValueError(f"retract image {u!r} not kept")
        for u in self.kept:
            if self.retract.get(u) != u:
                raise ValueError(f"retraction does not fix kept state {u!r}")

    @classmethod
    def merging(cls, X: Prechart, merges: Mapping[StateId, StateId]) -> "Splitting":
        """Merge each key into its designated surviving value."""
        for x, y in merges.items():
            if not (X.has_state(x) and X.has_state(y)):
                raise ValueError("merge references unknown states")
            if y in merges:
                raise ValueError(f"survivor {y!r} is itself merged away")
        kept = tuple(x for x in X.states if x not in merges)
        retract = {x: merges.get(x, x) for x in X.states}
        return cls(kept, retract)


def connect_through(X: Prechart, x1: StateId, x2: StateId) -> Prechart:
    """Delete ``x1``, redirecting every transition into it to ``x2``."""
    if x1 == x2:
        raise ValueError("cannot connect a state through to itself")
    if not (X.has_state(x1) and X.has_state(x2)):
        raise ValueError("unknown states")
    states = tuple(x for x in X.states if x != x1)
    outputs = {x: X.out(x) for x in states}
    transitions = {}
    for x in states:
        row = {}
        for a in X.alphabet:
            targets = X.succ(x, a)
            if x1 in targets:
                row[a] = tuple(y for y in targets if y != x1) + (x2,)
            elif targets:
                row[a] = targets
        if row:
            transitions[x] = row
    root = X.root if X.root != x1 else x2
    return Prechart.make(X.alphabet, states, outputs, transitions, root)


def rerouting(X: Prechart, s: Splitting) -> Prechart:
    """Push the structure of the kept states through the retraction."""
    for x in X.states:
        if x not in s.retract:
            raise ValueError(f"retraction not total: missing {x!r}")
    for u in s.kept:
        if not X.has_state(u):
            raise ValueError(f"kept state {u!r} unknown")
    outputs = {u: X.out(u) for u in s.kept}
    transitions = {
        u: {
            a: tuple(s.retract[y] for y in X.succ(u, a))
            for a in X.alphabet
            if X.succ(u, a)
        }
        for u in s.kept
    }
    root = s.retract[X.root] if X.root is not None else None
    return Prechart.make(X.alphabet, s.kept, outputs, transitions, root)


def restrict_relation(
    R: PartitionRelation, kept: Iterable[StateId]
) -> list[tuple[StateId, StateId]]:
    """The pairs of ``R`` whose second component survives a rerouting."""
    kept_set = set(kept)
    return [(x, y) for x, y in R.pairs() if y in kept_set]


# --- the three safe-pair conditions ---------------------------------------------


def _condition_of(a: _Analysis, w1: StateId, w2: StateId) -> str | None:
    base = a.base
    reach_star = lambda x: {x} | set(a.reach_plus[x])
    # C1: w1 is unreachable from w2, and if some loop descends to w1 then
    # nothing reachable from w2 has an output
    if w1 not in reach_star(w2):
        descended = any((x, w1) in a.diredge for x in base.states)
        if not descended or not any(a.has_output(y) for y in reach_star(w2)):
            return "C1"
    # C2: w2 lies (transitively) inside the loop at w1
    if (w2, w1) in a.loopright_plus:
        return "C2"
    # C3: no body path from w2 to w1, and some loop containing w1 directly
    # also contains w2 below it and is minimal among w1's loops
    body_reach = _Analysis._closure(a.body_adj.get(w2, ()), a.body_adj)
    if w1 not in body_reach:
        w1_headers = [x for x in base.states if (w1, x) in a.loopright]
        for x in base.states:
            if (w1, x) in a.loopright and (w2, x) in a.loopright_plus:
                if all((x, y) in a.loopright for y in w1_headers if y != x):
                    return "C3"
    return None


def check_condition(L: LabelledPrechart, w1: StateId, w2: StateId) -> str | None:
    """Which of the three connect-through safety conditions holds first."""
    if w1 == w2:
        raise ValueError("the pair must be distinct")
    if not (L.base.has_state(w1) and L.base.has_state(w2)):
        raise ValueError("unknown states")
    return _condition_of(analysis_of_verified(L), w1, w2)


def find_pair(
    L: LabelledPrechart, R: PartitionRelation
) -> tuple[StateId, StateId, str] | None:
    """First related distinct pair satisfying a safety condition, in scan order.

    Scans related pairs by discovery order of both components.  A nontrivial
    verified bisimulation equivalence on a verified witness always contains
    such a pair.
    """
    a = analysis_of_verified(L)
    states = L.base.states
    if set(R.universe) != set(states):
        raise ValueError("relation universe differs from the state set")
    ok, why = check_bisimulation(L.base, L.base, R)
    if not ok:
        raise ValueError(f"relation is not a bisimulation: {why}")
    if R.is_identity:
        return None
    if R.universe != states:  # block members must follow discovery order
        R = PartitionRelation.from_blocks(states, R.blocks)
    for w1 in states:
        for w2 in R.block_containing(w1):
            if w2 != w1:
                condition = _condition_of(a, w1, w2)
                if condition is not None:
                    return w1, w2, condition
    raise RuntimeError("nontrivial bisimulation equivalence with no safe pair; "
                       "this contradicts the safe-pair existence guarantee")


# --- relabelling after a connect-through ------------------------------------------


def _c2_promotion_state(a: _Analysis, w1: StateId, w2: StateId) -> StateId:
    # the last loop header below w1 on a chain from w2: w2 lies (reflexively)
    # inside its loop and it lies directly inside the loop at w1, minimally so
    index = a.base.index
    lr, lr_plus = a.loopright, a.loopright_plus
    candidates = [
        w
        for w in a.base.states
        if (w == w2 or (w2, w) in lr_plus) and (w, w1) in lr
    ]
    filtered = [
        w
        for w in candidates
        if all(v == w1 or (w1, v) in lr_plus for v in a.base.states if (w, v) in lr)
    ]
    pool = filtered or candidates
    if not pool:
        raise RuntimeError("C2 held but no promotion state exists")
    return min(pool, key=index)


def relabel(
    L: LabelledPrechart, w1: StateId, w2: StateId, condition: str
) -> LabelledPrechart:
    """Transport a witness across connect-through and repair its tags.

    Redirected transitions keep their tags.  Under C2 the body steps out of
    the promotion state become entries first; in every case, entry
    transitions that lost their return path are demoted to body steps.  The
    result is re-verified and a failure raises ``RuntimeError``: the paper
    guarantees that a safe pair's relabelling stays a witness.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    actual = check_condition(L, w1, w2)
    if actual != condition:
        raise ValueError(f"pair does not satisfy {condition} (got {actual})")
    a = analysis_of_verified(L)

    base2 = connect_through(L.base, w1, w2)
    tags: dict[Edge, str] = {}
    for (x, act, y), t in L.tags.items():
        if x == w1:
            continue
        key = (x, act, w2 if y == w1 else y)
        if key in tags and tags[key] != t:
            tags[key] = ENTRY  # merged parallel edge; demotion may settle it
        else:
            tags.setdefault(key, t)

    if condition == "C2":
        promote = _c2_promotion_state(a, w1, w2)
        for key, t in list(tags.items()):
            if key[0] == promote and t == BODY:
                tags[key] = ENTRY

    # demote entries with no remaining return path, against a fixed snapshot
    reach_plus = base2.reach_plus()  # shared with the candidate's analysis
    for (x, act, y), t in list(tags.items()):
        if t == ENTRY and x not in reach_plus[y]:
            tags[(x, act, y)] = BODY

    candidate = LabelledPrechart(base2, tags)
    ok, violation = verify_witness(candidate)
    if not ok:
        raise RuntimeError(
            f"relabelling after connecting {w1!r} through to {w2!r} under {condition} "
            f"broke the witness ({violation}); this contradicts the preservation guarantee"
        )
    return candidate


def collapse(L: LabelledPrechart) -> tuple[LabelledPrechart, dict[StateId, StateId]]:
    """Merge bisimilar states one safe pair at a time until none remain.

    Returns the collapsed witness and the accumulated projection; the
    projection's kernel is the bisimilarity of the input, and the result is
    bisimulation-minimal with a valid witness.  Bisimilarity is computed
    once: connecting ``w1`` through a bisimilar ``w2`` leaves the remaining
    states' classes as they were, so each step only drops ``w1`` from the
    partition (and ``find_pair`` re-checks it as a bisimulation).
    """
    ok, violation = verify_witness(L)
    if not ok:
        raise InvalidWitnessError(str(violation))
    current = L
    projection = {x: x for x in L.base.states}
    R = bisimilarity(L.base)
    while not R.is_identity:
        w1, w2, condition = find_pair(current, R)
        current = relabel(current, w1, w2, condition)
        projection = {
            x: (w2 if v == w1 else v) for x, v in projection.items()
        }
        R = R.without(w1)
    return current, projection
