"""Reroutings of precharts and the witness-preserving bisimulation collapse.

A rerouting pushes a prechart's structure along a splitting (an inclusion
with a retraction).  Connect-through, which deletes a state and redirects
its incoming transitions to a chosen survivor, is the rerouting along a
one-state merge; the quotient by a bisimulation is another.  ``collapse``
is the paper's loop: ``find_pair`` picks a safe bisimilar pair, ``relabel``
connects it through and repairs the tags so that the witness stays
well-layered, and the partition, carried without the deleted state, is
scanned again until it is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .bisim import PartitionRelation, _checked_partition, bisimilarity
from .layering import (
    BODY,
    ENTRY,
    Edge,
    LabelledPrechart,
    _Analysis,
    _members,
    _reach,
    _reachability,
    analysis_of_verified,
    verify_witness,
)
from .semantics import Prechart, StateId, _numbered_chart, _rerouted, _walk_of

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
    return rerouting(X, Splitting.merging(X, {x1: x2}))


def rerouting(X: Prechart, s: Splitting) -> Prechart:
    """Push the structure of the kept states through the retraction, on state numbers."""
    for x in X.states:
        if x not in s.retract:
            raise ValueError(f"retraction not total: missing {x!r}")
    for u in s.kept:
        if not X.has_state(u):
            raise ValueError(f"kept state {u!r} unknown")
    position = {u: i for i, u in enumerate(s.kept)}
    image = [position[s.retract[x]] for x in X.states]
    root = s.retract[X.root] if X.root is not None else None
    return _numbered_chart(X.alphabet, _rerouted(_walk_of(X), list(map(X.index, s.kept)), image), root)


def restrict_relation(
    R: PartitionRelation, kept: Iterable[StateId]
) -> list[tuple[StateId, StateId]]:
    """The pairs of ``R`` whose second component survives a rerouting."""
    kept_set = set(kept)
    return [(x, y) for x, y in R.pairs() if y in kept_set]


# --- the three safe-pair conditions ---------------------------------------------


def _condition_of(a: _Analysis, w1: int, w2: int) -> str | None:
    """The first safe-pair condition that the state numbers ``w1``, ``w2`` meet."""
    reach = a.reach[w2]
    # C1: w1 is unreachable from w2, and if some loop descends to w1 then
    # nothing reachable from w2 has an output
    if not reach >> w1 & 1 and (not a.descended >> w1 & 1 or not (reach | 1 << w2) & a.outputs):
        return "C1"
    # C2: w2 lies (transitively) inside the loop at w1
    if a.headers_plus[w2] >> w1 & 1:
        return "C2"
    # C3: no body path from w2 to w1, and some loop containing w1 directly
    # also contains w2 below it and is minimal among w1's loops
    headers = a.headers[w1]
    minimal = any(not headers & ~(1 << x) & ~a.headers[x] for x in _members(headers & a.headers_plus[w2]))
    if minimal and not _reach(a.body[w2], a.body) >> w1 & 1:
        return "C3"
    return None


def check_condition(L: LabelledPrechart, w1: StateId, w2: StateId) -> str | None:
    """Which of the three connect-through safety conditions holds first."""
    if w1 == w2:
        raise ValueError("the pair must be distinct")
    if not (L.base.has_state(w1) and L.base.has_state(w2)):
        raise ValueError("unknown states")
    return _condition_of(analysis_of_verified(L), L.base.index(w1), L.base.index(w2))


def find_pair(
    L: LabelledPrechart, R: PartitionRelation
) -> tuple[StateId, StateId, str] | None:
    """First related distinct pair satisfying a safety condition, in scan order.

    Scans related pairs by discovery order of both components.  A nontrivial
    verified bisimulation equivalence on a verified witness always contains
    such a pair.
    """
    a = analysis_of_verified(L)
    _checked_partition(L.base, R)
    if R.is_identity:
        return None
    name = L.base.states
    blocks = [sorted(map(L.base.index, b)) for b in R.blocks]  # by state number
    for w1 in a.states:
        for w2 in blocks[R.block_index(name[w1])]:
            if w2 != w1:
                condition = _condition_of(a, w1, w2)
                if condition is not None:
                    return name[w1], name[w2], condition
    raise RuntimeError("nontrivial bisimulation equivalence with no safe pair; "
                       "this contradicts the safe-pair existence guarantee")


# --- relabelling after a connect-through ------------------------------------------


def _c2_promotion_state(a: _Analysis, w1: int, w2: int) -> int:
    # the last loop header below w1 on a chain from w2: w2 lies (reflexively)
    # inside its loop and it lies directly inside the loop at w1, minimally so
    candidates = [w for w in _members(1 << w2 | a.headers_plus[w2]) if a.headers[w] >> w1 & 1]
    filtered = [w for w in candidates if not a.headers[w] & ~(1 << w1) & ~a.headers_plus[w1]]
    pool = filtered or candidates
    if not pool:
        raise RuntimeError("C2 held but no promotion state exists")
    return min(pool)


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
    X, base2 = L.base, connect_through(L.base, w1, w2)
    promote = None
    if condition == "C2":
        promote = X.states[_c2_promotion_state(analysis_of_verified(L), X.index(w1), X.index(w2))]
    candidate = LabelledPrechart(base2, _carry_tags(L.tags, base2, w2, promote))
    ok, violation = verify_witness(candidate)
    if not ok:
        raise _broken_witness(w1, w2, condition, violation)
    return candidate


def _carry_tags(
    tags: Mapping[Edge, str], base2: Prechart, w2: StateId, promote: StateId | None,
) -> dict[Edge, str]:
    """The tags carried into ``base2``, the chart left by connecting the one
    tagged state that it lacks through ``w2``.

    The transitions out of that state go, and those into it are redirected
    to ``w2`` and keep their tags (a merged parallel pair becomes an entry,
    which demotion may settle); the body steps out of ``promote`` (the C2
    promotion state, or None) become entries; then every entry with no
    return path in ``base2``, by its ``_reachability`` memo, which the
    candidate's analysis shares, is demoted to a body step.
    """
    has, index, reach = base2.has_state, base2.index, _reachability(base2)
    carried: dict[Edge, str] = {}
    for (x, act, y), t in tags.items():
        if not has(x):
            continue
        key = (x, act, y if has(y) else w2)
        if key in carried and carried[key] != t:
            carried[key] = ENTRY
        else:
            carried.setdefault(key, t)
    for key, t in carried.items():
        x, _, y = key
        if x == promote and t == BODY:
            t = carried[key] = ENTRY
        if t == ENTRY and not reach[index(y)] >> index(x) & 1:
            carried[key] = BODY
    return carried


def _broken_witness(w1: StateId, w2: StateId, condition: str, violation) -> RuntimeError:
    return RuntimeError(
        f"relabelling after connecting {w1!r} through to {w2!r} under {condition} "
        f"broke the witness ({violation}); this contradicts the preservation guarantee"
    )


def collapse(L: LabelledPrechart) -> tuple[LabelledPrechart, dict[StateId, StateId]]:
    """Merge bisimilar states one safe pair at a time until none remain.

    The paper's loop: ``find_pair``, then ``relabel``, carrying the
    partition, until it is the identity.  Returns the collapsed witness and
    the accumulated projection, whose kernel is the bisimilarity of
    ``L.base``, computed once, after the witness verifies.  Connecting
    ``w1`` through a bisimilar ``w2`` maps every transition target into its
    own block, so no surviving state's outputs or successor blocks change,
    and each merge only drops ``w1`` from its block.
    """
    analysis_of_verified(L)
    R = bisimilarity(L.base)
    projection = {x: x for x in L.base.states}
    while not R.is_identity:
        w1, w2, condition = find_pair(L, R)
        L = relabel(L, w1, w2, condition)
        R = PartitionRelation.from_blocks(L.base.states, ([y for y in b if y != w1] for b in R.blocks))
        for x, v in projection.items():
            if v == w1:
                projection[x] = w2
    return L, projection
