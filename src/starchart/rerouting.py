"""Reroutings of precharts and the witness-preserving bisimulation collapse.

A rerouting pushes a prechart's structure along a splitting (an inclusion
with a retraction).  Connect-through, which deletes a state and redirects
its incoming transitions to a chosen survivor, is the rerouting along a
one-state merge; the quotient by a bisimulation is another.  Collapsing
repeatedly connects carefully chosen bisimilar pairs through each other,
relabelling so that well-layeredness is preserved at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .bisim import PartitionRelation, _checked_partition, bisimilarity
from .layering import (
    BODY,
    ENTRY,
    Edge,
    InvalidWitnessError,
    LabelledPrechart,
    WitnessViolation,
    _Analysis,
    _closure,
    _first_violation,
    analysis_of_verified,
    verify_witness,
)
from .semantics import Prechart, StateId, _reach_closures

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
    out, reach = a.outputs.get, a.reach_plus[w2]
    # C1: w1 is unreachable from w2, and if some loop descends to w1 then
    # nothing reachable from w2 has an output
    if w1 not in reach and (w1 not in a.descended or not (out(w2) or any(out(y) for y in reach))):
        return "C1"
    # C2: w2 lies (transitively) inside the loop at w1
    if w1 in a.headers_plus[w2]:
        return "C2"
    # C3: no body path from w2 to w1, and some loop containing w1 directly
    # also contains w2 below it and is minimal among w1's loops
    minimal = any(a.headers[w1] - {x} <= a.headers[x] for x in a.headers[w1] & a.headers_plus[w2])
    if minimal and w1 not in _closure(a.body_adj.get(w2, ()), a.body_adj):
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
    _checked_partition(L.base, R)
    if R.is_identity:
        return None
    return _first_safe_pair(a, PartitionRelation.from_blocks(L.base.states, R.blocks).block_containing)


def _first_safe_pair(
    a: _Analysis, block_containing: Callable[[StateId], Sequence[StateId]]
) -> tuple[StateId, StateId, str]:
    """The first related distinct pair, in discovery order of both components,
    that satisfies a safety condition; each block lists its members in
    discovery order."""
    for w1 in a.states:
        for w2 in block_containing(w1):
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
    candidates = [w for w in {w2} | a.headers_plus[w2] if w1 in a.headers[w]]
    filtered = [w for w in candidates if a.headers[w] - {w1} <= a.headers_plus[w1]]
    pool = filtered or candidates
    if not pool:
        raise RuntimeError("C2 held but no promotion state exists")
    return min(pool, key=a.index)


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
    promote = _c2_promotion_state(a, w1, w2) if condition == "C2" else None
    base2 = connect_through(L.base, w1, w2)
    # base2's reachability is shared with the candidate's analysis
    candidate = LabelledPrechart(base2, _carry_tags(L.tags, w1, w2, promote, base2.reach_plus()))
    ok, violation = verify_witness(candidate)
    if not ok:
        raise _broken_witness(w1, w2, condition, violation)
    return candidate


def _carry_tags(
    tags: Mapping[Edge, str], w1: StateId, w2: StateId, promote: StateId | None,
    reach_plus: Mapping[StateId, Iterable[StateId]],
) -> dict[Edge, str]:
    """The tags carried across connecting ``w1`` through ``w2``.

    Redirected transitions keep their tags (a merged parallel pair becomes
    an entry, which demotion may settle); the body steps out of ``promote``
    (the C2 promotion state, or None) become entries; then every entry with
    no return path in the connected chart, whose reachability is
    ``reach_plus``, is demoted to a body step.
    """
    carried: dict[Edge, str] = {}
    for (x, act, y), t in tags.items():
        if x == w1:
            continue
        key = (x, act, w2 if y == w1 else y)
        if key in carried and carried[key] != t:
            carried[key] = ENTRY
        else:
            carried.setdefault(key, t)
    for key, t in carried.items():
        x, _, y = key
        if x == promote and t == BODY:
            t = carried[key] = ENTRY
        if t == ENTRY and x not in reach_plus[y]:
            carried[key] = BODY
    return carried


def _broken_witness(w1: StateId, w2: StateId, condition: str, violation) -> RuntimeError:
    return RuntimeError(
        f"relabelling after connecting {w1!r} through to {w2!r} under {condition} "
        f"broke the witness ({violation}); this contradicts the preservation guarantee"
    )


def collapse(L: LabelledPrechart) -> tuple[LabelledPrechart, dict[StateId, StateId]]:
    """Merge bisimilar states one safe pair at a time until none remain.

    Returns the collapsed witness and the accumulated projection, whose
    kernel is the bisimilarity of ``L.base``, computed once, after the
    witness verifies.  Connecting ``w1`` through a bisimilar ``w2`` maps
    every transition target into its own block, so no surviving state's
    outputs or successor blocks change, and each merge only drops ``w1``
    from its block.  Each merge is the one ``find_pair`` and ``relabel``
    would make; it moves only the tags, the reachability and the blocks
    (``_Merging``), and the collapsed chart is ``L.base`` rerouted once,
    along the splitting that the merges compose to.
    """
    work = _Merging(L)
    name = L.base.states.__getitem__
    named = lambda v: WitnessViolation(v.clause, tuple(map(name, v.detail)))
    a, violation = work.analysis()
    if violation is not None:
        raise InvalidWitnessError(str(named(violation)))
    work.carry(bisimilarity(L.base))
    while work.has_related_pair():
        w1, w2, condition = work.merge_first_safe_pair(a)
        a, violation = work.analysis()
        if violation is not None:
            raise _broken_witness(name(w1), name(w2), condition, named(violation))
    return _collapsed(L, work)


def _collapsed(L: LabelledPrechart, work: "_Merging") -> tuple[LabelledPrechart, dict[StateId, StateId]]:
    """The merged witness on the original names, and its projection:
    ``L.base`` rerouted along the splitting that the merges compose to."""
    name = L.base.states.__getitem__
    projection = {x: name(v) for x, v in zip(L.base.states, work.image)}
    base = rerouting(L.base, Splitting(tuple(map(name, work.states)), projection))
    tags = {(name(x), a, name(y)): t for (x, a, y), t in work.tags.items()}
    return LabelledPrechart(base, tags), projection


class _Merging:
    """The merges of a collapse, on the states' discovery indices.

    The states are numbered once, so integer order is the discovery order
    that every tie-break follows.  Each merge updates in place only what
    the witness checks and the next merge read: the surviving states and
    their outputs, the unlabelled successor sets and their reachability
    (recomputed only for the states that reached the deleted state), the
    tags, the carried partition's blocks and the projection (``image``).
    """

    def __init__(self, L: LabelledPrechart):
        X = L.base
        number = {x: i for i, x in enumerate(X.states)}
        self.states = tuple(range(len(X.states)))
        self.outputs = {number[x]: out for x, out in X.outputs.items()}
        self.succ = {x: set() for x in self.states}  # action labels forgotten
        for x, row in X.transitions.items():
            for ys in row.values():
                self.succ[number[x]].update(number[y] for y in ys)
        self.reach = _reach_closures(self.succ, self.states)
        self.image = list(self.states)  # the projection, by index
        self.tags = {(number[x], a, number[y]): t for (x, a, y), t in L.tags.items()}

    def carry(self, R: PartitionRelation) -> None:
        """Carry the blocks of ``R``, the bisimilarity of the input chart,
        whose universe lists the states in discovery order; before the
        first merge."""
        self.block_of = [R.block_index(x) for x in R.universe]
        self.blocks: dict[int, list[int]] = {}
        for x in self.states:
            self.blocks.setdefault(self.block_of[x], []).append(x)

    def analysis(self) -> tuple[_Analysis, WitnessViolation | None]:
        """The analysis of the current labelling and its first violated
        condition; the analysis reads this object's maps, so it is valid
        until the next merge."""
        a = _Analysis(self.states, int, self.outputs, self.reach, self.tags)
        return a, _first_violation(a)

    # --- one merge

    def has_related_pair(self) -> bool:
        return len(self.blocks) < len(self.states)

    def merge_first_safe_pair(self, a: _Analysis) -> tuple[int, int, str]:
        """Connect the first safe pair ``w1`` through ``w2``, as ``find_pair``
        and ``relabel`` would, and carry the tags across; ``a`` is the
        analysis of the current labelling.  Returns ``(w1, w2, condition)``."""
        w1, w2, condition = _first_safe_pair(a, lambda x: self.blocks[self.block_of[x]])
        promote = _c2_promotion_state(a, w1, w2) if condition == "C2" else None
        self.states = tuple(x for x in self.states if x != w1)
        reached = [x for x in self.states if w1 in self.reach[x]]
        for x in reached:
            if w1 in self.succ[x]:
                self.succ[x].discard(w1)
                self.succ[x].add(w2)
        for table in (self.succ, self.reach, self.outputs):
            table.pop(w1, None)
        self.reach.update(_reach_closures(self.succ, reached, self.reach))
        self.blocks[self.block_of[w1]].remove(w1)  # w2 stays, so no block empties
        self.image = [w2 if v == w1 else v for v in self.image]
        self.tags = _carry_tags(self.tags, w1, w2, promote, self.reach)
        return w1, w2, condition
