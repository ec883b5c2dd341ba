"""Entry/body labellings of precharts and layering witnesses.

A labelling tags every transition as an entry (descending into a loop) or a
body step (staying at the current loop level).  A layering witness is a
labelling that is flat, fully specified, layered and goto-free; charts of
star expressions always carry one, derived syntactically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .semantics import Prechart, StateId, coproduct, expr_step, restriction
from .syntax import Expr, Seq, Star, Sum, can_terminate

Edge = tuple[StateId, str, StateId]

ENTRY = "e"
BODY = "b"

class InvalidWitnessError(ValueError):
    """An operation required a verified layering witness and got none."""


@dataclass(frozen=True)
class LabelledPrechart:
    """A prechart whose every transition carries an entry/body tag.

    ``analysis``, kept outside the dataclass fields, is the labelling as a
    witness by state number (``_Analysis``), its violation on ``base``'s states.
    """

    base: Prechart
    tags: Mapping[Edge, str]

    def __post_init__(self) -> None:
        # a read-only copy: the analysis cannot go stale through the caller's mapping
        tags = MappingProxyType(dict(self.tags))
        object.__setattr__(self, "tags", tags)
        # as many tags as transitions, each on a transition: by count and
        # membership, numbered as they are checked, with no set of the
        # edges built unless to word the error
        X = self.base
        number = X.index
        covered = len(tags) == sum(map(len, chain(*X.numbered_succ())))
        tagged = []
        for edge, t in tags.items() if covered else ():
            if not (isinstance(edge, tuple) and len(edge) == 3 and edge[2] in X.succ(edge[0], edge[1])):
                covered = False
                break
            tagged.append((number(edge[0]), edge[1], number(edge[2]), t))
        if not covered:
            edges = set(X.edges())
            missing = edges - tags.keys()
            extra = tags.keys() - edges
            raise ValueError(f"tags must cover the transitions exactly (missing {missing}, extra {extra})")
        for edge, tag in tags.items():
            if tag not in (ENTRY, BODY):
                raise ValueError(f"bad tag {tag!r} on {edge}")
        a = _Analysis(X.alphabet, list(map(X.out, X.states)), X.numbered_succ(),
                      None if X.root is None else number(X.root), tagged, _reachability(X))
        if a.violation is not None:
            a.violation = _named(a.violation, X.states)
        object.__setattr__(self, "analysis", a)

    def __reduce__(self):
        # copies and pickles are rebuilt from the fields, and analysed afresh
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


def _reach(seeds: int, adj: Sequence[int], forbidden: int = 0) -> int:
    """The states reachable from ``seeds`` in ``adj``, never passing
    ``forbidden``, the seeds included: the one closure primitive.

    States are numbered, and a set of them is a bitmask whose bit ``i``
    stands for state ``i``; ``adj[i]`` is the mask of ``i``'s successors.
    ``forbidden`` may also be a complement ``~allowed``, which confines the
    search to ``allowed``.

    The loop of state ``x``, given its entry successors ``entry[x]`` and the
    body successors ``body``, is ``_reach(entry[x], body, 1 << x)``: the
    states body-reachable from an entry successor other than ``x``, never
    passing ``x`` itself, where the entry step alone (no body steps) already
    counts.  It is empty when ``x`` has no entry step to another state.
    """
    seen = seeds | forbidden
    frontier = seeds & ~forbidden
    while frontier:
        low = frontier & -frontier
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier = (frontier ^ low) | new
    return seen & ~forbidden


def _depth_first(states: int, adj: Sequence[int]) -> tuple[list[int] | None, list[int]]:
    """The one depth-first search, over the steps of ``adj`` among
    ``states`` (masks as in ``_reach``), from each state in turn and
    through the successors of each in number order: a cycle, as a closed
    path, or None; and the states it finished, in finishing order, each
    after all its successors when there is no cycle."""
    unfinished, finished = states, []
    while unfinished:
        low = unfinished & -unfinished  # the least state not entered yet
        path, rests, on_path = [low.bit_length() - 1], [adj[low.bit_length() - 1]], low
        while path:
            rest = rests[-1] & unfinished
            if rest:
                low = rest & -rest
                y = low.bit_length() - 1
                if low & on_path:  # close the path from there
                    return path[path.index(y):] + [y], finished
                rests[-1] = rest ^ low
                path.append(y)
                rests.append(adj[y])
                on_path |= low
            else:
                x = path.pop()
                rests.pop()
                on_path ^= 1 << x
                unfinished ^= 1 << x
                finished.append(x)
    return None, finished


def _members(mask: int) -> list[int]:
    """The state numbers of a mask, in order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _successors(numbered: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """Per state number, the mask of its successors in ``numbered`` (see
    ``Prechart.numbered_succ``), action labels forgotten."""
    succ = []
    for rows in numbered:
        m = 0
        for js in rows:
            for j in js:
                m |= 1 << j
        succ.append(m)
    return succ


def _output_mask(outs: Iterable[frozenset[str]]) -> int:
    """The mask of the state numbers ``i`` whose output set ``outs[i]`` is not empty."""
    mask = 0
    for i, out in enumerate(outs):
        if out:
            mask |= 1 << i
    return mask


def _recompute_reach(succ: Sequence[int]) -> list[int]:
    """Per state number, the mask of the states reachable in one or more
    steps of the successor masks ``succ``.

    The states are done in reverse number order.  A search confined by
    ``_reach`` to the states not done yet takes the finished mask of every
    other state it steps to whole, so on a chart numbered as a walk
    discovers it a search mostly steps to states already done.
    """
    n = len(succ)
    reach, pending = [0] * n, (1 << n) - 1
    for x in reversed(range(n)):
        out = succ[x]
        for v in _members(_reach(out, succ, ~pending)):
            out |= succ[v]
        for d in _members(out & ~pending):
            out |= reach[d]
        reach[x] = out
        pending ^= 1 << x
    return reach


def _reachability(X: Prechart) -> Sequence[int]:
    """Per state number of ``X``, the mask of the states reachable in one or
    more steps.  Memoised on the prechart, as an attribute outside the
    dataclass fields, so the memo dies with the prechart."""
    memo = getattr(X, "_reachability", None)
    if memo is None:
        memo = tuple(_recompute_reach(_successors(X.numbered_succ())))
        object.__setattr__(X, "_reachability", memo)
    return memo


class _Analysis:
    """A layering witness by state number: the one record that the witness
    checks, the measures, the derived relations, the safe-pair conditions,
    the canonical solution and the local proof read.

    The chart is ``alphabet``, per state number its output set (``outs``)
    and its successor numbers per action (``numbered``, as
    ``Prechart.numbered_succ`` gives them), and ``root``, the root's number
    or None.  The witness is the ``tagged`` steps ``(x, action, y, tag)``.
    Every relation is a list of masks indexed by state number (see
    ``_reach``): the entry and body successors (``entry``, ``body``); the
    loop descent (``descent``, 0 for a state with no loop), and
    ``descended``, the mask of the states some loop descends to; for every
    state, the headers of the loops it lies directly inside (``headers``)
    and their transitive closure (``headers_plus``).  ``states`` are the
    numbers in order, ``mask`` their mask, ``outputs`` the mask of those
    with an output and ``reach`` the reachability in one or more steps,
    computed from ``numbered`` unless it is given.  A state's loop is its
    ``_reach`` forward through the body steps, and the states lying
    directly inside it are those of the loop that also reach it back
    through body steps, ``_reach`` over the predecessors confined to the
    loop.  ``violation`` is the first violated clause, or None
    (``_first_violation``, which keeps the finishing orders of its searches
    on the record: ``body_finished``, ``descent_finished``).

    A labelling builds its record as it checks its tags, on the prechart's
    ``_reachability`` memo, with the violation on its states; ``cli`` builds
    it from a certificate's rows, and from loop elimination's rows of a
    chart document (``_eliminated_rows``), with no prechart.
    """

    def __init__(self, alphabet: Sequence[str], outs: Sequence[frozenset[str]],
                 numbered: Sequence[Sequence[Sequence[int]]], root: int | None,
                 tagged: Iterable[Sequence], reach: Sequence[int] | None = None):
        self.alphabet, self.outs, self.numbered, self.root = alphabet, outs, numbered, root
        n = len(numbered)
        if reach is None:
            reach = _recompute_reach(_successors(numbered))
        self.states, self.mask, self.outputs, self.reach = range(n), (1 << n) - 1, _output_mask(outs), reach
        entry, body, body_pred = [0] * n, [0] * n, [0] * n
        self.entry, self.body = entry, body
        for x, _, y, t in tagged:
            if t == ENTRY:
                entry[x] |= 1 << y
            else:
                body[x] |= 1 << y
                body_pred[y] |= 1 << x
        self.descent = [0] * n
        self.descended = 0
        headers = self.headers = [0] * n
        for i in self.states:
            m = entry[i]
            if not m or m == 1 << i:
                continue  # no entry step to another state: an empty loop
            forward = self.descent[i] = _reach(m, body, 1 << i)
            self.descended |= forward
            # the states of the loop with a body path back to i; the path
            # stays inside the loop, so the search back is confined to it
            for y in _members(_reach(body_pred[i] & forward, body_pred, ~forward)):
                headers[y] |= 1 << i
        plus = {0: 0}  # the states of one loop share their headers
        for m in headers:
            if m not in plus:
                plus[m] = _reach(m, headers)
        self.headers_plus = [plus[m] for m in headers]
        self.violation = _first_violation(self)

    @cached_property
    def lengths(self) -> tuple[list[int], list[int]]:
        """Per state number, the loop level and the body depth: the longest
        paths out of it along ``descent`` and ``body``, folded over the
        finishing orders of ``_first_violation``; on verified witnesses only."""
        folded = []
        for adj, finished in ((self.descent, self.descent_finished), (self.body, self.body_finished)):
            length = [0] * len(adj)
            for x in finished:
                if adj[x]:
                    length[x] = 1 + max([length[y] for y in _members(adj[x])])
            folded.append(length)
        return tuple(folded)


def _named(v: WitnessViolation, states: Sequence[StateId]) -> WitnessViolation:
    """A violation on state numbers as one on the states they number."""
    return WitnessViolation(v.clause, tuple([states[x] for x in v.detail]))


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
    a, name = L.analysis, L.base.states
    return (frozenset((name[x], name[y]) for x in a.states for y in _members(a.descent[x])),
            frozenset((name[y], name[x]) for y in a.states for x in _members(a.headers[y])))


def _first_violation(a: _Analysis) -> WitnessViolation | None:
    """The first violated clause, on state numbers, scanning pairs in
    number order."""
    for x in a.states:
        if both := a.entry[x] & a.body[x]:
            return WitnessViolation("flat", (x, _members(both)[0]))
    body_cycle, a.body_finished = _depth_first(a.mask, a.body)
    if body_cycle:
        return WitnessViolation("fully_specified_a", tuple(body_cycle))
    for x in a.states:
        if a.entry[x]:
            for y in _members(a.entry[x] & ~(1 << x)):
                if not a.reach[y] >> x & 1:
                    return WitnessViolation("fully_specified_b", (x, y))
    loop_cycle, a.descent_finished = _depth_first(a.mask, a.descent)
    if loop_cycle:
        return WitnessViolation("layered", tuple(loop_cycle))
    for x in a.states:
        if gotos := a.descent[x] & a.outputs:
            return WitnessViolation("goto_free", (x, _members(gotos)[0]))
    return None


def verify_witness(L: LabelledPrechart) -> tuple[bool, WitnessViolation | None]:
    """Check the five layering-witness conditions, reporting the first failure.

    1. locally finite (holds by construction: a prechart has finitely many,
    distinct states), 2. flat (no pair both entry and body), 3. fully
    specified (no body cycles; non-loop entries can return), 4. layered
    (loop descent is acyclic), 5. goto-free (no output strictly inside a
    loop).
    """
    violation = L.analysis.violation
    return violation is None, violation


def analysis_of_verified(L: LabelledPrechart) -> _Analysis:
    """Analysis of a witness that must verify; raises otherwise."""
    a = L.analysis
    if a.violation is not None:
        raise InvalidWitnessError(str(a.violation))
    return a


def measures(L: LabelledPrechart, x: StateId) -> tuple[int, int]:
    """Loop level and body depth of a state of a verified witness.

    The first component is the longest loop-descent chain out of ``x``, the
    second the longest body path out of ``x``.
    """
    a = analysis_of_verified(L)
    if not L.base.has_state(x):
        raise ValueError(f"unknown state {x!r}")
    i = L.base.index(x)
    en, bd = a.lengths
    return en[i], bd[i]


# --- the weighted form --------------------------------------------------------


def to_llee(L: LabelledPrechart) -> WeightedLabelling:
    """Weight a verified witness: entries get their loop level, bodies 0.

    A loop level of 0 can only happen on an entry self-loop; it is lifted to
    1 so that entries stay positive and the translation inverts.
    """
    a, number = analysis_of_verified(L), L.base.index
    en = a.lengths[0]
    weights = {
        edge: (max(en[number(edge[0])], 1) if t == ENTRY else 0) for edge, t in L.tags.items()
    }
    return WeightedLabelling(L.base, weights)


def from_llee(W: WeightedLabelling) -> LabelledPrechart:
    """Read tags off weights: positive weight with a return path is an entry."""
    reach, number = _reachability(W.base), W.base.index
    tags = {}
    for (x, a, y), n in W.weights.items():
        tags[(x, a, y)] = ENTRY if n > 0 and reach[number(y)] >> number(x) & 1 else BODY
    return LabelledPrechart(W.base, tags)


# --- the syntactic witness ------------------------------------------------------


def _derivation(e: Expr, action: str, f: Expr) -> tuple[str, Expr, Expr]:
    """The rule deriving ``e -action-> f``, and the step it applies to.

    Follows sequencing steps ``e1 e2 -> f1 e2`` down the left operand, then
    matches the ``output`` step of ``e1 e2`` into ``e2``, a ``sum`` step, or
    a star ``e1*e2``'s ``self-loop``, ``continuation`` (a step of ``e2``) or
    ``unrolling`` into ``f1(e1*e2)``.  At most one rule applies; raises
    ``ValueError`` when none does.
    """
    while isinstance(e, Seq):
        louts, lsucc = expr_step(e.left)
        if action in louts and f == e.right:
            return "output", e, f
        if not (isinstance(f, Seq) and f.right == e.right and f.left in lsucc.get(action, ())):
            break
        e, f = e.left, f.left
    if isinstance(e, Sum):
        return "sum", e, f
    if isinstance(e, Star):
        louts, lsucc = expr_step(e.left)
        if f == e and action in louts:
            return "self-loop", e, f
        if f in expr_step(e.right)[1].get(action, ()):
            return "continuation", e, f
        if isinstance(f, Seq) and f.right == e and f.left in lsucc.get(action, ()):
            return "unrolling", e, f
    raise ValueError(f"no rule derives {e} -{action}-> {f}")


def syntactic_witness(X: Prechart) -> LabelledPrechart:
    """The structural layering witness on a chart of expressions.

    A star's self-loop is an entry, and so is its unrolling into ``f(e1*e2)``
    when the residual ``f`` can still reach an output (a dead residual never
    returns, and must be a body step to stay fully specified).  Every other
    step is a body step.
    """
    for x in X.states:
        if not isinstance(x, Expr):
            raise ValueError("syntactic witness needs expression states")
    tags = {}
    for edge in X.edges():
        rule, _, f = _derivation(*edge)
        entry = rule == "self-loop" or (rule == "unrolling" and can_terminate(f.left))
        tags[edge] = ENTRY if entry else BODY
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
    tags: dict[Edge, str] = {}
    for (x, a, y), t in L1.tags.items():
        tags[(inl[x], a, inl[y])] = t
    for (x, a, y), t in L2.tags.items():
        tags[(inr[x], a, inr[y])] = t
    return LabelledPrechart(Z, tags), inl, inr


# --- witness inference -----------------------------------------------------------


def _loop_spanned(succ: Sequence[int], outputs: int, v: int, w: int) -> int | None:
    """The states inside the loop that the steps of ``v -> w`` span, as a
    mask, or None when they span none (see ``_eliminated``)."""
    inside = _reach(1 << w, succ, 1 << v)
    if w != v and (inside & outputs or _depth_first(inside, succ)[0]
                   or not any(succ[u] >> v & 1 for u in _members(inside))):
        return None
    return inside


def _eliminated(succ: Sequence[int], outputs: int) -> set[tuple[int, int]] | None:
    """The state pairs whose steps loop elimination removes, if it clears
    the chart of cycles; None when the chart has no layering witness.

    ``succ`` holds each state's successor mask, action labels forgotten, and
    ``outputs`` the mask of the states with an output (masks as in
    ``_reach``).  The steps of a pair ``v -> w`` span a loop when ``w == v``,
    or when the states ``_reach(1 << w, succ, 1 << v)``, those that ``w``
    reaches without passing ``v``, have no output, close no cycle and step
    back to ``v``: then every path out of ``w`` returns to ``v`` or stops.
    Such a pair is eliminable (``_loop_spanned``), and passes over the
    pairs in number order remove eliminable pairs until none is left.  (A
    pair that never steps back lies on no cycle, so its removal would not
    change the answer; the test keeps each removed pair a loop, whose steps
    could be tagged as returning entries.)

    This is loop existence and elimination (LEE), which holds exactly when
    the chart has a layering witness (Grabmayer & Fokkink, LICS 2020).  The
    order of eliminations does not matter, by two facts.  Removing an
    eliminable pair never destroys a witness (the tests check this against
    the search on every chart of up to three states).  And a chart that has
    a witness and a cycle always has an eliminable pair: a self-loop, or
    else an entry ``v -> w`` out of a state whose loop descends into no
    other loop; that loop holds body steps only and contains the states
    ``_reach(1 << w, succ, 1 << v)``, so they have no output (goto-free),
    close no cycle (fully specified) and step back to ``v`` (the entry
    returns).  So a chart with a witness is always eliminated to an acyclic
    one, and a run that stops with a cycle proves that there is none.

    The run freezes: a removal holds back the steps still present out of
    the states of its loop, which are never removed later (``infer_witness``
    tags them as that loop's body).  A frozen run that stops with a cycle
    looks again only at the held steps: every other pair was just found not
    eliminable against the same successor masks.  If none is, the answer is
    None; otherwise the run goes on without freezing, and if that clears
    the cycles, the freeze missed a witness, which raises ``RuntimeError``.
    """
    succ, n = list(succ), len(succ)
    removed: set[tuple[int, int]] = set()
    look = [-1] * n  # per state, the steps that the next pass looks at
    for freezing in (True, False):
        before = len(removed)
        eliminated = True
        while eliminated:
            eliminated = False
            for v in range(n):
                for w in _members(succ[v] & look[v]):
                    inside = _loop_spanned(succ, outputs, v, w)
                    if inside is None:
                        continue
                    succ[v] &= ~(1 << w)
                    removed.add((v, w))
                    eliminated = True
                    if freezing:
                        for u in _members(inside):
                            look[u] = ~succ[u]  # held back: the loop's body
            if not freezing:
                look = [-1] * n
        # test for a cycle only if a step went since the last test
        if (freezing or len(removed) > before) and _depth_first((1 << n) - 1, succ)[0] is None:
            if freezing:
                return removed
            raise RuntimeError(f"loop elimination clears the {n}-state chart of cycles, "
                               "yet the frozen run was left with one")
        look = [~m for m in look]  # the next pass looks only at the held steps
    return None


def enumerate_witnesses(X: Prechart, limit: int | None = None) -> list[LabelledPrechart]:
    """All layering witnesses of ``X``, in a fixed deterministic order.

    A chart that loop elimination (``_eliminated``, as in ``infer_witness``)
    does not clear of cycles has no witness, and is answered without a
    search.  Otherwise it has one, and the search finds it; a search that
    finds none raises ``RuntimeError``.

    Flatness lets the search assign one tag per state pair.  Self-loops are
    forced entries (a body self-loop is a body cycle); pairs with no return
    path, and pairs into an output state, are forced bodies.  The rest is a
    depth-first search over the free pairs, body before entry.  A body
    tag that would close a body cycle is skipped, and a partial labelling is
    cut as soon as it is doomed: the loop descent of its decided tags (as in
    ``derived_relations``) reaches a state with an output, or has a cycle.
    Deciding more pairs only adds descent pairs, so both violations persist
    to every completion and the cut subtrees hold no witness.

    The search numbers the states in discovery order and holds every
    relation as masks over those numbers (see ``_reach``): per state, its
    entry and body successors and its loop, the ``_reach`` of its entry
    successors through the body steps.  Per decided pair it keeps the loops
    its tag replaced, restored on backtracking.  An entry ``x -> y`` changes
    only ``x``'s loop, and a body step ``x -> y`` exactly the loops whose
    mask holds ``x``; only those are recomputed and tested, each for an
    output in its mask or for reaching its own state through the loops.
    Since the parent node was not doomed and a decision only grows the
    loops, any new violation runs through a changed loop, so this cuts
    exactly the nodes that testing every loop would.  Every complete
    labelling that survives is therefore a witness, and is built on the
    original transitions and checked by ``verify_witness``.  With a
    ``limit``, the search stops after that many witnesses; a limit of 0
    returns none, and a negative limit raises ``ValueError``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    n = len(X.states)
    number = {x: i for i, x in enumerate(X.states)}
    groups: dict[tuple[int, int], list[Edge]] = {}
    for edge in X.edges():
        groups.setdefault((number[edge[0]], number[edge[2]]), []).append(edge)
    outputs = _output_mask(map(X.out, X.states))
    if _eliminated(_successors(X.numbered_succ()), outputs) is None:
        return []
    reach = _reachability(X)  # memoised for the leaf's verify_witness

    forced: dict[tuple[int, int], str] = {}
    free: list[tuple[int, int]] = []
    for x, y in sorted(groups):
        if x == y:
            forced[(x, y)] = ENTRY
        elif not reach[y] >> x & 1:
            forced[(x, y)] = BODY  # an entry here could never be fully specified
        elif outputs >> y & 1:
            forced[(x, y)] = BODY  # an entry here could never be goto-free
        else:
            free.append((x, y))

    adj: dict[str, list[int]] = {ENTRY: [0] * n, BODY: [0] * n}
    for (x, y), t in forced.items():
        adj[t][x] |= 1 << y
    entry, body = adj[ENTRY], adj[BODY]
    loops = [_reach(entry[s], body, 1 << s) for s in range(n)]
    changed: Iterable[int] = range(n)  # at the root, test every loop
    results: list[LabelledPrechart] = []
    assignment: dict[tuple[int, int], str] = {}  # the decided free pairs
    todo: list[list[str]] = []  # per decided free pair, the tags still to try
    replaced: list[list[tuple[int, int]]] = []  # per assigned pair, the loops it replaced
    while limit is None or len(results) < limit:
        # visit the node whose decided pairs are free[:len(todo)]
        doomed = any(loops[s] & outputs  # not goto-free
                     or _reach(loops[s], loops) >> s & 1  # not layered
                     for s in changed)
        if not doomed and len(todo) == len(free):
            tags = {edge: forced.get(pair) or assignment[pair]
                    for pair, edges in groups.items() for edge in edges}
            candidate = LabelledPrechart(X, tags)
            if verify_witness(candidate)[0]:
                results.append(candidate)
        elif not doomed:
            x, y = free[len(todo)]
            # x -b-> y closes a body cycle iff x is body-reachable from y
            todo.append([ENTRY] if _reach(1 << y, body) >> x & 1 else [ENTRY, BODY])
        # move to the next node: retry the deepest pair with a tag left
        while todo:
            x, y = pair = free[len(todo) - 1]
            if pair in assignment:
                adj[assignment.pop(pair)][x] &= ~(1 << y)
                for s, loop in replaced.pop():
                    loops[s] = loop
            if todo[-1]:
                t = assignment[pair] = todo[-1].pop()
                adj[t][x] |= 1 << y
                changed = [x] if t == ENTRY else [s for s in range(n) if loops[s] >> x & 1]
                replaced.append([(s, loops[s]) for s in changed])
                for s in changed:
                    loops[s] = _reach(entry[s], body, 1 << s)
                break
            todo.pop()
        else:
            break
    if not results and limit != 0:
        raise RuntimeError(f"loop elimination clears the {n}-state chart of cycles, "
                           "yet the search found no layering witness")
    return results


def _eliminated_rows(alphabet: Sequence[str], outs: Sequence[frozenset[str]],
                     numbered: Sequence[Sequence[Sequence[int]]]) -> list[list] | None:
    """Loop elimination's witness (``_eliminated``) of the chart ``alphabet``,
    ``outs``, ``numbered`` (as in ``_Analysis``), as the rows ``[i, action,
    j, tag]`` of its steps in ``Prechart.edges`` order: the steps of each
    removed pair are entries, and every other step is a body step.  None
    when the chart has no layering witness."""
    entries = _eliminated(_successors(numbered), _output_mask(outs))
    if entries is None:
        return None
    return [[i, a, j, ENTRY if (i, j) in entries else BODY]
            for i, succ in enumerate(numbered) for a, js in zip(alphabet, succ) for j in js]


def infer_witness(X: Prechart) -> LabelledPrechart | None:
    """Some layering witness of ``X`` if one exists: the trace of loop
    elimination (``_eliminated_rows``), built in polynomial time.

    The steps of each removed pair become entries and every other step is a
    body step: the steps that a removal held back are the body of the loop
    that the removed steps enter.  The labelling must pass
    ``verify_witness``.  A witness that the frozen run missed (elimination
    without freezing clears the cycles it stopped with), or a labelling that
    does not verify, raises ``RuntimeError``; with no witness the answer is
    ``None``.
    """
    rows = _eliminated_rows(X.alphabet, list(map(X.out, X.states)), X.numbered_succ())
    if rows is None:
        return None
    name = X.states
    L = LabelledPrechart(X, {(name[i], a, name[j]): t for i, a, j, t in rows})
    ok, violation = verify_witness(L)
    if not ok:
        raise RuntimeError(f"loop elimination labelled the {len(X.states)}-state chart "
                           f"with no witness: {violation}")
    return L
