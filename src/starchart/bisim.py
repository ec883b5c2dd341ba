"""Bisimilarity on finite precharts: checking relations, partition refinement."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .semantics import Prechart, StateId, _join, _layers, _outputs
from .syntax import Expr, atoms, declare_alphabet


@dataclass(frozen=True)
class PartitionRelation:
    """An equivalence relation on a finite state set, stored as a partition.

    Blocks are ordered by their least member in discovery order, and each
    block lists its members in discovery order, so block numbering is stable.
    """

    universe: tuple[StateId, ...]
    blocks: tuple[tuple[StateId, ...], ...]

    def __post_init__(self) -> None:
        index = {x: i for i, x in enumerate(self.universe)}
        block_of: dict[StateId, int] = {}
        for b, block in enumerate(self.blocks):
            for x in block:
                if x not in index:
                    raise ValueError(f"block member {x!r} outside the universe")
                if x in block_of:
                    raise ValueError(f"{x!r} occurs in two blocks")
                block_of[x] = b
        if len(block_of) != len(self.universe):
            raise ValueError("blocks do not cover the universe")
        object.__setattr__(self, "_block_of", block_of)

    @classmethod
    def from_blocks(
        cls, universe: Iterable[StateId], blocks: Iterable[Iterable[StateId]]
    ) -> "PartitionRelation":
        universe = tuple(universe)
        index = {x: i for i, x in enumerate(universe)}
        ordered = [tuple(sorted(set(b), key=index.__getitem__)) for b in blocks]
        ordered = [b for b in ordered if b]
        ordered.sort(key=lambda b: index[b[0]])
        return cls(universe, tuple(ordered))

    @classmethod
    def identity(cls, universe: Iterable[StateId]) -> "PartitionRelation":
        universe = tuple(universe)
        return cls.from_blocks(universe, [(x,) for x in universe])

    @classmethod
    def total(cls, universe: Iterable[StateId]) -> "PartitionRelation":
        universe = tuple(universe)
        return cls.from_blocks(universe, [universe] if universe else [])

    def block_index(self, x: StateId) -> int:
        return self._block_of[x]  # type: ignore[attr-defined]

    def related(self, x: StateId, y: StateId) -> bool:
        return self.block_index(x) == self.block_index(y)

    def pairs(self) -> Iterator[tuple[StateId, StateId]]:
        """All related ordered pairs, diagonal included."""
        for block in self.blocks:
            for x in block:
                for y in block:
                    yield (x, y)

    @property
    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


@dataclass(frozen=True)
class BisimViolation:
    """A failed clause: mismatched outputs, or an unmatched transition."""

    clause: str  # "output" | "forth" | "back"
    left: StateId
    right: StateId
    action: str
    successor: StateId | None = None


def check_bisimulation(
    X: Prechart,
    Y: Prechart,
    relation: PartitionRelation | Iterable[tuple[StateId, StateId]],
) -> tuple[bool, BisimViolation | None]:
    """Check the three bisimulation clauses for every related pair.

    Outputs must agree; every left transition must be matched on the right
    within the relation, and symmetrically.  The first failing pair is
    reported with its clause.  A ``PartitionRelation`` on the states of
    ``X`` (with ``Y is X``) is decided by one refinement round; only when
    that fails are its pairs scanned, to name the violation.
    """
    if isinstance(relation, PartitionRelation):
        if Y is X and _partition_is_bisimulation(X, relation):
            return True, None
        relation = relation.pairs()
    pairs = list(relation)
    for x, y in pairs:
        if not X.has_state(x) or not Y.has_state(y):
            raise ValueError(f"relation references unknown states ({x!r}, {y!r})")
    related = set(pairs)
    is_related = lambda x2, y2: (x2, y2) in related
    for x, y in pairs:
        for violation in _violations(X, Y, is_related, x, y):
            return False, violation
    return True, None


def _violations(
    X: Prechart, Y: Prechart, related: Callable[[StateId, StateId], bool], x: StateId, y: StateId,
) -> Iterator[BisimViolation]:
    """The failed clauses of the pair ``(x, y)`` under the relation ``related``.

    First the output actions on which the two disagree, in sorted order;
    then, per action of either alphabet (those of ``X`` in order, then those
    only ``Y`` has), each unmatched left transition (``forth``) before each
    unmatched right one (``back``).
    """
    for action in sorted(X.out(x) ^ Y.out(y)):
        yield BisimViolation("output", x, y, action)
    for a in dict.fromkeys(X.alphabet + Y.alphabet):
        for x2 in X.succ(x, a):
            if not any(related(x2, y2) for y2 in Y.succ(y, a)):
                yield BisimViolation("forth", x, y, a, x2)
        for y2 in Y.succ(y, a):
            if not any(related(x2, y2) for x2 in X.succ(x, a)):
                yield BisimViolation("back", x, y, a, y2)


def _partition_is_bisimulation(X: Prechart, R: PartitionRelation) -> bool:
    """Whether ``R`` is a bisimulation partition of exactly ``X.states``;
    a partition of any other state set answers ``False``."""
    if len(R.universe) != len(X.states) or not all(X.has_state(x) for x in R.universe):
        return False
    block_of = list(map(R._block_of.__getitem__, X.states))  # type: ignore[attr-defined]
    return _stable([X.out(x) for x in X.states], X.numbered_succ(), block_of, len(R.blocks))


def _checked_partition(X: Prechart, R: PartitionRelation) -> None:
    """Raise ``ValueError`` unless ``R`` is a bisimulation equivalence on
    the states of ``X``, naming the violation."""
    if set(R.universe) != set(X.states):
        raise ValueError("relation universe differs from the state set")
    ok, why = check_bisimulation(X, X, R)
    if not ok:
        raise ValueError(f"relation is not a bisimulation: {why}")


# The refinement core works on state numbers: ``outs`` and ``numbered`` hold
# the outputs and the per-action successor numbers of each state (see
# ``Prechart.numbered_succ``), and ``block_of`` the block of each state.


_Numbered = Sequence[tuple[tuple[int, ...], ...]]


def _refine(numbered: _Numbered, block_of: list[int]) -> tuple[list[int], int]:
    """One round: split blocks by per-action sets of successor blocks.

    New blocks are numbered by their least member; returns the numbering
    and the number of blocks.
    """
    numbers: dict[tuple, int] = {}
    return _signed(numbers, block_of, block_of, numbered), len(numbers)


def _signed(numbers: dict[tuple, int], block_of: Sequence[int], blocks: Iterable[int],
            rows: Iterable[tuple[tuple[int, ...], ...]]) -> list[int]:
    """The blocks, one round after ``block_of``, of the states whose blocks
    and successor rows ``blocks`` and ``rows`` list: each state's signature,
    its block and per action the set of its successors' blocks, numbered in
    ``numbers``, which gives a new signature the next number."""
    block = block_of.__getitem__
    return [numbers.setdefault((b, tuple([frozenset(map(block, js)) for js in row])), len(numbers))
            for b, row in zip(blocks, rows)]


def _coarsest(outs: Sequence[frozenset[str]], numbered: _Numbered) -> tuple[list[list[int]], int]:
    """The largest bisimulation as ``(rounds, count)``: blocks by output
    set, split by successor blocks until a round splits none.  ``rounds``
    holds the numbering of each round, the output partition first; the
    last is the largest bisimulation's ``block_of``, with ``count`` blocks.
    Blocks are numbered by their least member."""
    numbers: dict[frozenset[str], int] = {}
    rounds = [[numbers.setdefault(out, len(numbers)) for out in outs]]
    count = len(numbers)
    while True:
        block_of, refined = _refine(numbered, rounds[-1])
        if refined == count:
            return rounds, count
        rounds.append(block_of)
        count = refined


def _stable(outs: Sequence[frozenset[str]], numbered: _Numbered, block_of: list[int], count: int) -> bool:
    """Whether the partition into ``count`` blocks that ``block_of`` numbers
    is a bisimulation: outputs agree within each block, and one refinement
    round splits none, so each block agrees on per-action successor blocks."""
    first: dict[int, frozenset[str]] = {}
    if any(first.setdefault(b, out) != out for b, out in zip(block_of, outs)):
        return False
    return _refine(numbered, block_of)[1] == count


def _distinguishing_formula(alphabet: tuple[str, ...], outs: Sequence[frozenset[str]], numbered: _Numbered,
                            rounds: list[list[int]], x: int, y: int) -> list[list]:
    """A Hennessy–Milner formula that holds at state ``x`` and fails at
    ``y``, which the last of the refinement ``rounds`` separates (those of
    ``_coarsest``, or the layered rounds of ``_decide``), as a node list,
    the root last: ``["out", a]``, ``["not", i]``, ``["and", [i, ...]]``
    (true when empty) and ``["dia", a, i]``, whose children ``i`` are
    earlier indices.

    The first round ``r`` that separates a pair gives its formula
    (Cleaveland, CAV 1990).  At ``r = 0`` it is an output one state has,
    or the negation of one it lacks.  Else, per action ``a`` in order, a
    successor ``x'`` of ``x`` whose round ``r - 1`` block no successor
    ``y'`` of ``y`` shares gives ``⟨a⟩ ⋀ φ(x', y')``; failing that, such a
    successor ``y'`` of ``y`` gives the mirror formula, negated.  Each
    conjunct's pair is separated in an earlier round, so the derivation
    ends.  Formulas are memoised on the pair and equal nodes are one, so
    the list has O(n²) nodes; it is built on an explicit stack.  A pair's
    first separating round is found by a scan, so rounds may leave out the
    states whose entries no pair that the derivation meets reads."""
    nodes: list[list] = []
    number: dict[tuple, int] = {}

    def node(*key) -> int:
        i = number.get(key)
        if i is None:
            i = number[key] = len(nodes)
            nodes.append(list(key) if key[0] != "and" else ["and", list(key[1])])
        return i

    def split(x: int, y: int) -> tuple[str, bool, list[tuple[int, int]] | None]:
        """The output (pairs ``None``) or the action that first separates
        ``x`` and ``y``, whether the formula is negated, and the pairs of
        its conjunction."""
        r = next((k for k, blocks in enumerate(rounds) if blocks[x] != blocks[y]), len(rounds))
        if r == 0:
            a = min(outs[x] ^ outs[y])
            return a, a not in outs[x], None
        before = rounds[r - 1]
        for a, xs, ys in zip(alphabet, numbered[x], numbered[y]):
            for ps, qs, negated in ((xs, ys, False), (ys, xs, True)):
                blocks = {before[q] for q in qs}
                p = next((p for p in ps if before[p] not in blocks), None)
                if p is not None:
                    return a, negated, [(p, q) for q in qs]
        raise RuntimeError(f"round {r} separates states {x} and {y} but no clause of round {r - 1} does")

    formula: dict[tuple[int, int], int] = {}
    stack = [(x, y)]
    while stack:
        pair = stack[-1]
        if pair in formula:
            stack.pop()
            continue
        a, negated, pairs = split(*pair)
        missing = [q for q in pairs or () if q not in formula]
        if missing:
            stack += missing
            continue
        stack.pop()
        if pairs is None:
            i = node("out", a)
        else:
            conjuncts = tuple(dict.fromkeys([formula[q] for q in pairs]))
            i = node("dia", a, conjuncts[0] if len(conjuncts) == 1 else node("and", conjuncts))
        formula[pair] = node("not", i) if negated else i
    return nodes


def _partition(X: Prechart, block_of: list[int], count: int) -> PartitionRelation:
    blocks: list[list[StateId]] = [[] for _ in range(count)]
    for x, b in zip(X.states, block_of):
        blocks[b].append(x)
    return PartitionRelation(X.states, tuple(map(tuple, blocks)))


def refine_once(X: Prechart, partition: PartitionRelation) -> PartitionRelation:
    """Split blocks by per-action sets of successor blocks."""
    return _partition(X, *_refine(X.numbered_succ(), list(map(partition.block_index, X.states))))


def bisimilarity(X: Prechart) -> PartitionRelation:
    """Largest bisimulation equivalence on ``X`` by partition refinement.

    Starts from the per-action output signature and iterates successor-block
    splitting to the greatest fixpoint, on a list of blocks by state number.
    """
    rounds, count = _coarsest([X.out(x) for x in X.states], X.numbered_succ())
    return _partition(X, rounds[-1], count)


def _certified_alphabet(e: Expr, f: Expr, alphabet: Iterable[str] | None = None) -> tuple[str, ...]:
    """The declared ``alphabet``, or else the atoms that ``e`` and ``f``
    use; raises ``ValueError`` naming every atom of either outside it."""
    used = atoms(e) | atoms(f)
    alpha = declare_alphabet(alphabet) if alphabet is not None else tuple(sorted(used))
    if missing := used - set(alpha):
        raise ValueError(f"atoms outside the declared alphabet: {sorted(missing)}")
    return alpha


def bisimilar(e: Expr, f: Expr, alphabet: Iterable[str] | None = None) -> bool:
    """Decide whether two expressions have bisimilar charts, by the decision
    that stops at the round that separates them (``_decide``)."""
    return _decide(e, f, _certified_alphabet(e, f, alphabet)).bisimilar


class _Decision:
    """The coproduct of both charts and its bisimilarity, on state numbers:
    a verdict's data.

    ``states`` are the expressions that the walks of ``e`` and then of ``f``
    discover, the states of ``coproduct(chart_of(e), chart_of(f))`` in its
    order but untagged; ``outs`` and ``numbered`` hold each one's outputs
    and per-action successor numbers.  The first ``n`` are ``e``'s, so the
    roots are numbers 0 and ``n``.  ``rounds`` numbers the block of each
    state in each round of the refinement, and the last, ``block_of``, in
    the bisimilarity, which has ``count`` blocks.  No chart of these states
    is built: an equivalent pair's quotient is built from the arrays.

    A decision that separated the roots before its walks ended (see
    ``_decide``) holds only what the walks reached, where round ``r``, the
    last, is the first that separates the roots: ``states`` the states
    within ``r`` steps of their root, which each walk discovered, ``outs``
    their outputs, read from the syntax, ``numbered`` the entries of the
    states within ``r - 1`` steps, which each walk stepped, and round ``k``
    the blocks of the states within ``r - k`` steps; every other entry is
    ``None``, or past the end of its list on ``f``'s side, and ``count`` is
    the number of round ``r`` blocks among the states it covers.
    """

    def __init__(self, states: tuple[Expr, ...], outs: list[frozenset[str]],
                 numbered: list[tuple[tuple[int, ...], ...]], n: int, rounds: list[list[int]], count: int) -> None:
        self.states, self.outs, self.numbered = states, outs, numbered
        self.n, self.rounds, self.count = n, rounds, count

    @property
    def block_of(self) -> list[int]:
        return self.rounds[-1]

    @property
    def bisimilar(self) -> bool:
        return self.block_of[0] == self.block_of[self.n]


def _decide(e: Expr, f: Expr, alphabet: tuple[str, ...]) -> _Decision:
    """Decide bisimilarity of ``e`` and ``f``, stopping at the first round
    that separates them.

    Round ``k`` of the refinement is ``k``-step bisimilarity, which depends
    only on the states within ``k`` steps (Hennessy and Milner, JACM 1985).
    So the walks of ``e`` and ``f`` advance one layer at a time
    (``semantics._layers``), and once both have discovered every state
    within ``d`` steps of their root and stepped those within ``d - 1``,
    round ``d - i`` is computed for the states ``i`` steps away: round 0
    from the outputs of the states ``d`` steps away, read from the syntax
    (``semantics._outputs``) with no step, and each later round from the
    one before by ``_refine``'s signature.  So a pair that round 0
    separates steps nothing, and one that round 1 separates steps only its
    roots.  Block numbers are shared by both sides.  The first ``d`` at
    which the roots' round ``d`` blocks differ separates them; the decision
    stops there, and its rounds reach every entry that
    ``_distinguishing_formula`` reads, so the formula is the one that all
    rounds give.

    The check deepens only while its round entries, summed over layers, are
    no more than the outputs read plus the states and transitions stepped,
    so that a deep chart pays at most its walk again.  When it stops, or
    when the walks end with the roots unseparated, the walks run to their
    end on the same arrays and ``_coarsest`` decides on the whole
    coproduct, so an equivalent pair's ``block_of`` is the largest
    bisimulation's on every state."""
    walks = [_layers([e], alphabet), _layers([f], alphabet)]
    sides: list = [None, None]  # per side: the arrays of its walk
    read: tuple[list[frozenset[str]], list[frozenset[str]]] = ([], [])  # per side: the outputs of the states discovered
    ends: tuple[list[int], list[int]] = ([], [])  # per side and distance d: how many states lie within d steps
    rounds: tuple[list[list[int]], list[list[int]]] = ([], [])  # per side and round: its blocks
    numbers: list[dict] = []  # per round: the block number of each signature
    entries = walked = 0
    d = 0
    while True:
        ended = True
        for s, walk in enumerate(walks):
            stepped = ends[s][-2] if d > 1 else 0  # how many states were stepped before this layer
            # a walk that has ended leaves its arrays as they are
            sides[s] = states, outs, numbered = next(walk, sides[s])
            read[s].extend(map(_outputs, states[len(read[s]):]))
            # the states stepped in this layer, their transitions, and the outputs read past them
            walked += len(states) - stepped + sum(map(len, chain.from_iterable(numbered[stepped:])))
            ends[s].append(len(states))
            ended = ended and len(outs) == len(states)
        entries += ends[0][d] + ends[1][d]
        if entries > walked:
            break
        numbers.append({})
        for (_, _, numbered), outs, end, blocks in zip(sides, read, ends, rounds):
            blocks.append([])
            hi = end[d]
            for k, table in enumerate(numbers):  # round k of the states d - k steps away
                lo = end[d - k - 1] if k < d else 0
                if k:
                    before = blocks[k - 1]
                    blocks[k] += _signed(table, before, before[lo:hi], numbered[lo:hi])
                else:
                    blocks[0] += [table.setdefault(out, len(table)) for out in outs[lo:hi]]
                hi = lo
        if rounds[0][d][0] != rounds[1][d][0]:
            # ``f``'s states follow all that ``e``'s walk discovered: ``e``'s
            # rows and rounds are padded to them, then each round is joined
            n = len(sides[0][0])
            for column in (sides[0][2], *rounds[0]):
                column += [None] * (n - len(column))
            for left, right in zip(*rounds):
                left += right
            (xs, _, x_rows), (ys, _, y_rows) = sides
            return _Decision(*_join((xs, read[0], x_rows), (ys, read[1], y_rows)), n, rounds[0], len(numbers[d]))
        if ended:
            break
        d += 1
    for walk in walks:
        for _ in walk:
            pass
    states, outs, numbered = _join(*sides)
    return _Decision(states, outs, numbered, len(sides[0][0]), *_coarsest(outs, numbered))
