"""Bisimilarity on finite precharts: checking relations, partition refinement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .semantics import Prechart, StateId, _alphabet_for, _coproduct_walk
from .syntax import Expr, atoms


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
    return _stable(_outputs(X), X.numbered_succ(), block_of, len(R.blocks))


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
    block = block_of.__getitem__
    refined = [
        numbers.setdefault((b, tuple([frozenset(map(block, js)) for js in rows])), len(numbers))
        for b, rows in zip(block_of, numbered)
    ]
    return refined, len(numbers)


def _coarsest(outs: Sequence[frozenset[str]], numbered: _Numbered) -> tuple[list[int], int]:
    """The largest bisimulation as ``(block_of, count)``: blocks by output
    set, split by successor blocks until a round splits none.  Blocks are
    numbered by their least member."""
    numbers: dict[frozenset[str], int] = {}
    block_of = [numbers.setdefault(out, len(numbers)) for out in outs]
    count = len(numbers)
    while True:
        block_of, refined = _refine(numbered, block_of)
        if refined == count:
            return block_of, count
        count = refined


def _stable(outs: Sequence[frozenset[str]], numbered: _Numbered, block_of: list[int], count: int) -> bool:
    """Whether the partition into ``count`` blocks that ``block_of`` numbers
    is a bisimulation: outputs agree within each block, and one refinement
    round splits none, so each block agrees on per-action successor blocks."""
    first: dict[int, frozenset[str]] = {}
    if any(first.setdefault(b, out) != out for b, out in zip(block_of, outs)):
        return False
    return _refine(numbered, block_of)[1] == count


def _outputs(X: Prechart) -> list[frozenset[str]]:
    return [X.out(x) for x in X.states]


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
    return _partition(X, *_coarsest(_outputs(X), X.numbered_succ()))


def bisimilar(e: Expr, f: Expr, alphabet: Iterable[str] | None = None) -> bool:
    """Decide whether two expressions have bisimilar charts."""
    alpha = tuple(alphabet) if alphabet is not None else tuple(sorted(atoms(e) | atoms(f)))
    for x in (e, f):
        _alphabet_for(x, alpha)  # raises on an atom outside the alphabet
    (_, outs, numbered), n = _coproduct_walk(e, f, alpha)
    block_of = _coarsest(outs, numbered)[0]
    return block_of[0] == block_of[n]
