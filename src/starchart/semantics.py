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

from .syntax import Atom, Expr, Seq, Star, Sum, atoms, declare_alphabet

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
        # ``make``, and ``_numbered_chart`` for a chart document, set the
        # states' numbers that their own ``_check_chart`` returned before
        # ``__init__`` runs; every other chart, a rerouting too, is checked here
        if getattr(self, "_index", None) is None:
            index = _check_chart(self.alphabet, self.states, self.outputs, self.transitions, self.root)
            object.__setattr__(self, "_index", index)

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
        alphabet, states = tuple(alphabet), tuple(states)
        outs = {x: frozenset(v) for x, v in outputs.items() if v}
        trans: dict[StateId, dict[str, tuple[StateId, ...]]] = {}
        for x, row in transitions.items():
            new_row = {a: uniq for a, ys in row.items() if (uniq := tuple(dict.fromkeys(ys)))}
            if new_row:
                trans[x] = new_row
        index = _check_chart(alphabet, states, outs, trans, root)
        for row in trans.values():
            for a, ys in row.items():
                row[a] = tuple(sorted(ys, key=index.__getitem__))
        X = object.__new__(cls)
        object.__setattr__(X, "_index", index)
        X.__init__(alphabet, states, outs, trans, root)
        return X

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

    def numbered_succ(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per state and action, the distinct successors as state numbers
        (positions in ``states``), in discovery order.  Memoised on the
        prechart, as an attribute outside the dataclass fields, so the memo
        dies with the prechart; the charting walk fills it as it goes."""
        memo = getattr(self, "_numbered", None)
        if memo is None:
            number = self._index.__getitem__  # type: ignore[attr-defined]
            memo = tuple(
                tuple([tuple(sorted(set(map(number, row[a])))) if a in row else () for a in self.alphabet])
                for row in (self.transitions.get(x, {}) for x in self.states)
            )
            object.__setattr__(self, "_numbered", memo)
        return memo

    def __reduce__(self):
        # copies and pickles are rebuilt from the fields, without the memos
        return type(self), (self.alphabet, self.states, self.outputs, self.transitions, self.root)


def _check_chart(alphabet: Sequence[str], states: Sequence[StateId], outputs: Mapping[StateId, Iterable[str]],
                 transitions: Mapping[StateId, Mapping[str, Iterable[StateId]]],
                 root: StateId | None) -> dict[StateId, int]:
    """The states' numbers, once the chart that these fields give is
    checked.  Raises ``ValueError`` for the first of: an invalid action
    name, an action that ``alphabet`` repeats, a transition target that is
    not a state (by the rows of ``transitions`` in order, and each row's
    actions in order), duplicate states, an output at an unknown state or
    outside ``alphabet``, a transition from an unknown state or by an
    action outside ``alphabet``, and a root that is not a state."""
    declare_alphabet(alphabet)  # raises on an invalid action name
    actions = set(alphabet)
    if len(actions) != len(alphabet):
        raise ValueError(f"alphabet {alphabet!r} repeats an action")
    number = {x: i for i, x in enumerate(states)}
    for row in transitions.values():
        for ys in row.values():
            for y in ys:
                if y not in number:
                    raise ValueError(f"transition target {y!r} not a state")
    if len(number) != len(states):
        raise ValueError("duplicate states")
    for x, acts in outputs.items():
        if x not in number:
            raise ValueError(f"output at unknown state {x!r}")
        if not actions.issuperset(acts):
            raise ValueError(f"output action outside alphabet at {x!r}")
    for x, row in transitions.items():
        if x not in number:
            raise ValueError(f"transition from unknown state {x!r}")
        if not actions.issuperset(row):
            raise ValueError(f"transition action {next(a for a in row if a not in actions)!r} outside alphabet")
    if root is not None and root not in number:
        raise ValueError(f"root {root!r} not a state")
    return number


def restriction(X: Prechart, kept: Iterable[StateId], root: StateId | None = None) -> Prechart:
    """Restrict to a transition-closed subset, keeping relative state order.
    An error names the first of ``kept`` that is no state, else the first
    step outside, by state numbers."""
    numbers: set[int] = set()
    for x in kept:
        if not X.has_state(x):
            raise ValueError(f"unknown state {x!r}")
        numbers.add(X.index(x))
    order = sorted(numbers)
    for i in order:
        outside = [j for js in X.numbered_succ()[i] for j in js if j not in numbers]
        if outside:
            raise ValueError(f"{X.states[i]!r} steps outside the restriction to {X.states[min(outside)]!r}")
    return _numbered_chart(X.alphabet, _rerouted(_walk_of(X), order, {j: i for i, j in enumerate(order)}), root)


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
    from the memoised steps of its two children instead.  Only where two
    rows merge (a sum's sides, a star's continuation, unrolling and
    self-loop) is a successor tested against the row it joins.
    """
    step = getattr(e, "_step", None)
    if step is not None:
        return step
    kind = type(e)
    if kind is Seq:
        # no membership tests: e.right is a proper subterm of every
        # Seq(f, e.right), and distinct f give distinct sequences
        louts, lsucc = expr_step(e.left)
        right = e.right
        succ = {a: (right,) for a in sorted(louts)}
        for a, fs in lsucc.items():
            row = tuple([Seq(f, right) for f in fs])
            succ[a] = succ[a] + row if a in succ else row
        step = (_NO_OUTPUT, MappingProxyType(succ))
    elif kind is Sum:
        louts, succ = expr_step(e.left)
        routs, rsucc = expr_step(e.right)
        if succ and rsucc:
            succ = dict(succ)
            for a, fs in rsucc.items():
                _extend(succ, a, fs)
            succ = MappingProxyType(succ)
        step = (louts | routs, succ or rsucc)
    elif kind is Star:
        louts, lsucc = expr_step(e.left)
        out, rsucc = expr_step(e.right)
        succ = dict(rsucc)
        for a, fs in lsucc.items():
            _extend(succ, a, [Seq(f, e) for f in fs])
        for a in sorted(louts):
            _extend(succ, a, (e,))
        return out, MappingProxyType(succ)
    elif kind is Atom:
        step = (frozenset((e.action,)), _NO_STEPS)
    else:
        step = (_NO_OUTPUT, _NO_STEPS)
    object.__setattr__(e, "_step", step)
    return step


_NO_OUTPUT: frozenset[str] = frozenset()
_NO_STEPS: Mapping[str, tuple[Expr, ...]] = MappingProxyType({})


def _extend(succ: dict[str, tuple[Expr, ...]], a: str, fs: Iterable[Expr]) -> None:
    """Append to ``succ[a]`` the expressions of ``fs`` it does not hold yet."""
    row = succ.get(a, ())
    succ[a] = row + tuple([f for f in fs if f not in row])


def _outputs(e: Expr) -> frozenset[str]:
    """``expr_step(e)[0]``, read from the syntax: no successor is built."""
    kind = type(e)
    if kind is Sum:
        return _outputs(e.left) | _outputs(e.right)
    if kind is Star:
        return _outputs(e.right)
    return frozenset((e.action,)) if kind is Atom else _NO_OUTPUT


def _first_round(e: Expr) -> tuple[frozenset[str], frozenset[tuple[str, frozenset[str]]]]:
    """The outputs of ``e`` and the set of ``(a, outputs of f)`` over its
    steps ``e -a-> f``, read from the syntax as ``expr_step`` reads it, with
    no successor built: a step from ``e1`` inside ``e1 e2`` or ``e1*e2``
    reaches a sequence, which outputs nothing.  Bisimilar expressions have
    equal first rounds (the first round of refinement), so unequal ones
    separate them; equal ones prove nothing."""
    kind = type(e)
    if kind is Sum:
        louts, lsteps = _first_round(e.left)
        routs, rsteps = _first_round(e.right)
        return louts | routs, lsteps | rsteps
    if kind is Seq:
        louts, lsteps = _first_round(e.left)
        after = _outputs(e.right)
        return _NO_OUTPUT, frozenset([(a, _NO_OUTPUT) for a, _ in lsteps] + [(a, after) for a in louts])
    if kind is Star:
        louts, lsteps = _first_round(e.left)
        outs, steps = _first_round(e.right)
        return outs, steps.union([(a, _NO_OUTPUT) for a, _ in lsteps], [(a, outs) for a in louts])
    return _outputs(e), frozenset()


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
    ``alphabet`` must cover every atom of the roots."""
    return _numbered_chart(alphabet, _walk(roots, alphabet), root)


# what the charting walk finds: the states, their outputs, their numbered successors
_Walk = tuple[tuple[StateId, ...], Sequence[frozenset[str]], Sequence[tuple[tuple[int, ...], ...]]]


def _layers(roots: Iterable[Expr], alphabet: tuple[str, ...]) -> Iterator[_Walk]:
    """The charting walk, one layer at a time: breadth first from ``roots``,
    it numbers states in the order it discovers them, and steps them in that
    order, recording their outputs and numbered successors (see
    ``Prechart.numbered_succ``).  Equal expressions are one state, the first
    discovered.  Yields ``(states, outs, numbered)``, the same growing lists
    each time, once before it steps anything and then once per layer, when
    it has stepped every state that it had discovered when the layer began:
    ``outs`` and ``numbered`` cover the states within some distance
    ``d - 1`` of the roots, none at first, and ``states`` holds those within
    ``d``.  The last yield follows the last step."""
    states = list(dict.fromkeys(roots))
    number = {x: i for i, x in enumerate(states)}
    outs: list[frozenset[str]] = []
    numbered: list[tuple[tuple[int, ...], ...]] = []
    walk = states, outs, numbered
    layer = 0  # how many states were discovered when the layer began
    for x in states:  # grows as the walk discovers states: a queue
        if len(outs) == layer:
            yield walk
            layer = len(states)
        out, succ = expr_step(x)
        outs.append(out)
        rows = []
        for a in alphabet:
            js = []
            for y in succ.get(a, ()):  # distinct expressions, so distinct numbers
                j = number.get(y)
                if j is None:
                    j = number[y] = len(states)
                    states.append(y)
                js.append(j)
            rows.append(tuple(sorted(js)))
        numbered.append(tuple(rows))
    if states:
        yield walk


def _walk(roots: Iterable[Expr], alphabet: tuple[str, ...]) -> _Walk:
    """The charting walk (see ``_layers``) run to its end: the states, their
    outputs and their numbered successors."""
    walk: _Walk = ((), [], [])
    for walk in _layers(roots, alphabet):
        pass
    states, outs, numbered = walk
    return tuple(states), outs, numbered


def _coproduct_walk(e: Expr, f: Expr, alphabet: tuple[str, ...]) -> tuple[_Walk, int]:
    """The walks of ``e`` and ``f`` joined: the states of ``coproduct(chart_of(e),
    chart_of(f))``, untagged, in its order, and the number of ``e``'s states,
    which is the number of ``f``'s root."""
    left = _walk([e], alphabet)
    return _join(left, _walk([f], alphabet)), len(left[0])


def _join(left: _Walk, right: _Walk) -> _Walk:
    """The states of ``left`` and then those of ``right``, whose successor
    numbers are shifted past ``left``'s states."""
    (xs, x_outs, x_numbered), (ys, y_outs, y_numbered) = left, right
    n = len(xs)
    shifted = [tuple([tuple([j + n for j in js]) for js in rows]) for rows in y_numbered]
    return (*xs, *ys), [*x_outs, *y_outs], [*x_numbered, *shifted]


def _numbered_chart(alphabet: tuple[str, ...], walk: _Walk, root: StateId | None = None,
                    index: dict[StateId, int] | None = None) -> Prechart:
    """The prechart of a walk's states, outputs and numbered successors,
    normalised as ``Prechart.make`` would; its ``numbered_succ`` memo is
    the walk's.  It is checked as every prechart is, unless the caller
    passes the ``index`` that ``_check_chart`` returned for the same chart."""
    states, outs, numbered = walk
    transitions: dict[StateId, dict[str, tuple[StateId, ...]]] = {}
    for x, rows in zip(states, numbered):
        row = {a: tuple(map(states.__getitem__, js)) for a, js in zip(alphabet, rows) if js}
        if row:
            transitions[x] = row
    outputs = {x: out for x, out in zip(states, outs) if out}
    if index is None:
        X = Prechart(alphabet, states, outputs, transitions, root)
    else:
        X = object.__new__(Prechart)
        object.__setattr__(X, "_index", index)
        X.__init__(alphabet, states, outputs, transitions, root)
    object.__setattr__(X, "_numbered", tuple(numbered))
    return X


def _distinguishes(formula: Any, e: Expr, f: Expr, alphabet: tuple[str, ...]) -> bool:
    """Whether the Hennessy–Milner formula ``formula`` holds at ``e`` and
    fails at ``f``.  It is a node list, the root last, as
    ``bisim._distinguishing_formula`` writes it: ``["out", a]``, ``["not",
    i]``, ``["and", [i, ...]]`` and ``["dia", a, i]``, whose children ``i``
    are earlier indices.  Anything else fails and nothing raises: an empty
    list, a node of an unknown kind or length, a child index that is no
    earlier node's or is a bool, an action outside ``alphabet``.

    Satisfaction is decided only at the derivatives that the formula
    reaches from ``e`` and ``f``, numbered in a table keyed by expression,
    as ``_walk`` numbers its states.  An ``out`` node reads a state's
    outputs from the syntax (``_outputs``), so a state is stepped by
    ``expr_step`` only where a ``dia`` node needs its successors.  Each node
    is decided at each such state once, on an explicit stack, so the check
    costs O(|φ|·m) for the ``m`` transitions it reaches."""
    if not isinstance(formula, list) or not formula:
        return False
    for i, node in enumerate(formula):
        kind, *args = node if isinstance(node, list) and node else [None]
        earlier = lambda j: type(j) is int and 0 <= j < i  # neither a bool nor a later index
        if not (kind == "out" and len(args) == 1 and args[0] in alphabet
                or kind == "not" and len(args) == 1 and earlier(args[0])
                or kind == "and" and len(args) == 1 and isinstance(args[0], list) and all(map(earlier, args[0]))
                or kind == "dia" and len(args) == 2 and args[0] in alphabet and earlier(args[1])):
            return False
    states: list[Expr] = []
    number: dict[Expr, int] = {}

    def state(x: Expr) -> int:
        j = number.get(x)
        if j is None:
            j = number[x] = len(states)
            states.append(x)
        return j

    root = len(formula) - 1
    left, right = state(e), state(f)
    holds: dict[tuple[int, int], bool] = {}
    stack: list[tuple] = [(root, right), (root, left)]
    while stack:
        task = stack.pop()
        if len(task) == 3:  # every child is decided
            i, x, children = task
            kind = formula[i][0]
            values = map(holds.__getitem__, children)
            holds[i, x] = not next(values) if kind == "not" else any(values) if kind == "dia" else all(values)
            continue
        i, x = task
        if task in holds:
            continue
        kind, *args = formula[i]
        if kind == "out":
            holds[task] = args[0] in _outputs(states[x])
            continue
        if kind == "dia":
            children = [(args[1], state(y)) for y in expr_step(states[x])[1].get(args[0], ())]
        else:
            children = [(j, x) for j in (args if kind == "not" else args[0])]
        stack.append((i, x, children))
        stack += [child for child in children if child not in holds]
    return holds[root, left] and not holds[root, right]


# --- coalgebra constructions ---------------------------------------------------


def coproduct(
    X: Prechart, Y: Prechart
) -> tuple[Prechart, dict[StateId, StateId], dict[StateId, StateId]]:
    """Disjoint union on the states ``(0, x)`` of ``X`` and then ``(1, y)``
    of ``Y``, with both injections; the result has no root."""
    if X.alphabet != Y.alphabet:
        raise ValueError("alphabet mismatch")
    _, outs, numbered = _join(_walk_of(X), _walk_of(Y))
    inl, inr = {x: (0, x) for x in X.states}, {y: (1, y) for y in Y.states}
    return _numbered_chart(X.alphabet, ((*inl.values(), *inr.values()), outs, numbered)), inl, inr


def generated(X: Prechart, x: StateId) -> Prechart:
    """Smallest subcoalgebra containing ``x``, rooted at ``x``, in ``X.reachable_from(x)`` order."""
    if not X.has_state(x):
        raise ValueError(f"unknown state {x!r}")
    order = list(map(X.index, X.reachable_from(x)))
    return _numbered_chart(X.alphabet, _rerouted(_walk_of(X), order, {j: i for i, j in enumerate(order)}), x)


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
            # dicts keep successor order, so hashing cannot pick the target
            image = dict.fromkeys(h[y] for y in X.succ(x, a))
            actual = dict.fromkeys(Y.succ(hx, a))
            for y in image:
                if y not in actual:
                    return False, HomViolation("extra-edge", x, a, y)
            for y in actual:
                if y not in image:
                    return False, HomViolation("missing-edge", x, a, y)
    return True, None


def quotient(X: Prechart, R: "PartitionRelation") -> tuple[Prechart, dict[StateId, StateId]]:
    """Quotient by a verified bisimulation equivalence (see ``_quotient``).

    Block representatives are the least members in discovery order; the
    returned projection is a homomorphism whose kernel is ``R``.
    """
    from .bisim import _checked_partition  # cycle: bisim builds on semantics

    _checked_partition(X, R)
    numbers: dict[int, int] = {}  # blocks renumbered by least member
    block_of = [numbers.setdefault(R.block_index(x), len(numbers)) for x in X.states]
    kept = _quotient(_walk_of(X), block_of)
    Q = _numbered_chart(X.alphabet, kept, None if X.root is None else kept[0][block_of[X.index(X.root)]])
    return Q, {x: Q.states[b] for x, b in zip(X.states, block_of)}


def _quotient(walk: _Walk, block_of: Sequence[int]) -> _Walk:
    """The quotient of a walk by a bisimulation partition whose blocks
    ``block_of`` numbers by least member: the rerouting onto each block's
    least member, so block ``b`` is state number ``b``.  Not checked: the
    caller has checked that the partition is a bisimulation."""
    reps: list[int] = []
    for x, b in enumerate(block_of):
        if b == len(reps):
            reps.append(x)
    return _rerouted(walk, reps, block_of)


def _rerouted(walk: _Walk, kept: Sequence[int], image: Sequence[int] | Mapping[int, int]) -> _Walk:
    """A walk pushed along a splitting: the states numbered ``kept``, in
    that order, with their outputs, each successor ``j`` sent to its
    position ``image[j]`` in ``kept`` and each row sorted and without
    repeats.  Not checked: ``image`` covers every kept state's successors."""
    states, outs, numbered = walk
    rows = [tuple([tuple(sorted({image[j] for j in js})) for js in numbered[x]]) for x in kept]
    return tuple([states[x] for x in kept]), [outs[x] for x in kept], rows


def _walk_of(X: Prechart) -> _Walk:
    """A prechart's states, outputs and numbered successors, as a walk."""
    return X.states, [X.out(x) for x in X.states], X.numbered_succ()


def kernel_partition(h: Mapping[StateId, StateId], states: tuple[StateId, ...]) -> "PartitionRelation":
    """The kernel of a map as a partition of ``states``."""
    from .bisim import PartitionRelation

    groups: dict[Any, list[StateId]] = {}
    for x in states:
        groups.setdefault(h[x], []).append(x)
    return PartitionRelation.from_blocks(states, groups.values())
