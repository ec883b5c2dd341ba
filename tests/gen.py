"""Shared test machinery: seeded generators, axiom rewriting, small oracles."""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from itertools import product
from types import MappingProxyType
from typing import Mapping

from starchart import (
    Atom,
    Expr,
    LabelledPrechart,
    PartitionRelation,
    Prechart,
    Seq,
    Star,
    Sum,
    Zero,
    Splitting,
    bisimilar,
    certify,
    chart_of,
    coproduct,
    derived_relations,
    gsum,
    size_bound,
    verify_witness,
)
from starchart import cli
from starchart.bisim import _decide
from starchart.layering import _named
from starchart.semantics import expr_step
from starchart.syntax import can_terminate

DEFAULT_ALPHABET = ("a", "b", "c")


# --- expressions ----------------------------------------------------------------


def random_expr(rng: random.Random, alphabet=DEFAULT_ALPHABET, depth: int = 4) -> Expr:
    """A random expression of bounded depth, biased toward small leaves."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return Zero()
        return Atom(rng.choice(alphabet))
    op = rng.choice((Sum, Seq, Star))
    return op(random_expr(rng, alphabet, depth - 1), random_expr(rng, alphabet, depth - 1))


def node_count(e: Expr) -> int:
    if isinstance(e, (Zero, Atom)):
        return 1
    return 1 + node_count(e.left) + node_count(e.right)


def distinct_nodes(e: Expr) -> list[Expr]:
    """The nodes of ``e`` as a DAG: each node object once, however often it occurs."""
    seen = {id(e): e}
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, (Sum, Seq, Star)):
            for child in (x.left, x.right):
                if id(child) not in seen:
                    seen[id(child)] = child
                    stack.append(child)
    return list(seen.values())


def doubling_chain(k: int, base: Expr) -> Expr:
    """``e_k = e_{k-1} + e_{k-1}*0`` from ``e_0 = base``: a DAG of 3k + |base| nodes, whose tree doubles with k."""
    e = base
    for _ in range(k):
        e = Sum(e, Star(e, Zero()))
    return e


@contextmanager
def deadline(seconds: int, what: str):
    """Raise ``TimeoutError`` in the block once it has run ``seconds`` (SIGALRM)."""

    def expired(signum, frame):
        raise TimeoutError(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def all_exprs(alphabet, max_nodes: int) -> list[Expr]:
    """Every expression with at most ``max_nodes`` AST nodes."""
    by_size: dict[int, list[Expr]] = {1: [Zero()] + [Atom(a) for a in alphabet]}
    for n in range(2, max_nodes + 1):
        out: list[Expr] = []
        for left_size in range(1, n - 1):
            right_size = n - 1 - left_size
            if right_size < 1:
                continue
            for left in by_size.get(left_size, ()):
                for right in by_size.get(right_size, ()):
                    out.extend((Sum(left, right), Seq(left, right), Star(left, right)))
        by_size[n] = out
    return [e for size in sorted(by_size) for e in by_size[size]]


def reference_step(e: Expr) -> tuple[frozenset[str], Mapping[str, tuple[Expr, ...]]]:
    """The operational rules as ``semantics.expr_step`` stated them before it
    was made lean, kept as its oracle: one closure per call, a membership
    scan on every row append.  Memoised in its own slot, so it never reads
    the memo of the code it checks."""
    step = getattr(e, "_reference_step", None)
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
        louts, lsucc = reference_step(e.left)
        routs, rsucc = reference_step(e.right)
        out = louts | routs
        for a, fs in lsucc.items():
            for f in fs:
                add(a, f)
        for a, fs in rsucc.items():
            for f in fs:
                add(a, f)
    elif isinstance(e, Seq):
        louts, lsucc = reference_step(e.left)
        for a in sorted(louts):
            add(a, e.right)
        for a, fs in lsucc.items():
            for f in fs:
                add(a, Seq(f, e.right))
    elif isinstance(e, Star):
        louts, lsucc = reference_step(e.left)
        routs, rsucc = reference_step(e.right)
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
        object.__setattr__(e, "_reference_step", step)
    return step


# --- axiom schemes -----------------------------------------------------------------


def axiom_instances(name: str, e1: Expr, e2: Expr, e3: Expr) -> tuple[Expr, Expr]:
    """Left- and right-hand side of one axiom scheme, instantiated."""
    table = {
        "B1": (Sum(e1, e2), Sum(e2, e1)),
        "B2": (Sum(e1, Sum(e2, e3)), Sum(Sum(e1, e2), e3)),
        "B3": (Sum(e1, e1), e1),
        "B4": (Seq(Sum(e1, e2), e3), Sum(Seq(e1, e3), Seq(e2, e3))),
        "B5": (Seq(e1, Seq(e2, e3)), Seq(Seq(e1, e2), e3)),
        "B6": (Sum(e1, Zero()), e1),
        "B7": (Seq(Zero(), e1), Zero()),
        "BKS1": (Star(e1, e2), Sum(Seq(e1, Star(e1, e2)), e2)),
        "BKS2": (Seq(Star(e1, e2), e3), Star(e1, Seq(e2, e3))),
    }
    return table[name]


def wstar_pair(n: int) -> tuple[Expr, Expr]:
    """The cycle family ``e = (w)*0`` against ``e + e``.

    ``w`` is the left-nested word ``a b a b ...`` of length ``n``, so the
    chart of ``e`` is one cycle of ``n`` states.  The local proof of ``e``
    against ``e + e`` is on their bisimulation quotient: for odd ``n`` the
    cycle is its own quotient, of ``n`` states, and for even ``n`` the
    cycle ``(a b)^(n/2)`` is bisimilar to ``(a b)*0``, a quotient of 2.
    """
    if n < 1:
        raise ValueError("the word needs at least one letter")
    word: Expr = Atom("a")
    for i in range(1, n):
        word = Seq(word, Atom("ab"[i % 2]))
    e = Star(word, Zero())
    return e, Sum(e, e)


AXIOM_NAMES = ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "BKS1", "BKS2")


def _root_rewrites(e: Expr) -> list[Expr]:
    """All single axiom applications at the root, both directions."""
    out: list[Expr] = [Sum(e, e), Sum(e, Zero())]  # B3, B6 right to left
    if isinstance(e, Sum):
        left, right = e.left, e.right
        out.append(Sum(right, left))  # B1
        if isinstance(right, Sum):
            out.append(Sum(Sum(left, right.left), right.right))  # B2 ->
        if isinstance(left, Sum):
            out.append(Sum(left.left, Sum(left.right, right)))  # B2 <-
        if left == right:
            out.append(left)  # B3
        if right == Zero():
            out.append(left)  # B6
        if (
            isinstance(left, Seq)
            and isinstance(left.right, Star)
            and left.left == left.right.left
            and right == left.right.right
        ):
            out.append(left.right)  # BKS1 <-
        if (
            isinstance(left, Seq)
            and isinstance(right, Seq)
            and left.right == right.right
        ):
            out.append(Seq(Sum(left.left, right.left), left.right))  # B4 <-
    if isinstance(e, Seq):
        left, right = e.left, e.right
        if isinstance(left, Sum):
            out.append(Sum(Seq(left.left, right), Seq(left.right, right)))  # B4 ->
        if isinstance(right, Seq):
            out.append(Seq(Seq(left, right.left), right.right))  # B5 <-
        if isinstance(left, Seq):
            out.append(Seq(left.left, Seq(left.right, right)))  # B5 ->
        if left == Zero():
            out.append(Zero())  # B7
        if isinstance(left, Star):
            out.append(Star(left.left, Seq(left.right, right)))  # BKS2 ->
    if isinstance(e, Star):
        left, right = e.left, e.right
        out.append(Sum(Seq(left, e), right))  # BKS1 ->
        if isinstance(right, Seq):
            out.append(Seq(Star(left, right.left), right.right))  # BKS2 <-
    return out


def _rewrite_sites(e: Expr, path=()) -> list[tuple[tuple, Expr]]:
    sites = [(path, alt) for alt in _root_rewrites(e)]
    if isinstance(e, (Sum, Seq, Star)):
        sites += _rewrite_sites(e.left, path + ("left",))
        sites += _rewrite_sites(e.right, path + ("right",))
    return sites


def _replace_at(e: Expr, path: tuple, replacement: Expr) -> Expr:
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    cls = type(e)
    if head == "left":
        return cls(_replace_at(e.left, rest, replacement), e.right)
    return cls(e.left, _replace_at(e.right, rest, replacement))


def rewrite_steps(rng: random.Random, e: Expr, steps: int, size_cap: int = 400) -> Expr:
    """Apply up to ``steps`` random axiom rewrites anywhere in the term."""
    current = e
    for _ in range(steps):
        sites = [
            (path, alt)
            for path, alt in _rewrite_sites(current)
            if size_bound(_replace_at(current, path, alt)) <= size_cap
        ]
        if not sites:
            break
        path, alt = rng.choice(sites)
        current = _replace_at(current, path, alt)
    return current


# --- charts -------------------------------------------------------------------------


def random_chart(
    rng: random.Random,
    n_states: int = 5,
    alphabet=("a", "b"),
    edge_prob: float = 0.35,
    out_prob: float = 0.25,
    rooted: bool = False,
) -> Prechart:
    states = [f"s{i}" for i in range(n_states)]
    outputs = {
        x: {a for a in alphabet if rng.random() < out_prob} for x in states
    }
    transitions: dict[str, dict[str, list[str]]] = {}
    for x in states:
        row: dict[str, list[str]] = {}
        for a in alphabet:
            targets = [y for y in states if rng.random() < edge_prob]
            if targets:
                row[a] = targets
        if row:
            transitions[x] = row
    return Prechart.make(alphabet, states, outputs, transitions, states[0] if rooted else None)


def connect_through_reference(X: Prechart, x1, x2) -> Prechart:
    """Connect-through built directly: drop ``x1`` and send every transition
    into it to ``x2`` instead, without going through a splitting."""
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


def _by_name(X: Prechart, states, image, root) -> Prechart:
    """The rows of ``states`` in ``X``, each target ``y`` sent to
    ``image[y]``, built by state name through ``Prechart.make``, which
    drops the empty rows, orders each row's targets and checks the chart."""
    transitions = {u: {a: [image[y] for y in X.succ(u, a)] for a in X.alphabet} for u in states}
    return Prechart.make(X.alphabet, states, {u: X.out(u) for u in states}, transitions, root)


def reference_rerouting(X: Prechart, s: Splitting) -> Prechart:
    """``rerouting`` built by state name, with its checks and messages."""
    for x in X.states:
        if x not in s.retract:
            raise ValueError(f"retraction not total: missing {x!r}")
    for u in s.kept:
        if not X.has_state(u):
            raise ValueError(f"kept state {u!r} unknown")
    return _by_name(X, s.kept, s.retract, None if X.root is None else s.retract[X.root])


def reference_quotient(X: Prechart, R: PartitionRelation) -> tuple[Prechart, dict]:
    """The quotient by a bisimulation partition as a rerouting built by
    state name: the splitting keeps each block's least member in discovery
    order and retracts every state onto it.  Returns the chart and the
    retraction."""
    projection = {x: min(R.blocks[R.block_index(x)], key=X.index) for x in X.states}
    reps = tuple(x for x in X.states if projection[x] == x)
    return reference_rerouting(X, Splitting(reps, projection)), projection


def reference_restriction(X: Prechart, kept, root=None) -> Prechart:
    """``restriction`` built by state name, with its messages.  Its checks
    visit the kept states in set order, so of several faults the one it
    names can depend on string hashing."""
    kept_set = set(kept)
    for x in kept_set:
        if not X.has_state(x):
            raise ValueError(f"unknown state {x!r}")
        for y in X.underlying_succ(x):
            if y not in kept_set:
                raise ValueError(f"{x!r} steps outside the restriction to {y!r}")
    return _by_name(X, tuple(x for x in X.states if x in kept_set), {x: x for x in X.states}, root)


def reference_generated(X: Prechart, x) -> Prechart:
    """``generated`` built by state name, with its message."""
    if not X.has_state(x):
        raise ValueError(f"unknown state {x!r}")
    return _by_name(X, X.reachable_from(x), {y: y for y in X.states}, x)


def joined_chart(e: Expr, f: Expr, alphabet) -> Prechart:
    """The coproduct of the charts of ``e`` and ``f``, on which certification
    decides them."""
    return coproduct(chart_of(e, alphabet), chart_of(f, alphabet))[0]


def local_certify(e: Expr, f: Expr, alphabet=None):
    """``certify``'s certificate, but by the local proof for every
    equivalent pair, those whose normal forms meet included, which
    ``certify`` proves by their normal forms alone; the certificate of an
    inequivalent pair is ``certify``'s."""
    alpha = cli._certified_alphabet(e, f, alphabet)
    d = _decide(e, f, alpha)
    if not d.bisimilar:
        return certify(e, f, alphabet)
    cert = cli._local_certificate(e, f, alpha, d)
    assert all(c.passed for c in cert.checks), cert.checks
    return cert


def named_witness(alphabet, collapsed) -> LabelledPrechart:
    """The labelling of a chart by name that a version-3 ``collapsed``
    writes, built by ``Prechart.make`` on the state names ``0..k-1``."""
    outputs, rows = collapsed["outputs"], collapsed["transitions"]
    transitions: dict = {}
    for i, a, j, _ in rows:
        transitions.setdefault(i, {}).setdefault(a, []).append(j)
    C = Prechart.make(alphabet, range(len(outputs)), dict(enumerate(outputs)), transitions, collapsed["root"])
    return LabelledPrechart(C, {(i, a, j): tag for i, a, j, tag in rows})


def assert_same_witness(numbered, named, names) -> None:
    """That two witnesses by state number (``layering._Analysis``) agree
    field by field: the chart, the root, the entry, body, loop descent and
    header masks, the first violated clause, with ``numbered``'s detail
    mapped through the state names ``names`` that ``named``'s detail holds,
    and, when the witness verifies, the measures."""
    assert (list(numbered.outs), list(numbered.numbered), numbered.root) == \
        (list(named.outs), list(named.numbered), named.root)
    masks = lambda a: (a.entry, a.body, a.descent, a.headers)
    assert masks(numbered) == masks(named)
    assert (numbered.violation and _named(numbered.violation, names)) == named.violation
    if named.violation is None:
        assert numbered.lengths == named.lengths


def satisfies(X: Prechart, formula) -> bool:
    """Whether the Hennessy–Milner ``formula``, a node list as certificates
    carry it, holds at the root of the chart ``X``, by brute force: the set
    of states at which each node holds, over every state, node by node."""
    holds: list[set] = []
    for kind, *args in formula:
        if kind == "out":
            holds.append({x for x in X.states if args[0] in X.out(x)})
        elif kind == "not":
            holds.append(set(X.states) - holds[args[0]])
        elif kind == "and":
            holds.append(set(X.states).intersection(*(holds[j] for j in args[0])))
        else:
            a, j = args
            holds.append({x for x in X.states if set(X.succ(x, a)) & holds[j]})
    return X.root in holds[-1]


def fig3_left() -> tuple[Prechart, LabelledPrechart]:
    """The four-state well-layered chart whose naive rerouting loses layering."""
    states = ("x2", "v", "v'", "x1")
    edges = [
        ("x2", "v", "e"),
        ("x2", "v'", "e"),
        ("v", "x2", "b"),
        ("v", "v'", "e"),
        ("v'", "v", "b"),
        ("v'", "x1", "b"),
        ("x1", "v", "b"),
    ]
    transitions: dict[str, dict[str, list[str]]] = {}
    for x, y, _ in edges:
        transitions.setdefault(x, {}).setdefault("a", []).append(y)
    X = Prechart.make(("a",), states, {}, transitions)
    tags = {(x, "a", y): t for x, y, t in edges}
    return X, LabelledPrechart(X, tags)


def fig3_right() -> Prechart:
    """The rerouted three-state chart, which admits no layering witness."""
    states = ("x2", "v", "v'")
    edges = [("x2", "v"), ("x2", "v'"), ("v", "x2"), ("v", "v'"), ("v'", "v"), ("v'", "x2")]
    transitions: dict[str, dict[str, list[str]]] = {}
    for x, y in edges:
        transitions.setdefault(x, {}).setdefault("a", []).append(y)
    return Prechart.make(("a",), states, {}, transitions)


def milner_clique() -> Prechart:
    """Three states that each step to the other two, in the style of Milner's
    (1984) chart: minimal, with no layering witness, so bisimilar to no
    expression."""
    transitions = {
        "x": {"b": ["y"], "c": ["z"]},
        "y": {"a": ["x"], "c": ["z"]},
        "z": {"a": ["x"], "b": ["y"]},
    }
    return Prechart.make(("a", "b", "c"), ("x", "y", "z"), {}, transitions, "x")


def eliminable_pairs(X: Prechart) -> list[tuple]:
    """The state pairs ``(v, w)`` whose steps span a loop that can be
    eliminated: ``w == v``, or the states ``w`` reaches without passing
    ``v`` have no output, no cycle among them, and a step back to ``v``.

    The reference for the elimination step of ``layering._eliminated``,
    on state sets instead of masks.
    """
    pairs = {(x, y) for x, _, y in X.edges()}
    found = []
    for v, w in sorted(pairs, key=lambda p: (X.index(p[0]), X.index(p[1]))):
        inside, stack = {w}, [w]
        while stack:
            for y in X.underlying_succ(stack.pop()):
                if y != v and y not in inside:
                    inside.add(y)
                    stack.append(y)
        among = {x: [y for y in X.underlying_succ(x) if y in inside] for x in inside}
        if w == v or (not any(X.out(x) for x in inside) and not simple_cycles(among)
                      and any(v in X.underlying_succ(x) for x in inside)):
            found.append((v, w))
    return found


def partition_from_pairs(universe, pairs) -> PartitionRelation:
    """The finest partition of ``universe`` relating every given pair: the
    equivalence that the pairs generate."""
    universe = tuple(universe)
    block = {x: frozenset((x,)) for x in universe}
    for x, y in pairs:
        if block[x] is not block[y]:
            merged = block[x] | block[y]
            block.update(dict.fromkeys(merged, merged))
    return PartitionRelation.from_blocks(universe, set(block.values()))


def partition_without(R: PartitionRelation, x) -> PartitionRelation:
    """The restriction of ``R`` to every state but ``x``."""
    universe = tuple(y for y in R.universe if y != x)
    return PartitionRelation.from_blocks(universe, ([y for y in b if y != x] for b in R.blocks))


def same_partition(R: PartitionRelation, S: PartitionRelation) -> bool:
    """Whether two partitions have the same blocks, in any order."""
    return set(map(frozenset, R.blocks)) == set(map(frozenset, S.blocks))


def is_chart(X: Prechart) -> bool:
    """Whether ``X`` has a root from which every state is reachable."""
    return X.root is not None and len(X.reachable_from(X.root)) == len(X.states)


def holding_every_state(loop_spanned):
    """``layering._loop_spanned`` reporting every state but ``v`` inside
    each loop that it finds, so that each removal holds back the steps of
    every other state: a freeze that holds too much, whose run stalls on
    cycles that elimination without freezing clears."""
    def spanned(succ, outputs, v, w):
        inside = loop_spanned(succ, outputs, v, w)
        return None if inside is None else ((1 << len(succ)) - 1) & ~(1 << v)
    return spanned


def without_pair(X: Prechart, v, w) -> Prechart:
    """``X`` with every step from ``v`` to ``w`` removed."""
    transitions: dict = {}
    for x, a, y in X.edges():
        if (x, y) != (v, w):
            transitions.setdefault(x, {}).setdefault(a, []).append(y)
    return Prechart.make(X.alphabet, X.states, X.outputs, transitions, X.root)


def all_labellings(X: Prechart) -> list[LabelledPrechart]:
    """Every entry/body labelling of ``X`` (flat ones and non-flat ones alike),
    labelling each transition independently."""
    edges = list(X.edges())
    out = []
    for combo in product("eb", repeat=len(edges)):
        out.append(LabelledPrechart(X, dict(zip(edges, combo))))
    return out


def per_equation_check(X: Prechart, assign) -> tuple[bool, object]:
    """``verify_solution`` one equation at a time: the test reference.

    One ``bisimilar`` per state, in ``X.states`` order, between the assigned
    expression and the sum of the state's outputs and action-prefixed
    successor assignments; returns the first failing state.
    """
    for x in X.states:
        outputs = [Atom(a) for a in X.alphabet if a in X.out(x)]
        steps = [Seq(Atom(a), assign[y]) for a in X.alphabet for y in X.succ(x, a)]
        if not bisimilar(assign[x], Sum(gsum(outputs), gsum(steps))):
            return False, x
    return True, None


def round_by_round_bisimilarity(X: Prechart) -> PartitionRelation:
    """``bisimilarity`` as one ``PartitionRelation`` per round: the test reference.

    Starts from the output partition and splits every block by per-action
    sets of successor blocks, building and validating a whole partition each
    round, until a round splits nothing.
    """
    groups: dict = {}
    for x in X.states:
        groups.setdefault(X.out(x), []).append(x)
    partition = PartitionRelation.from_blocks(X.states, groups.values())
    while True:
        groups = {}
        for x in X.states:
            sig = (
                partition.block_index(x),
                tuple(frozenset(partition.block_index(y) for y in X.succ(x, a)) for a in X.alphabet),
            )
            groups.setdefault(sig, []).append(x)
        refined = PartitionRelation.from_blocks(X.states, groups.values())
        if len(refined.blocks) == len(partition.blocks):
            return refined
        partition = refined


def exhaustive_witnesses(X: Prechart) -> list[LabelledPrechart]:
    """Every layering witness of ``X``, by the unpruned search.

    The reference for ``enumerate_witnesses``: the same forced tags, free
    pairs and depth-first order (body before entry, body tags skipped only
    where they close a body cycle), with ``verify_witness`` run on every
    complete labelling.  Both must return the same list in the same order.
    """
    groups: dict[tuple, list] = {}
    for x, a, y in X.edges():
        groups.setdefault((x, y), []).append((x, a, y))
    pairs = sorted(groups, key=lambda p: (X.index(p[0]), X.index(p[1])))

    def reach_plus(x) -> set:
        seen: set = set()
        stack = list(X.underlying_succ(x))
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(X.underlying_succ(v))
        return seen

    forced: dict[tuple, str] = {}
    free: list[tuple] = []
    for x, y in pairs:
        if x == y:
            forced[(x, y)] = "e"
        elif x not in reach_plus(y) or X.out(y):
            forced[(x, y)] = "b"
        else:
            free.append((x, y))

    body: set = {pair for pair, t in forced.items() if t == "b"}

    def body_reachable(src, dst) -> bool:
        seen, stack = {src}, [src]
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for (p, q) in body:
                if p == v and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return False

    results: list[LabelledPrechart] = []
    assignment: dict[tuple, str] = {}

    def search(i: int) -> None:
        if i == len(free):
            tags = {edge: forced.get(pair) or assignment[pair]
                    for pair, edges in groups.items() for edge in edges}
            candidate = LabelledPrechart(X, tags)
            if verify_witness(candidate)[0]:
                results.append(candidate)
            return
        x, y = free[i]
        if not body_reachable(y, x):
            assignment[(x, y)] = "b"
            body.add((x, y))
            search(i + 1)
            body.discard((x, y))
        assignment[(x, y)] = "e"
        search(i + 1)
        del assignment[(x, y)]

    search(0)
    return results


# --- small graph oracles ----------------------------------------------------------


def pair_closure(pairs) -> frozenset:
    """The transitive closure of a relation given as a set of pairs."""
    succ: dict = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    closure = set()
    for x in succ:
        stack = list(succ[x])
        while stack:
            y = stack.pop()
            if (x, y) not in closure:
                closure.add((x, y))
                stack.extend(succ.get(y, ()))
    return frozenset(closure)


def recursive_syntactic_tag(e: Expr, action: str, f: Expr) -> str:
    """Tag of ``e -action-> f`` by a separate match per expression form,
    recursing into the left operand of sequencing: the reference for the one
    derivation walk behind ``syntactic_witness``."""
    found: set[str] = set()
    if isinstance(e, Sum):
        found.add("b")
    elif isinstance(e, Seq):
        louts, lsucc = expr_step(e.left)
        if action in louts and f == e.right:
            found.add("b")
        if isinstance(f, Seq) and f.right == e.right and f.left in lsucc.get(action, ()):
            found.add(recursive_syntactic_tag(e.left, action, f.left))
    elif isinstance(e, Star):
        louts, lsucc = expr_step(e.left)
        routs, rsucc = expr_step(e.right)
        if f == e and action in louts:
            found.add("e")
        if f in rsucc.get(action, ()):
            found.add("b")
        if isinstance(f, Seq) and f.right == e and f.left in lsucc.get(action, ()):
            found.add("e" if can_terminate(f.left) else "b")
    if len(found) != 1:
        raise ValueError(f"no unique tag derivation for {e} -{action}-> {f}: {found}")
    return found.pop()


def searched_longest_paths(states, adj) -> dict:
    """Longest path lengths out of each node of a DAG, by a depth-first
    search of their own; raises ``RuntimeError`` on a cycle.  The reference
    for the measures folded by ``_Analysis.lengths``."""
    length: dict = {}
    for start in states:
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


def path_relations(L: LabelledPrechart) -> tuple[frozenset, frozenset]:
    """``derived_relations`` by its path definition: the test reference.

    Descent: ``(x, y)`` when a path of one entry step out of ``x`` and then
    body steps reaches ``y`` without passing ``x`` again.  Membership:
    ``(y, x)`` when ``x`` descends to ``y`` and body steps lead from ``y``
    back to ``x``.  Both are grown one step at a time until nothing changes.
    """
    entry = {(x, y) for (x, _, y), t in L.tags.items() if t == "e"}
    body = {(x, y) for (x, _, y), t in L.tags.items() if t == "b"}
    descent = {(x, y) for x, y in entry if y != x}
    while True:
        longer = {(x, w) for x, v in descent for u, w in body if u == v and w != x}
        if longer <= descent:
            break
        descent |= longer
    back = pair_closure(body)
    return frozenset(descent), frozenset((y, x) for x, y in descent if (y, x) in back)


class PairScan:
    """The safe-pair conditions and the C2 promotion state, by scanning
    state pairs of ``derived_relations`` and its transitive closure: the test
    reference for ``check_condition`` and ``rerouting._c2_promotion_state``
    on a verified witness ``L``."""

    def __init__(self, L: LabelledPrechart):
        X = self.X = L.base
        self.diredge, self.loopright = derived_relations(L)
        self.loopright_plus = pair_closure(self.loopright)
        self.reach_plus = pair_closure((x, y) for x, _, y in X.edges())
        self.body_plus = pair_closure((x, y) for (x, _, y), t in L.tags.items() if t == "b")

    def condition(self, w1, w2):
        X, lr, lr_plus = self.X, self.loopright, self.loopright_plus
        reach_star = {w2} | {y for y in X.states if (w2, y) in self.reach_plus}
        # C1: w1 is unreachable from w2, and if some loop descends to w1 then
        # nothing reachable from w2 has an output
        if w1 not in reach_star:
            descended = any((x, w1) in self.diredge for x in X.states)
            if not descended or not any(X.out(y) for y in reach_star):
                return "C1"
        # C2: w2 lies (transitively) inside the loop at w1
        if (w2, w1) in lr_plus:
            return "C2"
        # C3: no body path from w2 to w1, and some loop containing w1 directly
        # also contains w2 below it and is minimal among w1's loops
        if (w2, w1) not in self.body_plus:
            w1_headers = [x for x in X.states if (w1, x) in lr]
            for x in X.states:
                if (w1, x) in lr and (w2, x) in lr_plus:
                    if all((x, y) in lr for y in w1_headers if y != x):
                        return "C3"
        return None

    def promotion_state(self, w1, w2):
        X, lr, lr_plus = self.X, self.loopright, self.loopright_plus
        candidates = [w for w in X.states if (w == w2 or (w2, w) in lr_plus) and (w, w1) in lr]
        filtered = [
            w for w in candidates
            if all(v == w1 or (w1, v) in lr_plus for v in X.states if (w, v) in lr)
        ]
        pool = filtered or candidates
        return min(pool, key=X.index) if pool else None


def isomorphic(X: Prechart, Y: Prechart) -> bool:
    """Structure-preserving bijection search (roots must correspond)."""
    if len(X.states) != len(Y.states) or X.alphabet != Y.alphabet:
        return False
    if (X.root is None) != (Y.root is None):
        return False

    def signature(Z: Prechart, x) -> tuple:
        return (
            tuple(sorted(Z.out(x))),
            tuple(len(Z.succ(x, a)) for a in Z.alphabet),
            Z.root == x,
        )

    y_by_sig: dict[tuple, list] = {}
    for y in Y.states:
        y_by_sig.setdefault(signature(Y, y), []).append(y)

    mapping: dict = {}
    used: set = set()

    def consistent(x, y) -> bool:
        for a in X.alphabet:
            image = {mapping[t] for t in X.succ(x, a) if t in mapping}
            if not image <= set(Y.succ(y, a)):
                return False
            for src, dst in mapping.items():
                if (x in X.succ(src, a)) != (y in Y.succ(dst, a)):
                    return False
        return True

    order = list(X.states)

    def assign(i: int) -> bool:
        if i == len(order):
            gr = [(x, mapping[x]) for x in X.states]
            from starchart import is_homomorphism

            ok, _ = is_homomorphism(dict(gr), X, Y)
            return ok
        x = order[i]
        for y in y_by_sig.get(signature(X, x), ()):
            if y in used:
                continue
            if X.root == x and Y.root != y:
                continue
            mapping[x] = y
            used.add(y)
            if consistent(x, y) and assign(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return assign(0)


def simple_cycles(adj: dict) -> list[tuple]:
    """All simple cycles of a small digraph, as node tuples without repeats."""
    nodes = sorted(adj, key=str)
    cycles: set[tuple] = set()

    def walk(start, node, path: list, seen: set):
        for nxt in adj.get(node, ()):
            if nxt == start:
                rotation = tuple(path)
                least = min(range(len(rotation)), key=lambda i: str(rotation[i]))
                cycles.add(rotation[least:] + rotation[:least])
            elif nxt not in seen and str(nxt) >= str(start):
                seen.add(nxt)
                path.append(nxt)
                walk(start, nxt, path, seen)
                path.pop()
                seen.discard(nxt)

    for start in nodes:
        walk(start, start, [start], {start})
    return sorted(cycles, key=str)
