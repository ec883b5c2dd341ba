"""Shared test machinery: seeded generators, axiom rewriting, small oracles."""

from __future__ import annotations

import random
from itertools import product

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
    bisimilar,
    derived_relations,
    gsum,
    size_bound,
    verify_witness,
)

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
    chart of ``e`` is one cycle of ``n`` states, and certifying ``e`` against
    ``e + e`` collapses ``n`` pairs of bisimilar states.
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
