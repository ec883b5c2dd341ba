"""Command-line surface and end-to-end equivalence certification.

``certify`` walks both expressions, numbering the states of the coproduct
of their charts, and decides bisimilarity there by partition refinement on
those numbers; an inequivalent pair's checks and distinguishing clause
read the numbered arrays, and no chart is built for them.  For an
equivalent pair the quotient ``C`` by the decided partition is built from
the same arrays: the minimal chart, in which both roots are one state.
Loop elimination gives ``C`` a layering witness, and the certificate
carries it with the projections of both walks onto ``C``.

Replay of an equivalent certificate checks the local proof (Grabmayer and
Fokkink, LICS 2020) with no refinement: it walks each input once, checks
that each projection ``h`` is a homomorphism and that the roots meet, and
proves ``C``'s canonical solution ``s`` by the axioms alone.  This is
sound: homomorphisms whose roots meet make ``e`` and ``f`` bisimilar, and
as ``s ∘ h`` and the identity both solve the chart of ``e``, which has
the syntactic LLEE witness, uniqueness of solutions gives ``e ≡ s(h(e))``
in Milner's system, and likewise for ``f``.  Minimality of ``C`` is not
needed; ``certify`` checks it, and the decided partition, before the
checks it shares with ``recheck_certificate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterator, Mapping, NamedTuple

from .bisim import BisimViolation, _coarsest, _stable, bisimilarity
from .formats import (
    chart_from_json,
    chart_to_json,
    state_ids,
    state_label,
    to_dot,
    weighted_to_json,
    witness_from_json,
    witness_to_json,
)
from .layering import LabelledPrechart, infer_witness, syntactic_witness, to_llee, verify_witness
from .rerouting import collapse, connect_through
from .semantics import Prechart, StateId, _coproduct_walk, _quotient, _Walk, chart_of
from .solution import Solution, _proved, canonical_solution, simplify
from .syntax import Expr, atoms, declare_alphabet, parse, render


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool


@dataclass
class Certificate:
    """Outcome of certifying two expressions equivalent or not.

    When the verdict is ``equivalent``, ``collapsed`` is a witness on the
    minimal quotient of both charts, rooted at the image of both inputs;
    ``projection`` lists, per walk, its states' positions there (the
    decision's blocks); ``common``, the canonical solution at the root, is
    not serialized.  Every listed check passed.
    """

    verdict: str  # "equivalent" | "inequivalent"
    left: Expr
    right: Expr
    alphabet: tuple[str, ...]
    checks: list[Check] = field(default_factory=list)
    collapsed: LabelledPrechart | None = None
    projection: dict[str, list[int]] | None = None
    common: Expr | None = None
    distinguishing: BisimViolation | None = None

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "verdict": self.verdict,
            "inputs": {"left": render(self.left), "right": render(self.right)},
            "alphabet": list(self.alphabet),
            "checks": [{"name": c.name, "passed": c.passed} for c in self.checks],
            "collapsed": witness_to_json(self.collapsed) if self.collapsed else None,
            "projection": self.projection,
            "distinguishing": None,
        }
        if (v := self.distinguishing) is not None:
            doc["distinguishing"] = {"clause": v.clause, **_clause_doc(v)}
        return doc


def _clause_doc(v: BisimViolation) -> dict[str, Any]:
    return {
        "left": state_label(v.left),
        "right": state_label(v.right),
        "action": v.action,
        "successor": state_label(v.successor) if v.successor is not None else None,
    }


class _Decision(NamedTuple):
    """The coproduct of both charts and its bisimilarity, on state numbers:
    a verdict's data.

    ``states`` are the expressions that the walks of ``e`` and then of ``f``
    discover, the states of ``coproduct(chart_of(e), chart_of(f))`` in its
    order but untagged; ``outs`` and ``numbered`` hold each one's outputs
    and per-action successor numbers.  The first ``n`` are ``e``'s, so the
    roots are numbers 0 and ``n``.  ``block_of`` numbers the block of each
    state in the bisimilarity, which has ``count`` blocks.  No chart of
    these states is built: an equivalent pair's quotient is built from the
    arrays, on the states that ``state`` tags.
    """

    alphabet: tuple[str, ...]
    states: tuple[Expr, ...]
    outs: list[frozenset[str]]
    numbered: list[tuple[tuple[int, ...], ...]]
    n: int
    block_of: list[int]
    count: int

    @property
    def bisimilar(self) -> bool:
        return self.block_of[0] == self.block_of[self.n]

    def state(self, x: int) -> StateId:
        """The state of the joined chart numbered ``x``."""
        return (0 if x < self.n else 1, self.states[x])


def _decide(e: Expr, f: Expr, alphabet: tuple[str, ...]) -> _Decision:
    """Decide bisimilarity of ``e`` and ``f`` on the coproduct of their charts."""
    (states, outs, numbered), n = _coproduct_walk(e, f, alphabet)
    return _Decision(alphabet, states, outs, numbered, n, *_coarsest(outs, numbered))


def _candidate(d: _Decision) -> list[int]:
    """``d.block_of`` with the roots' blocks joined."""
    left, right = d.block_of[0], d.block_of[d.n]
    return [left if b == right else b for b in d.block_of]


def _clauses(d: _Decision, candidate: list[int], x: int, y: int) -> Iterator[BisimViolation]:
    """The failed clauses of the pair of state numbers ``(x, y)`` under the
    partition ``candidate``, on state numbers, in the order of
    ``bisim._violations``: the output actions on which the two disagree,
    sorted; then, per action, each unmatched successor of ``x`` (``forth``)
    before each unmatched one of ``y`` (``back``)."""
    for action in sorted(d.outs[x] ^ d.outs[y]):
        yield BisimViolation("output", x, y, action)
    for a, xs, ys in zip(d.alphabet, d.numbered[x], d.numbered[y]):
        x_blocks = {candidate[j] for j in xs}
        y_blocks = {candidate[k] for k in ys}
        for j in xs:
            if candidate[j] not in y_blocks:
                yield BisimViolation("forth", x, y, a, j)
        for k in ys:
            if candidate[k] not in x_blocks:
                yield BisimViolation("back", x, y, a, k)


def _distinguishing_violation(d: _Decision, candidate: list[int]) -> BisimViolation:
    """The first failing clause of ``candidate``, on state numbers: the
    roots' pair first, then every related pair, blocks by least member and
    members in discovery order."""
    blocks: dict[int, list[int]] = {}
    for x, b in enumerate(candidate):
        blocks.setdefault(b, []).append(x)
    pairs = ((x, y) for block in blocks.values() for x in block for y in block)
    for x, y in chain([(0, d.n)], pairs):
        for violation in _clauses(d, candidate, x, y):
            return violation
    raise RuntimeError("roots are not bisimilar yet joining their classes yields a bisimulation")


def _on_states(d: _Decision, v: BisimViolation) -> BisimViolation:
    """The clause ``v`` on state numbers as a clause on the joined chart's states."""
    successor = d.state(v.successor) if v.successor is not None else None
    return BisimViolation(v.clause, d.state(v.left), d.state(v.right), v.action, successor)


# The checks below are shared by ``certify``, which builds the evidence, and
# ``recheck_certificate``, which reads it back from a certificate.


def _relation_check(d: _Decision) -> Check:
    return Check("bisimulation-relation-valid", _stable(d.outs, d.numbered, d.block_of, d.count))


def _inequivalent_checks(d: _Decision, candidate: list[int], v: BisimViolation | None) -> list[Check]:
    """The roots' verdict, and that ``v``, on state numbers, is a failed
    clause of a pair that ``candidate``, ``d.block_of`` with the roots'
    blocks joined, relates; ``None``, a clause naming states the joined
    chart lacks, fails."""
    return [
        Check("roots-not-bisimilar", not d.bisimilar),
        Check("distinguishing-clause", v is not None and candidate[v.left] == candidate[v.right]
              and v in _clauses(d, candidate, v.left, v.right)),
    ]


def _proof_checks(alphabet: tuple[str, ...], walk: _Walk, n: int, collapsed: LabelledPrechart | None,
                  projection: Any, solution: Solution | None) -> list[Check]:
    """The local proof: the witness ``collapsed``; ``projection``, which maps
    the walk's first ``n`` states by its list ``left`` and the rest by
    ``right`` to positions in the witness's chart ``C``, as a homomorphism
    (outputs agree, and per action the images of a state's successors are
    its image's successors), checked in time linear in the walk; both
    roots' images at ``C``'s root; and the canonical ``solution``, ``None``
    when ``collapsed`` is no witness, proved by the axioms alone.  A
    ``collapsed`` of ``None``, a document that is no chart, fails them all."""
    if collapsed is None:
        names = ("collapsed-witness-valid", "projection-homomorphism", "roots-meet", "solution-proved")
        return [Check(name, False) for name in names]
    C, (_, outs, numbered) = collapsed.base, walk
    sides = [projection.get(k) for k in ("left", "right")] if isinstance(projection, Mapping) else [None] * 2
    lists = all(isinstance(h, list) for h in sides)
    image = sides[0] + sides[1] if lists else []
    rows, states = C.numbered_succ(), range(len(C.states))
    homomorphism = (
        lists and C.alphabet == alphabet and len(sides[0]) == n and len(image) == len(outs)
        and all(type(b) is int and b in states for b in image)  # neither bools nor strings
        and all(out == C.out(C.states[b])
                and tuple([tuple(sorted({image[j] for j in js})) for js in succ]) == rows[b]
                for out, succ, b in zip(outs, numbered, image)))
    root = None if C.root is None else C.index(C.root)
    return [
        Check("collapsed-witness-valid", verify_witness(collapsed)[0]),
        Check("projection-homomorphism", homomorphism),
        Check("roots-meet", lists and all(h and type(h[0]) is int and h[0] == root for h in sides)),
        Check("solution-proved", solution is not None and _proved(C, solution.assign)),
    ]


def certify(e: Expr, f: Expr, alphabet=None) -> Certificate:
    """Certify two expressions equivalent (with a common solved collapse) or not."""
    alpha = (
        declare_alphabet(alphabet)
        if alphabet is not None
        else tuple(sorted(atoms(e) | atoms(f)))
    )
    missing = (atoms(e) | atoms(f)) - set(alpha)
    if missing:
        raise ValueError(f"atoms outside the declared alphabet: {sorted(missing)}")
    d = _decide(e, f, alpha)
    checks = [_relation_check(d)]

    if not d.bisimilar:
        candidate = _candidate(d)
        violation = _distinguishing_violation(d, candidate)
        checks += _inequivalent_checks(d, candidate, violation)
        cert = Certificate("inequivalent", e, f, alpha, checks, distinguishing=_on_states(d, violation))
    elif not checks[0].passed:  # only a bisimulation has a quotient to build
        raise RuntimeError(f"certification checks failed: {[checks[0].name]}")
    else:
        # the minimal quotient is isomorphic to the collapse of any witness
        # of the joined chart (the collapse theorem), so it is built directly
        tagged = [d.state(x) for x in range(len(d.states))]
        C = _quotient(alpha, (tagged, d.outs, d.numbered), d.block_of, d.block_of[0])
        checks.append(Check("collapse-minimal", bisimilarity(C).is_identity))
        witness = infer_witness(C)
        if witness is None:
            raise RuntimeError("the minimal quotient has no layering witness, "
                               "which contradicts the collapse theorem")
        solution = canonical_solution(witness)
        projection = {"left": d.block_of[:d.n], "right": d.block_of[d.n:]}
        checks += _proof_checks(alpha, (d.states, d.outs, d.numbered), d.n, witness, projection, solution)
        cert = Certificate("equivalent", e, f, alpha, checks, collapsed=witness, projection=projection,
                           common=solution.assign[C.root])
    failed = [c.name for c in cert.checks if not c.passed]
    if failed:
        raise RuntimeError(f"certification checks failed: {failed}")
    return cert


def _named_violation(d: _Decision, v: Any, parsed: Mapping[str, Expr]) -> BisimViolation | None:
    """The serialized clause ``v`` on the state numbers of ``d``; ``None``
    when ``v`` is no mapping of string state names (null included) or names
    a state the joined chart lacks.

    A name is a side, ``L:`` or ``R:``, and a text: its entry in ``parsed``
    (the inputs, parsed once) or else parsed.  A state of that side with
    the expression's hash is accepted only if it renders back to exactly
    the name.  Walk states are distinct and ``parse(render(e)) == e``, so
    their names carry no ``#n`` suffix (``formats.iter_state_ids``)."""
    if not isinstance(v, Mapping):
        return None
    left, right, successor = v.get("left"), v.get("right"), v.get("successor")
    if not (isinstance(left, str) and isinstance(right, str) and isinstance(successor, (str, type(None)))):
        return None
    number: dict[str, int] = {}
    for name in {left, right, successor} - {None}:
        if name[:2] not in ("L:", "R:"):
            return None
        try:
            h = hash(parsed.get(name[2:]) or parse(name[2:], d.alphabet))
        except ValueError:
            return None
        side = range(d.n) if name[0] == "L" else range(d.n, len(d.states))
        # an equal hash names a candidate, and its rendering decides
        x = next((x for x in side if hash(d.states[x]) == h and state_label(d.state(x)) == name), None)
        if x is None:
            return None
        number[name] = x
    return BisimViolation(v.get("clause"), number[left], number[right], v.get("action"), number.get(successor))


def recheck_certificate(doc: Mapping[str, Any]) -> list[Check]:
    """Replay the named checks of a serialized certificate from scratch:
    all of an inequivalent one's, and the local proof of an equivalent one
    (see the module docstring).  Data that fails a check does not raise: a
    witness that does not verify fails ``solution-proved`` too, and a
    distinguishing clause or projection of the wrong shape, null or
    missing, fails, and a ``collapsed`` that is no chart fails every
    check.  Of the evidence a certificate carries, only an unknown verdict
    raises ``ValueError``; its inputs must parse.
    """
    if doc["verdict"] not in ("equivalent", "inequivalent"):
        raise ValueError(f"unknown verdict {doc['verdict']!r}")
    alpha = tuple(doc["alphabet"])
    e = parse(doc["inputs"]["left"], alpha)
    f = parse(doc["inputs"]["right"], alpha)
    if doc["verdict"] == "inequivalent":
        d = _decide(e, f, alpha)
        v = _named_violation(d, doc["distinguishing"], {doc["inputs"]["left"]: e, doc["inputs"]["right"]: f})
        return [_relation_check(d)] + _inequivalent_checks(d, _candidate(d), v)
    walk, n = _coproduct_walk(e, f, alpha)
    try:
        collapsed = witness_from_json(doc["collapsed"])
    except ValueError:
        collapsed = None
    solution = canonical_solution(collapsed) if collapsed is not None and verify_witness(collapsed)[0] else None
    return _proof_checks(alpha, walk, n, collapsed, doc.get("projection"), solution)


# --- command surface ---------------------------------------------------------


def _parse_exprs(args: argparse.Namespace, *texts: str) -> tuple[tuple[str, ...], list[Expr]]:
    """Parse under ``--alphabet``, or else under the atoms used.

    Without ``--alphabet`` each text is split into the single letters it
    contains, so "aa" reads as a.a; multi-character actions need the flag.
    """
    if args.alphabet is not None:
        alpha = declare_alphabet(a.strip() for a in args.alphabet.split(",") if a.strip())
        return alpha, [parse(text, alpha) for text in texts]
    exprs = [parse(text, sorted({c for c in text if c.islower()}) or ["a"]) for text in texts]
    return tuple(sorted(set().union(*map(atoms, exprs)))), exprs


def _emit(doc: Any) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False))


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_witness(args: argparse.Namespace, X: Prechart) -> LabelledPrechart | None:
    """The verified ``--witness`` for ``X``, else an inferred one.

    ``None``, after a message on stderr, when the given witness does not
    verify or none can be inferred.
    """
    if not args.witness:
        L = infer_witness(X)
        if L is None:
            print("no layering witness", file=sys.stderr)
        return L
    L = witness_from_json(_read_json(args.witness))
    if chart_to_json(L.base) != chart_to_json(X):
        raise ValueError("witness file does not label the given chart")
    ok, violation = verify_witness(L)
    if not ok:
        print(f"witness does not verify: {violation}", file=sys.stderr)
        return None
    return L


def cmd_parse(args: argparse.Namespace) -> int:
    _, (e,) = _parse_exprs(args, args.expr)
    print(render(e))
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    alpha, (e,) = _parse_exprs(args, args.expr)
    X = chart_of(e, alpha)
    if args.dot:
        sys.stdout.write(to_dot(X))
    else:
        _emit(chart_to_json(X))
    return 0


def cmd_bisim(args: argparse.Namespace) -> int:
    alpha, (e, f) = _parse_exprs(args, args.left, args.right)
    d = _decide(e, f, alpha)
    print("bisimilar" if d.bisimilar else "not-bisimilar")
    if args.witness and d.bisimilar:
        block_of, n = d.block_of, d.n
        relation = [
            [render(x), render(y)]
            for i, x in enumerate(d.states[:n])
            for j, y in enumerate(d.states[n:], n)
            if block_of[i] == block_of[j]
        ]
        _emit({"bisimilar": True, "relation": relation})
    elif args.witness:
        v = _on_states(d, _distinguishing_violation(d, _candidate(d)))
        _emit({"bisimilar": False, "clause": {"kind": v.clause, **_clause_doc(v)}})
    return 0 if d.bisimilar else 1


def cmd_witness(args: argparse.Namespace) -> int:
    if args.verify:
        L = witness_from_json(_read_json(args.verify))
        ok, violation = verify_witness(L)
        if ok:
            print("valid")
            return 0
        print(f"invalid: {violation}")
        return 1
    if args.infer:
        X = chart_from_json(_read_json(args.infer))
        L = infer_witness(X)
        if L is None:
            print("no layering witness")
            return 1
        _emit(witness_to_json(L))
        return 0
    alpha, (e,) = _parse_exprs(args, args.syntactic)
    L = syntactic_witness(chart_of(e, alpha))
    _emit(weighted_to_json(to_llee(L)) if args.llee else witness_to_json(L))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    X = chart_from_json(_read_json(args.chart))
    L = _load_witness(args, X)
    if L is None:
        return 1
    solution = canonical_solution(L)
    assign = {
        name: render(simplify(solution.assign[x]) if args.simplify else solution.assign[x])
        for x, name in state_ids(X).items()
    }
    _emit(assign)
    return 0


def cmd_reroute(args: argparse.Namespace) -> int:
    X = chart_from_json(_read_json(args.chart))
    x1, sep, x2 = args.merge.partition(":")
    if not sep:
        raise ValueError("--merge expects x1:x2")
    _emit(chart_to_json(connect_through(X, x1, x2)))
    return 0


def cmd_collapse(args: argparse.Namespace) -> int:
    X = chart_from_json(_read_json(args.chart))
    L = _load_witness(args, X)
    if L is None:
        return 1
    collapsed, projection = collapse(L)
    if args.dot:
        sys.stdout.write(to_dot(collapsed.base, collapsed))
        return 0
    old_ids = state_ids(X)
    new_ids = state_ids(collapsed.base)
    _emit(
        {
            "collapsed": witness_to_json(collapsed),
            "projection": {old_ids[x]: new_ids[projection[x]] for x in X.states},
        }
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    alpha, (e, f) = _parse_exprs(args, args.left, args.right)
    cert = certify(e, f, alpha)
    _emit(cert.to_json())
    return 0 if cert.verdict == "equivalent" else 1


def cmd_dot(args: argparse.Namespace) -> int:
    doc = _read_json(args.input)
    X = chart_from_json(doc)  # checks the document's shape first
    transitions = doc.get("transitions", [])
    L = witness_from_json(doc) if transitions and "tag" in transitions[0] else None
    sys.stdout.write(to_dot(X, L))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starchart",
        description="1-free star expressions: charts, bisimilarity, layering witnesses, "
        "solutions, and equivalence certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its canonical form")
    p.add_argument("expr")
    p.add_argument("--alphabet", help="comma-separated actions, e.g. a,b,c")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("chart", help="build the chart of an expression")
    p.add_argument("expr")
    p.add_argument("--alphabet")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("bisim", help="decide bisimilarity of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--alphabet")
    p.add_argument("--witness", action="store_true",
                   help="also print the relation or a distinguishing clause")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("witness", help="verify, infer, or derive a layering witness")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--verify", metavar="WITNESS_JSON")
    mode.add_argument("--infer", metavar="CHART_JSON")
    mode.add_argument("--syntactic", metavar="EXPR")
    p.add_argument("--llee", action="store_true",
                   help="with --syntactic, emit the weighted form")
    p.add_argument("--alphabet")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("solve", help="canonical per-state solution of a chart")
    p.add_argument("chart")
    p.add_argument("--witness", metavar="WITNESS_JSON")
    p.add_argument("--simplify", action="store_true",
                   help="apply unit cleanups (e+0 -> e, 0e -> 0) to the output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reroute", help="connect one state through to another")
    p.add_argument("chart")
    p.add_argument("--merge", required=True, metavar="X1:X2")
    p.set_defaults(func=cmd_reroute)

    p = sub.add_parser("collapse", help="bisimulation collapse preserving the witness")
    p.add_argument("chart")
    p.add_argument("--witness", metavar="WITNESS_JSON")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("certify", help="certify two expressions equivalent or not")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--alphabet")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("dot", help="render a chart or witness JSON file as DOT")
    p.add_argument("input")
    p.set_defaults(func=cmd_dot)

    return parser


# parse_args leaves the parser unchanged, so one instance serves every call
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # ParseError, InvalidWitnessError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a resource limit of the recursive semantics, not a fault
        print("gave up: nesting too deep", file=sys.stderr)
        return 4
    except MemoryError:  # likewise a resource limit: never the negative verdict's exit 1
        print("gave up: out of memory", file=sys.stderr)
        return 4
    except RuntimeError as exc:  # failed self-checks, MeasureError
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
