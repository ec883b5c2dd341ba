"""Command-line surface and end-to-end equivalence certification.

``certify`` realizes the completeness pipeline: build both charts and
decide bisimilarity on their coproduct.  Only when the roots are bisimilar
is a layering witness built, on the same states: the joined syntactic
witness is collapsed so the two roots land on one state, and the collapsed
chart is solved to obtain a common expression.  Every stage is re-verified,
and the emitted certificate carries enough data to replay each named check;
``recheck_certificate`` replays them with the same check functions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

from .bisim import BisimViolation, PartitionRelation, bisimilarity, check_bisimulation
from .formats import (
    chart_from_json,
    chart_to_json,
    iter_state_ids,
    state_ids,
    state_label,
    to_dot,
    weighted_to_json,
    witness_from_json,
    witness_to_json,
)
from .layering import (
    InvalidWitnessError,
    LabelledPrechart,
    _union_on,
    infer_witness,
    syntactic_witness,
    to_llee,
    verify_witness,
)
from .rerouting import collapse, connect_through
from .semantics import (
    Prechart,
    StateId,
    chart_of,
    coproduct,
    is_homomorphism,
    joint_chart,
    kernel_partition,
)
from .solution import Solution, canonical_solution, simplify, verify_solution
from .syntax import Expr, ParseError, atoms, declare_alphabet, parse, render


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool


@dataclass
class Certificate:
    """Outcome of certifying two expressions equivalent or not.

    When the verdict is ``equivalent``, ``collapsed`` is the collapsed
    witness rooted at the merged image of both inputs and ``common`` is the
    canonical solution there; every listed check passed.
    """

    verdict: str  # "equivalent" | "inequivalent"
    left: Expr
    right: Expr
    alphabet: tuple[str, ...]
    checks: list[Check] = field(default_factory=list)
    collapsed: LabelledPrechart | None = None
    common: Expr | None = None
    distinguishing: BisimViolation | None = None

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "verdict": self.verdict,
            "inputs": {"left": render(self.left), "right": render(self.right)},
            "alphabet": list(self.alphabet),
            "checks": [{"name": c.name, "passed": c.passed} for c in self.checks],
            "collapsed": witness_to_json(self.collapsed) if self.collapsed else None,
            "common": render(self.common) if self.common is not None else None,
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
    """Both charts, their coproduct and its bisimilarity: a verdict's data.

    The states of ``joined`` are those of the union of the two syntactic
    witnesses in the same order, so state names agree with a witness built
    later from the same charts.
    """

    left: Prechart
    right: Prechart
    joined: Prechart
    inl: dict[StateId, StateId]
    inr: dict[StateId, StateId]
    R: PartitionRelation

    @property
    def roots(self) -> tuple[StateId, StateId]:
        return self.inl[self.left.root], self.inr[self.right.root]

    @property
    def bisimilar(self) -> bool:
        return self.R.related(*self.roots)


def _decide(e: Expr, f: Expr, alphabet: tuple[str, ...]) -> _Decision:
    """Decide bisimilarity of ``e`` and ``f`` on the coproduct of their charts."""
    Xe, Xf = chart_of(e, alphabet), chart_of(f, alphabet)
    Z, inl, inr = coproduct(Xe, Xf)
    return _Decision(Xe, Xf, Z, inl, inr, bisimilarity(Z))


def _distinguishing_violation(d: _Decision) -> BisimViolation:
    """The first failing clause once the roots' classes are joined, roots first."""
    re_, rf = d.roots
    candidate = d.R.merge(re_, rf)
    ok, violation = check_bisimulation(d.joined, d.joined, [(re_, rf), *candidate.pairs()])
    if ok or violation is None:
        raise RuntimeError("roots are not bisimilar yet joining their classes yields a bisimulation")
    return violation


def _violation_holds(X: Prechart, related: set, v: BisimViolation) -> bool:
    if v.clause == "output":
        return (v.action in X.out(v.left)) != (v.action in X.out(v.right))
    if v.clause == "forth":
        return v.successor in X.succ(v.left, v.action) and not any(
            (v.successor, y2) in related for y2 in X.succ(v.right, v.action)
        )
    if v.clause == "back":
        return v.successor in X.succ(v.right, v.action) and not any(
            (x2, v.successor) in related for x2 in X.succ(v.left, v.action)
        )
    return False


# The checks below are shared by ``certify``, which builds the evidence, and
# ``recheck_certificate``, which reads it back from a certificate.


def _relation_check(d: _Decision) -> Check:
    return Check("bisimulation-relation-valid", check_bisimulation(d.joined, d.joined, d.R)[0])


def _inequivalent_checks(d: _Decision, violation: BisimViolation) -> list[Check]:
    candidate = d.R.merge(*d.roots)
    return [
        Check("roots-not-bisimilar", not d.bisimilar),
        Check("distinguishing-clause", _violation_holds(d.joined, set(candidate.pairs()), violation)),
    ]


def _collapsed_checks(d: _Decision, collapsed: LabelledPrechart, solution: Solution) -> list[Check]:
    return [
        Check("roots-bisimilar", d.bisimilar),
        Check("collapsed-witness-valid", verify_witness(collapsed)[0]),
        Check("collapse-minimal", bisimilarity(collapsed.base).is_identity),
        Check("solution-verified", verify_solution(collapsed.base, solution)[0]),
    ]


def _common_checks(d: _Decision, common: Expr) -> list[Check]:
    """Both inputs against ``common``, decided by one refinement.

    A state's class depends only on what it reaches, so this answers as
    two ``bisimilar`` calls would, with one chart and one refinement.
    """
    e, f = d.left.root, d.right.root
    R = bisimilarity(joint_chart([e, f, common], d.joined.alphabet))
    return [
        Check("common-bisimilar-left", R.related(e, common)),
        Check("common-bisimilar-right", R.related(f, common)),
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
        violation = _distinguishing_violation(d)
        checks += _inequivalent_checks(d, violation)
        cert = Certificate("inequivalent", e, f, alpha, checks, distinguishing=violation)
    else:
        # the witness is needed only to collapse; collapse verifies it, and
        # checks the decided partition once, before the first merge
        Lc = _union_on(d.joined, d.inl, d.inr, syntactic_witness(d.left), syntactic_witness(d.right))
        try:
            collapsed, projection = collapse(Lc, d.R)
        except ValueError as exc:  # the joined witness or d.R is at fault, not the input
            raise RuntimeError(f"collapse of the joined witness failed: {exc}") from exc
        re_, rf = d.roots
        z = projection[re_]
        if projection[rf] != z:
            raise RuntimeError("collapse failed to merge the two roots")
        hom_ok, hom_why = is_homomorphism(projection, Lc.base, collapsed.base)
        if not hom_ok:
            raise RuntimeError(f"collapse projection is not a homomorphism: {hom_why}")
        if not kernel_partition(projection, Lc.base.states).same_partition(d.R):
            raise RuntimeError("collapse projection kernel differs from bisimilarity")
        rooted = LabelledPrechart(dataclasses.replace(collapsed.base, root=z), collapsed.tags)
        solution = canonical_solution(rooted)
        common = solution.assign[z]
        checks += _collapsed_checks(d, rooted, solution) + _common_checks(d, common)
        cert = Certificate("equivalent", e, f, alpha, checks, collapsed=rooted, common=common)
    failed = [c.name for c in cert.checks if not c.passed]
    if failed:
        raise RuntimeError(f"certification checks failed: {failed}")
    return cert


def recheck_certificate(doc: Mapping[str, Any]) -> list[Check]:
    """Replay every named check of a serialized certificate from scratch."""
    alpha = tuple(doc["alphabet"])
    e = parse(doc["inputs"]["left"], alpha)
    f = parse(doc["inputs"]["right"], alpha)
    d = _decide(e, f, alpha)
    checks = [_relation_check(d)]
    if doc["verdict"] == "inequivalent":
        v = doc["distinguishing"]
        names = {v["left"], v["right"], v["successor"]} - {None}
        by_id = {}
        for x, name in iter_state_ids(d.joined):  # stop once the clause's names are known
            if name in names:
                by_id[name] = x
                if len(by_id) == len(names):
                    break
        violation = BisimViolation(
            v["clause"],
            by_id[v["left"]],
            by_id[v["right"]],
            v["action"],
            by_id[v["successor"]] if v["successor"] is not None else None,
        )
        return checks + _inequivalent_checks(d, violation)
    collapsed = witness_from_json(doc["collapsed"])
    solution = canonical_solution(collapsed)
    common = parse(doc["common"], alpha)
    return (
        checks
        + _collapsed_checks(d, collapsed, solution)
        + [Check("common-at-root", solution.assign[collapsed.base.root] == common)]
        + _common_checks(d, common)
    )


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
        relation = [
            [render(x), render(y)]
            for x in d.left.states
            for y in d.right.states
            if d.R.related(d.inl[x], d.inr[y])
        ]
        _emit({"bisimilar": True, "relation": relation})
    elif args.witness:
        v = _distinguishing_violation(d)
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
    except (ParseError, InvalidWitnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # failed self-checks, RecursionError, MeasureError
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
