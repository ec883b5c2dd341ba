"""Command-line surface and end-to-end equivalence certification.

``certify`` realizes the completeness pipeline: build both charts, join
them, decide bisimilarity, collapse the joined witness so the two roots
land on one state, and solve the collapsed chart to obtain a common
expression.  Every stage is re-verified, and the emitted certificate
carries enough data to replay each named check.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

from .bisim import BisimViolation, PartitionRelation, bisimilar, bisimilarity, check_bisimulation
from .formats import (
    chart_from_json,
    chart_to_json,
    state_ids,
    to_dot,
    weighted_to_json,
    witness_from_json,
    witness_to_json,
)
from .layering import (
    InvalidWitnessError,
    LabelledPrechart,
    infer_witness,
    syntactic_witness,
    to_llee,
    union_witness,
    verify_witness,
)
from .rerouting import collapse, connect_through
from .semantics import Prechart, chart_of, is_homomorphism, kernel_partition
from .solution import canonical_solution, simplify, verify_solution
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
        if self.distinguishing is not None:
            v = self.distinguishing
            doc["distinguishing"] = {
                "clause": v.clause,
                "left": _label_in(v.left),
                "right": _label_in(v.right),
                "action": v.action,
                "successor": _label_in(v.successor) if v.successor is not None else None,
            }
        return doc


def _label_in(state: Any) -> str:
    from .formats import state_label

    return state_label(state)


def _joined_setup(e: Expr, f: Expr, alphabet: tuple[str, ...]):
    Xe, Xf = chart_of(e, alphabet), chart_of(f, alphabet)
    Lc, inl, inr = union_witness(syntactic_witness(Xe), syntactic_witness(Xf))
    return Lc, inl[e], inr[f]


def _distinguishing_violation(Lc: LabelledPrechart, R: PartitionRelation, re_: Any, rf: Any) -> BisimViolation:
    candidate = R.merge(re_, rf)
    ordered = [(re_, rf)] + [p for p in candidate.pairs() if p != (re_, rf)]
    ok, violation = check_bisimulation(Lc.base, Lc.base, ordered)
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
    Lc, re_, rf = _joined_setup(e, f, alpha)
    ok, violation = verify_witness(Lc)
    if not ok:
        raise RuntimeError(f"joined chart lost its witness: {violation}")
    R = bisimilarity(Lc.base)
    relation_ok, _ = check_bisimulation(Lc.base, Lc.base, R.pairs())
    checks = [Check("bisimulation-relation-valid", relation_ok)]

    if not R.related(re_, rf):
        witness_violation = _distinguishing_violation(Lc, R, re_, rf)
        candidate = R.merge(re_, rf)
        checks += [
            Check("roots-not-bisimilar", not R.related(re_, rf)),
            Check(
                "distinguishing-clause",
                _violation_holds(Lc.base, set(candidate.pairs()), witness_violation),
            ),
        ]
        cert = Certificate("inequivalent", e, f, alpha, checks, distinguishing=witness_violation)
    else:
        collapsed, projection = collapse(Lc)
        z = projection[re_]
        if projection[rf] != z:
            raise RuntimeError("collapse failed to merge the two roots")
        hom_ok, hom_why = is_homomorphism(projection, Lc.base, collapsed.base)
        if not hom_ok:
            raise RuntimeError(f"collapse projection is not a homomorphism: {hom_why}")
        if not kernel_partition(projection, Lc.base.states).same_partition(R):
            raise RuntimeError("collapse projection kernel differs from bisimilarity")
        import dataclasses

        rooted = LabelledPrechart(dataclasses.replace(collapsed.base, root=z), collapsed.tags)
        solution = canonical_solution(rooted)
        solved_ok, bad_state = verify_solution(rooted.base, solution)
        common = solution.assign[z]
        checks += [
            Check("roots-bisimilar", R.related(re_, rf)),
            Check("collapsed-witness-valid", verify_witness(rooted)[0]),
            Check("collapse-minimal", bisimilarity(rooted.base).is_identity),
            Check("solution-verified", solved_ok),
            Check("common-bisimilar-left", bisimilar(e, common, alpha)),
            Check("common-bisimilar-right", bisimilar(f, common, alpha)),
        ]
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
    Lc, re_, rf = _joined_setup(e, f, alpha)
    R = bisimilarity(Lc.base)
    checks = [Check("bisimulation-relation-valid", check_bisimulation(Lc.base, Lc.base, R.pairs())[0])]
    if doc["verdict"] == "inequivalent":
        v = doc["distinguishing"]
        ids = state_ids(Lc.base)
        by_id = {name: x for x, name in ids.items()}
        violation = BisimViolation(
            v["clause"],
            by_id[v["left"]],
            by_id[v["right"]],
            v["action"],
            by_id[v["successor"]] if v["successor"] is not None else None,
        )
        candidate = R.merge(re_, rf)
        checks += [
            Check("roots-not-bisimilar", not R.related(re_, rf)),
            Check("distinguishing-clause", _violation_holds(Lc.base, set(candidate.pairs()), violation)),
        ]
        return checks
    collapsed = witness_from_json(doc["collapsed"])
    solution = canonical_solution(collapsed)
    common = parse(doc["common"], alpha)
    checks += [
        Check("roots-bisimilar", R.related(re_, rf)),
        Check("collapsed-witness-valid", verify_witness(collapsed)[0]),
        Check("collapse-minimal", bisimilarity(collapsed.base).is_identity),
        Check("solution-verified", verify_solution(collapsed.base, solution)[0]),
        Check("common-at-root", solution.assign[collapsed.base.root] == common),
        Check("common-bisimilar-left", bisimilar(e, common, alpha)),
        Check("common-bisimilar-right", bisimilar(f, common, alpha)),
    ]
    return checks


# --- command surface ---------------------------------------------------------


def _alphabet_arg(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    return declare_alphabet(a.strip() for a in value.split(",") if a.strip())


def _default_alphabet(*parsed: Expr) -> tuple[str, ...]:
    out: set[str] = set()
    for e in parsed:
        out |= atoms(e)
    return tuple(sorted(out))


def _parse_with(text: str, alphabet: tuple[str, ...] | None) -> Expr:
    if alphabet is not None:
        return parse(text, alphabet)
    # default alphabet: the single letters occurring in the text, so "aa"
    # reads as a.a; multi-character actions require --alphabet
    probe = sorted({c for c in text if c.islower()})
    return parse(text, probe or ["a"])


def _emit(doc: Any) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False))


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_parse(args: argparse.Namespace) -> int:
    alpha = _alphabet_arg(args.alphabet)
    e = parse(args.expr, alpha) if alpha is not None else _parse_with(args.expr, None)
    print(render(e))
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    alpha = _alphabet_arg(args.alphabet)
    e = parse(args.expr, alpha) if alpha is not None else _parse_with(args.expr, None)
    X = chart_of(e, alpha if alpha is not None else _default_alphabet(e))
    if args.dot:
        sys.stdout.write(to_dot(X))
    else:
        _emit(chart_to_json(X))
    return 0


def cmd_bisim(args: argparse.Namespace) -> int:
    alpha = _alphabet_arg(args.alphabet)
    e = parse(args.left, alpha) if alpha is not None else _parse_with(args.left, None)
    f = parse(args.right, alpha) if alpha is not None else _parse_with(args.right, None)
    if alpha is None:
        alpha = _default_alphabet(e, f)
    from .semantics import coproduct

    X, Y = chart_of(e, alpha), chart_of(f, alpha)
    Z, inl, inr = coproduct(X, Y)
    R = bisimilarity(Z)
    same = R.related(inl[e], inr[f])
    print("bisimilar" if same else "not-bisimilar")
    if args.witness:
        if same:
            relation = [
                [render(x), render(y)]
                for x in X.states
                for y in Y.states
                if R.related(inl[x], inr[y])
            ]
            _emit({"bisimilar": True, "relation": relation})
        else:
            candidate = R.merge(inl[e], inr[f])
            ordered = [(inl[e], inr[f])] + [p for p in candidate.pairs() if p != (inl[e], inr[f])]
            _, violation = check_bisimulation(Z, Z, ordered)
            from .formats import state_label

            _emit(
                {
                    "bisimilar": False,
                    "clause": {
                        "kind": violation.clause,
                        "left": state_label(violation.left),
                        "right": state_label(violation.right),
                        "action": violation.action,
                        "successor": state_label(violation.successor)
                        if violation.successor is not None
                        else None,
                    },
                }
            )
    return 0 if same else 1


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
    alpha = _alphabet_arg(args.alphabet)
    e = parse(args.syntactic, alpha) if alpha is not None else _parse_with(args.syntactic, None)
    X = chart_of(e, alpha if alpha is not None else _default_alphabet(e))
    doc = witness_to_json(syntactic_witness(X))
    if args.llee:
        doc = weighted_to_json(to_llee(syntactic_witness(X)))
    _emit(doc)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    X = chart_from_json(_read_json(args.chart))
    if args.witness:
        L = witness_from_json(_read_json(args.witness))
        if chart_to_json(L.base) != chart_to_json(X):
            raise ValueError("witness file does not label the given chart")
        ok, violation = verify_witness(L)
        if not ok:
            print(f"witness does not verify: {violation}", file=sys.stderr)
            return 1
    else:
        L = infer_witness(X)
        if L is None:
            print("no layering witness", file=sys.stderr)
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
    if args.witness:
        L = witness_from_json(_read_json(args.witness))
        if chart_to_json(L.base) != chart_to_json(X):
            raise ValueError("witness file does not label the given chart")
        ok, violation = verify_witness(L)
        if not ok:
            print(f"witness does not verify: {violation}", file=sys.stderr)
            return 1
    else:
        L = infer_witness(X)
        if L is None:
            print("no layering witness", file=sys.stderr)
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
    alpha = _alphabet_arg(args.alphabet)
    e = parse(args.left, alpha) if alpha is not None else _parse_with(args.left, None)
    f = parse(args.right, alpha) if alpha is not None else _parse_with(args.right, None)
    cert = certify(e, f, alpha if alpha is not None else _default_alphabet(e, f))
    _emit(cert.to_json())
    return 0 if cert.verdict == "equivalent" else 1


def cmd_dot(args: argparse.Namespace) -> int:
    doc = _read_json(args.input)
    transitions = doc.get("transitions", [])
    if transitions and "tag" in transitions[0]:
        L = witness_from_json(doc)
        sys.stdout.write(to_dot(L.base, L))
    else:
        sys.stdout.write(to_dot(chart_from_json(doc)))
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
