"""Golden CLI output: ``certify``, ``solve``, ``parse``, ``chart``,
``collapse``, ``bisim`` and ``witness --infer`` on a fixed seeded corpus must
print byte-identical stdout with the same exit code.

The expected output lives in ``golden_cli.json`` next to this file.  To
re-record it after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py --record`` and review the diff.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from starchart import Sum, chart_of, render
from starchart.cli import PARSER, _parse_exprs, main
from starchart.formats import chart_to_json, witness_to_json
from starchart.layering import syntactic_witness
from test_golden_certs import digest
from gen import fig3_right, milner_clique, random_chart, random_expr, rewrite_steps

GOLDEN = Path(__file__).with_name("golden_cli.json")


def corpus() -> list[dict]:
    """Command lines, with the chart and witness files some of them read."""
    rng = random.Random(2106_08074)
    cases: list[dict] = []
    for depth in (3,) * 12 + (4,) * 4:
        e = random_expr(rng, depth=depth)
        f = rewrite_steps(rng, e, rng.randint(1, 4))
        cases.append({"argv": ["certify", render(e), render(f)]})
    for _ in range(8):
        e, f = random_expr(rng, depth=3), random_expr(rng, depth=3)
        cases.append({"argv": ["certify", render(e), render(f)]})
    cases.append({"argv": ["certify", "a*0", "(aa)*0", "--alphabet", "b,a"]})
    for _ in range(6):
        e = random_expr(rng, depth=3)
        cases.append({"argv": ["parse", render(e)]})
        cases.append({"argv": ["chart", render(e)]})
        X = chart_of(e)
        files = {"chart": chart_to_json(X), "witness": witness_to_json(syntactic_witness(X))}
        cases.append({"argv": ["solve", "{chart}"], "files": files})
        cases.append({"argv": ["solve", "{chart}", "--witness", "{witness}"], "files": files})
    for _ in range(6):
        X = random_chart(rng, n_states=4, rooted=True)
        cases.append({"argv": ["solve", "{chart}"], "files": {"chart": chart_to_json(X)}})
    # drawn last, so that the cases above keep their draws
    for depth in (3, 3, 4, 4, 4, 4):
        e = random_expr(rng, depth=depth)
        X = chart_of(Sum(e, rewrite_steps(rng, e, rng.randint(1, 3))))
        files = {"chart": chart_to_json(X), "witness": witness_to_json(syntactic_witness(X))}
        cases.append({"argv": ["collapse", "{chart}"], "files": files})
        cases.append({"argv": ["collapse", "{chart}", "--witness", "{witness}"], "files": files})
    # drawn after the collapse cases: bisimilar pairs (rewrites), then
    # mostly inequivalent ones (independent draws)
    for depth in (3, 3, 4, 4):
        e = random_expr(rng, depth=depth)
        f = rewrite_steps(rng, e, rng.randint(1, 3))
        cases.append({"argv": ["bisim", render(e), render(f)]})
        cases.append({"argv": ["bisim", render(e), render(f), "--witness"]})
    for depth in (3, 3, 3, 4, 4, 4):
        e, f = random_expr(rng, depth=depth), random_expr(rng, depth=depth)
        cases.append({"argv": ["bisim", render(e), render(f)]})
        cases.append({"argv": ["bisim", render(e), render(f), "--witness"]})
    cases.append({"argv": ["bisim", "a*0", "(aa)*0", "--alphabet", "b,a", "--witness"]})
    cases.append({"argv": ["bisim", "a*b", "(aa)*b", "--alphabet", "b,a", "--witness"]})
    cases.append({"argv": ["bisim", "a b", "a c", "--witness"]})
    cases.append({"argv": ["bisim", "a(b + c)", "a b + a c", "--witness"]})
    cases.append({"argv": ["bisim", "a b + a c", "a(b + c)", "--witness"]})
    # drawn after the bisim cases: inferred witnesses of output-free charts
    # and of charts with outputs, then of a chart that has none
    for n_states, out_prob in ((5, 0), (6, 0), (7, 0), (5, 0.3), (6, 0.3), (7, 0.3)):
        X = random_chart(rng, n_states=n_states, edge_prob=0.2, out_prob=out_prob, rooted=True)
        cases.append({"argv": ["witness", "--infer", "{chart}"], "files": {"chart": chart_to_json(X)}})
    cases.append({"argv": ["witness", "--infer", "{chart}"], "files": {"chart": chart_to_json(fig3_right())}})
    # built from fixed inputs, not drawn from ``rng``: charts with no witness,
    # an inexpressible clique and an output-free ten-state chart
    clique = {"chart": chart_to_json(milner_clique())}
    for argv in (["witness", "--infer", "{chart}"], ["solve", "{chart}"], ["collapse", "{chart}"]):
        cases.append({"argv": argv, "files": clique})
    X = random_chart(random.Random(1), n_states=10, out_prob=0)
    cases.append({"argv": ["witness", "--infer", "{chart}"], "files": {"chart": chart_to_json(X)}})
    return cases


def run_case(case: dict, work: Path) -> dict:
    paths = {}
    for name, doc in case.get("files", {}).items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    argv = [arg.format(**{k: str(p) for k, p in paths.items()}) for arg in case["argv"]]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": case["argv"], "files": case.get("files", {}), "code": code, "stdout": out.getvalue()}


# read at import so that each case is its own test; a missing file fails
# test_golden_corpus_is_the_seeded_corpus instead of breaking collection
RECORDED: list[dict] = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


@pytest.mark.parametrize("index", range(len(RECORDED)))
def test_cli_output_matches_golden(index, tmp_path):
    expected = RECORDED[index]
    got = run_case({"argv": expected["argv"], "files": expected["files"]}, tmp_path)
    assert got["code"] == expected["code"]
    assert got["stdout"] == expected["stdout"]


def test_certify_prints_the_digested_certificate_on_one_line():
    # the CLI and the digest golden pin one serialisation of each certificate
    rows = [row for row in RECORDED if row["argv"][0] == "certify"]
    assert len(rows) == 25
    for row in rows:
        args = PARSER.parse_args(row["argv"])
        alpha, (e, f) = _parse_exprs(args, args.left, args.right)
        line, end, rest = row["stdout"].partition("\n")
        assert (end, rest) == ("\n", "")
        assert hashlib.sha256(line.encode("utf-8")).hexdigest() == digest(e, f, alpha)["sha256"]


def test_golden_corpus_is_the_seeded_corpus():
    # the recorded inputs are exactly what the generators draw today
    assert [{"argv": c["argv"], "files": c["files"]} for c in RECORDED] == [
        {"argv": c["argv"], "files": c.get("files", {})} for c in corpus()
    ]


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        results = [run_case(case, Path(work)) for case in corpus()]
    GOLDEN.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
