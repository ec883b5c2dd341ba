"""Recorded witness analyses: on a fixed seeded corpus of labellings, the
first violation ``verify_witness`` reports, the measures and weighted form
of every valid witness, the derived relations, and the pairs ``find_pair``
picks while joined witnesses are collapsed by hand must stay the same.

The corpus mixes syntactic witnesses of expression charts with some tags
flipped, labellings of random charts (inferred witnesses, some with a tag
flipped, and labellings drawn at random), and, for ``find_pair``, joined syntactic
witnesses of an expression beside an axiom rewrite of it and inferred
witnesses of random charts.  States are named by their
position in the chart; only the violation keeps its own text, as the
command line prints it.

The expected table lives in ``golden_witnesses.json`` next to this file.
To re-record it after a deliberate change, run
``PYTHONPATH=src python tests/test_witness_table.py --record`` and review
the diff.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from starchart import (
    LabelledPrechart,
    bisimilarity,
    chart_of,
    derived_relations,
    find_pair,
    infer_witness,
    measures,
    relabel,
    syntactic_witness,
    to_llee,
    union_witness,
    verify_witness,
)
from gen import partition_without, random_chart, random_expr, rewrite_steps

GOLDEN = Path(__file__).with_name("golden_witnesses.json")
ALPHA = ("a", "b", "c")


def flipped(L: LabelledPrechart, rng: random.Random, count: int) -> LabelledPrechart:
    """``L`` with ``count`` of its tags, drawn by ``rng``, flipped."""
    edges = list(L.base.edges())
    tags = dict(L.tags)
    for edge in rng.sample(edges, min(count, len(edges))):
        tags[edge] = {"e": "b", "b": "e"}[tags[edge]]
    return LabelledPrechart(L.base, tags)


def drawn(X, rng: random.Random) -> LabelledPrechart:
    """A labelling of ``X`` with no body cycle, drawn by ``rng``: the steps
    that go forward in a random order of the states are body steps, the
    others entries."""
    order = dict(zip(rng.sample(X.states, len(X.states)), range(len(X.states))))
    return LabelledPrechart(X, {(x, a, y): "b" if order[x] < order[y] else "e" for x, a, y in X.edges()})


def labellings() -> list[LabelledPrechart]:
    rng = random.Random(2716)
    out = []
    for i in range(300):
        e = random_expr(rng, depth=rng.randint(2, 4))
        out.append(flipped(syntactic_witness(chart_of(e, ALPHA)), rng, i % 3))
    while len(out) < 560:
        X = random_chart(rng, n_states=rng.randint(2, 6), edge_prob=rng.choice((0.2, 0.35)),
                         out_prob=rng.choice((0.0, 0.4)))
        L = infer_witness(X)
        if L is not None:
            out += [L, flipped(L, rng, 1)]
        out.append(drawn(X, rng))
    for _ in range(80):  # small charts with many outputs: goto-freedom is what fails
        out.append(drawn(random_chart(rng, n_states=rng.randint(2, 3), edge_prob=0.5, out_prob=0.5), rng))
    return out


def joined() -> list[LabelledPrechart]:
    """Joined syntactic witnesses, then inferred witnesses of random charts:
    between them they reach all three safe-pair conditions."""
    rng = random.Random(2717)
    out = []
    for _ in range(80):
        e = random_expr(rng, depth=rng.randint(2, 4))
        f = rewrite_steps(rng, e, rng.randint(1, 3))
        out.append(union_witness(syntactic_witness(chart_of(e, ALPHA)), syntactic_witness(chart_of(f, ALPHA)))[0])
    while len(out) < 140:
        L = infer_witness(random_chart(rng, n_states=rng.randint(3, 6), edge_prob=0.4, out_prob=0.15))
        if L is not None:
            out.append(L)
    return out


def analysed(L: LabelledPrechart) -> dict:
    X = L.base
    number = X.index
    ok, violation = verify_witness(L)
    descent, membership = derived_relations(L)
    row = {
        "violation": str(violation),
        "descent": sorted([number(x), number(y)] for x, y in descent),
        "membership": sorted([number(y), number(x)] for y, x in membership),
    }
    if ok:
        row["measures"] = [list(measures(L, x)) for x in X.states]
        weights = to_llee(L).weights
        row["llee"] = [weights[edge] for edge in X.edges()]
    return row


def collapsed_by_hand(L: LabelledPrechart) -> list:
    """The pairs ``find_pair`` picks, one merge at a time, by position in
    the chart before the merge."""
    R, pairs = bisimilarity(L.base), []
    while (found := find_pair(L, R)) is not None:
        w1, w2, condition = found
        pairs.append([L.base.index(w1), L.base.index(w2), condition])
        L, R = relabel(L, w1, w2, condition), partition_without(R, w1)
    return pairs


def table() -> dict:
    return {"labellings": [analysed(L) for L in labellings()],
            "find_pair": [collapsed_by_hand(L) for L in joined()]}


RECORDED: dict = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_the_analyses_match_the_recorded_table():
    assert table() == RECORDED


def test_the_table_covers_every_clause_and_condition():
    rows = RECORDED["labellings"]
    assert len(rows) >= 500
    clauses = [row["violation"].partition(":")[0] for row in rows]
    for clause in ("None", "flat", "fully_specified_a", "fully_specified_b", "layered", "goto_free"):
        assert clauses.count(clause) >= 10, clause
    assert sum("measures" in row for row in rows) >= 150
    conditions = [c for pairs in RECORDED["find_pair"] for _, _, c in pairs]
    assert min(conditions.count(c) for c in ("C1", "C2", "C3")) >= 3


def record() -> None:
    GOLDEN.write_text(json.dumps(table(), separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"recorded the witness table to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_witness_table.py --record")
    record()
