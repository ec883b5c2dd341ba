"""The benchmark's own checks: repeatable trace counters and true known answers.

    python3 -m pytest perfbench -q
"""

import json

import corpus
import run
from tracing import expr_sizes

from starchart import Atom, Seq, Sum, bisimilar, chart_of, infer_witness, parse
from starchart.formats import chart_from_json

COUNTS = (".calls", ".states", "merges.C1", "merges.C2", "merges.C3", ".fallbacks",
          ".leaves", ".hits", "tree_nodes", "dag_nodes")


def traced_counts(workload: str, items: int, name: str) -> dict:
    records = run.WORK / f"records-test-{name}.json"
    spans = str(run.WORK / f"spans-test-{name}.json")
    run.WORK.mkdir(exist_ok=True)
    primary = run.child("primary", *run.phase_args(workload, 7, records, items), "--spans", spans)
    replay = run.child("replay", "--records", str(records), "--spans", spans)
    records.unlink()
    totals: dict = {}
    run.add_layers(totals, primary["layers"])
    run.add_layers(totals, replay["layers"])
    return {k: v for k, v in totals.items() if k.endswith(COUNTS)}


def test_trace_counters_repeat_for_a_fixed_seed():
    for workload, items in (("certify_equiv", 12), ("certify_inequiv", 12), ("solve_infer", 40)):
        first = traced_counts(workload, items, "a")
        assert first == traced_counts(workload, items, "b"), workload
        assert first["cli.main.calls"] == items


def accepts(X, word: str) -> bool:
    """Whether the chart accepts ``word``: steps on its prefix, then outputs its last action."""
    current = {X.root}
    for a in word[:-1]:
        current = {y for x in current for y in X.succ(x, a)}
    return any(word[-1] in X.out(x) for x in current)


def test_oracle_words_separate_the_charts():
    alphabet = corpus.BASE_ALPHABET
    for item in corpus.population("certify_inequiv", 25):
        e, f = parse(item["left"], alphabet), parse(item["right"], alphabet)
        word = item["word"]
        assert accepts(chart_of(e, alphabet), word) != accepts(chart_of(f, alphabet), word)
        assert not bisimilar(e, f, alphabet)


def test_equivalent_pairs_accept_the_same_words():
    alphabet = corpus.BASE_ALPHABET
    for item in corpus.population("certify_equiv", 25):
        e, f = parse(item["left"], alphabet), parse(item["right"], alphabet)
        assert corpus.distinguishing_word(e, f) is None
        assert bisimilar(e, f, alphabet)


def test_joined_charts_have_no_witness():
    items = corpus.population("solve_infer", 60)
    small = sorted(items, key=lambda it: len(it["chart"]["transitions"]))[:20]
    assert {it["expect"] for it in small} == {"solved", "no-witness"}
    for item in small:
        found = infer_witness(chart_from_json(item["chart"]))
        assert (found is None) == (item["expect"] == "no-witness"), json.dumps(item)


def test_renaming_keeps_the_alphabet_order():
    rng, draw = corpus.renamings(3, "certify_equiv")
    used: set = set()
    names = [draw(used) for _ in range(50)]
    assert len(set(names)) == 50 and all(list(n) == sorted(n) for n in names)
    assert corpus.rename_text("a*(b c) + 0", ("d", "k", "q")) == "d*(k q) + 0"


def test_expr_sizes_count_shared_subterms_once():
    a = Atom("a")
    x = Sum(a, a)
    assert expr_sizes([Seq(x, x)]) == (7, 3)
    assert expr_sizes([x, Seq(x, x)]) == (10, 3)
