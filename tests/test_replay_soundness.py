"""Replay is the trusted checker, tested as an adversary would test it.

The property: whenever ``recheck_certificate`` passes every check of a
certificate, the certificate's ``verdict`` is true of its inputs, as a
refinement that shares no code with replay decides it
(``gen.round_by_round_bisimilarity`` on ``gen.joined_chart``).  A document
that replay rejects with ``ValueError`` makes no claim.  The certificates
are edited three ways, with one seed:

* every golden pair's certificate (``certify``'s, and the local proof's of
  each equivalent pair), with one to three random JSON edits: a scalar
  changed or retyped, a list item dropped, duplicated or swapped,
  ``verdict`` flipped, ``proof`` dropped, changed or added, an ``inputs``
  side replaced by another golden input;
* certificates whose evidence (``verdict``, ``distinguishing``,
  ``collapsed``, ``projection`` and ``proof``) is moved onto another golden
  pair's inputs and alphabet;
* a seeded sample of the small scope's pairs (every expression over ``a,
  b`` of at most 5 nodes, after Jackson's small-scope hypothesis),
  certified and then edited.

Every 40th edited certificate is also replayed by ``starchart replay``,
whose exit code and lines must be replay's.  The checker's own import
closure is pinned here too, and that replay refines nothing.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from starchart import Atom, Seq, Sum, certify, chart_of, main, parse, recheck_certificate, render
from starchart.syntax import declare_alphabet
from test_certify import refuse_calls, roundtrip
from test_golden_certs import corpus as golden_corpus
from gen import all_exprs, joined_chart, local_certify, round_by_round_bisimilarity

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 22_0614
# strings an edit writes in place of a scalar: actions in and outside the
# alphabets, tags, formula kinds, verdicts, proofs and expression texts
STRINGS = ["a", "b", "c", "d", "ab", "e", "out", "dia", "and", "not", "equivalent", "inequivalent",
           "normal-forms", "", "0", "a*0", "a + b"]
CLI_EVERY = 40


@pytest.fixture(scope="module")
def golden_docs() -> list[dict]:
    docs = []
    for e, f in golden_corpus():
        cert = certify(e, f)
        docs.append(roundtrip(cert))
        if cert.proof is not None:
            docs.append(roundtrip(local_certify(e, f)))
    return docs


class Judge:
    """Replays edited certificates and counts them; an acceptance of a false
    verdict is recorded, never raised, so that a run reports them all."""

    def __init__(self, tmp_path: Path):
        self.truth: dict[tuple, bool] = {}
        self.edited = self.accepted = self.rejected = self.raised = self.new_claims = 0
        self.unsound: list[dict] = []
        self.path = tmp_path / "cert.json"

    def bisimilar(self, alpha: tuple[str, ...], left: str, right: str) -> bool:
        key = (alpha, left, right)
        if key not in self.truth:
            e, f = parse(left, alpha), parse(right, alpha)
            Z = joined_chart(e, f, alpha)
            R = round_by_round_bisimilarity(Z)
            self.truth[key] = R.related(Z.states[0], Z.states[len(chart_of(e, alpha).states)])
        return self.truth[key]

    def __call__(self, doc: dict, original: dict) -> None:
        self.edited += 1
        try:
            checks = recheck_certificate(doc)
        except ValueError:
            self.raised += 1
            code = 2
        else:
            passed = all(c.passed for c in checks)
            code = 0 if passed else 1
            if not passed:
                self.rejected += 1
            else:
                self.accepted += 1
                self.new_claims += claim(doc) != claim(original)
                alpha = declare_alphabet(doc["alphabet"])
                truth = self.bisimilar(alpha, doc["inputs"]["left"], doc["inputs"]["right"])
                if truth != (doc["verdict"] == "equivalent"):
                    self.unsound.append(doc)
        if self.edited % CLI_EVERY == 0:
            self.path.write_text(json.dumps(doc), encoding="utf-8")
            out = run_main(["replay", str(self.path)])
            assert out[0] == code, doc
            if code < 2:
                assert out[1] == "".join(f"{c.name} {'passed' if c.passed else 'failed'}\n" for c in checks)


def claim(doc: dict) -> tuple:
    """What a certificate claims: its verdict on its inputs, under its alphabet."""
    return doc["verdict"], doc["inputs"]["left"], doc["inputs"]["right"], doc["alphabet"]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in this process, with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _containers(doc) -> list:
    """Every dict and list in ``doc``, itself included."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        found.append(node)
        stack += [v for v in (node.values() if isinstance(node, dict) else node) if isinstance(v, (dict, list))]
    return found


def _retyped(v, rng: random.Random):
    if type(v) is bool:
        return rng.choice([not v, int(v), None, str(v).lower()])
    if type(v) is int:
        return rng.choice([v + 1, v - 1, 0, -1, 10**6, float(v), str(v), True, False, None, [v]])
    if isinstance(v, str):
        return rng.choice([rng.choice(STRINGS), rng.choice(STRINGS), v + v, 0, None, [v]])
    return rng.choice([0, "a", [], {}, True, None])


def edit(doc: dict, rng: random.Random, texts: list[str]) -> None:
    """One random edit of ``doc``, in place."""
    kind = rng.choice(("scalar", "scalar", "scalar", "list", "list", "verdict", "proof", "inputs"))
    if kind == "scalar":
        sites = [(node, k) for node in _containers(doc)
                 for k, v in (node.items() if isinstance(node, dict) else enumerate(node))
                 if not isinstance(v, (dict, list))]
        node, k = rng.choice(sites)
        node[k] = _retyped(node[k], rng)
    elif kind == "list":
        lists = [node for node in _containers(doc) if isinstance(node, list) and node]
        if not lists:
            return edit(doc, rng, texts)
        items = rng.choice(lists)
        i = rng.randrange(len(items))
        how = rng.choice(("drop", "duplicate", "swap"))
        if how == "drop":
            del items[i]
        elif how == "duplicate" or len(items) < 2:
            items.insert(i, json.loads(json.dumps(items[i])))
        else:
            j = rng.choice([j for j in range(len(items)) if j != i])
            items[i], items[j] = items[j], items[i]
    elif kind == "verdict":
        doc["verdict"] = "inequivalent" if doc.get("verdict") == "equivalent" else "equivalent"
    elif kind == "proof":
        if "proof" in doc and rng.random() < 0.5:
            del doc["proof"]
        else:
            doc["proof"] = rng.choice(("normal-forms", "normal-forms", "local", None))
    else:
        if not isinstance(doc.get("inputs"), dict):
            doc["inputs"] = {"left": rng.choice(texts), "right": rng.choice(texts)}
        doc["inputs"][rng.choice(("left", "right"))] = rng.choice(texts)


def edited(doc: dict, rng: random.Random, texts: list[str]) -> dict:
    copy = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        edit(copy, rng, texts)
    return copy


def test_replay_accepts_no_false_verdict_of_an_edited_golden_certificate(golden_docs, tmp_path):
    rng = random.Random(SEED)
    texts = sorted({doc["inputs"][side] for doc in golden_docs for side in ("left", "right")})
    judge = Judge(tmp_path)
    for doc in golden_docs:
        for _ in range(16):
            judge(edited(doc, rng, texts), doc)
    assert judge.unsound == []
    assert len(golden_docs) == 484 and judge.edited == 7744
    # with seed 22 0614: 1 722 accepted, 2 945 failed and 3 077 raised.
    # Replay ignores some edits (a ``checks`` entry) and others keep the
    # proof (a duplicated row); 353 accepted edits changed the claim (the
    # verdict, an input or the alphabet), and each new claim is true
    assert judge.accepted > 1500 and judge.rejected > 2500 and judge.raised > 2500
    assert judge.new_claims > 250


def test_replay_accepts_no_evidence_moved_onto_other_inputs(golden_docs, tmp_path):
    rng = random.Random(SEED + 1)
    judge = Judge(tmp_path)
    evidence = ("verdict", "distinguishing", "collapsed", "projection", "proof")
    for _ in range(2600):
        source, target = rng.sample(golden_docs, 2)
        moved = {k: v for k, v in target.items() if k not in evidence}
        moved.update({k: source[k] for k in evidence if k in source})
        judge(json.loads(json.dumps(moved)), target)
    assert judge.unsound == []
    # with seed 22 0614 + 1: 663 accepted and 1 937 failed.  An accepted
    # move carries the target's own verdict: a normal-forms proof moved
    # onto another pair whose normal forms meet, a formula that separates
    # another inequivalent pair too
    assert judge.edited == 2600 and judge.accepted > 500 and judge.rejected > 1500


def test_replay_accepts_no_false_verdict_of_an_edited_small_scope_certificate(tmp_path):
    rng = random.Random(SEED + 2)
    alphabet = ("a", "b")
    exprs = all_exprs(alphabet, 5)
    docs = []
    for e in rng.sample(exprs, 120):
        for f in (Sum(e, e), Seq(e, Atom("a")), rng.choice(exprs)):
            cert = certify(e, f, alphabet)
            docs.append(roundtrip(cert))
            if cert.verdict == "equivalent":
                docs.append(roundtrip(local_certify(e, f, alphabet)))
    texts = sorted({render(e) for e in exprs})
    judge = Judge(tmp_path)
    for doc in docs:
        assert all(c.passed for c in recheck_certificate(doc))
        for _ in range(4):
            judge(edited(doc, rng, texts), doc)
    assert judge.unsound == []
    # with seed 22 0614 + 2: 2 088 edited, 520 accepted (142 of them with
    # a new claim), 944 failed and 624 raised
    assert judge.edited == 2088 and judge.accepted > 400 and judge.rejected > 750 and judge.raised > 500
    assert judge.new_claims > 100


CLOSURE = """
import sys, types
package = types.ModuleType("starchart")
package.__path__ = [sys.argv[1]]
sys.modules["starchart"] = package
import starchart.replay
print(" ".join(sorted(name for name in sys.modules if name.startswith("starchart."))))
print("argparse" in sys.modules)
"""


def test_the_checker_loads_no_command_surface_rerouting_or_formats():
    # the package's ``__init__`` imports every module to export its names,
    # so the checker is loaded under an empty package: what loads is what
    # ``replay`` itself needs.  ``bisim`` loads through ``solution``, which
    # imports ``_coarsest`` for ``verify_solution``
    proc = subprocess.run([sys.executable, "-c", CLOSURE, str(SRC / "starchart")],
                          capture_output=True, text=True, env={}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    modules, has_argparse = proc.stdout.splitlines()
    assert modules.split() == ["starchart.bisim", "starchart.layering", "starchart.replay",
                               "starchart.semantics", "starchart.solution", "starchart.syntax"]
    assert has_argparse == "False"


def test_replay_refines_nothing(golden_docs, monkeypatch):
    # every golden certificate, the local proofs' included, replays with
    # the decision and both refinements refused through every binding
    for name in ("_decide", "_coarsest", "_refine"):
        refuse_calls(monkeypatch, "bisim", name)
    for doc in golden_docs:
        assert all(c.passed for c in recheck_certificate(doc)), doc["inputs"]
    proofs = [doc.get("proof", doc["verdict"] == "equivalent" and "local") for doc in golden_docs]
    assert (proofs.count("normal-forms"), proofs.count("local"), proofs.count(False)) == (164, 164, 156)


def test_the_replay_command_accepts_every_golden_certificate(golden_docs, tmp_path):
    path = tmp_path / "cert.json"
    for doc in golden_docs:
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_main(["replay", str(path)])
        names = [c.name for c in recheck_certificate(doc)]
        assert (code, out, err) == (0, "".join(f"{name} passed\n" for name in names), "")


def test_the_replay_command_names_each_failed_check(golden_docs, tmp_path):
    # the right walk's last state loses its image: the projection is no
    # homomorphism, and every other check passes
    doc = next(doc for doc in golden_docs if doc["collapsed"] is not None and len(doc["projection"]["right"]) > 1)
    tampered = {**doc, "projection": {"left": doc["projection"]["left"], "right": doc["projection"]["right"][:-1]}}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(tampered), encoding="utf-8")
    assert run_main(["replay", str(path)]) == (1, (
        "collapsed-witness-valid passed\nprojection-homomorphism failed\nroots-meet passed\n"
        "solution-proved passed\n"), "")
    inequivalent = next(doc for doc in golden_docs if doc["verdict"] == "inequivalent")
    path.write_text(json.dumps({**inequivalent, "verdict": "equivalent"}), encoding="utf-8")
    assert run_main(["replay", str(path)]) == (1, "".join(
        f"{name} failed\n" for name in ("collapsed-witness-valid", "projection-homomorphism", "roots-meet",
                                        "solution-proved")), "")


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "a certificate must be a JSON object"),
    ('{"version": 2}', "certificate 'version' 2 is not 3"),
    ('{"version": 3, "verdict": "equivalent", "alphabet": ["a"], "inputs": {"left": "a", "right": "a +"}}',
     "expected an expression (at position 3)"),
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["no-object", "version-2", "unparsed-input", "no-json"])
def test_the_replay_command_exits_2_on_a_document_that_is_no_certificate(text, message, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(text, encoding="utf-8")
    assert run_main(["replay", str(path)]) == (2, "", f"error: {message}\n")
