"""The two inputs of a pair are parsed into one node table, and sharing
never changes an answer.

``certify`` and ``bisim`` under ``--alphabet``, and ``recheck_certificate``,
parse both texts into one table, so equal subterms of the pair are one
node; a plain ``parse`` owns its table.  Each pair is run twice, once as
the commands parse it and once with every text parsed into a table of its
own, and both runs must print the same certificate, replay the same checks
and intern the same normal-form keys.  ``_NormalForms.of`` is compared with
a recursive reference on the order in which it interns keys, which
``folded`` depends on.
"""

from __future__ import annotations

import argparse
import copy
import json
import random

import pytest

from starchart import Atom, Seq, Star, Sum, Zero, atoms, parse, render
from starchart import cli, replay, syntax
from starchart.solution import _NormalForms
from gen import distinct_nodes, doubling_chain, random_expr, rewrite_steps


def _separately(monkeypatch) -> None:
    # every text of a pair into a table of its own, as two ``parse`` calls do
    for module in (cli, replay):
        monkeypatch.setattr(module, "_parse", lambda text, alpha, shared: syntax._parse(text, alpha, {}))


def _pairs(seed: int, alphabet: tuple[str, ...], count: int):
    """Texts of axiom-rewritten, independent and identical pairs, in turn."""
    rng = random.Random(seed)
    for i in range(count):
        e = random_expr(rng, alphabet, depth=rng.randint(1, 4))
        f = (rewrite_steps(rng, e, rng.randint(1, 4)), random_expr(rng, alphabet, depth=rng.randint(1, 4)), e)[i % 3]
        yield render(e), render(f)


def _answers(alphabet: tuple[str, ...], left: str, right: str) -> tuple:
    """The certificate, its replayed checks and the normal-form keys of a
    pair, parsed as ``certify --alphabet`` parses it."""
    alpha, (e, f) = cli._parse_exprs(argparse.Namespace(alphabet=",".join(alphabet)), left, right)
    for root in (e, f):  # the memo each root carries is that of its own text
        assert root._atoms == atoms(copy.deepcopy(root))
    doc = json.dumps(cli.certify(e, f, alpha).to_json())
    forms = _NormalForms()
    n, m = forms.of(e), forms.of(f)
    if n != m:
        forms.folded(n), forms.folded(m)
    return doc, replay.recheck_certificate(json.loads(doc)), forms.keys


@pytest.mark.parametrize("alphabet, seed", [(("a", "b"), 4801), (("a", "b", "c"), 4802)])
def test_sharing_changes_no_certificate_replay_or_normal_form(monkeypatch, alphabet, seed):
    pairs = list(_pairs(seed, alphabet, 540))
    shared = [_answers(alphabet, *pair) for pair in pairs]
    _separately(monkeypatch)
    apart = [_answers(alphabet, *pair) for pair in pairs]
    for pair, got, want in zip(pairs, shared, apart):
        assert got == want, pair
    verdicts = [json.loads(doc)["verdict"] for doc, _, _ in shared]
    assert verdicts.count("equivalent") >= 360 and verdicts.count("inequivalent") > 60


def test_the_inputs_of_a_certified_pair_share_their_equal_subterms(monkeypatch):
    seen = []
    certify = cli.certify
    monkeypatch.setattr(cli, "certify", lambda e, f, alpha: seen.append((e, f)) or certify(e, f, alpha))
    assert cli.main(["certify", "--alphabet", "a,b,c", "(a b)*c", "(a b)*c + a"]) == 1
    ((e, f),) = seen
    assert f.left is e
    assert (e._atoms, f._atoms) == (atoms(copy.deepcopy(e)), atoms(copy.deepcopy(f))) == ({"a", "b", "c"},) * 2


@pytest.mark.parametrize("left, right, atoms_left, atoms_right", [
    ("a b + c", "a b", "abc", "ab"),  # the right root is a node of the left
    ("a b", "a b + c", "ab", "abc"),  # the left root is a node of the right
    ("a*b", "a*b", "ab", "ab"),  # one root
])
def test_each_root_carries_the_actions_of_its_own_text(left, right, atoms_left, atoms_right):
    _, (e, f) = cli._parse_exprs(argparse.Namespace(alphabet="a,b,c"), left, right)
    assert (e is f) == (left == right)
    assert (e._atoms, f._atoms) == (set(atoms_left), set(atoms_right))
    assert e._atoms == atoms(copy.deepcopy(e)) and f._atoms == atoms(copy.deepcopy(f))


def test_a_certificate_replays_on_one_table_and_two_parses_share_no_node(monkeypatch):
    text = "(a b)*c + (a b)*c a"
    e, f = parse(text, "abc"), parse(text, "abc")
    assert e == f and not {id(x) for x in distinct_nodes(e)} & {id(x) for x in distinct_nodes(f)}
    seen = []
    normal_forms_check = replay._normal_forms_check
    for module in (cli, replay):  # ``certify``'s binding and replay's
        monkeypatch.setattr(module, "_normal_forms_check",
                            lambda e, f: seen.append((e, f)) or normal_forms_check(e, f))
    doc = cli.certify(e, f, ("a", "b", "c")).to_json()
    assert doc["proof"] == "normal-forms" and len(seen) == 1
    assert [c.passed for c in replay.recheck_certificate(doc)] == [True]
    assert seen[1][0] is seen[1][1]


# --- one pass of ``_NormalForms.of`` ----------------------------------------------------


def _reference_of(forms: _NormalForms, e, memo: dict) -> int:
    """``forms.of(e)`` by its definition, recursively: the children left to
    right, then the node, each node once by identity."""
    if id(e) in memo:
        return memo[id(e)]
    if type(e) is Zero:
        n = forms.zero
    elif type(e) is Atom:
        n = forms.intern(frozenset((forms.intern((e.action, None)),)))
    else:
        l, r = _reference_of(forms, e.left, memo), _reference_of(forms, e.right, memo)
        if type(e) is Sum:
            n = forms.intern(forms.keys[l] | forms.keys[r])
        elif type(e) is Seq:
            n = forms.seq(l, r)
        else:
            n = forms.intern(frozenset((forms.intern((l, r)),)))
    memo[id(e)] = n
    return n


def test_of_interns_the_keys_of_the_reference_in_its_order():
    rng = random.Random(4803)
    for i in range(2000):
        exprs = [random_expr(rng, depth=1 + i % 7) for _ in range(1 + i % 2)]
        forms, reference, memo = _NormalForms(), _NormalForms(), {}
        assert [forms.of(e) for e in exprs] == [_reference_of(reference, e, memo) for e in exprs]
        assert forms.keys == reference.keys


def test_of_expands_each_node_of_a_dag_once():
    e = doubling_chain(200, Seq(Atom("a"), Star(Atom("b"), Zero())))
    forms, reference = _NormalForms(), _NormalForms()
    assert forms.of(e) == _reference_of(reference, e, {})
    assert forms.keys == reference.keys
    assert set(forms.of_node) == {id(x) for x in distinct_nodes(e)}
