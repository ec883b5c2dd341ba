"""Command-line surface and end-to-end equivalence certification.

``certify`` proves, then decides.  When the roots of ``e`` and ``f``
agree on the first round of refinement (``semantics._first_round``: their
outputs, and per step its action with its target's outputs, read from the
syntax with no successor built), it tries the equational proof below, and
when the normal forms meet it emits that proof and decides nothing.  The
first round is a bisimulation invariant (Hennessy and Milner, JACM 1985),
so a pair whose roots disagree on it is never bisimilar and goes straight
to the decision; agreement proves nothing, and only chooses whether the
normal forms are tried.  On the 320 pairs of the golden certificate corpus
all 164 equivalent pairs and 1 of the 156 inequivalent ones agree; the
outputs are compared first, as they are cheaper and already separate most
inequivalent pairs.

Otherwise ``certify`` decides bisimilarity by ``bisim._decide``, which
walks both expressions layer by layer and refines on the state numbers
of the walks, round ``k`` for the states ``d - k`` steps away once the
walks reach ``d`` steps, and stops at the first round that separates the
roots.  Round 0 reads outputs from the syntax, so a state is stepped only
when a round needs its successors.  An inequivalent pair's certificate
carries a Hennessy–Milner formula that holds at ``e`` and fails at ``f``,
derived from those rounds; no chart is built for it, and most such pairs
are decided on the first few layers of their walks.  When no round
separates the roots early, the walks run to their end and partition
refinement decides on the coproduct of both charts.  For a bisimilar
pair, whose normal forms were not tried or differ (see below), the
quotient ``C`` by the decided partition is built from the same arrays,
as arrays: the minimal chart, in which both roots are one state.  Loop
elimination tags ``C``'s steps with a layering witness, and the
certificate carries it as numbered rows with the projections of both
walks onto ``C``.

Replay of an inequivalent certificate model-checks its formula on the
derivatives of both inputs that the formula reaches, with no walk and no
refinement, stepping a derivative only where a diamond needs its
successors.  This is sound: bisimilar states satisfy the same formulas
(Hennessy and Milner, JACM 1985), so a formula that holds at ``e`` and
fails at ``f`` proves that they are not bisimilar.  ``certify`` runs the
same check, ``distinguishing-formula``, before it emits the certificate,
and no other: a decision that separated bisimilar roots could derive no
formula that passes it.  ``starchart bisim --witness`` makes the same one
decision and prints the same formula; for a bisimilar pair it prints the
relation that the decided partition gives.

An equivalent pair is proved in one of two ways, chosen from the input:
an inequivalent pair pays for normal forms only when its roots agree on
the first round.  When ``e`` and ``f`` have the same normal form
under ``solution._NormalForms`` (ACI of ``+`` with unit ``0``,
associativity of ``·``, ``0·e = 0``, right distributivity and ``(e*f)·g =
e*(f·g)``), or else the same once ``_NormalForms.folded`` has folded star
unfoldings in both, the certificate carries ``"proof": "normal-forms"``
and one check, ``normal-forms-equal``, which replay runs again on the
parsed inputs with no walk, chart, witness or refinement.  Replay parses
both inputs into one node table, as ``certify`` and ``bisim`` do under
``--alphabet``, so a subterm that both inputs hold is one node, and its
normal form is taken once.  Folding runs
only when the plain forms differ, and rewrites by three instances of
Milner's unfolding ``h*t = h·(h*t) + t``, each applied in context: a
star whose head is ``0`` becomes its tail (with ``0·e = 0`` and ``0 + t =
t``); a sum that holds every summand of ``h·(h*t)`` and of ``t`` holds
``h*t`` in their place; and a sum that holds ``h*t`` drops those
summands, by idempotence.  This is sound with no uniqueness theorem:
those axioms are Milner's, which are sound for bisimilarity, so equal
normal forms are a proof of ``e ≡ f`` in his system.  Plain forms meet
on 90 of the bench's 100 certify_equiv pairs and folded ones on all 100;
on the 164 equivalent pairs of the golden certificate corpus, 158 and
164.  Otherwise the certificate carries the local proof, and no
``proof`` key; a reader that compares plain forms alone fails a
certificate whose forms meet only once folded, closed.

Replay of a local-proof certificate checks the local proof (Grabmayer and
Fokkink, LICS 2020) with no refinement: it walks each input once and
reads the certificate's numbered rows into one witness by state number
(``layering._Analysis``): per state of ``C`` its outputs and its
successor numbers per action, the root, and the loop relations built
from the rows' tagged steps.  No chart or labelling is built.  On
that record it checks that the witness verifies, that each projection
``h`` is a homomorphism and that the roots meet, and proves ``C``'s
canonical solution ``s`` by the axioms alone; ``certify`` writes the
rows and reads them back with replay's reader, and runs the same checks
on the rows it emits.  ``s`` is built from the witness straight as normal
forms, and each state's equation is checked on the derivatives of its
normal form, so neither replay nor ``certify`` builds an expression
solution.  This is sound:
homomorphisms whose roots meet make ``e`` and ``f`` bisimilar, and as
``s ∘ h`` and the identity both solve the chart of ``e``, which has the
syntactic LLEE witness, uniqueness of solutions gives ``e ≡ s(h(e))`` in
Milner's system, and likewise for ``f``.  Minimality of ``C`` is not
needed; ``certify`` checks the decided partition before it builds ``C``,
and the minimality of the rows it read back before the checks it shares
with ``recheck_certificate``.

Certificates are written in format version 3, one JSON object with
``"version": 3``, which ``certify`` prints on one line; a normal-forms
certificate only adds ``proof`` to it, and has ``"collapsed": null``, so
a reader that does not know ``proof`` fails every check of the local
proof on it.  Nothing in the
local proof reads a state of ``C`` by name, so ``collapsed`` names none:
it numbers ``C``'s states ``0..k-1`` in ``_quotient``'s order and holds
``root``, a state number or null, ``outputs``, one sorted list of actions
per state, and ``transitions``, one row ``[i, action, j, tag]`` per
transition, under the certificate's ``alphabet``.  No field holds an
expression except ``inputs``, so an equivalent certificate's size is
linear in ``C``'s states and transitions and in its walks.  Replay reads
the rows as strictly as the named witness format is read: a state number
that is no int (a bool is none) or out of range, an action outside the
alphabet, a tag other than entry or body, a row of another length or a
transition tagged both ways makes ``collapsed`` no witness, which fails
every check of the local proof.  Other commands print the named,
indented formats of ``formats``.

``solve`` prints the canonical solution of each state of a chart under
the state's name.  With no ``--witness`` it runs on state numbers from the
document to the printed text: it reads the document once into numbered
rows (``formats._chart_rows``, by every prechart's ``_check_chart``), tags
their steps by loop elimination as ``infer_witness`` does
(``layering._eliminated_rows``), reads the tagged rows, as a certificate's,
into a witness by state number (``layering._Analysis``) and solves that
(``solution._Terms``), so no prechart, labelling or named solution is
built.  A ``--witness`` file is read and verified as a labelling, and
then solved by the same ``_Terms``.
A solution holds other states' solutions and companions, so each term is
rendered once, into a table that the call keeps by node identity, and its
text copied where it is held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from .bisim import _certified_alphabet, _coarsest, _decide, _Decision, _distinguishing_formula, _stable
from .formats import (
    _chart_rows,
    _check_shape,
    _is_strings,
    chart_from_json,
    chart_to_json,
    state_ids,
    to_dot,
    weighted_to_json,
    witness_from_json,
    witness_to_json,
)
from .layering import (BODY, ENTRY, LabelledPrechart, _Analysis, _eliminated_rows, _named,
                       infer_witness, syntactic_witness, to_llee, verify_witness)
from .rerouting import collapse, connect_through
from .semantics import (Prechart, _coproduct_walk, _distinguishes, _first_round, _outputs, _quotient, _Walk,
                        chart_of)
from .solution import _NormalForms, _starred, _Terms, _witness_proved
from .syntax import Expr, _parse, _render, declare_alphabet, render


# the certificate format that ``Certificate.to_json`` writes and
# ``recheck_certificate`` reads (see the module docstring)
FORMAT_VERSION = 3
# the ``proof`` of an equivalent certificate whose inputs have one normal form
NORMAL_FORMS = "normal-forms"


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool


@dataclass
class Certificate:
    """Outcome of certifying two expressions equivalent or not.

    When the verdict is ``equivalent`` and ``proof`` is ``"normal-forms"``,
    the inputs have one normal form: the one check is
    ``normal-forms-equal``, ``collapsed`` and ``projection`` are ``None``,
    and ``common`` is ``left``, which both inputs are proved equal to.
    When it is ``equivalent`` with no ``proof``, the local proof's
    certificate, ``collapsed`` is a witness on the
    minimal quotient of both charts, rooted at the image of both inputs,
    as the rows of format version 3 (see the module docstring): ``{"root":
    r, "outputs": [[a, ...], ...], "transitions": [[i, a, j, tag], ...]}``
    on the state numbers that ``projection`` holds, which lists, per walk,
    its states' positions there (the decision's blocks).  ``common``, the
    canonical solution at the root as an expression, is built on first
    read from the rows, as the root's term alone, and is not serialized.
    When it is ``inequivalent``, ``distinguishing`` is the node list of a
    formula that holds at ``left`` and fails at ``right`` (see
    ``bisim._distinguishing_formula``), and its one check is the one that
    replay runs, ``distinguishing-formula``.  Every listed check passed.

    ``to_json`` writes format version 3, with ``proof`` only when it is
    set: fresh lists of ``collapsed``'s rows, ``projection``'s images and
    the formula's nodes, an ``and`` node's children included, so that
    editing the document leaves the certificate as it is, and no field but
    ``inputs`` holds an expression.
    """

    verdict: str  # "equivalent" | "inequivalent"
    left: Expr
    right: Expr
    alphabet: tuple[str, ...]
    checks: list[Check] = field(default_factory=list)
    collapsed: dict[str, Any] | None = None
    projection: dict[str, list[int]] | None = None
    distinguishing: list[list] | None = None
    proof: str | None = None

    @cached_property
    def common(self):
        if self.proof == NORMAL_FORMS:
            return self.left
        if self.collapsed is None:
            return None
        witness = _witness_of_rows(self.alphabet, self.collapsed)
        return _Terms(witness, _starred).term(witness.root)

    def to_json(self) -> dict[str, Any]:
        rows, projection = self.collapsed, self.projection
        doc = {
            "version": FORMAT_VERSION,
            "verdict": self.verdict,
            "inputs": {"left": render(self.left), "right": render(self.right)},
            "alphabet": list(self.alphabet),
            "checks": [{"name": c.name, "passed": c.passed} for c in self.checks],
            "collapsed": None if rows is None else {
                "root": rows["root"], "outputs": [list(out) for out in rows["outputs"]],
                "transitions": [list(row) for row in rows["transitions"]]},
            "projection": None if projection is None else {side: list(h) for side, h in projection.items()},
            "distinguishing": None if self.distinguishing is None else {"formula": [
                node[:1] + [list(node[1])] if node[0] == "and" else list(node) for node in self.distinguishing]},
        }
        if self.proof is not None:
            doc["proof"] = self.proof
        return doc


def _witness_of_rows(alphabet: tuple[str, ...], doc: Any) -> _Analysis:
    """The witness by state number (``layering._Analysis``) that a
    version-3 ``collapsed`` writes, on the states ``0..k-1`` of its ``k``
    output lists, with its relations built from the rows' tagged steps and
    no prechart or state name.  Raises ``ValueError`` naming the first
    field that is no such witness: outputs that are no lists of actions of
    ``alphabet``, a root that is neither null nor a state number, or a row
    that is not ``[i, action, j, tag]`` with state numbers ``i`` and ``j``
    (ints, not bools, in range), an action of ``alphabet`` and an entry or
    body tag; and a transition tagged both ways."""
    if not isinstance(doc, Mapping):
        raise ValueError("'collapsed' must be an object")
    outputs, root, transitions = doc.get("outputs"), doc.get("root"), doc.get("transitions")
    position = {a: p for p, a in enumerate(alphabet)}
    if not (isinstance(outputs, list) and all([_is_strings(out) and position.keys() >= set(out) for out in outputs])):
        raise ValueError("'outputs' must be a list of action lists, one per state")
    k = len(outputs)
    if not (root is None or type(root) is int and 0 <= root < k):  # neither a bool nor a float
        raise ValueError("'root' must be a state number or null")
    if not isinstance(transitions, list):
        raise ValueError("'transitions' must be a list of rows")
    succ: list[list[list[int]]] = [[[] for _ in alphabet] for _ in range(k)]
    tags: dict[tuple[int, str, int], str] = {}
    for row in transitions:  # a repeated row repeats its step, which changes no mask
        i, a, j, tag = row if isinstance(row, list) and len(row) == 4 else (None,) * 4
        if not (type(i) is int and type(j) is int and 0 <= i < k and 0 <= j < k
                and isinstance(a, str) and a in position and tag in (ENTRY, BODY)):
            raise ValueError(f"'transitions' must hold rows [i, action, j, tag], not {row!r}")
        if tags.setdefault((i, a, j), tag) != tag:
            raise ValueError(f"transition {(i, a, j)} is tagged both {tags[i, a, j]!r} and {tag!r}")
        succ[i][position[a]].append(j)
    outs = list(map(frozenset, outputs))
    numbered = [tuple([tuple(sorted(set(js))) if js else () for js in rows]) for rows in succ]
    return _Analysis(alphabet, outs, numbered, root, transitions)


# The checks below are shared by ``certify``, which builds the evidence, and
# ``recheck_certificate``, which reads it back from a certificate.


def _formula_check(alphabet: tuple[str, ...], formula: Any, e: Expr, f: Expr) -> Check:
    """That ``formula``, a node list, holds at ``e`` and fails at ``f``; a
    formula of the wrong shape, null or missing, fails."""
    return Check("distinguishing-formula", _distinguishes(formula, e, f, alphabet))


def _proof_checks(walk: _Walk, n: int, witness: _Analysis | None, projection: Any) -> list[Check]:
    """The local proof on ``witness``, a witness by state number (see
    ``layering._Analysis``) of a chart ``C`` with the walk's alphabet: the
    witness has no violated clause;
    ``projection``, which maps the walk's first ``n`` states by its list
    ``left`` and the rest by ``right`` to state numbers of ``C``, is a
    homomorphism (outputs agree, and per action the images of a state's
    successors are its image's successors), checked in time linear in the
    walk against ``C``'s arrays; both roots' images are ``C``'s root; and
    the witness's canonical solution, built as normal forms, is proved by
    the axioms alone, which fails when the witness does not verify.  A
    ``witness`` of ``None``, a document that is no witness, fails them all."""
    if witness is None:
        names = ("collapsed-witness-valid", "projection-homomorphism", "roots-meet", "solution-proved")
        return [Check(name, False) for name in names]
    c_outs, rows, (_, outs, numbered) = witness.outs, witness.numbered, walk
    sides = [projection.get(k) for k in ("left", "right")] if isinstance(projection, Mapping) else [None] * 2
    lists = isinstance(sides[0], list) and isinstance(sides[1], list)
    image = sides[0] + sides[1] if lists else []
    states = range(len(rows))
    targets = [list(map(set, r)) for r in rows]  # per state of C and action, its successors' set
    homomorphism = (
        lists and len(sides[0]) == n and len(image) == len(outs)
        and all(type(b) is int and b in states for b in image)  # neither bools nor strings
        and all(out == c_outs[b] and [{image[j] for j in js} for js in succ] == targets[b]
                for out, succ, b in zip(outs, numbered, image)))
    valid = witness.violation is None
    return [
        Check("collapsed-witness-valid", valid),
        Check("projection-homomorphism", homomorphism),
        Check("roots-meet", lists and all(h and type(h[0]) is int and h[0] == witness.root for h in sides)),
        Check("solution-proved", valid and _witness_proved(witness)),
    ]


def _normal_forms_check(e: Expr, f: Expr) -> Check:
    """That the axioms of ``_NormalForms`` rewrite ``e`` and ``f`` to one
    normal form, or else to one once star unfoldings are folded, computed
    on one instance, whose ids are then comparable."""
    forms = _NormalForms()
    n, m = forms.of(e), forms.of(f)
    return Check("normal-forms-equal", n == m or forms.folded(n) == forms.folded(m))


def certify(e: Expr, f: Expr, alphabet=None) -> Certificate:
    """Certify two expressions equivalent (by their normal forms, or else by
    the local proof on a common solved collapse) or not.  The normal forms
    are tried first, when the roots agree on the first round of
    refinement; the decision runs only when they are not tried or do not
    meet, and a bisimilar decision goes straight to the local proof."""
    alpha = _certified_alphabet(e, f, alphabet)
    # the outputs first: they are cheaper, and separate most inequivalent pairs
    if (_outputs(e) == _outputs(f) and _first_round(e) == _first_round(f)
            and (check := _normal_forms_check(e, f)).passed):
        cert = Certificate("equivalent", e, f, alpha, [check], proof=NORMAL_FORMS)
    elif not (d := _decide(e, f, alpha)).bisimilar:
        formula = _distinguishing_formula(alpha, d.outs, d.numbered, d.rounds, d.n)
        checks = [_formula_check(alpha, formula, e, f)]
        cert = Certificate("inequivalent", e, f, alpha, checks, distinguishing=formula)
    else:
        cert = _local_certificate(e, f, alpha, d)
    failed = [c.name for c in cert.checks if not c.passed]
    if failed:
        raise RuntimeError(f"certification checks failed: {failed}")
    return cert


def _local_certificate(e: Expr, f: Expr, alpha: tuple[str, ...], d: _Decision) -> Certificate:
    """The certificate of the local proof, from ``_decide``'s decision ``d``
    that ``e`` and ``f`` are bisimilar."""
    # ``certify``'s guard on its decision: the decided partition is a bisimulation
    checks = [Check("bisimulation-relation-valid", _stable(d.outs, d.numbered, d.block_of, d.count))]
    if not checks[0].passed:  # only a bisimulation has a quotient to build
        raise RuntimeError(f"certification checks failed: {[checks[0].name]}")
    # the minimal quotient is isomorphic to the collapse of any witness of
    # the joined chart (the collapse theorem), so it is built directly, and
    # loop elimination tags its steps, as ``infer_witness`` does
    _, outs, rows = _quotient((d.states, d.outs, d.numbered), d.block_of)
    transitions = _eliminated_rows(alpha, outs, rows)
    if transitions is None:
        raise RuntimeError("the minimal quotient has no layering witness, "
                           "which contradicts the collapse theorem")
    collapsed = {"root": d.block_of[0], "outputs": [sorted(out) for out in outs], "transitions": transitions}
    # the checks run on the rows as replay reads them
    witness = _witness_of_rows(alpha, collapsed)
    checks.append(Check("collapse-minimal", _coarsest(witness.outs, witness.numbered)[1] == len(witness.outs)))
    projection = {"left": d.block_of[:d.n], "right": d.block_of[d.n:]}
    checks += _proof_checks((d.states, d.outs, d.numbered), d.n, witness, projection)
    return Certificate("equivalent", e, f, alpha, checks, collapsed=collapsed, projection=projection)


def recheck_certificate(doc: Mapping[str, Any]) -> list[Check]:
    """Replay the shared checks of a serialized certificate from scratch,
    with no refinement (see the module docstring): an inequivalent one's
    ``distinguishing-formula``, an equivalent one's ``normal-forms-equal``
    when its ``proof`` is ``"normal-forms"``, and the local proof of an
    equivalent one with no ``proof``.
    Data that fails a check does not raise: a witness that does not verify
    fails ``solution-proved`` too, a formula or projection of the wrong
    shape, null or missing, fails, and a ``collapsed`` that is no witness
    in numbered rows (see ``_witness_of_rows``), null or missing, fails
    every check.  The rows are read into one witness by state number, and
    no chart is built.  Of the evidence a certificate carries, only a
    document that is no JSON object or of a version other than
    ``FORMAT_VERSION``, an unknown or missing verdict, an ``alphabet`` that
    is no list of action names or ``inputs`` that are no mapping of
    ``left`` and ``right`` to strings, missing ones included, and an
    equivalent one's ``proof`` that is present but not ``"normal-forms"``,
    raises ``ValueError`` naming the field; its inputs must parse.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("a certificate must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # neither a bool nor a float
        raise ValueError(f"certificate 'version' {version!r} is not {FORMAT_VERSION}")
    verdict = doc.get("verdict")
    if verdict not in ("equivalent", "inequivalent"):  # a missing one too
        raise ValueError(f"unknown verdict {verdict!r} in 'verdict'")
    if not _is_strings(doc.get("alphabet")):
        raise ValueError("'alphabet' must be a list of strings")
    inputs = doc.get("inputs")
    texts = [inputs.get(k) for k in ("left", "right")] if isinstance(inputs, Mapping) else None
    if not _is_strings(texts):
        raise ValueError("'inputs' must map 'left' and 'right' to strings")
    alpha = declare_alphabet(doc["alphabet"])  # as ``--alphabet`` reads it
    actions, shared = set(alpha), {}  # one node table for the pair
    e, f = _parse(texts[0], actions, shared), _parse(texts[1], actions, shared)
    if verdict == "inequivalent":
        v = doc.get("distinguishing")
        return [_formula_check(alpha, v.get("formula") if isinstance(v, Mapping) else None, e, f)]
    if "proof" in doc:
        if doc["proof"] != NORMAL_FORMS:
            raise ValueError(f"unknown proof {doc['proof']!r} in 'proof'")
        return [_normal_forms_check(e, f)]
    walk, n = _coproduct_walk(e, f, alpha)
    try:
        witness = _witness_of_rows(alpha, doc.get("collapsed"))
    except ValueError:
        witness = None
    return _proof_checks(walk, n, witness, doc.get("projection"))


# --- command surface ---------------------------------------------------------


def _parse_exprs(args: argparse.Namespace, *texts: str) -> tuple[tuple[str, ...], list[Expr]]:
    """Parse all texts into one node table, so equal subterms of a pair are
    one node, under ``--alphabet`` or else under the letters they use.

    Without ``--alphabet`` the actions are the single lowercase letters of
    the texts, in sorted order, so "aa" reads as a.a; multi-character
    actions need the flag.  Every such letter lexes as an action, so the
    alphabet is the atoms used.
    """
    if args.alphabet is not None:
        alpha = declare_alphabet(a.strip() for a in args.alphabet.split(",") if a.strip())
    else:
        alpha = declare_alphabet(sorted({c for text in texts for c in text if c.islower()}))
    actions, shared = set(alpha), {}
    return alpha, [_parse(text, actions, shared) for text in texts]


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
    if L.base != X:
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
        # an equivalent pair's decision ends in ``_coarsest``, so ``block_of`` covers every state
        block_of, n = d.block_of, d.n
        relation = [
            [render(x), render(y)]
            for i, x in enumerate(d.states[:n])
            for j, y in enumerate(d.states[n:], n)
            if block_of[i] == block_of[j]
        ]
        _emit({"bisimilar": True, "relation": relation})
    elif args.witness:
        _emit({"bisimilar": False, "formula": _distinguishing_formula(alpha, d.outs, d.numbered, d.rounds, d.n)})
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
    doc = _read_json(args.chart)
    if args.witness:
        X = chart_from_json(doc)
        L = _load_witness(args, X)
        if L is None:
            return 1
        names, witness = X.states, L.analysis
    else:
        # ``infer_witness`` on the document's rows, with no prechart or
        # labelling built
        names, (alphabet, outs, numbered), root, _ = _chart_rows(doc)
        rows = _eliminated_rows(alphabet, outs, numbered)
        if rows is None:
            print("no layering witness", file=sys.stderr)
            return 1
        witness = _Analysis(alphabet, outs, numbered, root, rows)
        if witness.violation is not None:
            raise RuntimeError(f"loop elimination labelled the {len(names)}-state chart "
                               f"with no witness: {_named(witness.violation, names)}")
    terms = _Terms(witness, _starred, names)
    solutions = list(map(terms.term, range(len(names))))
    # a term holds other states' solutions and companions: each is printed
    # once, after those it holds (the memo's order), and ``_render`` copies
    # its text from the table wherever it is held; the memo keeps the nodes
    # alive
    texts: dict[int, str] = {}
    for t in terms.memo.values():
        texts[id(t)] = _render(t, texts)
    # a chart document's states are distinct strings, so each is its own id
    _emit({name: texts[id(t)] for name, t in zip(names, solutions)})
    return 0


def cmd_reroute(args: argparse.Namespace) -> int:
    X = chart_from_json(_read_json(args.chart))
    # a state name may hold ":", so the pair splits at the one ":" where both halves are states
    merge = args.merge
    pairs = [(merge[:i], merge[i + 1:]) for i, c in enumerate(merge) if c == ":"]
    pairs = [(x1, x2) for x1, x2 in pairs if X.has_state(x1) and X.has_state(x2)]
    if len(pairs) != 1:
        how = "more than one ':'" if pairs else "no ':'"
        raise ValueError(f"--merge {merge!r} splits into two states x1:x2 at {how}")
    _emit(chart_to_json(connect_through(X, *pairs[0])))
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
    print(json.dumps(cert.to_json(), ensure_ascii=False))  # one line, by the C encoder
    return 0 if cert.verdict == "equivalent" else 1


def cmd_dot(args: argparse.Namespace) -> int:
    doc = _read_json(args.input)
    _check_shape(doc)
    # a document that tags any transition is a witness, which tags them all
    L = witness_from_json(doc) if any("tag" in t for t in doc.get("transitions", ())) else None
    sys.stdout.write(to_dot(chart_from_json(doc) if L is None else L.base, L))
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
                   help="also print the relation, or a formula that holds at LEFT and fails at RIGHT")
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


# parsing leaves the parsers unchanged, so one instance serves every call;
# main hands an argv that starts with a command to that command's parser,
# and reads a plain one (see ``_read``) without argparse
PARSER = build_parser()
_COMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices


def _read(sub, words):
    # ``sub.parse_known_args(words)``'s namespace, read from ``sub``'s own
    # actions, for a plain argv: each word a positional or the exact long
    # option of a store or store_true action, no option twice, a store
    # option's value a word that does not start with "-", and every
    # positional and required option given.  None for any other argv, so
    # that argparse alone writes help, usage and errors.
    if sub._mutually_exclusive_groups:
        return None
    args = argparse.Namespace()
    values = vars(args)
    positionals = []
    options = {}
    for a in sub._actions:
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            values.setdefault(a.dest, a.default)
        if type(a) is argparse._StoreTrueAction or (
                type(a) is argparse._StoreAction and a.type is None and a.choices is None and a.nargs is None):
            if not a.option_strings:
                positionals.append(a)
            for s in a.option_strings:
                if s.startswith("--"):
                    options[s] = a
        elif not a.option_strings:
            return None
    for dest, value in sub._defaults.items():
        values.setdefault(dest, value)
    free = iter(positionals)
    given = set()
    words = iter(words)
    for w in words:
        if not w.startswith("-"):
            a = next(free, None)
            if a is None:
                return None
            values[a.dest] = w
            continue
        a = options.get(w)
        if a is None or a in given:
            return None
        given.add(a)
        if a.nargs == 0:
            values[a.dest] = a.const
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        values[a.dest] = value
    if next(free, None) is not None:
        return None
    for a in sub._actions:
        if a.required and a.option_strings and a not in given:
            return None
    return args


def _arguments(argv: list[str]) -> argparse.Namespace:
    # PARSER.parse_args would run argparse twice: once over the whole argv,
    # then the command's parser over the rest.  The namespace lacks only
    # ``command``, which nothing reads; messages and exit codes are the same.
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is None:  # no argv, an option such as -h, or an unknown command
        return PARSER.parse_args(argv)
    args = _read(sub, argv[1:])
    if args is not None:
        return args
    args, rest = sub.parse_known_args(argv[1:])
    if rest:
        PARSER.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    try:
        try:
            args = _arguments(sys.argv[1:] if argv is None else list(argv))
            code = args.func(args)
        except BrokenPipeError:
            raise
        except SystemExit as exc:  # a usage error, or --help
            code = exc.code
        except (ValueError, OSError, KeyError) as exc:  # ParseError, InvalidWitnessError, bad JSON
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except RecursionError:  # a resource limit of the recursive semantics, not a fault
            print("gave up: nesting too deep", file=sys.stderr)
            code = 4
        except MemoryError:  # likewise a resource limit: never the negative verdict's exit 1
            print("gave up: out of memory", file=sys.stderr)
            code = 4
        except RuntimeError as exc:  # failed self-checks, MeasureError
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 3
        # so that a closed stream fails here, not at exit; argparse drops a
        # failed write of its usage message, but the message stays buffered
        sys.stdout.flush()
        sys.stderr.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout or stderr, as ``| head`` does
        # the unwritten rest would fail again when the interpreter flushes at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a writer that SIGPIPE ended


if __name__ == "__main__":
    sys.exit(main())
