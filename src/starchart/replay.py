"""The certificate document and its replay: the trusted checker.

``Certificate.to_json`` writes format version 3, and
``recheck_certificate`` reads it and replays its checks from the document
alone; ``cli.certify`` builds the evidence and runs the same checks before
it emits a certificate.  This module imports no ``cli``, ``rerouting`` or
``formats``: what replay trusts is the syntax, the walk, the model check of
a formula, the witness record and the normal forms.

Replay of an inequivalent certificate model-checks its formula on the
derivatives of both inputs that the formula reaches, with no walk and no
refinement, stepping a derivative only where a diamond needs its
successors.  This is sound: bisimilar states satisfy the same formulas
(Hennessy and Milner, JACM 1985), so a formula that holds at ``e`` and
fails at ``f`` proves that they are not bisimilar.  ``certify`` runs the
same check, ``distinguishing-formula``, before it emits the certificate,
and no other: a decision that separated bisimilar roots could derive no
formula that passes it.

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
every check of the local proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from .layering import BODY, ENTRY, _Analysis
from .semantics import _coproduct_walk, _distinguishes, _Walk
from .solution import _NormalForms, _starred, _Terms, _witness_proved
from .syntax import Expr, _is_strings, _parse, declare_alphabet, render


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
