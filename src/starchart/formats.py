"""Chart and witness serialization: JSON files and DOT export."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from .layering import ENTRY, LabelledPrechart, WeightedLabelling
from .semantics import Prechart, StateId, _numbered_chart
from .syntax import Expr, declare_alphabet, render


def state_label(s: StateId) -> str:
    """A display name for a state; expressions print as themselves."""
    if isinstance(s, Expr):
        return render(s)
    if isinstance(s, tuple) and len(s) == 2 and s[0] in (0, 1):
        return ("L:" if s[0] == 0 else "R:") + state_label(s[1])
    return str(s)


def iter_state_ids(states: Iterable[StateId]) -> Iterator[tuple[StateId, str]]:
    """``(state, id)`` in the order of ``states``; an id clashing with an
    earlier one gets the first free ``#n`` suffix, from 2 up."""
    used: set[str] = set()
    for x in states:
        base = state_label(x)
        name = base
        n = 2
        while name in used:
            name = f"{base}#{n}"
            n += 1
        used.add(name)
        yield x, name


def state_ids(X: Prechart) -> dict[StateId, str]:
    """Unique string ids in discovery order, uniquified on label clashes."""
    return dict(iter_state_ids(X.states))


def chart_to_json(X: Prechart) -> dict[str, Any]:
    return _chart_doc(X)


def _chart_doc(X: Prechart, field: str | None = None, values: Mapping | None = None) -> dict[str, Any]:
    """The JSON document of ``X``; with a ``field``, each transition also
    carries its entry of ``values`` under that name."""
    ids = state_ids(X)
    transitions = []
    for edge in X.edges():
        x, a, y = edge
        t = {"from": ids[x], "action": a, "to": ids[y]}
        if field is not None:
            t[field] = values[edge]
        transitions.append(t)
    return {
        "alphabet": list(X.alphabet),
        "states": [ids[x] for x in X.states],
        "root": ids[X.root] if X.root is not None else None,
        "outputs": {ids[x]: sorted(X.out(x)) for x in X.states if X.out(x)},
        "transitions": transitions,
    }


def _is_strings(v: Any) -> bool:
    return isinstance(v, list) and all([isinstance(s, str) for s in v])


def _check_shape(doc: Any) -> None:
    """Raise ``ValueError`` naming the first field of a chart or witness
    document whose JSON shape is wrong."""
    if not isinstance(doc, dict):
        raise ValueError("a chart document must be a JSON object")
    for key in ("alphabet", "states"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
        if not _is_strings(doc[key]):
            raise ValueError(f"{key!r} must be a list of strings")
    outputs = doc.get("outputs", {})
    if not (isinstance(outputs, dict) and all(map(_is_strings, outputs.values()))):
        raise ValueError("'outputs' must be an object of string lists")
    transitions = doc.get("transitions", [])
    if not (isinstance(transitions, list) and all(
            isinstance(t, dict) and isinstance(t.get("from"), str) and isinstance(t.get("action"), str)
            and isinstance(t.get("to"), str) for t in transitions)):
        raise ValueError("'transitions' must be a list of objects with string 'from', 'action' and 'to'")
    if not isinstance(doc.get("root"), (str, type(None))):
        raise ValueError("'root' must be a string or null")


def _chart_rows(doc: Any) -> tuple[tuple[str, ...], tuple, int | None]:
    """A chart document read in one pass into state numbers: its state
    names in order, the chart ``(alphabet, outs, numbered)`` by state number
    (see ``layering._numbered_witness``) and the root's number, or None.

    Raises ``ValueError``: first for a wrong shape (``_check_shape``) or an
    invalid action name, then for a transition target that is not a state,
    in the order of the first transitions from each state and by each of its
    actions, then for duplicate states, an output at an unknown state or
    outside the alphabet, a transition from an unknown state or by an action
    outside the alphabet, and a root that is not a state."""
    _check_shape(doc)
    alphabet = declare_alphabet(doc["alphabet"])  # as ``--alphabet`` reads it
    names = tuple(doc["states"])
    number = {x: i for i, x in enumerate(names)}
    rows: dict[str, dict[str, Any]] = {}
    for t in doc.get("transitions", ()):
        rows.setdefault(t["from"], {}).setdefault(t["action"], []).append(t["to"])
    try:
        for row in rows.values():
            for a, targets in row.items():
                row[a] = tuple(sorted({number[y] for y in targets}))
    except KeyError as exc:  # a target outside ``states`` has no number
        raise ValueError(f"transition target {exc.args[0]!r} not a state") from None
    if len(number) != len(names):
        raise ValueError("duplicate states")
    actions = set(alphabet)
    outs = [frozenset()] * len(names)
    for x, acts in doc.get("outputs", {}).items():
        if acts:
            if x not in number:
                raise ValueError(f"output at unknown state {x!r}")
            out = outs[number[x]] = frozenset(acts)
            if not out <= actions:
                raise ValueError(f"output action outside alphabet at {x!r}")
    numbered = [((),) * len(alphabet)] * len(names)
    for x, row in rows.items():
        if x not in number:
            raise ValueError(f"transition from unknown state {x!r}")
        for a in row:
            if a not in actions:
                raise ValueError(f"transition action {a!r} outside alphabet")
        numbered[number[x]] = tuple([row.get(a, ()) for a in alphabet])
    root = doc.get("root")
    if root is not None and root not in number:
        raise ValueError(f"root {root!r} not a state")
    return names, (alphabet, outs, numbered), None if root is None else number[root]


def chart_from_json(doc: Mapping[str, Any]) -> Prechart:
    """The prechart of a chart document, read by ``_chart_rows``; its
    ``numbered_succ`` memo is the document's rows."""
    names, (alphabet, outs, numbered), root = _chart_rows(doc)
    return _numbered_chart(alphabet, (names, outs, numbered), None if root is None else names[root])


def witness_to_json(L: LabelledPrechart) -> dict[str, Any]:
    return _chart_doc(L.base, "tag", L.tags)


def witness_from_json(doc: Mapping[str, Any]) -> LabelledPrechart:
    base = chart_from_json(doc)
    tags = {}
    for t in doc.get("transitions", ()):
        if "tag" not in t:
            raise ValueError("witness transitions need a 'tag' field")
        edge = (t["from"], t["action"], t["to"])
        if tags.setdefault(edge, t["tag"]) != t["tag"]:
            raise ValueError(f"transition {edge} is tagged both {tags[edge]!r} and {t['tag']!r}")
    return LabelledPrechart(base, tags)


def weighted_to_json(W: WeightedLabelling) -> dict[str, Any]:
    return _chart_doc(W.base, "weight", W.weights)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(X: Prechart, witness: LabelledPrechart | None = None) -> str:
    """DOT rendering: circles, a double-bordered root, outputs as arrow
    annotations, and thick strokes on entry transitions."""
    ids = state_ids(X)
    lines = ["digraph chart {", "  rankdir=LR;", "  node [shape=circle];"]
    for x in X.states:
        label = ids[x]
        if X.out(x):
            label += "\n" + " ".join(f"⇒{a}" for a in sorted(X.out(x)))
        attrs = [f"label={_dot_quote(label)}"]
        if X.root is not None and x == X.root:
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_quote(ids[x])} [{', '.join(attrs)}];")
    for x, a, y in X.edges():
        attrs = [f"label={_dot_quote(a)}"]
        if witness is not None and witness.tags[(x, a, y)] == ENTRY:
            attrs.append("penwidth=2")
        lines.append(f"  {_dot_quote(ids[x])} -> {_dot_quote(ids[y])} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
