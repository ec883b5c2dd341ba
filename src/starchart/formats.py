"""Chart and witness serialization: JSON files and DOT export."""

from __future__ import annotations

from typing import Any, Mapping

from .layering import ENTRY, LabelledPrechart, WeightedLabelling
from .semantics import Prechart, StateId, _check_chart, _numbered_chart
from .syntax import Expr, render


def state_label(s: StateId) -> str:
    """A display name for a state; expressions print as themselves."""
    if isinstance(s, Expr):
        return render(s)
    if isinstance(s, tuple) and len(s) == 2 and s[0] in (0, 1):
        return ("L:" if s[0] == 0 else "R:") + state_label(s[1])
    return str(s)


def state_ids(X: Prechart) -> dict[StateId, str]:
    """Unique string ids in discovery order: an id clashing with an
    earlier one gets the first free ``#n`` suffix, from 2 up."""
    ids: dict[StateId, str] = {}
    used: set[str] = set()
    for x in X.states:
        base = name = state_label(x)
        n = 2
        while name in used:
            name = f"{base}#{n}"
            n += 1
        used.add(name)
        ids[x] = name
    return ids


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


def _chart_rows(doc: Any) -> tuple[tuple[str, ...], tuple, int | None, dict[str, int]]:
    """A chart document read into state numbers: its state
    names in order, the chart ``(alphabet, outs, numbered)`` by state number
    (as in ``layering._Analysis``), the root's number, or None, and
    the names' numbers, as ``_check_chart`` returned them.

    Raises ``ValueError`` for a wrong shape (``_check_shape``), and then
    as ``semantics._check_chart`` does, on the alphabet with its repeats
    dropped, as ``--alphabet`` reads it, the transitions grouped by state
    and action in the document's order, and the outputs that are not
    empty."""
    _check_shape(doc)
    alphabet = tuple(dict.fromkeys(doc["alphabet"]))
    names = tuple(doc["states"])
    rows: dict[str, dict[str, Any]] = {}
    for t in doc.get("transitions", ()):
        rows.setdefault(t["from"], {}).setdefault(t["action"], []).append(t["to"])
    outputs = {x: acts for x, acts in doc.get("outputs", {}).items() if acts}
    root = doc.get("root")
    number = _check_chart(alphabet, names, outputs, rows, root)
    outs = [frozenset()] * len(names)
    for x, acts in outputs.items():
        outs[number[x]] = frozenset(acts)
    numbered = [((),) * len(alphabet)] * len(names)
    for x, row in rows.items():
        numbered[number[x]] = tuple([tuple(sorted({number[y] for y in row[a]})) if a in row else ()
                                     for a in alphabet])
    return names, (alphabet, outs, numbered), None if root is None else number[root], number


def chart_from_json(doc: Mapping[str, Any]) -> Prechart:
    """The prechart of a chart document, read by ``_chart_rows``, which
    checked it, so it is built on that check's index with no second one;
    its ``numbered_succ`` memo is the document's rows."""
    names, (alphabet, outs, numbered), root, number = _chart_rows(doc)
    return _numbered_chart(alphabet, (names, outs, numbered), None if root is None else names[root], number)


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
