"""Chart and witness serialization: JSON files and DOT export."""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from .layering import LabelledPrechart, WeightedLabelling
from .semantics import Prechart, StateId
from .syntax import Expr, render


def state_label(s: StateId) -> str:
    """A display name for a state; expressions print as themselves."""
    if isinstance(s, Expr):
        return render(s)
    if isinstance(s, tuple) and len(s) == 2 and s[0] in (0, 1):
        return ("L:" if s[0] == 0 else "R:") + state_label(s[1])
    return str(s)


def iter_state_ids(X: Prechart) -> Iterator[tuple[StateId, str]]:
    """``(state, id)`` in discovery order; an id clashing with an earlier
    one gets the first free ``#n`` suffix, from 2 up."""
    used: set[str] = set()
    for x in X.states:
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
    return dict(iter_state_ids(X))


def chart_to_json(X: Prechart) -> dict[str, Any]:
    ids = state_ids(X)
    return {
        "alphabet": list(X.alphabet),
        "states": [ids[x] for x in X.states],
        "root": ids[X.root] if X.root is not None else None,
        "outputs": {ids[x]: sorted(X.out(x)) for x in X.states if X.out(x)},
        "transitions": [
            {"from": ids[x], "action": a, "to": ids[y]} for (x, a, y) in X.edges()
        ],
    }


def chart_from_json(doc: Mapping[str, Any]) -> Prechart:
    states = list(doc["states"])
    transitions: dict[str, dict[str, list[str]]] = {}
    for t in doc.get("transitions", ()):
        transitions.setdefault(t["from"], {}).setdefault(t["action"], []).append(t["to"])
    return Prechart.make(
        doc["alphabet"],
        states,
        {x: set(acts) for x, acts in doc.get("outputs", {}).items()},
        transitions,
        doc.get("root"),
    )


def witness_to_json(L: LabelledPrechart) -> dict[str, Any]:
    doc = chart_to_json(L.base)
    ids = state_ids(L.base)
    doc["transitions"] = [
        {"from": ids[x], "action": a, "to": ids[y], "tag": L.tags[(x, a, y)]}
        for (x, a, y) in L.base.edges()
    ]
    return doc


def witness_from_json(doc: Mapping[str, Any]) -> LabelledPrechart:
    base = chart_from_json(doc)
    tags = {}
    for t in doc.get("transitions", ()):
        if "tag" not in t:
            raise ValueError("witness transitions need a 'tag' field")
        tags[(t["from"], t["action"], t["to"])] = t["tag"]
    return LabelledPrechart(base, tags)


def weighted_to_json(W: WeightedLabelling) -> dict[str, Any]:
    doc = chart_to_json(W.base)
    ids = state_ids(W.base)
    doc["transitions"] = [
        {"from": ids[x], "action": a, "to": ids[y], "weight": W.weights[(x, a, y)]}
        for (x, a, y) in W.base.edges()
    ]
    return doc


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
        if witness is not None and witness.tags[(x, a, y)] == "e":
            attrs.append("penwidth=2")
        lines.append(f"  {_dot_quote(ids[x])} -> {_dot_quote(ids[y])} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
