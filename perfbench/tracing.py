"""Spans around starchart's public functions, recorded from outside the library.

``Tracer.install`` replaces each function named in ``SPANNED`` by a wrapper
in every starchart namespace that binds it: ``from .x import f`` makes a
separate binding in the importing module, and the package's own
``starchart.rerouting`` is the function, not the module, so modules are
found through ``sys.modules``.  The recursive helpers (``atoms``,
``render``, ``expr_step``, ``simplify``, ``star_height``, ``size_bound``,
``state_label``) are not wrapped: one span per recursive call would swamp
the trace.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

SPANNED = {
    "syntax": ("parse",),
    "semantics": (
        "chart_of", "coproduct", "restriction", "generated",
        "is_homomorphism", "quotient", "kernel_partition",
    ),
    "bisim": ("check_bisimulation", "refine_once", "bisimilarity", "bisimilar"),
    "layering": (
        "verify_witness", "analysis_of_verified", "syntactic_witness", "union_witness",
        "enumerate_witnesses", "infer_witness", "measures", "to_llee", "from_llee",
        "restrict_witness", "derived_relations",
    ),
    "rerouting": (
        "connect_through", "rerouting", "restrict_relation", "check_condition",
        "find_pair", "relabel", "collapse",
    ),
    "solution": ("canonical_solution", "verify_solution", "unfold"),
    "formats": (
        "state_ids", "chart_to_json", "chart_from_json", "witness_to_json",
        "witness_from_json", "weighted_to_json", "to_dot",
    ),
    "cli": (
        "main", "build_parser", "cmd_certify", "cmd_solve", "certify",
        "recheck_certificate", "Certificate.to_json",
    ),
}

# Per-layer metrics of BENCHMARK.json, in its order; see ``layer_metrics``.
LAYER_METRICS = (
    "semantics.chart_of.calls", "semantics.chart_of.self_s", "semantics.chart_of.states",
    "semantics.coproduct.self_s", "layering.syntactic_witness.self_s",
    "layering.union_witness.self_s",
    "bisim.refine_once.calls", "bisim.refine_once.self_s",
    "bisim.bisimilarity.calls", "bisim.bisimilarity.self_s", "bisim.bisimilarity.states",
    "bisim.check_bisimulation.calls", "bisim.check_bisimulation.self_s",
    "rerouting.collapse.calls", "rerouting.collapse.incl_s", "rerouting.find_pair.self_s",
    "rerouting.relabel.self_s", "rerouting.connect_through.calls",
    "rerouting.merges.C1", "rerouting.merges.C2", "rerouting.merges.C3",
    "rerouting.relabel.fallbacks",
    "layering.analysis_of_verified.calls", "layering.analysis_of_verified.self_s",
    "layering.verify_witness.calls", "layering.verify_witness.self_s",
    "solution.canonical_solution.calls", "solution.canonical_solution.self_s",
    "solution.verify_solution.calls", "solution.verify_solution.incl_s",
    "solution.verify_solution.self_s", "bisim.bisimilar.calls",
    "solution.tree_nodes", "solution.dag_nodes",
    "layering.enumerate_witnesses.calls", "layering.enumerate_witnesses.self_s",
    "layering.enumerate_witnesses.leaves", "layering.enumerate_witnesses.leaf_hit_ratio",
    "cli.certify.self_s", "cli.recheck_certificate.self_s", "cli.Certificate.to_json.self_s",
    "cli.main.self_s", "syntax.parse.calls", "syntax.parse.self_s",
    "formats.chart_from_json.self_s", "formats.witness_to_json.self_s",
    "formats.state_ids.self_s",
)


def expr_sizes(roots) -> tuple[int, int]:
    """Tree nodes and distinct subterms (DAG nodes) of some expressions.

    Iterative and keyed by object identity, so it neither recurses nor
    hashes the (tree-hashing) expression dataclasses.
    """
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    stack = list(roots)
    while stack:
        e = stack[-1]
        if id(e) in size:
            stack.pop()
            continue
        kids = [k for k in (getattr(e, "left", None), getattr(e, "right", None)) if k is not None]
        pending = [k for k in kids if id(k) not in size]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        size[id(e)] = 1 + sum(size[id(k)] for k in kids)
        key = (type(e).__name__, getattr(e, "action", None), *(canon[id(k)] for k in kids))
        canon[id(e)] = keys.setdefault(key, len(keys))
    return sum(size[id(r)] for r in roots), len(keys)


class Tracer:
    """Records one span per call of a wrapped function while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span or -1, start, end]
        self.flags: dict[int, bool] = {}  # verify_witness span -> witness verified
        self.counts: Counter = Counter()
        self.emitted: list = []  # expressions the current operation emitted
        self._stack: list[int] = []
        self._hooks = self._result_hooks()

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name == "starchart" or name.startswith("starchart.")]
        for module, names in SPANNED.items():
            home = sys.modules[f"starchart.{module}"]
            for qualname in names:
                owner, _, attr = qualname.rpartition(".")
                if owner:  # a method: one binding, on its class
                    cls = getattr(home, owner)
                    setattr(cls, attr, self._wrap(f"{module}.{qualname}", getattr(cls, attr)))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(f"{module}.{attr}", original)
                for m in package:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, bound, wrapper)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        on_result = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [index, parent, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(span)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        return wrapper

    def _result_hooks(self) -> dict:
        def chart_states(span, args, X):
            self.counts["semantics.chart_of.states"] += len(X.states)

        def bisim_states(span, args, R):
            self.counts["bisim.bisimilarity.states"] += len(args[0].states)

        def merge_condition(span, args, found):
            if found is not None:
                self.counts[f"rerouting.merges.{found[2]}"] += 1

        def witness_ok(span, args, result):
            self.flags[span] = bool(result[0])

        def certified(span, args, cert):
            if cert.common is not None:
                self.emitted.append(cert.common)

        def solved(span, args, solution):
            parent = self.spans[span][1]
            if parent >= 0 and self.names[self.spans[parent][0]] == "cli.cmd_solve":
                self.emitted.extend(solution.assign.values())

        return {
            "semantics.chart_of": chart_states,
            "bisim.bisimilarity": bisim_states,
            "rerouting.find_pair": merge_condition,
            "layering.verify_witness": witness_ok,
            "cli.certify": certified,
            "solution.canonical_solution": solved,
        }

    def count_emitted(self) -> None:
        """Size the current operation's emitted expressions, outside any span."""
        tree, dag = expr_sizes(self.emitted)
        self.counts["solution.tree_nodes"] += tree
        self.counts["solution.dag_nodes"] += dag
        self.emitted.clear()

    def _has_ancestor(self, span: int, name: str) -> bool:
        parent = self.spans[span][1]
        while parent >= 0:
            if self.names[self.spans[parent][0]] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def layers(self) -> dict[str, float]:
        """Calls, self and inclusive seconds per wrapped function, plus counters.

        Self time is a span's duration minus its direct children's; inclusive
        time counts only spans with no enclosing span of the same function.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter(self.counts)
        for span, (name_index, parent, start, end) in enumerate(self.spans):
            name = self.names[name_index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[span]
            if not self._has_ancestor(span, name):
                out[f"{name}.incl_s"] += end - start
            if name == "layering.infer_witness" and self._has_ancestor(span, "rerouting.relabel"):
                out["rerouting.relabel.fallbacks"] += 1
            if name == "layering.verify_witness" and self._has_ancestor(span, "layering.enumerate_witnesses"):
                out["layering.enumerate_witnesses.leaves"] += 1
                out["layering.enumerate_witnesses.hits"] += self.flags.get(span, False)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The BENCHMARK.json per-layer metrics from summed ``Tracer.layers`` output."""
    out = {name: totals.get(name, 0) for name in LAYER_METRICS}
    leaves = totals.get("layering.enumerate_witnesses.leaves", 0)
    hits = totals.get("layering.enumerate_witnesses.hits", 0)
    out["layering.enumerate_witnesses.leaf_hit_ratio"] = hits / leaves if leaves else 0.0
    return out
