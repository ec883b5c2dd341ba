"""Known-answer inputs for the three workloads.

Each workload has a fixed stream of base inputs over the alphabet
``a,b,c``, drawn once from the acceptance suite's seeded generators
(``tests/gen.py``) with ``POPULATION_SEED``.  A run's ``--seed`` picks the
order of the inputs and, for every operation, an order-preserving
renaming of the three actions to other letters.  A renamed input is a new
input to the library (its lru caches are keyed on expressions), yet does
the same work as the base input.  So runs with different seeds do the same
work on inputs that no earlier operation in the process has seen.

The answers are known without asking starchart:

* ``certify_equiv`` pairs ``(e, rewrite_steps(e, 1..5))`` are equivalent
  because the axioms are sound;
* ``certify_inequiv`` pairs are kept only when the ``re`` language oracle
  finds a word of length <= 5 that exactly one side accepts;
* ``solve_infer`` charts are expression charts with the expression
  structure erased (positives), or the same charts joined with
  ``fig3_right()``, which has no layering witness (negatives).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import string
import sys
from itertools import product
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

import gen  # noqa: E402  (the acceptance suite's seeded generators)
from starchart import Atom, Seq, Star, Sum, Zero, chart_of, render  # noqa: E402

WORKLOADS = ("certify_equiv", "certify_inequiv", "solve_infer")
BASE_ALPHABET = ("a", "b", "c")
POPULATION_SEED = 2106_08074
# ``solve_infer`` keeps expression charts of at most this many states and
# transitions: inference on the joined negatives is exponential in the free
# state pairs, and uncapped charts take tens of seconds each.
SOLVE_MAX_STATES = 10
SOLVE_MAX_EDGES = 16
ORACLE_MAX_LEN = 5


# --- the language oracle ----------------------------------------------------


def regex_of(e) -> str:
    """A Python regex for the language of ``e``; bisimilar charts accept the same words."""
    if isinstance(e, Zero):
        return "(?!)"
    if isinstance(e, Atom):
        return re.escape(e.action)
    left, right = regex_of(e.left), regex_of(e.right)
    if isinstance(e, Sum):
        return f"(?:{left}|{right})"
    if isinstance(e, Seq):
        return f"(?:{left})(?:{right})"
    if isinstance(e, Star):
        return f"(?:{left})*(?:{right})"
    raise TypeError(f"not an expression: {e!r}")


_WORDS = ["".join(w) for n in range(1, ORACLE_MAX_LEN + 1) for w in product(BASE_ALPHABET, repeat=n)]


def distinguishing_word(e, f) -> str | None:
    """A word of length <= ORACLE_MAX_LEN accepted by exactly one side, if any."""
    left, right = re.compile(regex_of(e)), re.compile(regex_of(f))
    for word in _WORDS:
        if (left.fullmatch(word) is None) != (right.fullmatch(word) is None):
            return word
    return None


# --- solve_infer charts -----------------------------------------------------


def erased_chart(X) -> dict:
    """Chart JSON of an expression chart with its states renamed s0, s1, ..."""
    ids = {x: f"s{i}" for i, x in enumerate(X.states)}
    return {
        "alphabet": list(X.alphabet),
        "states": [ids[x] for x in X.states],
        "root": ids[X.root],
        "outputs": {ids[x]: sorted(X.out(x)) for x in X.states if X.out(x)},
        "transitions": [{"from": ids[x], "action": a, "to": ids[y]} for x, a, y in X.edges()],
    }


def joined_with_fig3(doc: dict) -> dict:
    """``doc`` plus a disjoint copy of ``fig3_right()``.

    The copy is transition-closed and has no layering witness, and a witness
    restricts to transition-closed parts, so the joined chart has none.
    """
    F = gen.fig3_right()
    n = len(doc["states"])
    ids = {x: f"s{n + i}" for i, x in enumerate(F.states)}
    return {
        **doc,
        "states": doc["states"] + [ids[x] for x in F.states],
        "transitions": doc["transitions"]
        + [{"from": ids[x], "action": a, "to": ids[y]} for x, a, y in F.edges()],
    }


# --- populations --------------------------------------------------------------


def population(workload: str, size: int) -> list[dict]:
    """The workload's first ``size`` base inputs with their known answers."""
    rng = random.Random(POPULATION_SEED)
    items: list[dict] = []
    while len(items) < size:
        if workload == "certify_equiv":
            e = gen.random_expr(rng, BASE_ALPHABET, depth=4)
            f = gen.rewrite_steps(rng, e, rng.randint(1, 5))
            items.append({"left": render(e), "right": render(f), "expect": "equivalent"})
        elif workload == "certify_inequiv":
            e = gen.random_expr(rng, BASE_ALPHABET, depth=6)
            f = gen.random_expr(rng, BASE_ALPHABET, depth=6)
            word = distinguishing_word(e, f)
            if word is not None:
                items.append({"left": render(e), "right": render(f), "expect": "inequivalent", "word": word})
        elif workload == "solve_infer":
            e = gen.random_expr(rng, BASE_ALPHABET, depth=4)
            X = chart_of(e, BASE_ALPHABET)
            if len(X.states) > SOLVE_MAX_STATES or sum(1 for _ in X.edges()) > SOLVE_MAX_EDGES:
                continue
            doc = erased_chart(X)
            if rng.random() < 0.5:
                items.append({"chart": joined_with_fig3(doc), "expect": "no-witness"})
            else:
                items.append({"chart": doc, "expect": "solved", "source": render(e)})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return items


def digest(items: list[dict]) -> str:
    """Short hash of a population, so a changed generator shows as a changed corpus."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- per-run naming -----------------------------------------------------------


def renamings(seed: int, workload: str, copy: int = 0):
    """Seeded source of order-preserving renamings of ``a,b,c``.

    Keeping the letters in order keeps every sorted-alphabet loop, and so the
    library's discovery order, the same as on the base input.
    """
    rng = random.Random(f"{workload}:{seed}:{copy}")

    def draw(used: set) -> tuple[str, ...]:
        while True:
            letters = tuple(sorted(rng.sample(string.ascii_lowercase, len(BASE_ALPHABET))))
            if letters not in used:
                used.add(letters)
                return letters

    return rng, draw


def rename_text(text: str, letters: tuple[str, ...]) -> str:
    return text.translate(str.maketrans(dict(zip(BASE_ALPHABET, letters))))


def rename_chart(doc: dict, letters: tuple[str, ...]) -> dict:
    to = dict(zip(BASE_ALPHABET, letters))
    return {
        **doc,
        "alphabet": [to[a] for a in doc["alphabet"]],
        "outputs": {x: [to[a] for a in acts] for x, acts in doc["outputs"].items()},
        "transitions": [{**t, "action": to[t["action"]]} for t in doc["transitions"]],
    }
