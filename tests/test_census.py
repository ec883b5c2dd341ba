"""The census of the equational route: how many bisimilar pairs of small
expressions the axioms' normal forms prove.

Every expression over ``a, b`` with at most k nodes (``gen.all_exprs``) is
classed three ways: by its plain normal form (``_NormalForms.of``), by its
folded normal form (``_NormalForms.folded``, which adds three instances of
Milner's unfolding axiom), and by the reference bisimilarity of the joint
chart of all of them (``gen.round_by_round_bisimilarity``).  The axioms are
sound, so every folded class lies inside one bisimilarity class.  The
pinned counts are those of ROADMAP item 25; a count that moves is a change
of behaviour of the normal forms.  The census runs at 5 and at 7 nodes
whatever ``STARCHART_SMALL_SCOPE`` is set to: 7 nodes take under a second.
"""

from __future__ import annotations

from collections import Counter

import pytest

from starchart.semantics import joint_chart
from starchart.solution import _NormalForms
from gen import all_exprs, round_by_round_bisimilarity

ALPHABET = ("a", "b")

# per scope: the expressions; the plain normal-form, folded and
# bisimilarity classes; the bisimilar pairs and those whose folded forms meet
PINNED = {
    5: (516, (180, 128, 104), (5785, 5528)),
    7: (11451, (2179, 1351, 911), (1535361, 1377830)),
}


def pairs(classes) -> int:
    """The unordered pairs of distinct expressions that share a class."""
    return sum(k * (k - 1) // 2 for k in Counter(classes).values())


@pytest.mark.parametrize("scope", sorted(PINNED))
def test_the_census(scope):
    exprs = all_exprs(ALPHABET, scope)
    forms = _NormalForms()
    plain = list(map(forms.of, exprs))
    folded = list(map(forms.folded, plain))
    R = round_by_round_bisimilarity(joint_chart(exprs, ALPHABET))
    bisimilar = list(map(R.block_index, exprs))
    # the folded forms prove only bisimilar pairs
    block_of: dict[int, int] = {}
    for e, n, b in zip(exprs, folded, bisimilar):
        assert block_of.setdefault(n, b) == b, e
    census = (len(exprs), (len(set(plain)), len(set(folded)), len(set(bisimilar))),
              (pairs(bisimilar), pairs(folded)))
    assert census == PINNED[scope]
