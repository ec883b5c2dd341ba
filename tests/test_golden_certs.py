"""Golden certificate digests: ``certify(e, f).to_json()`` on a fixed seeded
corpus of pairs, both verdicts, must serialise to the same bytes.

The expected sha256 digests live in ``golden_certs.json`` next to this file.
To re-record them after a deliberate certificate change, run
``PYTHONPATH=src python tests/test_golden_certs.py --record`` and review the
diff.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from starchart import certify, render
from gen import random_expr, rewrite_steps

GOLDEN = Path(__file__).with_name("golden_certs.json")


def corpus() -> list[tuple]:
    """Seeded pairs: ``e`` beside an axiom rewrite, then an independent draw."""
    rng = random.Random(2106_08074_6)
    pairs = []
    for i in range(320):
        depth = 3 if i % 4 < 2 else 4
        e = random_expr(rng, depth=depth)
        f = rewrite_steps(rng, e, rng.randint(1, 3)) if i % 2 == 0 else random_expr(rng, depth=depth)
        pairs.append((e, f))
    return pairs


def digest(e, f, alphabet=None) -> dict:
    cert = certify(e, f, alphabet)
    text = json.dumps(cert.to_json(), ensure_ascii=False)
    return {
        "left": render(e),
        "right": render(f),
        "verdict": cert.verdict,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


RECORDED: list[dict] = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_certificates_match_their_recorded_digests():
    pairs = corpus()
    assert [(r["left"], r["right"]) for r in RECORDED] == [(render(e), render(f)) for e, f in pairs]
    assert [digest(e, f) for e, f in pairs] == RECORDED


def test_the_corpus_covers_both_verdicts():
    verdicts = [r["verdict"] for r in RECORDED]
    assert len(verdicts) >= 300
    assert verdicts.count("equivalent") >= 100 and verdicts.count("inequivalent") >= 100


def record() -> None:
    results = [digest(e, f) for e, f in corpus()]
    GOLDEN.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} certificate digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_certs.py --record")
    record()
