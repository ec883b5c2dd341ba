"""Golden certificate digests: ``certify(e, f).to_json()`` on a fixed seeded
corpus of pairs, both verdicts, must serialise to the same bytes, and so must
the local proof's certificate of each equivalent pair (``local_certify``),
which ``certify`` does not write when the normal forms meet.

The expected sha256 digests live in ``golden_certs.json`` next to this file:
``sha256`` for ``certify``'s certificate and, per equivalent pair,
``local_sha256`` for the local proof's.  To re-record ``sha256`` after a
deliberate certificate change, run
``PYTHONPATH=src python tests/test_golden_certs.py --record`` and review the
diff; it prints the corpus indices whose ``sha256`` changed.  It never
rewrites ``local_sha256``: it exits non-zero, naming the pairs, if a local
proof's certificate would change.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from starchart import certify, render
from gen import local_certify, random_expr, rewrite_steps

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


def sha256(cert) -> str:
    """The digest of ``cert`` as ``starchart certify`` prints it, on one line."""
    text = json.dumps(cert.to_json(), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(e, f, alphabet=None) -> dict:
    cert = certify(e, f, alphabet)
    row = {"left": render(e), "right": render(f), "verdict": cert.verdict, "sha256": sha256(cert)}
    if cert.verdict == "equivalent":
        row["local_sha256"] = row["sha256"] if cert.proof is None else sha256(local_certify(e, f, alphabet))
    return row


RECORDED: list[dict] = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_certificates_match_their_recorded_digests():
    pairs = corpus()
    assert [(r["left"], r["right"]) for r in RECORDED] == [(render(e), render(f)) for e, f in pairs]
    assert [digest(e, f) for e, f in pairs] == RECORDED


def test_the_corpus_covers_both_verdicts():
    verdicts = [r["verdict"] for r in RECORDED]
    assert len(verdicts) >= 300
    assert verdicts.count("equivalent") >= 100 and verdicts.count("inequivalent") >= 100


def test_record_keeps_the_local_digests(monkeypatch, tmp_path):
    # a local proof's certificate that would change stops the recording,
    # naming its pair, and nothing is written
    module, recorded, path = sys.modules[__name__], RECORDED, tmp_path / GOLDEN.name
    row = next(r for r in recorded if r["sha256"] != r.get("local_sha256", r["sha256"]))
    monkeypatch.setattr(module, "GOLDEN", path)
    monkeypatch.setattr(module, "RECORDED", [{**r, "local_sha256": "0" * 64} if r is row else r for r in recorded])
    with pytest.raises(SystemExit, match=re.escape(repr([(row["left"], row["right"])]))):
        record()
    assert not path.exists()
    # with the recorded local digests, ``sha256`` is rewritten as it is,
    # and the indices whose ``sha256`` changed are printed
    monkeypatch.setattr(module, "RECORDED", [{**r, "sha256": "0" * 64} if r is row else r for r in recorded])
    out = io.StringIO()
    with redirect_stdout(out):
        record()
    assert out.getvalue().endswith(f"; sha256 changed at indices [{recorded.index(row)}]\n")
    assert json.loads(path.read_text(encoding="utf-8")) == recorded


def record() -> None:
    results = [digest(e, f) for e, f in corpus()]
    recorded = {(r["left"], r["right"]): r.get("local_sha256") for r in RECORDED}
    changed = [(r["left"], r["right"]) for r in results
               if r.get("local_sha256") != recorded.get((r["left"], r["right"]))]
    if changed:
        sys.exit(f"not recorded: the local proof's certificate would change for {changed}")
    digests = {(r["left"], r["right"]): r["sha256"] for r in RECORDED}
    moved = [i for i, r in enumerate(results) if r["sha256"] != digests.get((r["left"], r["right"]))]
    GOLDEN.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} certificate digests to {GOLDEN.name}; sha256 changed at indices {moved}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_certs.py --record")
    record()
