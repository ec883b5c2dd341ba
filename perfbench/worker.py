"""One phase of a workload, in a fresh interpreter, as a closed-loop client.

``run.py`` starts this script; it is not meant to be run by hand.  A single
thread sends each operation only after the previous one returned:

* ``primary``: ``starchart.cli.main`` in-process with stdout and stderr
  captured, ``certify --alphabet ...`` or ``solve chart.json``, on renamed
  base inputs in a seeded order; each answer is checked against the known
  one.
* ``replay``: re-checks what ``primary`` emitted, from its serialized form:
  ``recheck_certificate`` for certificates, ``verify_solution`` for solved
  charts.  It runs in its own interpreter, so the library's caches are as
  cold as for a verifier that only has the certificate.
* ``worst``: certifies the ROADMAP's worst-case pair ``(e, e + e)`` once.

Times are reported raw and scaled to the reference machine speed
(``speed.py``).  The last line of stdout is a JSON summary for ``run.py``.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Speed  # noqa: E402  (stdlib only, so it can run before set-up)

SPEED = Speed()
SPEED.sample()
START = perf_counter()  # set-up is timed from here to the first operation

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import corpus  # noqa: E402  (imports starchart and tests/gen.py)
from starchart.syntax import Sum  # noqa: E402
from tracing import Tracer  # noqa: E402

OP_LIMIT_S = 30.0
WORST_LIMIT_S = 150.0
# Cut a phase short once it has run this long, so that a much slower program
# still ends within the benchmark's time limit.
HARD_CAP_S = {"primary": 30.0, "replay": 15.0}
WORST_CASE = (
    "(0*((c*0 + c)*((c + b)*(a + a))) + 0 a)*((((a*c + b*c)*((0 + b) + b + b))"
    "*(c*a 0*a b))*((b*(a b) + c + a*a) + a))"
)


def lib(module: str, name: str):
    """A starchart function looked up at call time, so traced wrappers are used."""
    return getattr(sys.modules[f"starchart.{module}"], name)


class OpTimeout(Exception):
    pass


class Clock:
    """Times operations under a per-operation limit on this process only."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.running = False
        self.spans: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._expired)

    def _expired(self, signum, frame):
        if self.running:
            raise OpTimeout("operation exceeded its time limit")

    def run(self, call, limit: float):
        """(result, captured stdout, error) of ``call()``; its span goes to ``spans``."""
        out, err = io.StringIO(), io.StringIO()
        result, error = None, None
        SPEED.sample_if_due()
        if self.tracer:
            self.tracer.active = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        self.running = True
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = call()
        except Exception as exc:  # a failed operation is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = perf_counter()
            self.running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer:
                self.tracer.active = False
                self.tracer.count_emitted()
        self.spans.append((start, end))
        return result, out.getvalue(), error

    def summary(self) -> dict:
        """Raw and speed-scaled seconds of every operation run so far."""
        SPEED.sample()
        return {
            "raw_s": [end - start for start, end in self.spans],
            "op_s": [SPEED.scaled(start, end) for start, end in self.spans],
            "speed": SPEED.relative(),
        }


# --- primary operations ---------------------------------------------------------


def make_op(workload: str, item: dict, letters: tuple[str, ...], work: Path) -> list[str]:
    if workload.startswith("certify"):
        return [
            "certify", "--alphabet", ",".join(letters),
            corpus.rename_text(item["left"], letters), corpus.rename_text(item["right"], letters),
        ]
    path = work / "chart.json"
    path.write_text(json.dumps(corpus.rename_chart(item["chart"], letters)), encoding="utf-8")
    return ["solve", str(path)]


def check_primary(item: dict, letters, code, out: str) -> tuple[bool, dict | None]:
    """Whether the answer is the known one, and what ``replay`` should re-check."""
    expect = item["expect"]
    if expect in ("equivalent", "inequivalent"):
        want_code = 0 if expect == "equivalent" else 1
        if code != want_code or json.loads(out)["verdict"] != expect:
            return False, None
        return True, {"doc": out, "expect": expect}
    if expect == "no-witness":
        return code == 1 and out == "", None
    if code != 0:
        return False, None
    alphabet = list(letters)
    chart = corpus.rename_chart(item["chart"], letters)
    emitted = lib("syntax", "parse")(json.loads(out)[chart["root"]], alphabet)
    source = lib("syntax", "parse")(corpus.rename_text(item["source"], letters), alphabet)
    if not lib("bisim", "bisimilar")(emitted, source, alphabet):
        return False, None
    return True, {"chart": chart, "assign": out}


def primary(args, tracer: Tracer | None) -> dict:
    items = corpus.population(args.workload, args.items)
    rng, draw = corpus.renamings(args.seed, args.workload, args.copy)
    order = list(range(len(items)))
    rng.shuffle(order)
    work = Path(args.work)
    clock = Clock(tracer)
    used: set = set()
    ok, errors, records = [], [], []
    setup_s = None
    truncated = False
    for i in order:
        letters = draw(used)
        argv = make_op(args.workload, items[i], letters, work)
        if setup_s is None:
            ready = perf_counter()
            SPEED.sample()
            setup_s = SPEED.scaled(START, ready)
        code, out, error = clock.run(lambda: lib("cli", "main")(argv), OP_LIMIT_S)
        good, record = False, None
        if error is None:
            try:
                good, record = check_primary(items[i], letters, code, out)
            except (ValueError, KeyError) as exc:  # unreadable output is a wrong answer
                error = f"{type(exc).__name__}: {exc}"
        if not good and len(errors) < 5:
            errors.append(f"{' '.join(argv)[:160]} -> exit {code}, {error or out[:160]!r}")
        ok.append(good)
        if record is not None:
            records.append({"item": i, **record})
        if perf_counter() - clock.spans[0][0] > HARD_CAP_S["primary"]:
            truncated = True
            break
    with open(args.records, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return {
        **clock.summary(), "setup_s": setup_s, "ok": ok, "item": order[: len(ok)], "errors": errors,
        "negative": [i for i in order if items[i]["expect"] == "no-witness"],
        "truncated": truncated, "digest": corpus.digest(items),
    }


# --- replay ---------------------------------------------------------------------


def replay_call(record: dict):
    if "doc" in record:
        doc = json.loads(record["doc"])
        return lambda: (doc["verdict"], lib("cli", "recheck_certificate")(doc))
    chart, assign = record["chart"], record["assign"]

    def verify():
        X = lib("formats", "chart_from_json")(chart)
        parse = lib("syntax", "parse")
        solution = {x: parse(text, chart["alphabet"]) for x, text in json.loads(assign).items()}
        return lib("solution", "verify_solution")(X, solution)

    return verify


def replay_ok(record: dict, result) -> bool:
    if "doc" in record:
        verdict, checks = result
        return verdict == record["expect"] and all(c.passed for c in checks)
    return bool(result[0])


def replay(args, tracer: Tracer | None) -> dict:
    with open(args.records, encoding="utf-8") as fh:
        records = json.load(fh)
    clock = Clock(tracer)
    ok, errors = [], []
    truncated = False
    for record in records:
        result, _, error = clock.run(replay_call(record), OP_LIMIT_S)
        good = error is None and replay_ok(record, result)
        if not good and len(errors) < 5:
            errors.append(error or f"replay check failed: {str(result)[:160]}")
        ok.append(good)
        if perf_counter() - clock.spans[0][0] > HARD_CAP_S["replay"]:
            truncated = True
            break
    return {**clock.summary(), "ok": ok, "item": [r["item"] for r in records[: len(ok)]],
            "errors": errors, "truncated": truncated}


def worst(args, tracer: Tracer) -> dict:
    alphabet = corpus.BASE_ALPHABET
    e = lib("syntax", "parse")(WORST_CASE, alphabet)
    argv = ["certify", "--alphabet", ",".join(alphabet), WORST_CASE, lib("syntax", "render")(Sum(e, e))]
    clock = Clock(tracer)
    code, out, error = clock.run(lambda: lib("cli", "main")(argv), WORST_LIMIT_S)
    good = error is None and code == 0 and json.loads(out)["verdict"] == "equivalent"
    return {**clock.summary(), "ok": [good], "errors": [] if good else [error or f"exit {code}"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("primary", "replay", "worst"))
    parser.add_argument("--workload", choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--copy", type=int, default=0, help="which renamed copy of the inputs to use")
    parser.add_argument("--items", type=int, default=1, help="how many base inputs to use")
    parser.add_argument("--records", help="JSON file of emitted outputs, written by primary")
    parser.add_argument("--work", help="directory for chart files")
    parser.add_argument("--spans", help="trace into this file")
    args = parser.parse_args()
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    phase = {"primary": primary, "replay": replay, "worst": worst}[args.phase]
    result = phase(args, tracer)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.layers()
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
