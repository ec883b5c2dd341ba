"""starchart benchmark: certify, replay and solve, timed from outside the library.

    python3 perfbench/run.py --workload certify_equiv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (inputs and known answers in ``corpus.py``):

* ``certify_equiv``: ``certify`` of equivalent pairs, then replay of the
  certificates; the only workload where collapse and the canonical solution
  do most of the work.
* ``certify_inequiv``: ``certify`` of inequivalent pairs, then replay; chart
  construction, the syntactic witness and partition refinement do all the
  work, collapse and solution never run.
* ``solve_infer``: ``solve chart.json`` on charts without expression
  structure; about half have no layering witness, so inference exhausts its
  search on them.  Replay re-checks the emitted solutions with
  ``verify_solution``.

Each phase runs in a fresh interpreter (``worker.py``) as one closed-loop
client.  With ``--trace 0`` a run does a fixed amount of work, sized to take
about ``--seconds`` at the commit that defined the benchmark: the workload's
first ``ITEMS`` base inputs (fewer for a shorter ``--seconds``), up to
``COPIES`` times, each time renamed afresh, as primary phase then replay
phase.  It prints the end-to-end metrics over all copies' operations, in
times scaled to the reference machine speed (``speed.py``).  ``setup_s`` is the median,
over the copies' fresh interpreters, of the time from interpreter start to the
first operation: ``import starchart`` and building the inputs.
``failed_frac`` is printed but not a BENCHMARK.json metric, because it is 0
on a correct program; the result's ``failed`` and ``attempted`` carry it.

With ``--trace 1`` the run does ``TRACE_ITEMS`` base inputs once untraced
and once traced (spans from ``tracing.py``), and prints per-layer self time
and counts and ``trace.overhead_frac``.  For ``certify_equiv`` it also traces
the ROADMAP's worst-case pair, outside the per-layer metrics.  Spans are
written to ``perfbench/.work/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("certify_equiv", "certify_inequiv", "solve_infer")
# Base inputs per workload for a run of REFERENCE_SECONDS, each run COPIES times
# under different names in fresh interpreters: that gives COPIES set-up
# samples, and spreads each input's operations over the whole run.
REFERENCE_SECONDS = 30
ITEMS = {"certify_equiv": 100, "certify_inequiv": 200, "solve_infer": 400}
COPIES = 3
# Skip the remaining copies when another would end the run later than this
# many times --seconds (the machine or the program is much slower).
DEADLINE = 1.2
# Base inputs traced per workload: a few seconds of work each.
TRACE_ITEMS = {"certify_equiv": 60, "certify_inequiv": 150, "solve_infer": 250}
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def child(phase: str, *args: str) -> dict:
    """Run one ``worker.py`` phase in a fresh interpreter and return its summary."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}  # fixed set order, so counts repeat
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), phase, *args],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {phase} {' '.join(args)} ran past {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {phase} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) > 1 else values[0]


def phase_args(workload: str, seed: int, records: Path, items: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--items", str(items),
            "--records", str(records), "--work", str(WORK)]


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, int, int, list[str]]:
    items = max(1, round(ITEMS[workload] * min(1.0, seconds / REFERENCE_SECONDS)))
    records = WORK / f"records-{workload}.json"
    base = phase_args(workload, seed, records, items)
    start = time.perf_counter()
    runs, reps = [], []
    for copy in range(COPIES):
        copy_start = time.perf_counter()
        runs.append(child("primary", *base, "--copy", str(copy)))
        reps.append(child("replay", "--records", str(records)))
        records.unlink()
        copy_s = time.perf_counter() - copy_start
        if time.perf_counter() - start + copy_s > DEADLINE * seconds:
            break
    ops = [t for r in runs for t in r["op_s"]]
    replays = [t for r in reps for t in r["op_s"]]
    if not ops or not replays:
        raise BenchError(f"{workload}: no {'primary' if not ops else 'replay'} operation completed")
    attempted = sum(len(r["ok"]) for r in runs + reps)
    failed = sum(r["ok"].count(False) for r in runs + reps)
    setups = [r["setup_s"] for r in runs]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (sum(r["ok"].count(True) for r in runs) / sum(ops), "1/s", len(ops)),
        "op_p50_ms": (1000 * statistics.median(ops), "ms", len(ops)),
        "op_p95_ms": (1000 * p95(ops), "ms", len(ops)),
        "replay_p50_ms": (1000 * statistics.median(replays), "ms", len(replays)),
        "replay_p95_ms": (1000 * p95(replays), "ms", len(replays)),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB", len(runs)),
    }
    raw = [t for r in runs for t in r["raw_s"]]
    speeds = ", ".join(f"{r['speed']:.2f}" for r in runs + reps)
    notes = [
        f"corpus {runs[0]['digest']} ({items} base inputs), {len(runs)} renamed copies each"
        f"{'; CUT SHORT by a phase time cap' if any(r['truncated'] for r in runs + reps) else ''}",
        f"machine speed {speeds} of reference; "
        f"raw primary p50 {1000 * statistics.median(raw):.2f} ms over {len(raw)} ops",
        f"failed_frac {failed / attempted!r} ratio  n={attempted}",
    ]
    negative = set(runs[0]["negative"])
    negatives = [t for r in runs for i, t in zip(r["item"], r["op_s"]) if i in negative]
    if negatives:
        notes.append(
            f"no-witness solves: {1000 * min(negatives):.2f} ms to {1000 * max(negatives):.1f} ms "
            f"({max(negatives) / min(negatives):.0f}x), {sum(negatives) / sum(ops):.0%} of primary time"
        )
    for r in runs + reps:
        notes += r["errors"]
    return metrics, attempted, failed, notes


def add_layers(total: dict, layers: dict) -> None:
    for name, value in layers.items():
        total[name] = total.get(name, 0) + value


def layer_table(layers: dict, top: int = 24) -> list[str]:
    names = sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".self_s")},
                   key=lambda n: -layers[f"{n}.self_s"])
    rows = [f"  {'span':40} {'calls':>8} {'self_s':>10} {'incl_s':>10}"]
    for n in names[:top]:
        rows.append(f"  {n:40} {layers[n + '.calls']:8d} {layers[n + '.self_s']:10.4f} "
                    f"{layers.get(n + '.incl_s', 0):10.4f}")
    return rows


def traced(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    items = TRACE_ITEMS[workload]

    def phases(trace: bool) -> tuple[dict, dict]:
        records = WORK / f"records-{workload}.json"
        spans = lambda ph: ["--spans", str(WORK / f"spans-{workload}-{ph}.json")] if trace else []  # noqa: E731
        run = child("primary", *phase_args(workload, seed, records, items), *spans("primary"))
        rep = child("replay", "--records", str(records), *spans("replay"))
        records.unlink()
        return {"primary": run, "replay": rep}

    plain, spans = phases(False), phases(True)
    wall = {m: sum(d["primary"]["op_s"]) + sum(d["replay"]["op_s"]) for m, d in (("plain", plain), ("traced", spans))}
    totals: dict = {}
    add_layers(totals, spans["primary"]["layers"])
    add_layers(totals, spans["replay"]["layers"])
    metrics = {name: (value, unit_of(name), 1) for name, value in layer_metrics(totals).items()}
    metrics["trace.overhead_frac"] = (wall["traced"] / wall["plain"] - 1, "ratio", 1)
    runs = [plain["primary"], plain["replay"], spans["primary"], spans["replay"]]
    notes = [f"corpus {spans['primary']['digest']} ({items} base inputs): {len(spans['primary']['op_s'])} primary ops and "
             f"{len(spans['replay']['op_s'])} replays take {wall['plain']:.3f} s untraced, "
             f"{wall['traced']:.3f} s traced (at reference speed)"]
    notes += layer_table(totals)
    if workload == "certify_equiv":
        worst = child("worst", "--spans", str(WORK / "spans-worst-case.json"))
        runs.append(worst)
        notes.append(f"worst-case pair certify(e, e + e): {worst['raw_s'][0]:.3f} s "
                     f"({worst['op_s'][0]:.3f} s at reference speed), "
                     f"solution tree/dag nodes {worst['layers'].get('solution.tree_nodes', 0)}"
                     f"/{worst['layers'].get('solution.dag_nodes', 0)}")
        notes += layer_table(worst["layers"], top=10)
    attempted = sum(len(r["ok"]) for r in runs)
    failed = sum(r["ok"].count(False) for r in runs)
    for r in runs:
        notes += r["errors"]
    return metrics, attempted, failed, notes


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("frac"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    measure = traced(workload, seed) if trace else end_to_end(workload, seed, seconds)
    metrics, attempted, failed, notes = measure
    print(f"== {workload} seed={seed} {'traced' if trace else f'{seconds} s'}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:48} {value!r:>24} {unit:6} n={n}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, n) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (REPO / "src" / "starchart").is_dir() or not (REPO / "tests" / "gen.py").is_file():
        print(f"error: no starchart checkout around {HERE} (need src/starchart and tests/gen.py)",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
