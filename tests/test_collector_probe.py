"""``tools/collector_probe.py`` finds its anchor in the benchmark's worker and
prints, per bytecode setting and workload, the counts around the ready-time
sample and the oldest generation that it collected."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("collector_probe", REPO / "tools" / "collector_probe.py")
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)


def test_the_ready_time_sample_occurs_exactly_once_in_the_worker():
    worker = (REPO / probe.WORKER).read_text(encoding="utf-8")
    assert worker.count(probe.ANCHOR) == 1
    before, sample, after = probe.probed(worker).partition(probe.ANCHOR)
    assert before.endswith(probe.PROBE) and sample and probe.ANCHOR not in after


@pytest.mark.parametrize("count", [0, 2])
def test_an_anchor_that_is_not_found_exactly_once_stops_the_probe(count):
    with pytest.raises(ValueError, match="not found exactly once"):
        probe.probed("SPEED = Speed()\n" + probe.ANCHOR * count)


@pytest.mark.parametrize("before, after, generation", [
    ((59, 2, 3), (72, 2, 3), "none"), ((28, 3, 3), (28, 3, 3), "none"), ((589, 10, 3), (0, 11, 3), "gen0"),
    ((589, 11, 3), (0, 0, 4), "gen1"), ((700, 10, 9), (3, 0, 0), "gen2"), ((700, 10, 10), (5, 1, 0), "gen2"),
])
def test_the_oldest_collected_generation_is_read_off_the_counts(before, after, generation):
    assert probe.collected(before, after) == generation


def test_it_prints_the_counts_of_every_workload_under_both_settings_and_writes_nothing_in_the_repository():
    before = sorted(p for p in (REPO / "perfbench").rglob("*") if "__pycache__" not in p.parts)
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "collector_probe.py")],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    workloads = ["certify_equiv", "certify_inequiv", "solve_infer"]
    assert [tuple(line.split(" ", 2)[:2]) for line in lines] == (
        [("dont-write-bytecode", w) for w in workloads] + [("write-bytecode", w) for w in workloads])
    assert all(re.fullmatch(r"\S+ \S+ \(\d+, \d+, \d+\) -> \(\d+, \d+, \d+\) (gen[012]|none)", line)
               for line in lines)
    assert sorted(p for p in (REPO / "perfbench").rglob("*") if "__pycache__" not in p.parts) == before
