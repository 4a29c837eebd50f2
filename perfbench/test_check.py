"""Tests of the benchmark's own output check.

    python3 -m pytest perfbench

A small instance is solved for real; then recorded outputs are corrupted
and the run's failure count must include them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_output
from run import ROOT, Runner, make_instance

SPEC = {
    "rows": 600,
    "splits": {"age": {"type": "equi_width", "count": 2},
               "education_num": {"type": "equi_width", "count": 1},
               "hours_per_week": {"type": "equi_width", "count": 1},
               "workclass": {"type": "taxonomy"}},
    "flags": ["--metric", "dm", "--k", "20", "--l", "2.0", "--improve",
              "--node-limit", "2000"],
}


class CorruptingRunner(Runner):
    """Applies `corrupt(out_dir)` to the output of the second solve."""

    def __init__(self, work, corrupt, spec=SPEC):
        data, cfg = make_instance(spec, 17, 1, work)
        super().__init__(spec, data, cfg, work, {})
        self.corrupt = corrupt

    def inspect(self, entry, out):
        if len(self.solves) == 1:
            self.corrupt(out)
        super().inspect(entry, out)


def _edit(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def add_one_to_best_cost(out):
    _edit(out / "result.json",
          lambda d: d.update(best_cost=d["best_cost"] + 1))


def move_row_between_blocks(out):
    def change(doc):
        blocks = doc["blocks"]
        blocks[0]["count"] -= 1
        blocks[1]["count"] += 1
    _edit(out / "partition.json", change)


def bump_generated(out):
    _edit(out / "result.json",
          lambda d: d["stats"].update(generated=d["stats"]["generated"] + 1))


def failed_frac(runner):
    return len(runner.failures()) / len(runner.solves)


def test_clean_solves_pass(tmp_path):
    runner = CorruptingRunner(tmp_path, lambda out: None)
    for _ in range(2):
        runner.solve()
    assert [s["problems"] for s in runner.solves] == [[], []]
    assert failed_frac(runner) == 0
    assert runner.solves[0]["result"]["status"] == "exhausted"


@pytest.mark.parametrize("corrupt", [add_one_to_best_cost,
                                     move_row_between_blocks,
                                     bump_generated])
def test_corrupted_output_counts_as_failed(tmp_path, corrupt):
    runner = CorruptingRunner(tmp_path, corrupt)
    for _ in range(3):
        runner.solve()
    assert failed_frac(runner) == pytest.approx(1 / 3)
    assert runner.solves[1]["problems"]
    assert not runner.solves[0]["problems"]


def test_check_reports_broken_constraints_and_pins(tmp_path):
    runner = CorruptingRunner(tmp_path, lambda out: None)
    out = tmp_path / "kept"
    runner.inspect = lambda entry, o: shutil.copytree(o, out)
    runner.solve()
    flags = SPEC["flags"]
    assert check_output(runner.inst, out, flags, {"status": "exhausted"}) == []
    blocks = json.loads((out / "partition.json").read_text())["blocks"]
    smallest = min(b["count"] for b in blocks if b["count"])
    stricter = ["--metric", "dm", "--k", str(smallest + 1)]
    assert any("breaks k" in p
               for p in check_output(runner.inst, out, stricter))
    assert any("expected" in p for p in check_output(
        runner.inst, out, flags, {"status": "optimal", "best_cost": 1}))


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adult3k-dm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_only_process_reports_setup_time(tmp_path):
    runner = CorruptingRunner(tmp_path, lambda out: None)
    entry = runner.setup()
    assert entry["problems"] == []
    assert entry["report"]["setup_s"] > 0
    assert runner.failures() == []
