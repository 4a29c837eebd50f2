"""anonsearch benchmark: certified search on four generated instances.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (manifest.json) is one instance from
scripts/make_adult_sample.py, written to data.csv and config.json. A run
is a closed loop with one caller: it solves the instance with
`anonsearch search --improve ...` again and again, each solve in a fresh
process that calls `anonsearch.cli.main` in-process, as long as the
next solve should end within --seconds, and at least MIN_SOLVES times.
Every output is checked independently (check.py) and every solve must
repeat the others' costs, bound and node counts exactly.

--trace 0 reports the end-to-end metrics as medians over the solves.
After each solve it also starts SETUPS_PER_SOLVE fresh processes that
stop where greedy would start; setup_s is the fastest of all the
run's set-ups (see end_to_end).
--trace 1 alternates untraced and traced solves and reports the
per-layer metrics (spans.py) plus the tracing overhead. The last line
of standard output is one JSON object with the metrics BENCHMARK.json
declares; the lines before it are for people and also show every
sample and failed_frac. Scratch files go under .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from check import Instance, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MANIFEST = HERE / "manifest.json"
MIN_SOLVES = 3
SETUPS_PER_SOLVE = 3
SOLVE_TIMEOUT_S = 150


def make_instance(spec, data_seed, seed, out_dir):
    """Write the workload's data.csv and config.json. The data seed
    draws the rows; `seed` shuffles their order in the file."""
    scripts = str(ROOT / "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    from make_adult_sample import config_doc, make_rows

    rows = make_rows(spec["rows"], random.Random(data_seed))
    random.Random(seed).shuffle(rows)
    config = config_doc()
    for attr in config["attributes"]:
        if attr["name"] in spec["splits"]:
            attr["splits"] = spec["splits"][attr["name"]]
    out_dir.mkdir(parents=True, exist_ok=True)
    data, cfg = out_dir / "data.csv", out_dir / "config.json"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([a["name"] for a in config["attributes"]])
        w.writerows(rows)
    with open(cfg, "w") as fh:
        json.dump(config, fh, indent=2)
    return data, cfg


class Runner:
    def __init__(self, spec, data, cfg, work, expect):
        self.spec = spec
        self.data, self.cfg, self.work = data, cfg, work
        self.expect = expect
        self.inst = Instance(data, cfg)
        self.solves = []      # one dict per full solve
        self.setups = []      # one dict per set-up-only process

    def solve(self, trace=False):
        """One solve in a fresh process; returns its entry in `solves`."""
        entry, out = self._spawn("--trace" if trace else None)
        entry["trace"] = trace
        if "report" in entry:
            self.inspect(entry, out)
        shutil.rmtree(out, ignore_errors=True)
        self.solves.append(entry)
        return entry

    def setup(self):
        """Set up once in a fresh process; returns its entry in `setups`."""
        entry, out = self._spawn("--setup-only")
        if "report" in entry and "setup_s" not in entry["report"]:
            entry["problems"].append("greedy was never called")
        shutil.rmtree(out, ignore_errors=True)
        self.setups.append(entry)
        return entry

    def _spawn(self, mode):
        """Run solve.py in `mode`; returns its entry and output directory."""
        n = len(self.solves) + len(self.setups) + 1
        out = self.work / f"out-{n}"
        report_path = self.work / f"report-{n}.json"
        cmd = [sys.executable, str(HERE / "solve.py"), str(report_path)]
        if mode:
            cmd.append(mode)
        cmd += ["--", "search", "--dataset", str(self.data),
                "--config", str(self.cfg), "--out", str(out),
                *self.spec["flags"]]
        entry = {"problems": []}
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=SOLVE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            entry["problems"].append(f"solve exceeded {SOLVE_TIMEOUT_S} s")
            return entry, out
        if proc.returncode != 0 or not report_path.exists():
            entry["problems"].append(
                f"solve process exited {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}")
            return entry, out
        with open(report_path) as fh:
            entry["report"] = json.load(fh)
        if entry["report"]["rc"] != 0:
            entry["problems"].append(f"cli exited {entry['report']['rc']}")
        return entry, out

    def inspect(self, entry, out):
        """Check the output directory of one solve and note its results."""
        entry["problems"] += check_output(self.inst, out, self.spec["flags"],
                                          self.expect)
        try:
            with open(out / "result.json") as fh:
                result = json.load(fh)
            st = result["stats"]
            entry["key"] = (result["best_cost"], result["lower_bound"],
                            result["ratio"], st["generated"], st["expanded"])
            entry["result"] = result
        except (OSError, ValueError, KeyError):
            pass  # already reported by check_output

    def failures(self):
        """Solves that failed: a crash, a failed check, or results that
        differ from the most common (best_cost, lower_bound, ratio,
        generated, expanded) of this run; and set-ups that crashed."""
        keys = Counter(s["key"] for s in self.solves if "key" in s)
        ref = keys.most_common(1)[0][0] if keys else None
        failed = []
        for s in self.solves:
            if "key" in s and s["key"] != ref:
                s["problems"].append(f"(best_cost, lower_bound, ratio, "
                                     f"generated, expanded) = {s['key']}, "
                                     f"other solves gave {ref}")
            if s["problems"]:
                failed.append(s)
        return failed + [s for s in self.setups if s["problems"]]


def _reported(solves, trace):
    return [s for s in solves if "report" in s and s["trace"] == trace]


def end_to_end(runner):
    """Each metric over the run's untraced solves, with its samples.

    The times and memory are medians. setup_s is the fastest set-up of
    the run, over the solves and the set-up-only processes: set-up
    takes 10 to 110 ms, and on a shared 2-core virtual machine whose
    speed drifts, the median of the same samples moved 1.14x to 1.57x
    between two sets of ten runs, the fastest 1.08x to 1.18x."""
    solves = _reported(runner.solves, False)
    setups = [s for s in runner.setups if "report" in s]
    columns = {"certified_ratio": ("ratio", [
        s["result"]["ratio"] for s in solves if "result" in s])}
    for name, unit in (("solve_s", "s"), ("setup_s", "s"), ("greedy_s", "s"),
                       ("search_s", "s"), ("peak_rss_mb", "MB")):
        columns[name] = (unit, [
            s["report"][name]
            for s in (solves + setups if name == "setup_s" else solves)
            if name in s["report"]])
    out = {}
    for name, (unit, values) in columns.items():
        if values:
            fastest = name == "setup_s"
            out[name] = {"value": (min if fastest else statistics.median)(
                             values), "unit": unit,
                         "stat": "fastest" if fastest else "median",
                         "samples": sorted(values)}
    return out


def _span_totals(report):
    out: dict = {}
    for row in report["spans"]:
        rec = out.setdefault(row["name"], [0, 0.0, 0.0])
        rec[0] += row["calls"]
        rec[1] += row["incl_s"]
        rec[2] += row["self_s"]
    return out


def layer_metrics(report, result, search_s):
    """Per-layer metrics of one traced solve. `search_s` is the untraced
    search time used for nodes/s."""
    spans = _span_totals(report)
    counts = report["counts"]
    st = result["stats"]
    phase_self = {row["name"]: row["self_s"] for row in report["spans"]
                  if row["parent"] == ""}
    m = {}

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    m["dataset.load_s"] = (incl("dataset.load_config")
                           + incl("dataset.load_dataset"), "s")
    m["dataset.rows"] = (counts.get("dataset.rows", 0), "count")
    m["splits.generate_s"] = (incl("splits.generate_splits"), "s")
    m["splits.count"] = (counts.get("splits.count", 0), "count")
    m["partition.space_build_s"] = (incl("partition.space_build"), "s")
    for name in ("partition.apply_split", "partition.apply_move",
                 "partition.move_blocks", "partition.legal_moves",
                 "partition.splittable_leaves", "partition.available_moves",
                 "bounds.lower_bound", "bounds.min_cost",
                 "metrics.block_cost", "constraints.block_flags"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    for name in ("partition.apply_split", "bounds.min_cost",
                 "constraints.block_flags"):
        m[name + ".new_extents"] = (counts.get(name + ".new_extents", 0),
                                    "count")
    m["partition.legal_moves.moves"] = (
        counts.get("partition.legal_moves.moves", 0), "count")
    mc = calls("bounds.min_cost")
    m["bounds.min_cost.hit_rate"] = (
        1.0 - counts.get("bounds.min_cost.new_extents", 0) / mc if mc else 0.0,
        "fraction")
    for name in ("generated", "expanded", "pruned_bound",
                 "pruned_infeasible", "probes", "forced_drops",
                 "max_queue_seen"):
        m["search." + name] = (st[name], "count")
    heap = ("search.heap.push", "search.heap.pop", "search.heap.heapify")
    m["search.push_frac"] = (calls("search.heap.push") / st["generated"],
                             "fraction")
    m["search.nodes_per_s"] = (st["generated"] / search_s, "1/s")
    m["search.self_s"] = (phase_self.get("search", 0.0), "s")
    m["search.heap.calls"] = (sum(calls(h) for h in heap), "count")
    m["search.heap.self_s"] = (sum(self_s(h) for h in heap), "s")
    m["greedy.steps"] = (counts.get("greedy.steps", 0), "count")
    m["greedy.self_s"] = (phase_self.get("greedy", 0.0), "s")
    return m


def per_layer(runner):
    plain = _reported(runner.solves, False)
    traced = [s for s in _reported(runner.solves, True) if "result" in s]
    if not plain or not traced:
        return {}, []
    search_s = statistics.median(s["report"]["search_s"] for s in plain)
    per_solve = [layer_metrics(s["report"], s["result"], search_s)
                 for s in traced]
    metrics = {}
    for name, (_, unit) in per_solve[0].items():
        values = [m[name][0] for m in per_solve]
        # counts repeat exactly; median_low keeps them whole numbers
        median = (statistics.median_low if unit == "count"
                  else statistics.median)
        metrics[name] = {"value": median(values), "unit": unit}
    overhead = (statistics.median(s["report"]["solve_s"] for s in traced)
                / statistics.median(s["report"]["solve_s"] for s in plain))
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, traced


def print_layer_breakdown(traced, metrics):
    report = traced[0]["report"]
    spans = _span_totals(report)
    solve = report["solve_s"]
    print(f"traced solve {solve:.3f} s; tracing overhead "
          f"{metrics['trace.overhead']['value']:.3f}x "
          f"(traced / untraced solve_s)")
    print(f"{'span':32} {'calls':>10} {'self_s':>9} {'share':>7}")
    rows = sorted(spans.items(), key=lambda kv: -kv[1][2])
    for name, (calls, _, self_s) in rows:
        print(f"{name:32} {calls:10d} {self_s:9.3f} {self_s / solve:7.1%}")


def main(argv=None) -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps the solve
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(manifest["workloads"]))
    ap.add_argument("--seed", type=int, default=17,
                    help="shuffles the row order of the instance")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/anonsearch/cli.py", "scripts/make_adult_sample.py"):
        if not (ROOT / need).is_file():
            print(f"error: {need} not found under {ROOT}; run from a "
                  f"checkout of the repository", file=sys.stderr)
            return 2

    spec = manifest["workloads"][args.workload]
    data_seed = manifest["data"]["data_seed"]

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        data, cfg = make_instance(spec, data_seed, args.seed, work)
        runner = Runner(spec, data, cfg, work, spec["expect"])
        t0 = time.monotonic()
        rounds = 0
        # start another round only if it should end within --seconds
        while True:
            elapsed = time.monotonic() - t0
            if (len(runner.solves) >= MIN_SOLVES
                    and elapsed + elapsed / rounds > args.seconds):
                break
            runner.solve()
            if args.trace:
                runner.solve(trace=True)
            else:
                for _ in range(SETUPS_PER_SOLVE):
                    runner.setup()
            rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failures()
    attempted = len(runner.solves) + len(runner.setups)
    print(f"workload {args.workload}: flags {' '.join(spec['flags'])}; "
          f"seed {args.seed}, data seed {data_seed}; "
          f"{len(runner.solves)} solves and {len(runner.setups)} set-ups "
          f"in {time.monotonic() - t0:.1f} s")
    for s in failed:
        print("FAILED: " + "; ".join(s["problems"][:5]))

    if args.trace:
        metrics, traced = per_layer(runner)
        if traced:
            print_layer_breakdown(traced, metrics)
            WORK.mkdir(exist_ok=True)
            dump = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            with open(dump, "w") as fh:
                json.dump({"metrics": metrics,
                           "spans": traced[0]["report"]["spans"]}, fh,
                          indent=1)
            print(f"span table: {dump}")
    else:
        metrics = end_to_end(runner)
    for name, m in metrics.items():
        extra = ""
        if "samples" in m:
            extra = (f"  {m['stat']} of {len(m['samples'])}: "
                     + " ".join(f"{v:.4g}" for v in m["samples"]))
        print(f"{name:36} {m['value']:14.6g} {m['unit']}{extra}")
    if not args.trace:
        print(f"{'failed_frac':36} {len(failed) / attempted:14.6g} fraction")

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
