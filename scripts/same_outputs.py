#!/usr/bin/env python3
"""Check that two checkouts write the same search outputs.

    python3 scripts/same_outputs.py BASE_CHECKOUT [--workload NAME ...]
        [--seed N] [--rows N] [--flags "EXTRA_FLAGS" ...]

Writes each perfbench workload's instance with `make_instance` from
`perfbench/run.py` (data seed from `perfbench/manifest.json`, `--seed`
shuffling the row order, `--rows` replacing the workload's row count
and then named in each line), then runs `search` on it twice per flag
set, each time in a fresh process: once with BASE_CHECKOUT's `src/` and
once with this checkout's. Each `--flags` value is one flag set, split like a
shell command line and appended to the workload's flags, so it overrides
them; `--flags ""` is the workload's flags alone. Write
`--flags=--improve` when the set is a single word starting with `-`.
With no `--flags`, the sets are `DEFAULT_FLAGS`: the workload's flags
alone, then with the vm metric and with the cm metric, each with no
added limit (on a workload with no node limit of its own they reach the
DP), then with the vm metric, the cm metric, a small queue cap, approx
mode, and the cm metric under a queue cap that forces probes, each under
a node limit. It compares `result.json` without `stats.elapsed_sec`,
`partition.json`, and `progress.csv` without its `elapsed_ms` column,
prints one line per workload and flag set and exits 1 if any output
differs or either run fails. A line that reports a difference names,
per differing file, where it first differs and both values, base
first: a key path such as `stats.generated: 100027 != 100031`, or a
row of `progress.csv` or line of `partition.json`.
"""

from __future__ import annotations

import argparse
import csv
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

DEFAULT_FLAGS = ("", "--metric vm", "--metric cm",
                 "--metric vm --node-limit 3000",
                 "--metric cm --node-limit 3000",
                 "--max-queue 20 --node-limit 5000",
                 "--mode approx --alpha 1.5 --node-limit 5000",
                 "--metric cm --max-queue 100 --node-limit 20000")

RUN = ("import sys; sys.path.insert(0, sys.argv[1]); "
       "from anonsearch.cli import main; sys.exit(main(sys.argv[2:]))")


def solve(src, data, cfg, flags, out):
    """Run `search` with the package from `src`; returns an error or None."""
    cmd = [sys.executable, "-c", RUN, str(src), "search", "--dataset",
           str(data), "--config", str(cfg), "--out", str(out), *flags]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):   # 1: the instance is infeasible
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return None


def outputs(out) -> dict:
    """The comparable contents of one output directory."""
    docs = {}
    path = out / "result.json"
    if path.exists():
        doc = json.loads(path.read_text())
        doc.get("stats", {}).pop("elapsed_sec", None)
        docs["result.json"] = doc
    path = out / "partition.json"
    if path.exists():
        docs["partition.json"] = path.read_text()
    path = out / "progress.csv"
    if path.exists():
        with open(path, newline="") as fh:
            docs["progress.csv"] = [row[1:] for row in csv.reader(fh)]
    return docs


class _Missing:
    def __repr__(self):
        return "<missing>"


MISSING = _Missing()


def first_difference(a, b, where=""):
    """Where `a` and `b` first differ, as `where: a != b`, or None.

    Dicts are walked by sorted key (`stats.generated`), lists by index
    (`bounds[3]`) and texts of several lines by line (`line 12`, counting
    from 1); a list at the top is a table, whose first differing row is
    shown whole (`row 3`, counting from the header, row 0). A key, row
    or line that only one side has is `<missing>` on the other."""
    if a == b:
        return None
    if isinstance(a, str) and isinstance(b, str) and "\n" in a + b:
        a, b = a.splitlines(), b.splitlines()
        for n in range(max(len(a), len(b))):
            x = a[n] if n < len(a) else MISSING
            y = b[n] if n < len(b) else MISSING
            if x != y:
                return f"line {n + 1}: {x!r} != {y!r}"
        return "same lines, other line endings"
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys(), key=str):
            diff = first_difference(a.get(key, MISSING), b.get(key, MISSING),
                                    f"{where}.{key}" if where else str(key))
            if diff:
                return diff
    if isinstance(a, list) and isinstance(b, list):
        for n in range(max(len(a), len(b))):
            x = a[n] if n < len(a) else MISSING
            y = b[n] if n < len(b) else MISSING
            if not where and x != y:
                return f"row {n}: {x!r} != {y!r}"
            diff = first_difference(x, y, f"{where}[{n}]")
            if diff:
                return diff
    return f"{where}: {a!r} != {b!r}" if where else f"{a!r} != {b!r}"


def main(argv=None) -> int:
    with open(PERFBENCH / "manifest.json") as fh:
        manifest = json.load(fh)
    workloads = manifest["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="the other checkout")
    ap.add_argument("--workload", action="append", choices=sorted(workloads),
                    help="workload to compare (default: all)")
    ap.add_argument("--seed", type=int, default=17,
                    help="shuffles the row order of the instance")
    ap.add_argument("--rows", type=int, default=None,
                    help="rows to generate (default: the workload's)")
    ap.add_argument("--flags", action="append", type=shlex.split,
                    help="extra search flags, one set per use "
                         "(default: the eight DEFAULT_FLAGS sets)")
    args = ap.parse_args(argv)
    if args.rows is not None and args.rows < 1:
        ap.error(f"--rows must be >= 1, got {args.rows}")
    if not (args.base / "src" / "anonsearch").is_dir():
        ap.error(f"{args.base} has no src/anonsearch")

    sys.path.insert(0, str(PERFBENCH))
    from run import make_instance

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in args.workload or list(workloads):
            spec, shown = workloads[name], name
            if args.rows is not None:
                spec = {**spec, "rows": args.rows}
                shown = f"{name} ({args.rows} rows)"
            data, cfg = make_instance(spec, manifest["data"]["data_seed"],
                                      args.seed, tmp / name)
            for n, extra in enumerate(
                    args.flags or map(shlex.split, DEFAULT_FLAGS)):
                label = f"{shown} [{shlex.join(extra)}]" if extra else shown
                flags = [*spec["flags"], *extra]
                got, errors = [], []
                for side in ("base", "head"):
                    src = (args.base if side == "base" else ROOT) / "src"
                    out = tmp / name / f"{side}{n}"
                    error = solve(src, data, cfg, flags, out)
                    if error:
                        errors.append(f"{side} {error}")
                    got.append(outputs(out))
                if errors:
                    print(f"{label}: FAILED ({'; '.join(errors)})")
                    failed = True
                    continue
                diff = []
                for key in sorted(got[0].keys() | got[1].keys()):
                    where = first_difference(got[0].get(key, MISSING),
                                             got[1].get(key, MISSING))
                    if where:
                        diff.append(f"{key}: {where}")
                if diff:
                    print(f"{label}: DIFFERENT ({'; '.join(diff)})")
                    failed = True
                else:
                    print(f"{label}: same ({', '.join(sorted(got[0]))})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
