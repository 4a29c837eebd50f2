#!/usr/bin/env python3
"""Check that two checkouts write the same search outputs.

    python3 scripts/same_outputs.py BASE_CHECKOUT [--workload NAME ...]
        [--seed N] [--flags "EXTRA_FLAGS" ...]

Writes each perfbench workload's instance with `make_instance` from
`perfbench/run.py` (data seed from `perfbench/manifest.json`, `--seed`
shuffling the row order), then runs `search` on it twice per flag set,
each time in a fresh process: once with BASE_CHECKOUT's `src/` and once
with this checkout's. Each `--flags` value is one flag set, split like a
shell command line and appended to the workload's flags, so it overrides
them; `--flags ""` is the workload's flags alone, the only set when no
`--flags` is given. Write `--flags=--improve` when the set is a single
word starting with `-`. It compares `result.json` without
`stats.elapsed_sec`, `partition.json`, and `progress.csv` without its
`elapsed_ms` column, prints one line per workload and flag set and exits
1 if any output differs or either run fails.
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
    ap.add_argument("--flags", action="append", type=shlex.split,
                    help="extra search flags, one set per use "
                         "(default: none)")
    args = ap.parse_args(argv)
    if not (args.base / "src" / "anonsearch").is_dir():
        ap.error(f"{args.base} has no src/anonsearch")

    sys.path.insert(0, str(PERFBENCH))
    from run import make_instance

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in args.workload or list(workloads):
            spec = workloads[name]
            data, cfg = make_instance(spec, manifest["data"]["data_seed"],
                                      args.seed, tmp / name)
            for n, extra in enumerate(args.flags or [[]]):
                label = f"{name} [{shlex.join(extra)}]" if extra else name
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
                diff = sorted(k for k in got[0].keys() | got[1].keys()
                              if got[0].get(k) != got[1].get(k))
                if diff:
                    print(f"{label}: DIFFERENT ({', '.join(diff)})")
                    failed = True
                else:
                    print(f"{label}: same ({', '.join(sorted(got[0]))})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
