"""Run one `anonsearch search` in this process and write a timing report.

    python3 perfbench/solve.py REPORT.json [--trace | --setup-only] -- ARGS...

ARGS go to `anonsearch.cli.main` unchanged. The phases are timed by
wrapping the `mondrian_greedy` and `search` names that the cli module
calls: set-up is everything from entering `main()` until greedy starts.
`--trace` also wraps every measured layer (see spans.py).
`--setup-only` ends the run where greedy would start and reports only
the set-up time. The package is imported from the checkout's `src/`.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, install_layers

ROOT = Path(__file__).resolve().parent.parent


def load_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cli = importlib.import_module("anonsearch.cli")
    if Path(cli.__file__).resolve().parent != (src / "anonsearch").resolve():
        raise SystemExit(f"anonsearch imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it was exec'd.

    VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent
    across fork and exec, so it would report the memory of the parent
    benchmark process whenever that is the larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class SetUpDone(Exception):
    """Raised where greedy would start, to end a set-up-only run."""


def run(argv, trace=False, setup_only=False) -> dict:
    cli = load_cli()
    tracer = None
    if trace:
        tracer = Tracer()
        install_layers(tracer)
    marks: dict = {}

    def phase(name, fn):
        def timed(*args, **kwargs):
            marks[name + "_in"] = perf_counter()
            if tracer is not None:
                tracer.open_phase(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                if tracer is not None:
                    tracer.close_phase()
                marks[name + "_out"] = perf_counter()
            if tracer is not None:
                if name == "greedy":
                    tracer.add("greedy.steps", value.steps)
                else:
                    tracer.open_phase("output")
            return value
        return timed

    def stop(*args, **kwargs):
        marks["greedy_in"] = perf_counter()
        raise SetUpDone

    if setup_only:
        cli.mondrian_greedy = stop
    else:
        cli.mondrian_greedy = phase("greedy", cli.mondrian_greedy)
        cli.search = phase("search", cli.search)

    if tracer is not None:
        tracer.open_phase("setup")
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except SetUpDone:
        rc = 0
    t1 = perf_counter()
    if tracer is not None:
        tracer.close_phase()

    first = min(marks.get("greedy_in", t1), marks.get("search_in", t1))
    if setup_only:
        report = {"rc": rc}
        if "greedy_in" in marks:
            report["setup_s"] = marks["greedy_in"] - t0
        return report
    report = {
        "rc": rc,
        "solve_s": t1 - t0,
        "setup_s": first - t0,
        "peak_rss_mb": peak_rss_mb(),
    }
    for name in ("greedy", "search"):
        if name + "_in" in marks:
            report[name + "_s"] = marks[name + "_out"] - marks[name + "_in"]
    if tracer is not None:
        report["spans"] = tracer.table()
        report["counts"] = tracer.counts
    return report


def main():
    opts, argv = sys.argv[1:], []
    if "--" in opts:
        split = opts.index("--")
        opts, argv = opts[:split], opts[split + 1:]
    if len(opts) not in (1, 2) or opts[1:] not in ([], ["--trace"],
                                                   ["--setup-only"]):
        raise SystemExit(__doc__)
    report = run(argv, trace=opts[1:] == ["--trace"],
                 setup_only=opts[1:] == ["--setup-only"])
    with open(opts[0], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
