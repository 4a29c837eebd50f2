"""Command line front end.

Subcommands: `search` (certified search: the exact DP over block
extents, or best-first under a budget or in approx mode), `greedy` (steepest
descent baseline, optionally a seed for search via --improve on search),
`enumerate-count` (duplicate-free partition count, with a brute-force
cross-check), and `query` (count-query error report for a stored
partition).

Outputs are written into --out as result.json, partition.json and
progress.csv; everything except timing fields is byte-stable for a given
input and seed. Exit codes: 0 ok, 1 infeasible (or failed cross-check),
2 bad configuration or data.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .constraints import build_constraints
from .dataset import ConfigError, DataError, is_count, is_finite_number, \
    load_config, load_dataset, sample_dataset
from .enumeration import MULTI_LIMIT, count_partitions, distinct_signatures, \
    enumerate_trees, multi_enumerate
from .metrics import CountedBlock, make_metric, query_error_report, \
    theoretical_bound
from .partition import Space
from .search import BoundContext, SearchConfig, SearchConfigError, \
    mondrian_greedy, runs_dp, search
from .splits import generate_splits


def _add_input_args(p):
    p.add_argument("--dataset", required=True, help="CSV data file")
    p.add_argument("--config", required=True,
                   help="JSON schema/split/taxonomy config")
    p.add_argument("--sample", type=int, default=None,
                   help="subsample this many rows before anything else")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampling")


def _add_constraint_args(p):
    p.add_argument("--k", type=int, default=None,
                   help="k-anonymity: nonempty blocks need >= k tuples")
    p.add_argument("--min-length", action="append", default=[],
                   metavar="ATTR=LEN",
                   help="minimum extent length per numeric attribute")
    p.add_argument("--l", type=float, default=None,
                   help="entropy l-diversity threshold")
    p.add_argument("--t", type=float, default=None,
                   help="t-closeness threshold")
    p.add_argument("--eps", type=float, default=None,
                   help="eps-privacy bound (> 1)")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="eps-privacy: attacker-known tuples")
    p.add_argument("--b", type=float, default=0.0,
                   help="eps-privacy: attacker-inserted tuples")
    p.add_argument("--delta", type=float, default=0.0,
                   help="eps-privacy: per-block slack term")
    p.add_argument("--sensitive", default=None,
                   help="sensitive attribute (default: first in schema)")
    p.add_argument("--assume-monotone", action="append", default=[],
                   choices=["t_closeness", "eps_privacy"],
                   help="treat this constraint as monotone for pruning")


def _add_metric_args(p):
    p.add_argument("--metric", default="dm", choices=["dm", "cm", "vm"])
    p.add_argument("--class-attr", default=None,
                   help="class attribute for the cm metric")
    p.add_argument("--unit-volume", type=float, default=None,
                   help="vm metric unit volume (default: smallest cell)")


def _add_search_args(p):
    _add_input_args(p)
    _add_metric_args(p)
    _add_constraint_args(p)
    # the defaults are SearchConfig's, read off its class attributes
    p.add_argument("--mode", default=SearchConfig.mode,
                   choices=["optimal", "approx"])
    p.add_argument("--alpha", type=float, default=SearchConfig.alpha,
                   help="approximation factor for --mode approx")
    p.add_argument("--max-queue", type=int, default=SearchConfig.max_queue,
                   help="best-first queue cap")
    p.add_argument("--time-limit", type=float, default=None,
                   help="seconds; exceeding it returns best effort "
                        "(selects best-first)")
    p.add_argument("--node-limit", type=int, default=None,
                   help="generated-node budget (selects best-first)")
    p.add_argument("--improve", action="store_true",
                   help="seed the incumbent with the greedy solution")
    p.add_argument("--out", required=True, help="output directory")


def _add_greedy_args(p):
    _add_input_args(p)
    _add_metric_args(p)
    _add_constraint_args(p)
    p.add_argument("--out", required=True)


def _add_enumerate_args(p):
    _add_input_args(p)
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many partitions")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against orderings-with-duplicates "
                        f"(max {MULTI_LIMIT} splits)")


def _add_query_args(p):
    _add_input_args(p)
    p.add_argument("--partition", required=True,
                   help="partition.json from search/greedy")
    p.add_argument("--queries", required=True,
                   help="JSON list of {attr: range-or-label} queries")
    p.add_argument("--out", required=True)


# each command's help line and the function that adds its arguments
COMMANDS = {
    "search": ("certified search: the exact DP, or best-first under a "
               "budget or in approx mode", _add_search_args),
    "greedy": ("steepest-descent baseline", _add_greedy_args),
    "enumerate-count": ("count reachable partitions exactly once",
                        _add_enumerate_args),
    "query": ("count-query error report", _add_query_args),
}


def build_parser(command=None):
    """The argument parser. Given a command's name, only that command's
    arguments are added; the others are listed but take none, which
    changes nothing a command line naming that command can show."""
    parser = argparse.ArgumentParser(
        prog="anonsearch",
        description="Optimal and certified-approximate multi-attribute "
                    "generalization for data anonymization.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_args) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            add_args(p)
    return parser


def _parse_min_lengths(items):
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--min-length expects ATTR=LEN, got {item!r}")
        name, _, val = item.partition("=")
        try:
            out[name.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"--min-length {item!r}: bad number") from None
    return out


def _load_space(args):
    schema = load_config(args.config)
    ds = load_dataset(args.dataset, schema)
    if args.sample is not None:
        ds = sample_dataset(ds, args.sample, args.seed)
    splits = generate_splits(schema, ds)
    return Space(ds, splits)


def _build_problem(args, space):
    """The metric and constraints the flags ask for, and the echo of the
    constraint flags given, as `result.json` records them."""
    metric = make_metric(args.metric, space, class_attr=args.class_attr,
                         unit_volume=args.unit_volume)
    echo = {
        "k": args.k,
        "min_length": _parse_min_lengths(args.min_length) or None,
        "l": args.l,
        "t": args.t,
        "eps": None if args.eps is None else {
            "eps": args.eps, "sigma": args.sigma, "b": args.b,
            "delta": args.delta},
        "assume_monotone": sorted(args.assume_monotone) or None,
    }
    echo = {key: value for key, value in echo.items() if value is not None}
    cons = build_constraints(
        space, k=args.k, min_lengths=echo.get("min_length"), l_div=args.l,
        t_close=args.t, eps=echo.get("eps"), sensitive=args.sensitive,
        assume_monotone=tuple(args.assume_monotone))
    return metric, cons, echo


def _json_safe(doc):
    """Spell each non-finite float in `doc`, a dict or list, and in the
    dicts and lists it holds "inf", "-inf" or "nan", in place (a copy of
    a partition would raise the peak memory): JSON has no such numbers."""
    for key, x in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(x, float) and not math.isfinite(x):
            doc[key] = "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
        elif isinstance(x, (dict, list)):
            _json_safe(x)


def _write_json(path, doc):
    _json_safe(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _block_doc(space, block):
    extent = {}
    labels = {}
    for qi_pos, attr_idx in enumerate(space.qi):
        attr = space.dataset.schema[attr_idx]
        lo, hi = block.extent[qi_pos]
        extent[attr.name] = [lo, hi]
        if not attr.is_numeric:
            node = attr.taxonomy.range_node((lo, hi))
            if node is not None:
                labels[attr.name] = node.label
    doc = {"count": block.count, "extent": extent}
    if labels:
        doc["labels"] = labels
    return doc


def _write_partition(path, space, blocks):
    docs = sorted((_block_doc(space, b) for b in blocks),
                  key=lambda d: json.dumps(d["extent"], sort_keys=True))
    _write_json(path, {"blocks": docs})


def _write_progress(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["elapsed_ms", "best_cost", "lower_bound", "ratio",
                    "queue"])
        for r in rows:
            w.writerow([f"{r['elapsed_ms']:.3f}", r["best_cost"],
                        r["lower_bound"], r["ratio"], r["queue"]])


def _finite_or_none(x):
    return x if x is not None and math.isfinite(x) else None


def _search_config(args) -> SearchConfig:
    try:
        return SearchConfig(mode=args.mode, alpha=args.alpha,
                            max_queue=args.max_queue,
                            time_limit=args.time_limit,
                            node_limit=args.node_limit)
    except SearchConfigError as exc:
        flag = "--" + exc.field.replace("_", "-")
        raise ConfigError(f"{flag} {exc.reason}") from None


def _cmd_search(args) -> int:
    cfg = _search_config(args)  # before any data is read
    space = _load_space(args)
    metric, cons, echo = _build_problem(args, space)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # greedy runs in the context the DP then reads; best-first gets a
    # new one, so greedy's records do not stay alive through its search
    ctx = BoundContext(space, metric, cons) if runs_dp(cfg) else None
    seed_tree = None
    seed_cost = None
    if args.improve:
        g = mondrian_greedy(space, metric, cons, ctx)
        if g.feasible:
            seed_tree = g.tree
            seed_cost = g.cost

    res = search(space, metric, cons, cfg, seed_tree=seed_tree, ctx=ctx)

    doc = {
        "command": "search",
        "status": res.status,
        "best_cost": _finite_or_none(res.best_cost),
        "lower_bound": res.lower_bound,
        "ratio": res.ratio,
        "certified": res.certified,
        "alpha_guarantee": res.alpha_guarantee,
        "metric": args.metric,
        "mode": args.mode,
        "alpha": cfg.alpha,
        "constraints": echo,
        "theoretical_bound": theoretical_bound(metric, space,
                                               cons.min_block_size()),
        "n_rows": len(space.dataset),
        "n_splits": len(space.splits),
        "n_blocks": len(res.blocks) if res.blocks else 0,
        "seed_cost": seed_cost,
        "stats": asdict(res.stats),
    }
    _write_json(out / "result.json", doc)
    _write_progress(out / "progress.csv", res.progress)
    if res.best_tree is not None:
        _write_partition(out / "partition.json", space, res.blocks)
    if res.status == "infeasible":
        print("infeasible instance", file=sys.stderr)
        return 1
    # a search stopped before any incumbent has no ratio
    ratio = "" if res.ratio is None else f" ratio={res.ratio:g}"
    print(f"{res.status}: cost={res.best_cost:g} "
          f"bound={res.lower_bound:g}{ratio}")
    return 0


def _cmd_greedy(args) -> int:
    space = _load_space(args)
    metric, cons, echo = _build_problem(args, space)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g = mondrian_greedy(space, metric, cons)
    doc = {
        "command": "greedy",
        "status": "feasible" if g.feasible else "infeasible",
        "best_cost": _finite_or_none(g.cost),
        "certified": False,
        "steps": g.steps,
        "metric": args.metric,
        "constraints": echo,
        "n_rows": len(space.dataset),
        "n_splits": len(space.splits),
        "n_blocks": len(g.tree.leaf_blocks()) if g.tree else 0,
    }
    _write_json(out / "result.json", doc)
    if g.tree is not None:
        _write_partition(out / "partition.json", space, g.tree.leaf_blocks())
    if not g.feasible:
        print("infeasible instance", file=sys.stderr)
        return 1
    print(f"greedy: cost={g.cost:g} blocks={doc['n_blocks']}")
    return 0


def _cmd_enumerate(args) -> int:
    space = _load_space(args)
    if args.oracle:
        if len(space.splits) > MULTI_LIMIT:
            raise ConfigError(f"--oracle needs <= {MULTI_LIMIT} splits, "
                              f"instance has {len(space.splits)}")
        sigs = [t.signature() for t in enumerate_trees(space)]
        unique = len(set(sigs))
        oracle = len(distinct_signatures(multi_enumerate(space)))
        ok = unique == len(sigs) == oracle
        print(f"partitions: {len(sigs)}")
        print(f"distinct: {unique}  oracle: {oracle}  "
              f"{'MATCH' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    count = count_partitions(space, limit=args.limit)
    print(f"partitions: {count}")
    return 0


def _counted_blocks(part, names):
    """The blocks of a loaded partition.json, each checked for a count
    and a [lo, hi] range per QI attribute in `names`."""
    if not isinstance(part, dict) or not isinstance(part.get("blocks"), list):
        raise ConfigError('partition file must hold an object with a '
                          '"blocks" list')
    blocks = []
    for i, bd in enumerate(part["blocks"]):
        where = f"blocks[{i}]"
        if not isinstance(bd, dict):
            raise ConfigError(f"{where}: expected an object")
        for key in ("extent", "count"):
            if key not in bd:
                raise ConfigError(f'{where}: missing "{key}"')
        if not isinstance(bd["extent"], dict):
            raise ConfigError(f'{where}: "extent" must be an object')
        extent = []
        for n in names:
            rng = bd["extent"].get(n)
            if not (isinstance(rng, list) and len(rng) == 2
                    and all(map(is_finite_number, rng))):
                raise ConfigError(f"{where}: extent of {n!r} must be [lo, hi]")
            extent.append(tuple(rng))
        if not is_count(bd["count"]):
            raise ConfigError(f'{where}: "count" must be a number, whole '
                              'and >= 0')
        blocks.append(CountedBlock(tuple(extent), int(bd["count"])))
    return blocks


def _cmd_query(args) -> int:
    space = _load_space(args)
    with open(args.partition) as fh:
        part = json.load(fh)
    names = [space.dataset.schema[i].name for i in space.qi]
    blocks = _counted_blocks(part, names)
    with open(args.queries) as fh:
        queries = json.load(fh)
    if not isinstance(queries, list):
        raise ConfigError("queries file must hold a JSON list")
    report = query_error_report(space, blocks, queries)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "query_report.json", report)
    with open(out / "query_report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["query", "estimate", "true", "abs_error", "rel_error"])
        for r in report["rows"]:
            w.writerow([r["query"], r["estimate"], r["true"],
                        r["abs_error"], r["rel_error"]])
    s = report["summary"]
    print(f"queries: {s['queries']}  mean_rel_error: "
          f"{s['mean_rel_error']:.6g}  max_rel_error: {s['max_rel_error']:.6g}")
    return 0


def _check_counts(args):
    """Reject a non-positive --k, --sample or --limit before any data is
    read."""
    for name in ("k", "sample", "limit"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{name} must be >= 1, got {value}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_counts(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "greedy":
            return _cmd_greedy(args)
        if args.command == "enumerate-count":
            return _cmd_enumerate(args)
        if args.command == "query":
            return _cmd_query(args)
        raise AssertionError(args.command)
    except (ConfigError, DataError, OSError) as exc:
        # OSError: a path that is missing, a directory or not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
