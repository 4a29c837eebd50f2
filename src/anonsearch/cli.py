"""Command line front end.

Subcommands: `search` (certified best-first search), `greedy` (steepest
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
from pathlib import Path

from .constraints import build_constraints
from .dataset import ConfigError, DataError, load_config, load_dataset, \
    sample_dataset
from .enumeration import MULTI_LIMIT, count_partitions, distinct_signatures, \
    enumerate_trees, multi_enumerate
from .metrics import CountedBlock, make_metric, query_error_report, \
    theoretical_bound
from .partition import Space
from .search import SearchConfig, mondrian_greedy, search
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anonsearch",
        description="Optimal and certified-approximate multi-attribute "
                    "generalization for data anonymization.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("search", help="best-first search with certificates")
    _add_input_args(ps)
    _add_metric_args(ps)
    _add_constraint_args(ps)
    ps.add_argument("--mode", default="optimal", choices=["optimal", "approx"])
    ps.add_argument("--alpha", type=float, default=1.0,
                    help="approximation factor for --mode approx")
    ps.add_argument("--priority", default="lb",
                    choices=["lb", "cost", "lbcost"])
    ps.add_argument("--max-queue", type=int, default=100_000)
    ps.add_argument("--time-limit", type=float, default=None,
                    help="seconds; exceeding it returns best effort")
    ps.add_argument("--node-limit", type=int, default=None,
                    help="generated-node budget")
    ps.add_argument("--improve", action="store_true",
                    help="seed the incumbent with the greedy solution")
    ps.add_argument("--out", required=True, help="output directory")

    pg = sub.add_parser("greedy", help="steepest-descent baseline")
    _add_input_args(pg)
    _add_metric_args(pg)
    _add_constraint_args(pg)
    pg.add_argument("--out", required=True)

    pe = sub.add_parser("enumerate-count",
                        help="count reachable partitions exactly once")
    _add_input_args(pe)
    pe.add_argument("--limit", type=int, default=None,
                    help="stop after this many partitions")
    pe.add_argument("--oracle", action="store_true",
                    help="cross-check against orderings-with-duplicates "
                         f"(max {MULTI_LIMIT} splits)")

    pq = sub.add_parser("query", help="count-query error report")
    _add_input_args(pq)
    pq.add_argument("--partition", required=True,
                    help="partition.json from search/greedy")
    pq.add_argument("--queries", required=True,
                    help="JSON list of {attr: range-or-label} queries")
    pq.add_argument("--out", required=True)

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
    splits = generate_splits(schema, ds.rows)
    return Space(ds, splits)


def _build_problem(args, space):
    metric = make_metric(args.metric, space, k=args.k or 1,
                         class_attr=args.class_attr,
                         unit_volume=args.unit_volume)
    eps = None
    if args.eps is not None:
        eps = {"eps": args.eps, "sigma": args.sigma, "b": args.b,
               "delta": args.delta}
    cons = build_constraints(
        space, k=args.k, min_lengths=_parse_min_lengths(args.min_length),
        l_div=args.l, t_close=args.t, eps=eps, sensitive=args.sensitive,
        assume_monotone=tuple(args.assume_monotone))
    return metric, cons


def _constraint_echo(args):
    echo = {}
    if args.k is not None:
        echo["k"] = args.k
    if args.min_length:
        echo["min_length"] = _parse_min_lengths(args.min_length)
    if args.l is not None:
        echo["l"] = args.l
    if args.t is not None:
        echo["t"] = args.t
    if args.eps is not None:
        echo["eps"] = {"eps": args.eps, "sigma": args.sigma, "b": args.b,
                       "delta": args.delta}
    if args.assume_monotone:
        echo["assume_monotone"] = sorted(args.assume_monotone)
    return echo


def _json_safe(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_safe)
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


def _cmd_search(args) -> int:
    space = _load_space(args)
    metric, cons = _build_problem(args, space)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    seed_tree = None
    seed_cost = None
    if args.improve:
        g = mondrian_greedy(space, metric, cons)
        if g.feasible:
            seed_tree = g.tree
            seed_cost = g.cost

    cfg = SearchConfig(mode=args.mode, alpha=args.alpha,
                       priority=args.priority, max_queue=args.max_queue,
                       time_limit=args.time_limit,
                       node_limit=args.node_limit)
    res = search(space, metric, cons, cfg, seed_tree=seed_tree)

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
        "priority": args.priority,
        "constraints": _constraint_echo(args),
        "theoretical_bound": theoretical_bound(metric, space),
        "n_rows": len(space.dataset),
        "n_splits": len(space.splits),
        "n_blocks": len(res.blocks) if res.blocks else 0,
        "seed_cost": seed_cost,
        "stats": {
            "generated": res.stats.generated,
            "expanded": res.stats.expanded,
            "pruned_bound": res.stats.pruned_bound,
            "pruned_infeasible": res.stats.pruned_infeasible,
            "probes": res.stats.probes,
            "forced_drops": res.stats.forced_drops,
            "max_queue_seen": res.stats.max_queue_seen,
            "elapsed_sec": res.stats.elapsed_sec,
        },
    }
    _write_json(out / "result.json", doc)
    _write_progress(out / "progress.csv", res.progress)
    if res.best_tree is not None:
        _write_partition(out / "partition.json", space, res.blocks)
    if res.status == "infeasible":
        print("infeasible instance", file=sys.stderr)
        return 1
    print(f"{res.status}: cost={res.best_cost:g} "
          f"bound={res.lower_bound:g} ratio={res.ratio:g}")
    return 0


def _cmd_greedy(args) -> int:
    space = _load_space(args)
    metric, cons = _build_problem(args, space)
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
        "constraints": _constraint_echo(args),
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


def _cmd_query(args) -> int:
    space = _load_space(args)
    with open(args.partition) as fh:
        part = json.load(fh)
    names = [space.dataset.schema[i].name for i in space.qi]
    blocks = []
    for bd in part["blocks"]:
        extent = tuple(tuple(bd["extent"][n]) for n in names)
        blocks.append(CountedBlock(extent, int(bd["count"])))
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "greedy":
            return _cmd_greedy(args)
        if args.command == "enumerate-count":
            return _cmd_enumerate(args)
        if args.command == "query":
            return _cmd_query(args)
        raise AssertionError(args.command)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
