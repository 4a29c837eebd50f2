#!/usr/bin/env python3
"""Compare the greedy baseline against certified search on one instance.

Runs greedy first, then best-first search seeded with the greedy solution,
and prints both costs plus the search certificate. Budgets apply to the
search phase only.
"""

import argparse
import time

from anonsearch import (SearchConfig, Space, build_constraints,
                        generate_splits, load_config, load_dataset,
                        make_metric, mondrian_greedy, sample_dataset, search)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--metric", default="dm", choices=["dm", "cm", "vm"])
    ap.add_argument("--k", type=int, default=None)
    ap.add_argument("--l", type=float, default=None)
    ap.add_argument("--sample", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", default="optimal",
                    choices=["optimal", "approx"])
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--priority", default="lb", choices=["lb", "cost"])
    ap.add_argument("--node-limit", type=int, default=None)
    ap.add_argument("--time-limit", type=float, default=None)
    ap.add_argument("--max-queue", type=int, default=100_000)
    args = ap.parse_args()

    schema = load_config(args.config)
    ds = load_dataset(args.dataset, schema)
    if args.sample:
        ds = sample_dataset(ds, args.sample, args.seed)
    space = Space(ds, generate_splits(schema, ds))
    metric = make_metric(args.metric, space)
    cons = build_constraints(space, k=args.k, l_div=args.l)

    t0 = time.monotonic()
    g = mondrian_greedy(space, metric, cons)
    t_greedy = time.monotonic() - t0
    if not g.feasible:
        print("instance infeasible for greedy (root violates a constraint)")
        return

    cfg = SearchConfig(mode=args.mode, alpha=args.alpha,
                       priority=args.priority, max_queue=args.max_queue,
                       time_limit=args.time_limit,
                       node_limit=args.node_limit)
    res = search(space, metric, cons, cfg, seed_tree=g.tree)

    print(f"rows={len(ds)} splits={len(space.splits)} metric={args.metric}")
    print(f"{'':14}{'cost':>14} {'blocks':>8} {'time_s':>9}")
    print(f"{'greedy':14}{g.cost:>14g} {len(g.tree.leaf_blocks()):>8} "
          f"{t_greedy:>9.2f}")
    print(f"{'search':14}{res.best_cost:>14g} "
          f"{len(res.blocks) if res.blocks else 0:>8} "
          f"{res.stats.elapsed_sec:>9.2f}")
    print(f"status={res.status} certified={res.certified} "
          f"bound={res.lower_bound:g} ratio={res.ratio:g}")
    print(f"nodes: generated={res.stats.generated} "
          f"expanded={res.stats.expanded} "
          f"pruned_bound={res.stats.pruned_bound} "
          f"pruned_infeasible={res.stats.pruned_infeasible}")
    if g.cost > 0 and res.best_cost > 0:
        print(f"greedy/search cost ratio: {g.cost / res.best_cost:.4f}")


if __name__ == "__main__":
    main()
