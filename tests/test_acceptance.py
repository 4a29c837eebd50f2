"""End-to-end acceptance checks for the whole library.

Each test pins one externally meaningful guarantee: the partition-count
law, duplicate-free completeness of the enumerator, the exact worked
instance, optimality and approximation promises of the search, the
monotonicity properties pruning relies on, greedy/seeding dominance,
bound admissibility, count-query estimator accuracy, and a smoke-scale
census-style run. Tolerances: integer metrics are compared exactly,
volume costs at 1e-9 relative.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

from anonsearch.bounds import BoundContext, lower_bound
from anonsearch.constraints import build_constraints
from anonsearch.dataset import load_config, load_dataset
from anonsearch.enumeration import (count_partitions, distinct_signatures,
                                    enumerate_trees, multi_enumerate)
from anonsearch.metrics import (CountedBlock, count_estimate, make_metric,
                                true_count)
from anonsearch.partition import Space, legal_moves
from anonsearch.search import (SearchConfig, best_first, mondrian_greedy,
                               search)
from anonsearch.splits import Move, generate_splits

from conftest import (build_space, random_instance, random_tree,
                      reachable_partitions)

RELTOL = 1e-9
INF = math.inf


# ---- shared instance suite ----

def suite_instances(n=50, seed=4242):
    """Deterministic pool of small mixed instances, each with at least one
    numeric QI so every constraint family applies."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        space = random_instance(rng, total_splits=rng.randint(2, 5),
                                rows_range=(4, 24))
        if numeric_qi_names(space):
            out.append(space)
    return out


def numeric_qi_names(space):
    return [space.dataset.schema[i].name for i in space.qi
            if space.dataset.schema[i].is_numeric]


def constraint_families(space):
    """The three monotone families exercised by the optimality suite."""
    lens = {name: 2.5 for name in numeric_qi_names(space)}
    return {
        "size": build_constraints(space, k=2),
        "diversity": build_constraints(space, l_div=1.2),
        "length": build_constraints(space, min_lengths=lens),
    }


def oracle_optimum(partitions, metric, cons) -> float:
    best = INF
    for blocks in partitions:
        if cons.feasible(blocks):
            best = min(best, metric.cost(blocks))
    return best


def all_partitions(space):
    return [t.leaf_blocks() for t in enumerate_trees(space)]


# ---- 1: one-dimensional partition count law ----

def test_line_space_partition_count_doubles_per_cut():
    for n in range(1, 13):
        cfg = {"attributes": [
            {"name": "x", "kind": "numeric", "role": "qi",
             "domain": [0, n + 1],
             "splits": {"type": "explicit",
                        "values": list(range(1, n + 1))}},
        ]}
        space = build_space(cfg, [(0.5,), (n + 0.5,)])
        t0 = time.monotonic()
        assert count_partitions(space) == 2 ** n
        if n == 12:
            assert time.monotonic() - t0 < 10.0


# ---- 2: duplicate-freeness and completeness ----

def test_enumeration_is_duplicate_free_and_complete():
    rng = random.Random(20260814)
    for i in range(100):
        total = 6 if i % 10 == 0 else rng.randint(2, 5)
        space = random_instance(rng, total_splits=total)
        sigs = [t.signature() for t in enumerate_trees(space)]
        assert len(sigs) == len(set(sigs))
        assert set(sigs) == reachable_partitions(space)
        # the orderings oracle yields 7.5M orderings over these instances,
        # all but 0.1 s of it on those with more than 4 splits
        if len(space.splits) <= 4:
            assert set(sigs) == distinct_signatures(multi_enumerate(space))


# ---- 3: worked instance, exact cost and bound ----

def test_worked_instance_cost_and_bound_are_exact():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
         "splits": {"type": "explicit", "values": [1, 2, 3]}},
        {"name": "y", "kind": "numeric", "role": "qi", "domain": [0, 3],
         "splits": {"type": "explicit", "values": [1, 2]}},
    ]}
    rows = [(0.5, 0.5), (0.5, 1.5), (0.5, 2.5), (0.5, 2.6),
            (1.5, 0.5), (1.5, 1.5), (1.5, 2.5), (1.5, 2.6),
            (2.5, 0.5), (2.5, 0.6), (3.5, 0.5),
            (2.5, 1.5), (3.5, 1.5), (3.5, 1.6), (3.5, 1.7)]
    space = build_space(cfg, rows)
    tree = space.root_tree()
    for path, sid in [((), 1), ((0,), 5), ((1,), 2), ((1, 0), 5),
                      ((1, 1), 4)]:
        tree = tree.apply_move(path, Move((space.splits.by_id[sid],)))
    metric = make_metric("dm", space)
    cons = build_constraints(space, k=2)
    assert metric.cost(tree.leaf_blocks()) == 41
    assert lower_bound(tree, BoundContext(space, metric, cons)) == 33


# ---- 4: optimal mode matches the exhaustive oracle ----

def test_optimal_search_matches_exhaustive_oracle():
    feasible_runs = 0
    for space in suite_instances():
        partitions = all_partitions(space)
        for cons in constraint_families(space).values():
            for name in ("dm", "cm", "vm"):
                metric = make_metric(name, space)
                opt = oracle_optimum(partitions, metric, cons)
                # `search` runs the DP over extents here, with no budget
                for solve in (search, best_first):
                    res = solve(space, metric, cons)
                    if math.isinf(opt):
                        assert res.status == "infeasible"
                        assert math.isinf(res.best_cost)
                        continue
                    feasible_runs += 1
                    assert res.certified and res.status == "optimal"
                    if name == "vm":
                        assert abs(res.best_cost - opt) <= \
                            RELTOL * max(1.0, opt)
                    else:
                        assert res.best_cost == opt
    assert feasible_runs >= 200


# ---- 5: approximation mode keeps its promise ----

def test_alpha_mode_keeps_approximation_promise():
    compared = 0
    for space in suite_instances():
        partitions = all_partitions(space)
        cons = build_constraints(space, k=2)
        for name in ("dm", "cm", "vm"):
            metric = make_metric(name, space)
            opt = oracle_optimum(partitions, metric, cons)
            if math.isinf(opt):
                continue
            for alpha in (1.5, 3.0):
                res = search(space, metric, cons,
                             SearchConfig(mode="approx", alpha=alpha))
                assert res.best_cost <= alpha * opt * (1 + RELTOL)
                assert res.status in ("optimal", "approx")
                compared += 1
    assert compared >= 120


# ---- 6: metric and constraint monotonicity along refinement edges ----

def test_cost_and_feasibility_are_monotone_along_edges():
    rng = random.Random(77)
    edges = 0
    while edges < 10_000:
        space = random_instance(rng, total_splits=rng.randint(2, 5),
                                rows_range=(4, 16))
        metrics = [make_metric(m, space) for m in ("dm", "cm", "vm")]
        families = [build_constraints(space, k=2),
                    build_constraints(space, l_div=1.2)]
        numeric = numeric_qi_names(space)
        if numeric:
            families.append(build_constraints(
                space, min_lengths={n: 2.5 for n in numeric}))
        for _ in range(3):
            tree = space.root_tree()
            blocks = tree.leaf_blocks()
            costs = [m.cost(blocks) for m in metrics]
            feas = [f.feasible(blocks) for f in families]
            while True:
                moves = legal_moves(tree)
                if not moves:
                    break
                path, move = rng.choice(moves)
                tree = tree.apply_move(path, move)
                blocks = tree.leaf_blocks()
                child_costs = [m.cost(blocks) for m in metrics]
                child_feas = [f.feasible(blocks) for f in families]
                for parent_c, child_c in zip(costs, child_costs):
                    assert child_c <= parent_c * (1 + RELTOL) + 1e-12
                for parent_f, child_f in zip(feas, child_feas):
                    if not parent_f:
                        assert not child_f
                edges += 1
                costs, feas = child_costs, child_feas
    assert edges >= 10_000


# ---- 7: greedy never beats optimal; seeding never hurts ----

def test_greedy_bounds_optimal_and_seeding_never_hurts():
    for space in suite_instances():
        partitions = all_partitions(space)
        for cons in constraint_families(space).values():
            for name in ("dm", "cm", "vm"):
                metric = make_metric(name, space)
                opt = oracle_optimum(partitions, metric, cons)
                g = mondrian_greedy(space, metric, cons)
                assert g.feasible == (not math.isinf(opt))
                if not g.feasible:
                    continue
                assert g.cost >= opt * (1 - RELTOL)
                for solve in (search, best_first):
                    imp = solve(space, metric, cons, seed_tree=g.tree)
                    assert imp.best_cost <= g.cost * (1 + RELTOL)


# ---- 8: lower bound admissible for every feasible descendant ----

def test_lower_bound_never_exceeds_feasible_descendants():
    metric_names = ("dm", "cm", "vm")
    for space in suite_instances():
        fams = constraint_families(space)
        metrics = {m: make_metric(m, space) for m in metric_names}
        ctxs = {(m, fam): BoundContext(space, metrics[m], cons)
                for m in metric_names for fam, cons in fams.items()}

        def rec(tree):
            blocks = tree.leaf_blocks()
            costs = {m: metrics[m].cost(blocks) for m in metric_names}
            mins = {}
            for fam, cons in fams.items():
                ok = cons.feasible(blocks)
                for m in metric_names:
                    mins[(m, fam)] = costs[m] if ok else INF
            for path, move in legal_moves(tree):
                child_mins = rec(tree.apply_move(path, move))
                for key, val in child_mins.items():
                    mins[key] = min(mins[key], val)
            for (m, fam), best in mins.items():
                if math.isinf(best):
                    continue
                lb = lower_bound(tree, ctxs[(m, fam)])
                assert lb <= best * (1 + RELTOL) + 1e-12
            return mins

        rec(space.root_tree())


# ---- 9: count-query estimator accuracy ----

def test_count_query_estimator_accuracy():
    # block-aligned queries answer exactly
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
         "splits": {"type": "explicit", "values": [1, 2, 3]}},
        {"name": "y", "kind": "numeric", "role": "qi", "domain": [0, 3],
         "splits": {"type": "explicit", "values": [1, 2]}},
    ]}
    rng = random.Random(5)
    rows = [(rng.randrange(4) + 0.5, rng.randrange(3) + 0.5)
            for _ in range(40)]
    space = build_space(cfg, rows)

    finest = space.root_tree()
    while True:
        moves = legal_moves(finest)
        if not moves:
            break
        finest = finest.apply_move(*moves[0])
    trees = [finest] + [random_tree(space, rng, max_moves=10)
                        for _ in range(20)]

    def union_of_blocks(blocks, query):
        """Every block is either disjoint from the query box or inside it."""
        for b in blocks:
            spans = [(b.extent[pos], bounds)
                     for pos, bounds in query.items()]
            if not all(min(hi, qb) > max(lo, qa)
                       for (lo, hi), (qa, qb) in spans):
                continue
            if not all(qa <= lo and hi <= qb
                       for (lo, hi), (qa, qb) in spans):
                return False
        return True

    aligned = 0
    x_edges, y_edges = [0, 1, 2, 3, 4], [0, 1, 2, 3]
    for tree in trees:
        blocks = tree.leaf_blocks()
        for i, xa in enumerate(x_edges):
            for xb in x_edges[i + 1:]:
                for j, ya in enumerate(y_edges):
                    for yb in y_edges[j + 1:]:
                        query = {0: (xa, xb), 1: (ya, yb)}
                        if not union_of_blocks(blocks, query):
                            continue
                        est = count_estimate(space, blocks, query)
                        assert est == true_count(space, query)
                        aligned += 1
    assert aligned >= 100

    # uniform data: estimates equal the closed-form expectation
    unit_cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 1],
         "splits": {"type": "none"}},
        {"name": "y", "kind": "numeric", "role": "qi", "domain": [0, 1],
         "splits": {"type": "none"}},
    ]}
    unit_space = build_space(unit_cfg, [(0.5, 0.5)])
    cells = [CountedBlock(((i / 4, (i + 1) / 4), (j / 4, (j + 1) / 4)), 5)
             for i in range(4) for j in range(4)]
    done = 0
    while done < 100:
        xa, xb = sorted(rng.uniform(0, 1) for _ in range(2))
        ya, yb = sorted(rng.uniform(0, 1) for _ in range(2))
        if xb - xa < 1e-3 or yb - ya < 1e-3:
            continue
        est = count_estimate(unit_space, cells, {0: (xa, xb), 1: (ya, yb)})
        expect = 80.0 * (xb - xa) * (yb - ya)
        assert abs(est - expect) <= RELTOL * max(1.0, expect)
        done += 1


# ---- 10: smoke-scale census-style run ----

def test_smoke_scale_census_run(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "make_adult_sample.py"
    subprocess.run([sys.executable, str(script), "--rows", "3000",
                    "--seed", "17", "--out-dir", str(tmp_path)],
                   check=True, capture_output=True)
    schema = load_config(str(tmp_path / "config.json"))
    ds = load_dataset(str(tmp_path / "data.csv"), schema)
    space = Space(ds, generate_splits(schema, ds))
    assert len(space.splits) == 20

    metric = make_metric("dm", space)
    cons = build_constraints(space, k=50)
    t0 = time.monotonic()
    g = mondrian_greedy(space, metric, cons)
    assert g.feasible
    res = search(space, metric, cons,
                 SearchConfig(node_limit=1500, time_limit=55.0),
                 seed_tree=g.tree)
    assert time.monotonic() - t0 < 60.0

    assert res.best_tree is not None and math.isfinite(res.best_cost)
    assert res.status in ("optimal", "approx", "exhausted")
    assert res.ratio is not None and res.ratio >= 1.0 - RELTOL
    assert res.lower_bound <= res.best_cost * (1 + RELTOL)
    assert res.best_cost <= g.cost
    blocks = res.best_tree.leaf_blocks()
    assert sum(b.count for b in blocks) == 3000
    assert cons.feasible(blocks)
