"""The exact DP over block extents (`anonsearch.dp`), run by `search`
when no budget is set: judged by the brute-force and orderings oracles,
and judging the best-first search in turn.

The random instances are drawn from seeded `random.Random` instances,
so each test's data is fixed by its own code."""

import importlib
import inspect
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from anonsearch.bounds import BoundContext
from anonsearch.constraints import build_constraints
from anonsearch.dp import ExtentDP
from anonsearch.enumeration import multi_enumerate
from anonsearch.metrics import make_metric
from anonsearch.partition import Block, canonical_tree, is_legal
from anonsearch.search import (SearchConfig, SearchStats, best_first,
                               mondrian_greedy, search)

from conftest import brute_best, build_space, random_instance

ROOT = Path(__file__).resolve().parents[1]


def numeric_qi(space):
    return [a.name for a in space.qi_schema if a.is_numeric]


# every constraint kind, alone and stacked; none assumed monotone
# against its nature, which prunes feasible partitions by the caller's
# choice
STACKS = {
    "none": lambda space: {},
    "k2": lambda space: dict(k=2),
    "k3": lambda space: dict(k=3),
    "ldiv": lambda space: dict(l_div=1.5),
    "minlen": lambda space: dict(
        min_lengths={name: 2.0 for name in numeric_qi(space)}),
    "tclose": lambda space: dict(t_close=0.45),
    "eps": lambda space: dict(eps={"eps": 4, "sigma": 1, "b": 1}),
    "mix": lambda space: dict(k=2, l_div=1.2, t_close=0.6),
}


def draw_problem(rng, **instance):
    """A random instance, metric and constraint stack, and a greedy seed
    tree or None."""
    space = random_instance(rng, **instance)
    metric = make_metric(rng.choice(["dm", "cm", "vm"]), space)
    cons = build_constraints(space, **STACKS[rng.choice(sorted(STACKS))](
        space))
    seed = None
    if rng.random() < 0.5:
        g = mondrian_greedy(space, metric, cons)
        seed = g.tree if g.feasible else None
    return space, metric, cons, seed


def orderings_optimum(space, metric, cons) -> float:
    """The least feasible cost over every construction order."""
    return min((metric.cost(leaves) for leaves in multi_enumerate(space)
                if cons.feasible(leaves)), default=math.inf)


def test_dp_matches_the_oracles():
    rng = random.Random(2021)
    solved = infeasible = 0
    for _ in range(160):
        # up to 4 splits: one 5-split instance can take the orderings
        # oracle a minute
        space, metric, cons, seed = draw_problem(
            rng, total_splits=rng.randint(2, 4))
        want = brute_best(space, metric, cons)
        assert orderings_optimum(space, metric, cons) == \
            pytest.approx(want, rel=1e-9)
        res = search(space, metric, cons, seed_tree=seed)
        s = res.stats
        assert (s.probes, s.forced_drops, s.max_queue_seen) == (0, 0, 0)
        assert s.generated >= s.expanded
        if math.isinf(want):
            infeasible += 1
            assert res.status == "infeasible" and res.best_tree is None
            assert res.lower_bound == math.inf and res.progress == []
            continue
        solved += 1
        assert res.status == "optimal" and res.certified
        assert res.best_cost == pytest.approx(want, rel=1e-9)
        assert (res.lower_bound, res.ratio, res.alpha_guarantee) == \
            (res.best_cost, 1.0, 1.0)
        # the pre-order sum of the tree's costs, as greedy adds them
        assert res.best_cost == sum(map(metric.block_cost, res.blocks))
        assert is_legal(res.best_tree)
        assert cons.feasible(res.blocks)
        assert res.progress[-1]["best_cost"] == res.best_cost
        for row in res.progress:
            assert row["lower_bound"] <= want * (1 + 1e-9)
        if seed is not None:
            assert res.progress[0]["best_cost"] == \
                sum(map(metric.block_cost, seed.leaf_blocks()))
    assert solved >= 150 and infeasible >= 3


def test_dp_judges_best_first():
    # instances too large for brute force: every certified best-first
    # result is the DP's optimum, and no bound it reports lies above it
    rng = random.Random(1999)
    certified = exhausted = 0
    for _ in range(40):
        space, metric, cons, seed = draw_problem(
            rng, total_splits=rng.randint(6, 9), rows_range=(20, 60))
        opt = search(space, metric, cons).best_cost
        if math.isinf(opt):
            continue
        for limit in (1, 5, 40, 300, 3000):
            cfg = SearchConfig(node_limit=limit,
                               max_queue=rng.choice([4, 100, 100_000]))
            # a discarded draw, where the expansion order was drawn, so
            # the instances that follow stay the same
            rng.choice(["lb", "cost"])
            res = best_first(space, metric, cons, cfg, seed_tree=seed)
            for row in res.progress:
                assert row["lower_bound"] <= opt * (1 + 1e-9), (limit, row)
            assert res.lower_bound <= opt * (1 + 1e-9)
            if math.isfinite(res.best_cost):
                assert res.best_cost >= opt * (1 - 1e-9)
            if res.certified:
                certified += 1
                assert res.best_cost == pytest.approx(opt, rel=1e-9)
            else:
                exhausted += 1
    assert certified >= 50 and exhausted >= 120


def test_dp_counts_memo_misses_once():
    # the root, then the extents of the moves tried: a second solve of
    # the same problem repeats every count
    rng = random.Random(7)
    space = random_instance(rng, total_splits=5)
    metric, cons = make_metric("dm", space), build_constraints(space, k=2)
    a, b = search(space, metric, cons), search(space, metric, cons)
    assert a.stats.generated >= 1
    assert (a.stats.generated, a.stats.expanded, a.stats.pruned_bound,
            a.stats.pruned_infeasible) == \
        (b.stats.generated, b.stats.expanded, b.stats.pruned_bound,
         b.stats.pruned_infeasible)


def test_dp_depth_is_not_bounded_by_the_recursion_limit():
    # one row per unit cell of a 200-cut line: the optimum splits every
    # cut, and the DP goes down one chain of 200 nested extents
    n = 200
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, n + 1],
         "splits": {"type": "explicit", "values": list(range(1, n + 1))}},
    ]}
    space = build_space(cfg, [(i + 0.5,) for i in range(n + 1)])
    ctx = BoundContext(space, make_metric("dm", space),
                       build_constraints(space))
    root = ctx.record(space.root_block)
    stats = SearchStats()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        opt = ExtentDP(ctx, stats).solve(root)
    finally:
        sys.setrecursionlimit(limit)
    assert opt == n + 1 and len(ExtentDP.blocks(root)) == n + 1
    assert stats.generated == n + 1 + n   # the suffixes and the cells


def test_a_600_level_chain_needs_no_recursion():
    # one row per unit cell of a 600-cut line, dm with no constraints:
    # greedy and the DP both split every cut, and laying the 601 blocks
    # out as their canonical tree, checking it and growing a tree by a
    # move all go 600 levels deep
    n = 600
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, n + 1],
         "splits": {"type": "explicit", "values": list(range(1, n + 1))}},
    ]}
    space = build_space(cfg, [(i + 0.5,) for i in range(n + 1)])
    metric, cons = make_metric("dm", space), build_constraints(space)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)   # CPython's default
    try:
        greedy = mondrian_greedy(space, metric, cons)
        assert greedy.cost == n + 1 and is_legal(greedy.tree)
        res = search(space, metric, cons)
        assert (res.status, res.best_cost, len(res.blocks)) == \
            ("optimal", n + 1, n + 1)
        assert is_legal(res.best_tree)
        # the optimum with its last two cells merged, then split again
        # at the deepest leaf
        *cells, a, b = res.blocks
        merged = Block(((n - 1, n + 1),), a.cells + b.cells, 2)
        tree = canonical_tree(space, [*cells, merged])
        (move,) = space.available_moves(merged.extent)
        grown = tree.apply_move((1,) * (n - 1), move)
        assert grown.leaf_blocks() == res.blocks and is_legal(grown)
    finally:
        sys.setrecursionlimit(limit)


def solve_capturing(monkeypatch, *problem):
    """`search(*problem)` with no budget, and the `BoundContext` it made."""
    made = []

    class Captured(BoundContext):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    # the package's `search` is the function; patch the module
    monkeypatch.setattr(importlib.import_module("anonsearch.search"),
                        "BoundContext", Captured)
    res = search(*problem)
    (ctx,) = made
    return res, ctx


def test_dp_keeps_records_not_move_tables(monkeypatch):
    # the DP makes the record of every new block of every move of each
    # extent it expands, and floors those of each move with no block
    # failing a monotone constraint, as the floor-contract guard needs,
    # but opens no best-first move table
    rng = random.Random(22)
    expanded = 0
    for _ in range(80):
        space, metric, cons, seed = draw_problem(
            rng, total_splits=rng.randint(2, 7), rows_range=(6, 30))
        res, ctx = solve_capturing(monkeypatch, space, metric, cons, None,
                                   seed)
        records = ctx._records
        assert all(r.moves is None and r.terms is None
                   for r in records.values())
        seen = 0
        for rec in records.values():
            fails_any, fails_mono = rec.flags
            if (rec.opt is None or fails_mono
                    or not (math.inf if fails_any else rec.cost)
                    > rec.floor):
                continue
            seen += 1
            for move in space.available_moves(rec.block.extent):
                kids = [records.get(b.extent)
                        for b in space.move_blocks(rec.block, move)]
                assert None not in kids
                if not any(k.flags[1] for k in kids):
                    assert all(k.floor is not None for k in kids)
        assert seen == res.stats.expanded
        expanded += seen
    assert expanded >= 100


# the taxo3k instances of perfbench/manifest.json, data seed 17, solved
# with no budget in a fresh process, so that this process imports neither
# the benchmark nor its data generator
PINNED = """
import json, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from make_adult_sample import config_doc, make_rows
from anonsearch.constraints import build_constraints
from anonsearch.dataset import Dataset, load_config
from anonsearch.metrics import make_metric
from anonsearch.partition import Space
from anonsearch.search import search
from anonsearch.splits import generate_splits

splits = {"age": {"type": "equi_width", "count": 2},
          "education_num": {"type": "equi_width", "count": 1},
          "hours_per_week": {"type": "equi_width", "count": 1},
          "workclass": {"type": "taxonomy"}}
doc = config_doc()
for attr in doc["attributes"]:
    if attr["name"] in splits:
        attr["splits"] = splits[attr["name"]]
schema = load_config(doc)
rows = make_rows(3000, random.Random(17))
ds = Dataset(schema, [list(col) for col in zip(*rows)])
space = Space(ds, generate_splits(schema, ds))
out = {}
for name, k in (("dm", 30), ("cm", 20)):
    res = search(space, make_metric(name, space),
                 build_constraints(space, k=k, l_div=2.0))
    out[name] = [res.status, res.best_cost, res.lower_bound,
                 res.stats.generated]
print(json.dumps(out))
"""


def test_taxo3k_optima_are_pinned():
    proc = subprocess.run(
        [sys.executable, "-c", PINNED, str(ROOT / "src"),
         str(ROOT / "scripts")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # taxo3k-exact's pinned optimum, and taxo3k-cm-queue's instance,
    # metric and constraints, which best-first leaves at 2,386
    assert got["dm"][:3] == ["optimal", 313148, 313148]
    assert got["cm"][:3] == ["optimal", 2378, 2378]
