import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.constraints import build_constraints
from anonsearch.metrics import make_metric
from anonsearch.partition import is_legal
from anonsearch.search import best_first, mondrian_greedy, search

from conftest import (brute_best, build_space, random_instance,
                      reference_greedy)


def test_greedy_splits_while_it_helps(grid_space):
    metric = make_metric("dm", grid_space)
    cons = build_constraints(grid_space, k=2)
    g = mondrian_greedy(grid_space, metric, cons)
    assert g.feasible
    assert g.steps > 0
    assert is_legal(g.tree)
    assert metric.cost(g.tree.leaf_blocks()) == g.cost
    assert cons.feasible(g.tree.leaf_blocks())
    assert g.cost < 36  # beats publishing the root block


def test_greedy_infeasible_root(grid_space):
    cons = build_constraints(grid_space, k=7)
    g = mondrian_greedy(grid_space, make_metric("dm", grid_space), cons)
    assert not g.feasible
    assert g.tree is None and math.isinf(g.cost) and g.steps == 0


def test_greedy_respects_non_monotone_checks():
    # both halves drift 0.125 away from the global mix, so under t = 0.1
    # the improving split is forbidden and greedy publishes the root
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 2],
         "splits": {"type": "explicit", "values": [1]}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": ["a", "b"]},
    ]}
    rows = [(0.5, v) for v in "aabb"] + [(1.5, v) for v in "abbb"]
    space = build_space(cfg, rows)
    metric = make_metric("dm", space)
    cons = build_constraints(space, t_close=0.1)
    g = mondrian_greedy(space, metric, cons)
    assert g.steps == 0 and g.cost == 64
    loose = mondrian_greedy(space, metric, build_constraints(space,
                                                             t_close=0.2))
    assert loose.steps == 1 and loose.cost == 32


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "vm"]))
def test_greedy_bounded_by_optimum(seed, name):
    rng = random.Random(seed)
    space = random_instance(rng)
    metric = make_metric(name, space)
    cons = build_constraints(space, k=2)
    g = mondrian_greedy(space, metric, cons)
    want = brute_best(space, metric, cons)
    if not g.feasible:
        assert math.isinf(want)
        return
    assert g.cost >= want - 1e-9
    assert is_legal(g.tree)
    assert cons.feasible(g.tree.leaf_blocks())
    for solve in (search, best_first):
        res = solve(space, metric, cons, seed_tree=g.tree)
        assert res.best_cost <= g.cost + 1e-9
        assert res.best_cost == pytest.approx(want, rel=1e-9)


STACKS = {
    "k": dict(k=2),
    "k+l": dict(k=2, l_div=1.3),
    "k+t": dict(k=2, t_close=0.3),
    "eps": dict(eps={"eps": 10, "sigma": 1, "b": 1}),
    "none": dict(),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm"]),
       st.sampled_from(sorted(STACKS)))
def test_greedy_matches_step_loop_reference(seed, name, stack):
    # the per-block descent applies the same moves as the global step
    # loop; its cost is the block sum, which the loop's running sum of
    # deltas could miss in the last ulp under vm
    rng = random.Random(seed)
    space = random_instance(rng)
    metric = make_metric(name, space)
    cons = build_constraints(space, **STACKS[stack])
    g = mondrian_greedy(space, metric, cons)
    want = reference_greedy(space, metric, cons)
    assert (g.feasible, g.steps) == (want.feasible, want.steps)
    if not g.feasible:
        assert g.tree is None and math.isinf(g.cost)
        return
    assert g.tree.root == want.tree.root
    assert g.cost == metric.cost(g.tree.leaf_blocks())
    if name != "vm":
        assert g.cost == want.cost and type(g.cost) is type(want.cost)
