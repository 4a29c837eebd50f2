import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.constraints import build_constraints
from anonsearch.metrics import make_metric
from anonsearch.partition import is_legal
from anonsearch.search import mondrian_greedy, search

from conftest import brute_best, build_space, random_instance


def test_greedy_splits_while_it_helps(grid_space):
    metric = make_metric("dm", grid_space)
    cons = build_constraints(grid_space, k=2)
    g = mondrian_greedy(grid_space, metric, cons)
    assert g.feasible and not g.certified
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
    res = search(space, metric, cons, seed_tree=g.tree)
    assert res.best_cost <= g.cost + 1e-9
    assert res.best_cost == pytest.approx(want, rel=1e-9)
