import importlib
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonsearch.bounds import lower_bound
from anonsearch.constraints import build_constraints
from anonsearch.dataset import Dataset, load_config, sample_dataset
from anonsearch.metrics import make_metric, theoretical_bound
from anonsearch.partition import Space, is_legal, legal_moves
from anonsearch.search import (SearchConfig, _Searcher, improve_from_seed,
                               mondrian_greedy, search)
from anonsearch.splits import Move, generate_splits

from conftest import brute_best, build_space, random_instance, random_tree

# the package re-exports a function named `search`; fetch the module
search_mod = importlib.import_module("anonsearch.search")


def adult_space(n_rows, sample=None, splits=None):
    """The generated census-style instance of scripts/make_adult_sample.py
    (data seed 17), optionally with split overrides and a row sample."""
    scripts = str(Path(__file__).resolve().parents[1] / "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    from make_adult_sample import config_doc, make_rows
    doc = config_doc()
    for attr in doc["attributes"]:
        if splits and attr["name"] in splits:
            attr["splits"] = splits[attr["name"]]
    schema = load_config(doc)
    ds = Dataset(schema, make_rows(n_rows, random.Random(17)))
    if sample is not None:
        ds = sample_dataset(ds, *sample)
    return Space(ds, generate_splits(schema, ds.rows))


def eps_space():
    """Root violates the attacker-ratio bound, both halves satisfy it."""
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 2],
         "splits": {"type": "explicit", "values": [1]}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": ["a", "b", "c", "d"]},
    ]}
    rows = [(0.5, v) for v in "abcd"] + [(1.5, v) for v in "abcd"]
    return build_space(cfg, rows)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="best")
    with pytest.raises(ValueError):
        SearchConfig(mode="approx", alpha=0.5)
    with pytest.raises(ValueError):
        SearchConfig(priority="dfs")
    assert SearchConfig(mode="optimal", alpha=7).alpha == 1.0


@settings(max_examples=35, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm"]),
       st.integers(1, 3))
def test_search_matches_brute_force(seed, name, k):
    rng = random.Random(seed)
    space = random_instance(rng)
    metric = make_metric(name, space, k=k)
    cons = build_constraints(space, k=k)
    want = brute_best(space, metric, cons)
    res = search(space, metric, cons)
    if math.isinf(want):
        assert res.status == "infeasible" and res.best_tree is None
        return
    assert res.status == "optimal" and res.certified
    assert res.best_cost == pytest.approx(want, rel=1e-9)
    assert res.ratio == 1.0
    assert cons.feasible(res.blocks)
    assert is_legal(res.best_tree)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["ldiv", "minlen", "tclose", "mix"]))
def test_search_matches_brute_force_other_constraints(seed, which):
    rng = random.Random(seed)
    space = random_instance(rng)
    kw = {
        "ldiv": dict(l_div=1.5),
        "minlen": dict(min_lengths={a.name: 2.0 for a in space.dataset.schema
                                    if a.role == "qi" and a.is_numeric}),
        "tclose": dict(t_close=0.45),
        "mix": dict(k=2, l_div=1.2, t_close=0.6),
    }[which]
    cons = build_constraints(space, **kw)
    metric = make_metric("dm", space)
    want = brute_best(space, metric, cons)
    res = search(space, metric, cons)
    if math.isinf(want):
        assert res.status == "infeasible"
    else:
        assert res.status == "optimal"
        assert res.best_cost == pytest.approx(want, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1.5, 3.0]))
def test_alpha_keeps_its_promise(seed, alpha):
    rng = random.Random(seed)
    space = random_instance(rng)
    metric = make_metric("dm", space, k=2)
    cons = build_constraints(space, k=2)
    exact = search(space, metric, cons)
    if exact.status == "infeasible":
        return
    res = search(space, metric, cons,
                 SearchConfig(mode="approx", alpha=alpha))
    assert res.status in ("optimal", "approx")
    assert res.certified
    assert res.best_cost <= alpha * exact.best_cost + 1e-9
    assert res.alpha_guarantee in (1.0, alpha)
    if res.ratio is not None:
        assert res.ratio <= alpha + 1e-9


def test_priorities_agree(grid_space):
    metric = make_metric("dm", grid_space, k=2)
    costs = set()
    for priority in ("lb", "cost", "lbcost"):
        cons = build_constraints(grid_space, k=2)
        res = search(grid_space, metric, cons, SearchConfig(priority=priority))
        assert res.status == "optimal"
        costs.add(res.best_cost)
    assert len(costs) == 1


def test_early_exit_when_root_is_provably_best():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
         "splits": {"type": "none"}},
    ]}
    space = build_space(cfg, [(1.0,), (2.0,)])
    res = search(space, make_metric("dm", space), build_constraints(space))
    assert res.status == "optimal"
    assert res.stats.expanded == 0
    assert res.best_cost == 4


def test_infeasible_when_k_exceeds_rows(grid_space):
    cons = build_constraints(grid_space, k=7)  # only 6 rows
    res = search(grid_space, make_metric("dm", grid_space, k=7), cons)
    assert res.status == "infeasible"
    assert res.best_tree is None and res.ratio is None
    assert not res.certified


def test_search_crosses_an_infeasible_root():
    # the root violates only the non-monotone attacker bound, so the
    # search must expand it rather than give up
    space = eps_space()
    eps = {"eps": 2.45, "sigma": 0, "b": 2}
    cons = build_constraints(space, eps=eps)
    assert not cons.block_ok(space.root_block)
    metric = make_metric("dm", space)
    res = search(space, metric, cons)
    assert res.status == "optimal"
    assert res.best_cost == 32  # two blocks of four
    assert brute_best(space, metric, cons) == 32


def test_monotone_assumption_changes_pruning_not_result():
    space = eps_space()
    kw = dict(eps={"eps": 2.45, "sigma": 0, "b": 2})
    plain = search(space, make_metric("dm", space),
                   build_constraints(space, **kw))
    assumed = search(space, make_metric("dm", space),
                     build_constraints(space, assume_monotone=("eps_privacy",),
                                       **kw))
    # here the assumption is wrong at the root, so the search never starts
    assert plain.status == "optimal"
    assert assumed.status == "infeasible"


def test_deterministic_reruns(tax_space):
    metric = make_metric("dm", tax_space, k=2)

    def go():
        cons = build_constraints(tax_space, k=2)
        return search(tax_space, metric, cons)

    a, b = go(), go()
    assert a.best_cost == b.best_cost
    assert a.best_tree.signature() == b.best_tree.signature()
    assert (a.stats.generated, a.stats.expanded, a.stats.pruned_bound) == \
        (b.stats.generated, b.stats.expanded, b.stats.pruned_bound)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm"]))
@example(33, "vm")
@example(72, "vm")
@example(380, "vm")
def test_children_match_legal_moves_and_reference_bound(seed, name):
    # children are scored from the parent's frontier without a tree; the
    # bound must be the very float lower_bound gives on the child's tree.
    # The vm examples are instances where adding the frontier suffix in
    # another order (e.g. a precomputed suffix sum) changes the last ulp.
    rng = random.Random(seed)
    while True:   # draw until a taxonomy expansion is a chain of cuts
        space = random_instance(rng, total_splits=rng.randint(3, 6))
        if any(len(m.splits) > 1 for m in space.splits.expansions.values()):
            break
    metric = make_metric(name, space, k=2)
    cons = build_constraints(space, k=2, l_div=rng.choice([None, 1.5]))
    searcher = _Searcher(space, metric, cons, SearchConfig())
    for _ in range(6):
        tree = random_tree(space, rng)
        kids = list(searcher._children(searcher._evaluate(tree)))
        assert [(p, m) for p, m, *_ in kids] == legal_moves(tree)
        for path, move, cost, lb, fa, fm in kids:
            child = tree.apply_move(path, move)
            want = lower_bound(child, searcher.bctx, searcher.cost_of)
            assert lb == want and type(lb) is type(want)
            ref = searcher._evaluate(child)
            assert (fa, fm) == (ref.fail_any, ref.fail_mono)
            assert cost == pytest.approx(ref.cost, rel=1e-12)


def test_metric_k_above_constraint_floor_is_refused():
    # the dm bound charges k per tuple of any smaller cell; with metric
    # k=40 over blocks that may hold 5 rows it exceeded a feasible cost
    # and certified a non-optimal partition as optimal
    space = adult_space(3000, sample=(200, 1))
    cons = build_constraints(space, k=5)
    loose = make_metric("dm", space, k=40)
    feasible = mondrian_greedy(space, loose, cons)
    assert feasible.feasible
    assert feasible.cost < theoretical_bound(loose, space)
    with pytest.raises(ValueError, match="smallest block size"):
        search(space, loose, cons)
    res = search(space, make_metric("dm", space, k=5), cons,
                 SearchConfig(node_limit=200))
    assert res.lower_bound <= feasible.cost


def test_node_limit_holds_inside_probe_dives(monkeypatch):
    # a small queue forces probes; their dives must stop at the budget
    # like the main loop, so the overshoot stays within one expansion
    space = adult_space(600, splits={
        "age": {"type": "equi_width", "count": 2},
        "education_num": {"type": "equi_width", "count": 1},
        "hours_per_week": {"type": "equi_width", "count": 1},
        "workclass": {"type": "taxonomy"}})
    fanout = [0]

    def counted(tree, leaves=None):
        moves = legal_moves(tree, leaves)
        fanout[0] = max(fanout[0], len(moves))
        return moves

    monkeypatch.setattr(search_mod, "legal_moves", counted)
    probed = False
    for limit in range(50, 2000, 37):
        res = search(space, make_metric("cm", space),
                     build_constraints(space, k=20, l_div=2.0),
                     SearchConfig(max_queue=50, node_limit=limit))
        assert res.status == "exhausted"
        assert res.stats.generated <= limit + fanout[0]
        probed |= res.stats.probes > 0
    assert probed


def test_node_budget_reports_exhausted(grid_space):
    metric = make_metric("dm", grid_space, k=1)
    cons = build_constraints(grid_space, k=1)
    res = search(grid_space, metric, cons, SearchConfig(node_limit=3))
    assert res.status == "exhausted"
    assert not res.certified
    assert math.isfinite(res.best_cost)
    assert res.ratio >= 1.0
    want = brute_best(grid_space, metric, build_constraints(grid_space, k=1))
    assert res.lower_bound <= want + 1e-9
    assert res.best_cost >= want


def test_time_budget_reports_exhausted(grid_space):
    metric = make_metric("dm", grid_space)
    cons = build_constraints(grid_space, k=1)
    res = search(grid_space, metric, cons, SearchConfig(time_limit=0.0))
    assert res.status == "exhausted"


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_tiny_queue_stays_sound(seed):
    rng = random.Random(seed)
    space = random_instance(rng, total_splits=rng.randint(3, 5))
    metric = make_metric("dm", space, k=2)
    cons = build_constraints(space, k=2)
    want = brute_best(space, metric, cons)
    res = search(space, metric, cons, SearchConfig(max_queue=2))
    if math.isinf(want):
        assert res.status == "infeasible"
        return
    if res.certified:
        assert res.best_cost == pytest.approx(want, rel=1e-9)
    else:
        assert res.best_cost >= want - 1e-9
        assert res.lower_bound <= want + 1e-9
    if res.stats.probes:
        assert res.stats.max_queue_seen <= 2


def test_seed_must_be_feasible_and_canonical(grid_space):
    metric = make_metric("dm", grid_space, k=2)
    cons = build_constraints(grid_space, k=2)
    bad = grid_space.root_tree().apply_move(
        (), Move((grid_space.splits.by_id[3],)))
    bad = bad.apply_move((1,), Move((grid_space.splits.by_id[5],)))
    with pytest.raises(ValueError, match="not feasible"):
        improve_from_seed(grid_space, metric, cons, bad)
    # same partition, but grown in the non-canonical order
    cons2 = build_constraints(grid_space, k=1)
    noncanon = grid_space.root_tree().apply_move(
        (), Move((grid_space.splits.by_id[2],)))
    noncanon = noncanon.apply_move((0,), Move((grid_space.splits.by_id[1],)))
    with pytest.raises(ValueError, match="canonical"):
        improve_from_seed(grid_space, make_metric("dm", grid_space), cons2,
                          noncanon)


def test_improve_from_seed_never_worse(grid_space):
    metric = make_metric("dm", grid_space, k=2)
    cons = build_constraints(grid_space, k=2)
    g = mondrian_greedy(grid_space, metric, cons)
    res = improve_from_seed(grid_space, metric,
                            build_constraints(grid_space, k=2), g.tree,
                            SearchConfig(node_limit=1))
    assert res.best_cost <= g.cost
