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
from anonsearch.search import (SearchConfig, SearchConfigError, _Searcher,
                               mondrian_greedy, search)
from anonsearch.splits import Move, generate_splits

from conftest import brute_best, build_space, random_instance, random_tree


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
    for bad in ("dfs", "lbcost"):
        with pytest.raises(ValueError):
            SearchConfig(priority=bad)
    for bad in ({"max_queue": 0}, {"max_queue": -5}, {"node_limit": -1},
                {"time_limit": -0.5}, {"time_limit": math.nan}):
        with pytest.raises(SearchConfigError) as info:
            SearchConfig(**bad)
        assert info.value.field == next(iter(bad))
    assert SearchConfig(mode="optimal", alpha=7).alpha == 1.0
    assert SearchConfig(node_limit=0, time_limit=0.0, max_queue=1)


@settings(max_examples=35, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm"]),
       st.integers(1, 3))
def test_search_matches_brute_force(seed, name, k):
    rng = random.Random(seed)
    space = random_instance(rng)
    metric = make_metric(name, space)
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
    metric = make_metric("dm", space)
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
    metric = make_metric("dm", grid_space)
    costs = set()
    for priority in ("lb", "cost"):
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
    res = search(grid_space, make_metric("dm", grid_space), cons)
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
    metric = make_metric("dm", tax_space)

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
    # Every legal move is yielded, in legal_moves order, or counted
    # unscored because the child fails a monotone constraint.
    rng = random.Random(seed)
    while True:   # draw until a taxonomy expansion is a chain of cuts
        space = random_instance(rng, total_splits=rng.randint(3, 6))
        if any(len(m.splits) > 1 for m in space.splits.expansions.values()):
            break
    metric = make_metric(name, space)
    cons = build_constraints(space, k=2, l_div=rng.choice([None, 1.5]))
    searcher = _Searcher(space, metric, cons, SearchConfig())
    stats = searcher.stats
    for i in range(6):
        tree = random_tree(space, rng)
        count_pruned = i % 2 == 0
        generated, pruned = stats.generated, stats.pruned_infeasible
        kids = iter(list(searcher._children(searcher._evaluate(tree),
                                            count_pruned)))
        kid = next(kids, None)
        skipped = 0
        for path, move in legal_moves(tree):
            child = tree.apply_move(path, move)
            ref = searcher._evaluate(child)
            if kid is None or kid[:2] != (path, move):
                assert ref.fail_mono > 0
                skipped += 1
                continue
            _, _, cost, lb, fa, frozen = kid
            kid = next(kids, None)
            want = lower_bound(child, searcher.bctx, searcher.cost_of)
            assert lb == want and type(lb) is type(want)
            # the carried prefix is the pre-order sum of the child's
            # frozen leaves, the very float a walk of its leaves gives
            blocks = child.leaf_blocks()
            prefix = 0.0
            for b in blocks[:len(blocks) - len(child.splittable_leaves())]:
                prefix += searcher.cost_of(b)
            assert frozen == prefix and type(frozen) is float
            assert (fa, 0) == (ref.fail_any, ref.fail_mono)
            assert cost == pytest.approx(ref.cost, rel=1e-12)
        assert kid is None
        assert stats.generated - generated == skipped
        assert stats.pruned_infeasible - pruned == \
            (skipped if count_pruned else 0)


def test_dm_size_floor_is_the_constraints_min_block_size():
    # the dm bound charges the size floor per tuple of any smaller cell; a
    # floor above the smallest block the constraints allow once exceeded a
    # feasible cost and certified a non-optimal partition as optimal
    space = adult_space(3000, sample=(200, 1))
    cons = build_constraints(space, k=5)
    metric = make_metric("dm", space)
    feasible = mondrian_greedy(space, metric, cons)
    assert feasible.feasible
    assert theoretical_bound(metric, space, cons.min_block_size()) == \
        5 * len(space.dataset)
    res = search(space, metric, cons, SearchConfig(node_limit=200))
    assert res.lower_bound <= feasible.cost


def probe_space():
    """A 600-row census-style instance with a coarse grid, on which a
    small queue makes probes dive inside expansions."""
    return adult_space(600, splits={
        "age": {"type": "equi_width", "count": 2},
        "education_num": {"type": "equi_width", "count": 1},
        "hours_per_week": {"type": "equi_width", "count": 1},
        "workclass": {"type": "taxonomy"}})


def test_node_limit_holds_inside_probe_dives(monkeypatch):
    # a small queue forces probes; their dives must stop at the budget
    # like the main loop, so the overshoot stays within one expansion
    space = probe_space()
    fanout = [0]
    children = _Searcher._children

    def counted(self, node, count_pruned):
        # every legal move of the node is generated, scored or not
        tree = node.tree or node.parent.apply_move(node.path, node.move)
        fanout[0] = max(fanout[0], len(legal_moves(tree)))
        return children(self, node, count_pruned)

    monkeypatch.setattr(_Searcher, "_children", counted)
    probed = False
    for limit in range(50, 2000, 37):
        res = search(space, make_metric("cm", space),
                     build_constraints(space, k=20, l_div=2.0),
                     SearchConfig(max_queue=50, node_limit=limit))
        assert res.status == "exhausted"
        assert res.stats.generated <= limit + fanout[0]
        probed |= res.stats.probes > 0
    assert probed


# (metric, max_queue, node_limit) -> (best_cost, lower_bound, generated,
# expanded, pruned_bound, pruned_infeasible, probes, forced_drops), as
# reported by the search that scored every child; skipping the children
# that fail a monotone constraint unscored must not move any of them
PINNED_COUNTS = {
    ("cm", 50, 400): (455, 425.0, 416, 17, 64, 54, 3, 55),
    ("cm", 50, 1500): (455, 425.0, 1506, 59, 92, 236, 14, 341),
    ("cm", 20, 900): (455, 425.0, 913, 21, 68, 66, 11, 102),
    ("cm", 8, 2500): (451, 425.0, 2517, 26, 100, 73, 34, 133),
    ("cm", 100000, 3000): (458, 427.0, 3011, 271, 0, 972, 0, 0),
    ("dm", 50, 400): (45982, 15105.0, 401, 18, 37, 90, 3, 73),
    ("dm", 50, 1500): (35306, 15105.0, 1505, 74, 185, 316, 13, 326),
    ("dm", 20, 900): (43710, 15105.0, 910, 23, 52, 110, 13, 126),
    ("dm", 8, 2500): (29554, 15105.0, 2508, 36, 65, 169, 46, 182),
    ("dm", 100000, 3000): (33198, 15798.0, 3007, 257, 371, 1003, 0, 0),
}


def test_search_counts_are_pinned():
    # probes dive inside expansions and read the generated count there,
    # so where a skipped child is counted moves every later number
    space = probe_space()
    for (name, max_queue, node_limit), want in PINNED_COUNTS.items():
        res = search(space, make_metric(name, space),
                     build_constraints(space, k=20, l_div=2.0),
                     SearchConfig(max_queue=max_queue, node_limit=node_limit))
        s = res.stats
        assert (res.best_cost, res.lower_bound, s.generated, s.expanded,
                s.pruned_bound, s.pruned_infeasible, s.probes,
                s.forced_drops) == want, (name, max_queue, node_limit)


def test_node_budget_reports_exhausted(grid_space):
    metric = make_metric("dm", grid_space)
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
    metric = make_metric("dm", space)
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
    metric = make_metric("dm", grid_space)
    cons = build_constraints(grid_space, k=2)
    bad = grid_space.root_tree().apply_move(
        (), Move((grid_space.splits.by_id[3],)))
    bad = bad.apply_move((1,), Move((grid_space.splits.by_id[5],)))
    with pytest.raises(ValueError, match="not feasible"):
        search(grid_space, metric, cons, seed_tree=bad)
    # same partition, but grown in the non-canonical order
    cons2 = build_constraints(grid_space, k=1)
    noncanon = grid_space.root_tree().apply_move(
        (), Move((grid_space.splits.by_id[2],)))
    noncanon = noncanon.apply_move((0,), Move((grid_space.splits.by_id[1],)))
    with pytest.raises(ValueError, match="canonical"):
        search(grid_space, make_metric("dm", grid_space), cons2,
               seed_tree=noncanon)


def test_seeded_search_never_worse(grid_space):
    metric = make_metric("dm", grid_space)
    cons = build_constraints(grid_space, k=2)
    g = mondrian_greedy(grid_space, metric, cons)
    res = search(grid_space, metric, build_constraints(grid_space, k=2),
                 SearchConfig(node_limit=1), seed_tree=g.tree)
    assert res.best_cost <= g.cost
