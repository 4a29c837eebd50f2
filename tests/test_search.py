import gc
import heapq
import importlib
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonsearch.bounds import BoundContext, frontier, lower_bound
from anonsearch.constraints import build_constraints
from anonsearch.dataset import load_config, sample_dataset
from anonsearch.metrics import Metric, make_metric, theoretical_bound
from anonsearch.frontiers import HEAD
from anonsearch.partition import (Leaf, PartitionTree, Space, is_legal,
                                  legal_ids, legal_moves)
from anonsearch.search import (SearchConfig, SearchConfigError, _grow,
                               _Searcher, best_first, mondrian_greedy,
                               search)
from anonsearch.splits import Move, generate_splits

from conftest import (brute_best, build_space, random_instance, random_tree,
                      rows_dataset)

# the package re-exports a function named `search`; this is the module
search_module = importlib.import_module("anonsearch.search")

# `search` with no budget runs the DP over extents; `best_first` always
# runs the best-first search
ENGINES = (search, best_first)


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
    ds = rows_dataset(schema, make_rows(n_rows, random.Random(17)))
    if sample is not None:
        ds = sample_dataset(ds, *sample)
    return Space(ds, generate_splits(schema, ds))


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
        SearchConfig(mode="approx", alpha=0.5)
    for bad in ({"mode": "best"}, {"max_queue": 0}, {"max_queue": -5}, {"node_limit": -1},
                {"time_limit": -0.5}, {"time_limit": math.nan}):
        with pytest.raises(SearchConfigError) as info:
            SearchConfig(**bad)
        assert info.value.field == next(iter(bad))
    assert SearchConfig(mode="optimal", alpha=7).alpha == 1.0
    assert SearchConfig(node_limit=0, time_limit=0.0, max_queue=1)


@settings(max_examples=35, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm", "frac"]),
       st.integers(1, 3))
@example(0, "frac", 1)
def test_search_matches_brute_force(seed, name, k):
    # "frac" is a Metric subclass with a name of its own: the search
    # reads its bounds off its nodes alone, so it takes any metric
    rng = random.Random(seed)
    space = random_instance(rng)
    metric = (FractionalMetric() if name == "frac"
              else make_metric(name, space))
    cons = build_constraints(space, k=k)
    want = brute_best(space, metric, cons)
    for solve in ENGINES:
        res = solve(space, metric, cons)
        if math.isinf(want):
            assert res.status == "infeasible" and res.best_tree is None
            continue
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
    for solve in ENGINES:
        res = solve(space, metric, cons)
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


def test_early_exit_when_root_is_provably_best():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
         "splits": {"type": "none"}},
    ]}
    space = build_space(cfg, [(1.0,), (2.0,)])
    for solve in ENGINES:
        res = solve(space, make_metric("dm", space), build_constraints(space))
        assert res.status == "optimal"
        assert res.stats.expanded == 0
        assert res.best_cost == 4


def test_infeasible_when_k_exceeds_rows(grid_space):
    cons = build_constraints(grid_space, k=7)  # only 6 rows
    for solve in ENGINES:
        res = solve(grid_space, make_metric("dm", grid_space), cons)
        assert res.status == "infeasible"
        assert res.best_tree is None and res.ratio is None
        assert not res.certified
        # no feasible partition: the least cost over none is inf
        assert res.lower_bound == math.inf and res.progress == []


def test_search_crosses_an_infeasible_root():
    # the root violates only the non-monotone attacker bound, so the
    # search must expand it rather than give up
    space = eps_space()
    eps = {"eps": 2.45, "sigma": 0, "b": 2}
    cons = build_constraints(space, eps=eps)
    assert not cons.block_ok(space.root_block)
    metric = make_metric("dm", space)
    for solve in ENGINES:
        res = solve(space, metric, cons)
        assert res.status == "optimal"
        assert res.best_cost == 32  # two blocks of four
    assert brute_best(space, metric, cons) == 32


def test_budget_before_any_incumbent_is_exhausted_not_infeasible():
    # the root fails only the non-monotone attacker bound and the budget
    # stops the search before any partition is offered: nothing is
    # proved, so the search is exhausted, with the bound of the node it
    # left queued, not infeasible
    space = eps_space()
    cons = build_constraints(space, eps={"eps": 2.45, "sigma": 0, "b": 2})
    res = search(space, make_metric("dm", space), cons,
                 SearchConfig(node_limit=1))
    assert res.status == "exhausted"
    assert res.best_tree is None and res.best_cost == math.inf
    assert not res.certified
    assert res.ratio is None and res.alpha_guarantee is None
    assert res.lower_bound == 32   # the root's, the optimum here
    # nor does a drained search whose queue dropped nodes unexpanded
    searcher = _Searcher(space, make_metric("dm", space), cons,
                         SearchConfig())
    searcher.stats.forced_drops = 1
    assert searcher._finish(drained=True).status == "exhausted"


def test_monotone_assumption_changes_pruning_not_result():
    space = eps_space()
    kw = dict(eps={"eps": 2.45, "sigma": 0, "b": 2})
    for solve in ENGINES:
        plain = solve(space, make_metric("dm", space),
                      build_constraints(space, **kw))
        assumed = solve(space, make_metric("dm", space),
                        build_constraints(
                            space, assume_monotone=("eps_privacy",), **kw))
        # here the assumption is wrong at the root, so the search never
        # starts
        assert plain.status == "optimal"
        assert assumed.status == "infeasible"


class Dist3(Metric):
    """Breaks the floor contract: a block of 3 rows costs 0, each of its
    one-row cells 2."""

    name = "dist3"

    def block_cost(self, block):
        return abs(block.count - 3)


@pytest.mark.parametrize("solve", ENGINES)
@pytest.mark.parametrize("seeded", [False, True])
def test_a_metric_below_its_floors_voids_the_certificate(solve, seeded):
    # the root costs 3 and its floor is 12: pruning everything against
    # the root once certified 3 as optimal, where two blocks of three
    # cost 0
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 6],
         "splits": {"type": "explicit", "values": [1, 2, 3, 4, 5]}},
    ]}
    space = build_space(cfg, [(i + 0.5,) for i in range(6)])
    metric, cons = Dist3(), build_constraints(space)
    assert brute_best(space, metric, cons) == 0
    seed = mondrian_greedy(space, metric, cons).tree if seeded else None
    res = solve(space, metric, cons, seed_tree=seed)
    assert res.status == "exhausted" and not res.certified
    assert res.lower_bound <= 0 <= res.best_cost
    assert res.progress
    for row in res.progress:
        assert row["lower_bound"] <= 0
    ctx = BoundContext(space, metric, cons)
    assert ctx.sound
    ctx.min_cost(space.root_block)
    assert not ctx.sound


def test_deterministic_reruns(tax_space):
    metric = make_metric("dm", tax_space)

    def go(solve):
        cons = build_constraints(tax_space, k=2)
        return solve(tax_space, metric, cons)

    for solve in ENGINES:
        a, b = go(solve), go(solve)
        assert a.best_cost == b.best_cost
        assert a.best_tree.signature() == b.best_tree.signature()
        assert (a.stats.generated, a.stats.expanded,
                a.stats.pruned_bound) == \
            (b.stats.generated, b.stats.expanded, b.stats.pruned_bound)


def pushed_children(searcher, node, dive=False):
    """Expand `node` with no incumbent and offers not taken, so the main
    loop pushes every child without a monotone failure: the pushed
    `(path, move, cost, lb, fail_any, kid)` in push order, `kid` the
    child's node with its frontier derived, and what `_expand`
    returned."""
    searcher.best, searcher.heap = math.inf, []
    searcher._set_best = lambda cost, line: None
    pick = searcher._expand(node, dive)
    entries = sorted(searcher.heap, key=lambda e: e[2])
    searcher.heap = []
    pushed = []
    for entry in entries:
        lb, cost, _, fail_any, front, at, move = entry
        kid = searcher._node(entry)
        assert kid[:3] == (cost, lb, fail_any)
        pushed.append((front[at], move, cost, lb, fail_any, kid))
    return pushed, pick


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
    # Every legal move is pushed, in legal_moves order, or counted
    # unscored because the child fails a monotone constraint; a dive
    # counts the same and picks the first cheapest feasible child.
    rng = random.Random(seed)
    while True:   # draw until a taxonomy expansion is a chain of cuts
        space = random_instance(rng, total_splits=rng.randint(3, 6))
        if any(len(m.splits) > 1 for m in space.splits.expansions.values()):
            break
    metric = make_metric(name, space)
    cons = build_constraints(space, k=2, l_div=rng.choice([None, 1.5]))
    searcher = _Searcher(space, metric, cons, SearchConfig())
    stats = searcher.stats
    for _ in range(6):
        tree = random_tree(space, rng)
        node, mono = searcher._evaluate(tree)
        if mono:   # the search expands no node with a monotone failure
            continue
        generated, pruned = stats.generated, stats.pruned_infeasible
        pushed, _ = pushed_children(searcher, node)
        kids = iter(pushed)
        kid = next(kids, None)
        skipped = 0
        for path, move in legal_moves(tree):
            child = tree.apply_move(path, move)
            ref, ref_mono = searcher._evaluate(child)
            if kid is None or kid[:2] != (path, move):
                assert ref_mono > 0
                skipped += 1
                continue
            _, _, cost, lb, fa, queued = kid
            kid = next(kids, None)
            want = lower_bound(child, searcher.bctx)
            assert lb == want and type(lb) is type(want)
            # the carried prefix is the pre-order sum of the child's
            # frozen leaves, the very float a walk of its leaves gives
            blocks = child.leaf_blocks()
            prefix = 0.0
            for b in blocks[:len(blocks) - len(child.splittable_leaves())]:
                prefix += searcher.bctx.cost(b)
            ref_cost, _, ref_any, _ = ref
            frozen = queued[3][1]
            assert frozen == prefix and type(frozen) is float
            assert (fa, 0) == (ref_any, ref_mono)
            assert cost == pytest.approx(ref_cost, rel=1e-12)
        assert kid is None
        assert stats.generated - generated == len(pushed) + skipped
        assert stats.pruned_infeasible - pruned == skipped
        # a dive scores the same children, counts the skipped ones into
        # generated only, and picks the first cheapest feasible child
        generated, pruned = stats.generated, stats.pruned_infeasible
        dive_node = searcher._evaluate(tree)[0]
        dived, pick = pushed_children(searcher, dive_node, dive=True)
        assert dived == []
        if pick is not None:   # `(cost, lb, at, move)`
            pick = (*pick[:2], dive_node[3][pick[2]], pick[3])
        assert stats.generated - generated == len(pushed) + skipped
        assert stats.pruned_infeasible == pruned
        feasible = [(cost, lb, path, move)
                    for path, move, cost, lb, fa, _ in pushed if fa == 0]
        assert pick == min(feasible, key=lambda k: k[0], default=None)


class FractionalMetric(Metric):
    """A metric whose costs and floors are not whole numbers, so the
    search may not share a bound between a leaf's children."""

    name = "frac"

    def block_cost(self, block):
        return block.count * block.count / 3 + block.count / 10


def reference_expansion(searcher, tree, node, best, alpha):
    """What expanding `node` (the tree `tree`) must do with incumbent
    `best`, one child at a time in `legal_moves` order from the trees
    `apply_move` grows: `(generated, pruned_bound, pruned_infeasible,
    discard_min)` and, per pushed child, the children generated up to
    it and its `(path, move, cost, lb, fail_any)`."""
    ctx = searcher.bctx
    node_cost = node[0]
    blocks = {path: leaf.block for path, leaf, _ in tree.splittable_leaves()}
    generated = pruned = infeasible = 0
    least = math.inf
    pushed = []
    for path, move in legal_moves(tree):
        child = tree.apply_move(path, move)
        flags = [ctx.flags(b) for b in child.leaf_blocks()]
        generated += 1
        if any(mono for _, mono in flags):
            infeasible += 1
            continue
        cost = node_cost - ctx.cost(blocks[path])
        for b in searcher.space.move_blocks(blocks[path], move):
            cost += ctx.cost(b)
        lb = lower_bound(child, ctx)
        fail_any = sum(a for a, _ in flags)
        if not fail_any and cost < best:
            best = cost
        if alpha * lb < best:
            pushed.append((generated, (path, move, cost, lb, fail_any)))
        else:
            pruned += 1
            least = min(least, lb)
    return (generated, pruned, infeasible, least), pushed


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm", "frac"]),
       st.sampled_from([1.0, 1.3]))
def test_expansion_matches_a_per_child_reference(seed, name, alpha):
    # with an incumbent between the children's least and greatest bound,
    # an expansion prunes whole leaves in one step where their shared
    # bound allows (dm, cm) and scores child by child otherwise (vm and
    # fractional costs); either way its counts, its discard_min, what
    # it pushes and the generated count each push sees must be those of
    # scoring every child in legal_moves order, bit for bit
    rng = random.Random(seed)
    while True:   # draw until a taxonomy expansion is a chain of cuts
        space = random_instance(rng, total_splits=rng.randint(4, 7),
                                rows_range=(8, 30))
        if any(len(m.splits) > 1 for m in space.splits.expansions.values()):
            break
    metric = (FractionalMetric() if name == "frac"
              else make_metric(name, space))
    cons = build_constraints(space, k=rng.choice([2, 3, 4]),
                             l_div=rng.choice([None, 1.5]))
    cfg = SearchConfig(mode="approx", alpha=alpha)
    for _ in range(8):
        tree = random_tree(space, rng)
        searcher = _Searcher(space, metric, cons, cfg)
        node, mono = searcher._evaluate(tree)
        if mono:   # the search expands no node with a monotone failure
            continue
        bounds = [lower_bound(tree.apply_move(path, move), searcher.bctx)
                  for path, move in legal_moves(tree)]
        if not bounds:
            continue
        lo, hi = min(bounds), max(bounds)
        best = rng.choice([lo, hi, rng.choice(bounds), (lo + hi) / 2])
        want = reference_expansion(searcher, tree, node, best, alpha)
        searcher.best = best
        seen = []

        def recorded(heap, entry):
            lb, cost, _, fail_any, front, at, move = entry
            seen.append((searcher.stats.generated, (
                front[at], move, cost, lb, fail_any)))
            heapq.heappush(heap, entry)

        # pushes go through the module's `heapq` name
        search_module.heapq = SimpleNamespace(heappush=recorded)
        try:
            assert searcher._expand(node) is None
        finally:
            search_module.heapq = heapq
        s = searcher.stats
        got = (s.generated, s.pruned_bound, s.pruned_infeasible,
               searcher.discard_min)
        assert (got, seen) == want
        for (_, a), (_, b) in zip(seen, want[1]):
            assert [type(x) for x in a] == [type(x) for x in b]


class LargeMetric(Metric):
    """Whole costs of a size at which a node's sums can pass 2**53, where
    float addition rounds and its order matters; the floors (the counts)
    stay small and add up exactly."""

    name = "large"

    def __init__(self, scale):
        self.scale = scale

    def block_cost(self, block):
        return float(block.count * block.count * self.scale + block.count)

    def floor_cost(self, cell, size_floor):
        return float(cell.count)


@pytest.mark.parametrize("scale, crosses", [(2 ** 40, False),
                                            (2 ** 47 + 1, True)])
def test_shared_bound_is_used_only_below_2_53(scale, crosses):
    # every term is a whole number, so the children of a frontier leaf
    # share one bound, carried as a running sum, only while no sum
    # reaches 2**53; past it each child is scored in pre-order. Either
    # way every pushed child's bound is the float lower_bound gives on
    # the child's tree
    rng = random.Random(11)
    metric = LargeMetric(scale)
    crossed = False
    for _ in range(12):
        space = random_instance(rng, total_splits=6, rows_range=(12, 16))
        searcher = _Searcher(space, metric, build_constraints(space),
                             SearchConfig())
        for _ in range(6):
            tree = random_tree(space, rng)
            node, _ = searcher._evaluate(tree)
            cost, lb = node[:2]
            crossed |= cost + lb >= 2 ** 53
            for path, move, _, lb, _, _ in pushed_children(searcher,
                                                           node)[0]:
                want = lower_bound(tree.apply_move(path, move),
                                   searcher.bctx)
                assert lb == want and type(lb) is type(want)
        # whole costs and additive floors throughout: the guard decides
        assert searcher.bctx.exact
    assert crossed == crosses


def walked_frontier(space, ctx, tree):
    """Per refinable leaf of `tree`, from walks of the tree: path, extent,
    ancestry and legal-id mask, then `pre` and `mins`."""
    leaves = tree.splittable_leaves()
    pre, mins = frontier(tree, ctx)
    return ([(path, leaf.block.extent, anc, legal_ids(anc, sum(
        m.bits for m in space.available_moves(leaf.block.extent))))
        for path, leaf, anc in leaves], pre[:-1], mins)


def derived_frontier(space, front):
    """The same, read off a frontier the search derived."""
    exts = front[HEAD + 1::4]
    pre, total = [], front[1]
    for x in exts:
        pre.append(total)
        total += x.cost
    return ([(path, x.block.extent, anc, legal_ids(anc, sum(
        m.bits for m in space.available_moves(x.block.extent))))
        for path, x, anc in zip(front[HEAD::4], exts, front[HEAD + 2::4])],
        pre, [x.floor for x in exts])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm"]))
def test_derived_frontier_matches_the_grown_tree(seed, name):
    # a queued node's frontier is derived from its parent's; it must be
    # the frontier a walk of its tree gives, bit for bit, for every child
    # of a random tree and every grandchild of one child
    rng = random.Random(seed)
    while True:   # draw until a taxonomy expansion is a chain of cuts
        space = random_instance(rng, total_splits=rng.randint(3, 6))
        if any(len(m.splits) > 1 for m in space.splits.expansions.values()):
            break
    metric = make_metric(name, space)
    searcher = _Searcher(space, metric, build_constraints(space, k=2),
                         SearchConfig())
    ctx = searcher.bctx
    tree = random_tree(space, rng)
    node, _ = searcher._evaluate(tree)
    assert derived_frontier(space, node[3]) == \
        walked_frontier(space, ctx, tree)
    kids = []
    for path, move, _, _, _, kid in pushed_children(searcher, node)[0]:
        grown = tree.apply_move(path, move)
        assert derived_frontier(space, kid[3]) == \
            walked_frontier(space, ctx, grown)
        kids.append((kid, grown))
    if not kids:
        return
    kid, tree = rng.choice(kids)
    for path, move, _, _, _, grandkid in pushed_children(searcher, kid)[0]:
        assert derived_frontier(space, grandkid[3]) == \
            walked_frontier(space, ctx, tree.apply_move(path, move))


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
    expand = _Searcher._expand

    def counted(self, node, dive=False):
        # every legal move of the node is generated, scored or not
        tree = _grow(node[3][0])
        fanout[0] = max(fanout[0], len(legal_moves(tree)))
        return expand(self, node, dive)

    monkeypatch.setattr(_Searcher, "_expand", counted)
    probed = False
    for limit in range(50, 2000, 37):
        res = search(space, make_metric("cm", space),
                     build_constraints(space, k=20, l_div=2.0),
                     SearchConfig(max_queue=50, node_limit=limit))
        assert res.status == "exhausted"
        assert res.stats.generated <= limit + fanout[0]
        probed |= res.stats.probes > 0
    assert probed


# (metric, max_queue, node_limit, *other SearchConfig fields) ->
# (best_cost, lower_bound, generated, expanded, pruned_bound,
# pruned_infeasible, probes, forced_drops), as reported by the search that
# scored every child; skipping the children that fail a monotone
# constraint unscored, or a whole leaf whose shared bound reaches the
# incumbent, must not move any of them. The approx rows were recorded
# before either skip existed.
APPROX = (("mode", "approx"), ("alpha", 1.3))
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
    ("dm", 50, 1500, *APPROX): (28624, 15105.0, 1508, 80, 251, 352, 12, 297),
    ("dm", 20, 900, *APPROX): (40990, 15105.0, 911, 26, 76, 126, 12, 116),
    ("dm", 100000, 3000, *APPROX): (33198, 15798.0, 3007, 257, 592, 1003, 0,
                                    0),
    # the root is feasible at 491 <= 1.3 * 425, its bound: no expansion
    ("cm", 50, 1500, *APPROX): (491, 425.0, 1, 0, 1, 0, 0, 0),
    ("cm", 50, 1500, ("mode", "approx"), ("alpha", 1.05)):
        (455, 425.0, 1506, 82, 405, 335, 9, 212),
    ("cm", 20, 900, ("mode", "approx"), ("alpha", 1.05)):
        (455, 425.0, 900, 32, 182, 124, 8, 69),
}


def test_search_counts_are_pinned():
    # probes dive inside expansions and read the generated count there,
    # so where a skipped child is counted moves every later number
    space = probe_space()
    for key, want in PINNED_COUNTS.items():
        name, max_queue, node_limit, *other = key
        res = search(space, make_metric(name, space),
                     build_constraints(space, k=20, l_div=2.0),
                     SearchConfig(max_queue=max_queue, node_limit=node_limit,
                                  **dict(other)))
        s = res.stats
        assert (res.best_cost, res.lower_bound, s.generated, s.expanded,
                s.pruned_bound, s.pruned_infeasible, s.probes,
                s.forced_drops) == want, key


def test_no_reported_bound_exceeds_the_optimum():
    # a progress row is written while the root or an expanded node is
    # open, before its children are queued; its bound must count that
    # node, and no other bound source may lift it. A fixed case, then 40
    # seeded draws, fixed by this code
    draws = random.Random(40)
    cases = [(0, "dm", 1, False)] + [
        (draws.randrange(10 ** 6), draws.choice(["dm", "cm", "vm"]),
         draws.randint(1, 3), draws.random() < 0.5) for _ in range(40)]
    for case in cases:
        seed, name, k, seeded = case
        rng = random.Random(seed)
        space = random_instance(rng)
        metric = make_metric(name, space)
        cons = build_constraints(space, k=k)
        want = brute_best(space, metric, cons)
        if math.isinf(want):
            continue
        g = mondrian_greedy(space, metric, cons)
        cfg = SearchConfig(node_limit=rng.choice([None, 1, 5, 20]),
                           max_queue=rng.choice([2, 100_000]))
        res = best_first(space, metric, cons, cfg,
                         seed_tree=g.tree if seeded and g.feasible else None)
        assert res.progress, case
        for row in res.progress:
            assert row["lower_bound"] <= want * (1 + 1e-9), (case, row)
        assert res.lower_bound <= want * (1 + 1e-9), case


def test_vm_certificate_holds_for_a_coarse_unit_volume():
    # with a unit volume above the smallest cell's, the optimum may lie
    # below N, the bound the default unit gives; an exhausted result must
    # still bracket it. A fixed case, then 25 seeded draws, fixed by this
    # code
    draws = random.Random(25)
    cases = [(0, 12.0, 1)] + [
        (draws.randrange(10 ** 6), draws.choice([2.0, 5.0, 12.0]),
         draws.randint(1, 30)) for _ in range(25)]
    for case in cases:
        seed, scale, node_limit = case
        rng = random.Random(seed)
        space = random_instance(rng, rows_range=(6, 14))
        unit = make_metric("vm", space).unit_volume * scale
        metric = make_metric("vm", space, unit_volume=unit)
        cons = build_constraints(space, k=rng.choice([1, 2]))
        want = brute_best(space, metric, cons)
        if math.isinf(want):
            continue
        res = search(space, metric, cons,
                     SearchConfig(node_limit=node_limit))
        assert res.lower_bound <= want * (1 + 1e-9), case
        if res.status == "exhausted":
            assert res.alpha_guarantee >= \
                res.best_cost / want * (1 - 1e-9), case
        else:
            assert res.best_cost == pytest.approx(want, rel=1e-9), case


def test_seeded_root_counts_as_open(tax_space):
    # the greedy seed is offered while the root is open: its progress
    # row carries the root's bound, and a seed as cheap as that bound
    # prunes the root and proves itself optimal within one node
    metric = make_metric("dm", tax_space)
    cons = build_constraints(tax_space)
    g = mondrian_greedy(tax_space, metric, cons)
    res = search(tax_space, metric, cons, SearchConfig(node_limit=1),
                 seed_tree=g.tree)
    root = lower_bound(tax_space.root_tree(),
                       BoundContext(tax_space, metric, cons))
    assert res.status == "optimal"
    assert res.progress[0]["lower_bound"] == min(root, g.cost)


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
    res = best_first(space, metric, cons, SearchConfig(max_queue=2))
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
    # same partition, but grown in the non-canonical order
    cons2 = build_constraints(grid_space, k=1)
    noncanon = grid_space.root_tree().apply_move(
        (), Move((grid_space.splits.by_id[2],)))
    noncanon = noncanon.apply_move((0,), Move((grid_space.splits.by_id[1],)))
    for solve in ENGINES:
        with pytest.raises(ValueError, match="not feasible"):
            solve(grid_space, metric, cons, seed_tree=bad)
        with pytest.raises(ValueError, match="canonical"):
            solve(grid_space, make_metric("dm", grid_space), cons2,
                  seed_tree=noncanon)


def test_seed_must_cover_the_space(grid_space):
    # one block, the x <= 1 half of the space (2 of 6 rows): no partition,
    # so canonicalization refuses it and no optimum is certified from it
    left, _ = grid_space.apply_split(grid_space.root_block,
                                     grid_space.splits.by_id[1])
    partial = PartitionTree(grid_space, Leaf(left))
    with pytest.raises(ValueError, match="no partition"):
        is_legal(partial)
    for solve in ENGINES:
        with pytest.raises(ValueError, match="no partition"):
            solve(grid_space, make_metric("dm", grid_space),
                  build_constraints(grid_space, k=1), seed_tree=partial)


@pytest.mark.parametrize("enabled", [True, False])
def test_search_restores_the_collector_state(grid_space, monkeypatch,
                                             enabled):
    # both engines run with the cyclic collector off and restore the
    # caller's state on return and on a raise
    metric = make_metric("dm", grid_space)
    cons = build_constraints(grid_space, k=2)
    bad = grid_space.root_tree().apply_move(
        (), Move((grid_space.splits.by_id[3],)))
    bad = bad.apply_move((1,), Move((grid_space.splits.by_id[5],)))
    during = []
    run, solve_dp = _Searcher.run, search_module._solve_dp

    def recorded(self):
        during.append(("best_first", gc.isenabled()))
        return run(self)

    def recorded_dp(*args):
        during.append(("dp", gc.isenabled()))
        return solve_dp(*args)

    monkeypatch.setattr(_Searcher, "run", recorded)
    monkeypatch.setattr(search_module, "_solve_dp", recorded_dp)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for solve in ENGINES:
            assert solve(grid_space, metric, cons).status == "optimal"
            assert gc.isenabled() == enabled
            with pytest.raises(ValueError, match="not feasible"):
                solve(grid_space, metric, cons, seed_tree=bad)
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [("dp", False)] * 2 + [("best_first", False)] * 2


def test_seeded_search_never_worse(grid_space):
    metric = make_metric("dm", grid_space)
    cons = build_constraints(grid_space, k=2)
    g = mondrian_greedy(grid_space, metric, cons)
    res = search(grid_space, metric, build_constraints(grid_space, k=2),
                 SearchConfig(node_limit=1), seed_tree=g.tree)
    assert res.best_cost <= g.cost


# ---- objects reused across Spaces ----

XS_CFG = {"attributes": [
    {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
     "splits": {"type": "explicit", "values": [1, 2, 3]}},
    {"name": "s", "kind": "categorical", "role": "sensitive",
     "values": ["a", "b"]},
]}
XS = [.5, .5, 1.5, 1.5, 2.5, 2.5, 3.5, 3.5]


def xs_space(xs, labels):
    return build_space(XS_CFG, list(zip(xs, labels)))


def reuse_pair(seed):
    """Two Spaces of one schema with other rows: for seed None the 8-row
    pair on which a k = 2 set reused from the first once certified 20 on
    the second, whose optimum is 32; else a random instance and rows
    drawn afresh for its schema, split by the same specs."""
    if seed is None:
        return (xs_space(XS, "abababab"),
                xs_space([.5, 1.5, 1.5, 1.5, 2.5, 3.5, 3.5, 3.5], "abababab"))
    rng = random.Random(seed)
    a = random_instance(rng, snap=0.2)
    schema = a.dataset.schema
    rows = []
    for _ in range(rng.randint(4, 12)):
        row = []
        for attr in schema:
            if attr.is_numeric:
                row.append(rng.uniform(*attr.domain))
            else:
                row.append(rng.choice(attr.taxonomy.leaves).label)
        rows.append(tuple(row))
    ds = rows_dataset(schema, rows)
    return a, Space(ds, generate_splits(schema, ds))


def solve_summary(space, metric, cons):
    res = search(space, metric, cons)
    g = mondrian_greedy(space, metric, cons)
    return ((res.status, res.best_cost, res.lower_bound,
             res.best_tree and res.best_tree.signature(),
             res.stats.generated, res.stats.expanded),
            (g.feasible, g.cost, g.steps, g.tree and g.tree.signature()),
            (res.blocks, g.tree and g.tree.leaf_blocks()))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.none(), st.integers(0, 10 ** 6)), st.integers(2, 4),
       st.sampled_from([None, 1.5, 2.5]))
@example(None, 2, None)
def test_reused_constraints_and_metric_solve_another_space(seed, k, length):
    # a ConstraintSet and a metric that read no Space hold no per-block
    # state: reused on a second Space of the same schema they must give
    # what fresh objects give, and a fresh set must accept the result
    a, b = reuse_pair(seed)
    numeric = [attr.name for attr in a.qi_schema if attr.is_numeric]
    lengths = {numeric[0]: length} if numeric and length else None
    cons = build_constraints(a, k=k, min_lengths=lengths)
    metric = make_metric("dm", a)
    solve_summary(a, metric, cons)    # fill whatever the objects keep
    fresh = build_constraints(b, k=k, min_lengths=lengths)
    reused = solve_summary(b, metric, cons)
    want = solve_summary(b, make_metric("dm", b), fresh)
    assert reused[:2] == want[:2]
    for blocks in reused[2]:
        if blocks is not None:
            assert fresh.feasible(blocks)
    if (seed, k, lengths) == (None, 2, None):
        assert want[0][:2] == ("optimal", 32)
        assert [blk.count for blk in reused[2][0]] == [4, 4]


@pytest.mark.parametrize("kind,name,build,want", [
    # with A's cm metric B was once certified 4, with A's l-diversity set 16
    ("metric", "cm", lambda s: (make_metric("cm", s),
                                build_constraints(s)), 0),
    ("metric", "vm", lambda s: (make_metric("vm", s),
                                build_constraints(s)), 8.0),
    ("constraint", "l_diversity", lambda s: (
        make_metric("dm", s), build_constraints(s, l_div=2)), 32),
    ("constraint", "t_closeness", lambda s: (
        make_metric("dm", s), build_constraints(s, t_close=0.5)), 16),
    ("constraint", "eps_privacy", lambda s: (
        make_metric("dm", s),
        build_constraints(s, eps={"eps": 4, "sigma": 1, "b": 1})), 32),
])
def test_objects_built_for_another_space_are_refused(kind, name, build, want):
    a, b = xs_space(XS, "abababab"), xs_space(XS, "aabbaabb")
    metric, cons = build(a)
    message = f"{kind} '{name}' was built for another Space"
    with pytest.raises(ValueError, match=message):
        BoundContext(b, metric, cons)
    with pytest.raises(ValueError, match=message):
        search(b, metric, cons)
    with pytest.raises(ValueError, match=message):
        mondrian_greedy(b, metric, cons)
    BoundContext(a, metric, cons)    # its own Space is fine
    res = search(b, *build(b))
    assert (res.status, res.best_cost) == ("optimal", want)


@pytest.mark.parametrize("other", ["Space", "metric", "constraint set"])
def test_a_context_built_for_another_problem_is_refused(other):
    # every entry point that runs in a caller's context checks that it
    # was built for the call's space, metric and constraint set
    a = xs_space(XS, "abababab")
    metric, cons = make_metric("dm", a), build_constraints(a, k=2)
    ctx = BoundContext(a, metric, cons)
    problem = {
        "Space": lambda: (xs_space(XS, "aabbaabb"), metric, cons),
        "metric": lambda: (a, make_metric("dm", a), cons),
        "constraint set": lambda: (a, metric, build_constraints(a, k=2)),
    }[other]()
    message = f"the BoundContext was built for another {other}"
    budget = SearchConfig(node_limit=10)
    for run in (lambda: mondrian_greedy(*problem, ctx),
                lambda: search(*problem, ctx=ctx),
                lambda: search(*problem, budget, ctx=ctx),
                lambda: best_first(*problem, ctx=ctx)):
        with pytest.raises(ValueError, match=message):
            run()
    if other == "Space":
        tree = problem[0].root_tree()
        for run in (frontier, lower_bound):
            with pytest.raises(ValueError, match=message):
                run(tree, ctx)
    # nothing was solved in it: the context serves its own problem
    assert ctx._records == {}
    assert search(a, metric, cons, ctx=ctx).best_cost == \
        search(a, metric, cons).best_cost == 16
