import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.bounds import BoundContext, lower_bound
from anonsearch.constraints import build_constraints
from anonsearch.dataset import Dataset
from anonsearch.enumeration import enumerate_trees
from anonsearch.metrics import make_metric
from anonsearch.partition import Leaf, Space, legal_moves
from anonsearch.search import SearchConfig, search
from anonsearch.splits import Move

from conftest import build_space, oracle_min_cost, random_instance, random_tree


def worked_space():
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
    return build_space(cfg, rows)


def worked_tree(space):
    t = space.root_tree()
    for path, sid in [((), 1), ((0,), 5), ((1,), 2), ((1, 0), 5),
                      ((1, 1), 4)]:
        t = t.apply_move(path, Move((space.splits.by_id[sid],)))
    return t


def test_worked_example_cost_and_bound():
    space = worked_space()
    metric = make_metric("dm", space)
    tree = worked_tree(space)
    ctx = BoundContext(space, metric, build_constraints(space, k=2))
    assert metric.cost(tree.leaf_blocks()) == 41
    # four frozen pair-blocks pay 4 each; the two refinable blocks pay
    # their finest-grid floors 6 and 11
    assert [p for p, *_ in tree.splittable_leaves()] == [(1, 1, 0), (1, 1, 1)]
    assert lower_bound(tree, ctx) == 33


def test_size_floor_uses_min_admissible_size():
    space = worked_space()
    tree = worked_tree(space)
    blk = tree.node_at((1, 1, 0)).block  # 3 rows split 2 + 1 by x=3
    metric = make_metric("dm", space)
    for k, want in [(2, 6), (1, 5)]:
        ctx = BoundContext(space, metric, build_constraints(space, k=k))
        assert ctx.min_cost(blk) == want


def test_size_floor_comes_from_l_diversity_alone():
    # ceil(2.5) = 3 distinct labels need 3 rows, so with no k every row of
    # a cell below 3 rows is charged 3
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
         "splits": {"type": "explicit", "values": [1, 2, 3]}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": ["a", "b", "c"]},
    ]}
    xs = [0.5, 1.5, 1.6, 2.5, 2.6, 2.7, 3.5, 3.6, 3.7, 3.8]
    space = build_space(cfg, list(zip(xs, "abcabcabca")))
    metric = make_metric("dm", space)
    cons = build_constraints(space, l_div=2.5)
    ctx = BoundContext(space, metric, cons)
    cells = [space.cell_block(c) for c in range(len(space.cell_counts))]
    assert [c.count for c in cells] == [1, 2, 3, 4]
    assert [ctx.min_cost(c) for c in cells] == [3, 6, 9, 16]
    assert ctx.min_cost(space.root_block) == 34
    res = search(space, metric, cons, SearchConfig(node_limit=1))
    assert res.status == "exhausted" and res.lower_bound == 34


def test_root_bound_is_finest_grid(grid_space):
    # the six points land in six distinct unit cells
    for name, want in [("dm", 6), ("vm", 6.0)]:
        ctx = BoundContext(grid_space, make_metric(name, grid_space),
                           build_constraints(grid_space))
        assert ctx.min_cost(grid_space.root_block) == want


def test_majority_floor(tax_space):
    ctx = BoundContext(tax_space, make_metric("cm", tax_space),
                       build_constraints(tax_space))
    assert ctx.min_cost(tax_space.root_block) == 0  # singleton cells
    assert lower_bound(tax_space.root_tree(), ctx) == 0


def test_bound_exact_when_nothing_splits():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
         "splits": {"type": "none"}},
    ]}
    space = build_space(cfg, [(1.0,), (2.0,), (3.0,)])
    metric = make_metric("dm", space)
    ctx = BoundContext(space, metric, build_constraints(space))
    tree = space.root_tree()
    assert lower_bound(tree, ctx) == metric.cost(tree.leaf_blocks()) == 9


def assert_matches(got, want, name):
    # dm and cm floors are integers, so their sums are exact
    if name == "vm":
        assert abs(got - want) <= 1e-9 * max(1, abs(want))
    else:
        assert got == want


def replayed_blocks(node, space, block):
    """The leaf blocks of `node`'s subtree, rebuilt in another space over
    the same rows."""
    if isinstance(node, Leaf):
        return [block]
    left, right = space.apply_split(block, node.split)
    return (replayed_blocks(node.left, space, left)
            + replayed_blocks(node.right, space, right))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm"]),
       st.integers(1, 3))
def test_min_cost_matches_oracle(seed, name, k):
    rng = random.Random(seed)
    space = random_instance(rng)
    metric = make_metric(name, space)
    ctx = BoundContext(space, metric, build_constraints(space, k=k))
    tree = random_tree(space, rng)
    # the same rows in another order: cells are met in another order, which
    # may move only vm's last ulp
    rows = list(space.dataset.rows)
    rng.shuffle(rows)
    shuffled = Space(Dataset(space.dataset.schema, rows), space.splits)
    sctx = BoundContext(shuffled, make_metric(name, shuffled),
                        build_constraints(shuffled, k=k))
    sblocks = replayed_blocks(tree.root, shuffled, shuffled.root_block)
    for b, sb in zip(tree.leaf_blocks(), sblocks, strict=True):
        assert sb.extent == b.extent
        want = oracle_min_cost(space, b, metric, k=k)
        assert_matches(ctx.min_cost(b), want, name)
        assert_matches(sctx.min_cost(sb), ctx.min_cost(b), name)


@pytest.mark.parametrize("name", ["dm", "cm", "vm"])
def test_min_cost_with_rows_on_cell_boundaries(name):
    # rows on numeric cuts (which go tree-left), on both domain ends and
    # on every categorical sibling boundary; every block any tree reaches
    # must get the oracle's finest-cell cost
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 3],
         "splits": {"type": "explicit", "values": [1, 2]}},
        {"name": "w", "kind": "categorical", "role": "qi", "taxonomy": "w",
         "splits": {"type": "taxonomy"}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": ["a", "b"]},
    ], "taxonomies": {"w": {"label": "any", "children": [
        {"label": "g0", "children": [{"label": "v0"}, {"label": "v1"}]},
        {"label": "g1", "children": [{"label": "v2"}, {"label": "v3"}]},
    ]}}}
    rows = [(x, w, s) for x, w, s in zip(
        [0, 1, 2, 3, 1, 2, 0, 3, 1.5, 1, 2, 0.5, 3, 1],
        ["v0", "v1", "v2", "v3", "v2", "v1", "v3", "v0", "v1", "v1", "v2",
         "v0", "v3", "v0"],
        "ababbaabbaabab")]
    space = build_space(cfg, rows)
    seen = {}
    for tree in enumerate_trees(space):
        for _, node in tree.pre_order():
            seen.setdefault(node.block.extent, node.block)
    assert len(seen) == 6 * 7   # x ranges times taxonomy nodes
    for k in (1, 2, 3):
        metric = make_metric(name, space)
        ctx = BoundContext(space, metric, build_constraints(space, k=k))
        for block in seen.values():
            want = oracle_min_cost(space, block, metric, k=k)
            assert_matches(ctx.min_cost(block), want, name)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["dm", "cm", "vm"]))
def test_bound_never_decreases_along_edges(seed, name):
    # Restricted to trees whose blocks all meet the minimum size: freezing
    # a smaller block legally drops the bound from its size floor k*m to
    # its exact cost m^2, but such nodes fail the monotone size constraint
    # and are discarded before the bound is ever consulted.
    def sized_ok(t):
        return all(b.count == 0 or b.count >= 2 for b in t.leaf_blocks())

    rng = random.Random(seed)
    space = random_instance(rng, rows_range=(8, 20))
    metric = make_metric(name, space)
    ctx = BoundContext(space, metric, build_constraints(space, k=2))
    tree = random_tree(space, rng, max_moves=3)
    if not sized_ok(tree):
        return
    parent_lb = lower_bound(tree, ctx)
    for path, move in legal_moves(tree):
        child = tree.apply_move(path, move)
        if not sized_ok(child):
            continue
        assert lower_bound(child, ctx) >= parent_lb - 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bound_below_every_feasible_descendant_cost(seed):
    rng = random.Random(seed)
    space = random_instance(rng, total_splits=rng.randint(2, 4),
                            rows_range=(4, 8))
    metric = make_metric("dm", space)
    ctx = BoundContext(space, metric, build_constraints(space, k=2))

    def rec(tree, stack):
        lb = lower_bound(tree, ctx)
        blocks = tree.leaf_blocks()
        # the size floor only undercuts partitions whose blocks all meet
        # the minimum size; smaller blocks may legitimately cost less
        if all(b.count == 0 or b.count >= 2 for b in blocks):
            cost = metric.cost(blocks)
            for anc_lb in stack:
                assert anc_lb <= cost + 1e-9
        for path, move in legal_moves(tree):
            rec(tree.apply_move(path, move), stack + [lb])

    rec(space.root_tree(), [])
