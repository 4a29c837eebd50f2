import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.bounds import BoundContext, lower_bound
from anonsearch.constraints import build_constraints
from anonsearch.enumeration import enumerate_trees
from anonsearch.metrics import make_metric
from anonsearch.partition import Block, Leaf, Space, legal_moves
from anonsearch.search import SearchConfig, search
from anonsearch.splits import Move

from conftest import (build_space, dataset_rows, oracle_min_cost, random_instance,
                      random_tree, rows_dataset)


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


def test_one_record_per_extent_with_its_move_table():
    space = worked_space()
    k = 5
    ctx = BoundContext(space, make_metric("dm", space),
                       build_constraints(space, k=k))
    root = space.root_block
    twin = Block(root.extent, root.cells, root.count)
    rec = ctx.record(root)
    assert ctx.record(twin) is rec and rec.block is root
    assert rec.floor is None   # made with its cost and flags, no floor
    assert (ctx.cost(twin), ctx.flags(twin)) == (rec.cost, rec.flags) \
        == (225, (False, False))
    assert ctx.min_cost(twin) == rec.floor == k * 15
    # the search opens a record's move table before it fills it
    rec.moves = space.available_moves(root.extent)
    rec.ids = sum(m.bits for m in rec.moves)
    rec.terms = {}
    ctx.fill(rec, rec.ids)
    assert rec.known == rec.ids
    bad = good = 0
    for move in rec.moves:
        new = space.move_blocks(root, move)
        if any(b.count < k for b in new):
            bad += 1
            assert rec.bad & move.bits and move.id not in rec.terms
            continue
        good += 1
        assert not rec.bad & move.bits
        records, costs, floors, d_any = rec.terms[move.id]
        assert records == tuple(map(ctx.record, new))
        assert costs == tuple(b.count ** 2 for b in new)
        assert sum(floors) == rec.floor and d_any == 0
    assert bad and good
    assert ctx.exact   # whole dm costs and floors that add up
    # vm costs in a unit that does not divide the blocks' volumes
    vm = BoundContext(space, make_metric("vm", space, unit_volume=0.7),
                      build_constraints(space, k=2))
    vm.min_cost(root)
    assert not vm.exact


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
    rows = dataset_rows(space.dataset)
    rng.shuffle(rows)
    shuffled = Space(rows_dataset(space.dataset.schema, rows), space.splits)
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
        for block in tree.leaf_blocks():
            seen.setdefault(block.extent, block)
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


def test_built_in_metrics_never_trip_the_floor_guard():
    # every block of every reachable partition, for each built-in metric
    # under constraint stacks that raise the size floor
    rng = random.Random(11)
    for _ in range(30):
        space = random_instance(rng, total_splits=rng.randint(2, 4))
        blocks = {b.extent: b for t in enumerate_trees(space)
                  for b in t.leaf_blocks()}
        for kw in ({}, dict(k=2), dict(k=3, l_div=1.5), dict(t_close=0.3)):
            cons = build_constraints(space, **kw)
            for name in ("dm", "cm", "vm"):
                ctx = BoundContext(space, make_metric(name, space), cons)
                for b in blocks.values():
                    ctx.min_cost(b)
                assert ctx.sound, (name, kw)
