import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.constraints import build_constraints
from anonsearch.enumeration import enumerate_trees
from anonsearch.metrics import make_metric
from anonsearch.partition import (Internal, Leaf, PartitionTree, Space,
                                  canonical_tree, is_legal, legal_moves,
                                  normalize)
from anonsearch.search import SearchConfig, best_first, search
from anonsearch.splits import Move

from conftest import (block_rows, build_space, geometric_is_cut, is_cut,
                      random_instance, random_loose_tree, random_tree,
                      rebuild_canonical, reference_legal_move,
                      reference_splittable_leaves)


def mv(space, split_id):
    return Move((space.splits.by_id[split_id],))


def exp(space, attr_idx, rng):
    return space.splits.expansions[(attr_idx, rng)]


# ---- block splitting ----

def test_numeric_boundary_value_goes_tree_left(grid_space):
    s = grid_space.splits.by_id[2]  # x = 2
    xs = grid_space.dataset.column("x")
    left, right = grid_space.apply_split(grid_space.root_block, s)
    assert left.extent[0] == (0.0, 2.0) and right.extent[0] == (2.0, 4.0)
    left_rows = block_rows(grid_space, left)
    right_rows = block_rows(grid_space, right)
    for r in left_rows:
        assert xs[r] <= 2
    for r in right_rows:
        assert xs[r] > 2
    assert sorted(left_rows + right_rows) == block_rows(
        grid_space, grid_space.root_block)


def test_categorical_tree_left_is_upper_range(tax_space):
    s = tax_space.splits.by_id[1]  # root boundary at position 2
    left, right = tax_space.apply_split(tax_space.root_block, s)
    # lower-id side holds the positions at and above the boundary
    assert left.extent[0] == (2, 4)
    assert right.extent[0] == (0, 2)
    pos = tax_space.qi_schema[0].taxonomy.leaf_position
    ws = tax_space.dataset.column("w")
    for r in block_rows(tax_space, left):
        assert pos(ws[r]) >= 2
    for r in block_rows(tax_space, right):
        assert pos(ws[r]) < 2


def test_move_blocks_chain_covers_children(tax_space):
    move = exp(tax_space, 0, (0, 4))
    blocks = tax_space.move_blocks(tax_space.root_block, move)
    assert [b.extent[0] for b in blocks] == [(2, 4), (0, 2)]
    sub = exp(tax_space, 0, (0, 2))
    blocks = tax_space.move_blocks(blocks[1], sub)
    assert [b.extent[0] for b in blocks] == [(1, 2), (0, 1)]


def test_available_moves_numeric_interior_only(grid_space):
    root = grid_space.root_block
    left, _ = grid_space.apply_split(root, grid_space.splits.by_id[2])
    ids = [m.id for m in grid_space.available_moves(left.extent)]
    assert ids == [1, 4, 5]  # x=1 inside (0,2); y cuts; x=3 excluded


def test_available_moves_categorical_exact_range_only(tax_space):
    root = tax_space.root_block
    moves = tax_space.available_moves(root.extent)
    # root expansion plus the two numeric cuts, never the sub-expansions
    assert [m.id for m in moves] == [1, 4, 5]
    left, right = tax_space.apply_split(root, tax_space.splits.by_id[1])
    assert [m.id for m in tax_space.available_moves(right.extent)][0] == 2
    assert [m.id for m in tax_space.available_moves(left.extent)][0] == 3


def test_available_moves_agree_with_a_fresh_space(grid_space, tax_space):
    # the moves depend on the extent alone: a fresh space agrees with one
    # that has served every extent before
    for space in (grid_space, tax_space):
        cold = Space(space.dataset, space.splits)
        for tree in enumerate_trees(space):
            for b in tree.leaf_blocks():
                moves = space.available_moves(b.extent)
                assert [m.id for m in moves] == sorted(m.id for m in moves)
                assert cold.available_moves(b.extent) == moves


def test_apply_move_timestamps_preorder(grid_space):
    t = grid_space.root_tree()
    t = t.apply_move((), mv(grid_space, 2))
    t = t.apply_move((0,), mv(grid_space, 4))
    # only leaves after the last internal node in pre-order may split
    assert [p for p, *_ in t.splittable_leaves()] == [(0, 0), (0, 1), (1,)]
    t = t.apply_move((1,), mv(grid_space, 3))
    assert [p for p, *_ in t.splittable_leaves()] == [(1, 0), (1, 1)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_splittable_leaves_matches_forward_walk(seed):
    # the tail walk stops at the last move head in reverse pre-order; the
    # reference walks the whole tree forward with a marker. Loose trees
    # put heads and categorical chains in non-canonical places.
    rng = random.Random(seed)
    space = chain_instance(rng)
    for grow in (random_tree, random_loose_tree):
        for _ in range(4):
            tree = grow(space, rng, max_moves=8)
            assert [(p, leaf) for p, leaf, _ in tree.splittable_leaves()] \
                == reference_splittable_leaves(tree)


# ---- full-cut detection ----

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_is_cut_matches_geometry(seed):
    rng = random.Random(seed)
    space = random_instance(rng)
    tree = random_tree(space, rng)
    leaves = [n for _, n in tree.pre_order() if isinstance(n, Leaf)]
    pendings = [None] + leaves
    for s in space.splits.splits:
        pending = rng.choice(pendings)
        assert is_cut(tree.root, s, pending) == \
            geometric_is_cut(tree.root, s, pending)


def chain_instance(rng):
    """A random instance with a taxonomy expansion of several cuts."""
    while True:
        space = random_instance(rng, total_splits=rng.randint(3, 6))
        if any(len(m.splits) > 1 for m in space.splits.expansions.values()):
            return space


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cut_masks_match_geometry(seed):
    # every node's cut mask, built bottom-up from its children's, against
    # the plane-geometry definition, on trees from every way of building
    # one, where a sibling set's splits cut all or none; then the pending
    # form: growing a leaf sets bit s of each ancestor iff s fully cuts
    # the old ancestor with the leaf pending
    rng = random.Random(seed)
    space = chain_instance(rng)
    canonical = random_tree(space, rng, max_moves=8)
    loose = random_loose_tree(space, rng, max_moves=8)
    grown = [canonical, loose, normalize(loose), space.root_tree(),
             PartitionTree(space, rebuild_canonical(space,
                                                    loose.leaf_blocks()))]
    for tree in grown:
        for _, node in tree.pre_order():
            for s in space.splits.splits:
                assert (node.cuts >> s.id & 1) == geometric_is_cut(node, s)
    # legal_ids tests a sibling set by its first split: in a tree grown
    # by moves, every node but a chain's continuation nodes is cut by
    # all or none of one set's splits
    sets = [sum(1 << s.id for s in m.splits)
            for m in space.splits.expansions.values()]
    for tree in grown:
        for path, node in tree.pre_order():
            if path and path[-1] == 1 and isinstance(node, Internal):
                up = tree.node_at(path[:-1]).split
                if not up.numeric and up.set_id == node.split.set_id:
                    continue
            for bits in sets:
                assert node.cuts & bits in (0, bits)
    for tree in (canonical, loose):
        for path, leaf in tree.pre_order():
            if not isinstance(leaf, Leaf):
                continue
            for move in space.available_moves(leaf.block.extent):
                child = tree.apply_move(path, move)
                for depth in range(len(path) + 1):
                    old = tree.node_at(path[:depth])
                    new = child.node_at(path[:depth])
                    for s in move.splits:
                        assert (new.cuts >> s.id & 1) == \
                            geometric_is_cut(old, s, leaf)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_legal_moves_matches_head_by_head_reference(seed):
    # the mask walk reads only each ancestor's other child; the reference
    # re-tests every head's whole subtree geometrically
    rng = random.Random(seed)
    space = chain_instance(rng)
    for _ in range(4):
        tree = random_tree(space, rng, max_moves=8)
        legal = set(legal_moves(tree))
        for path, node in tree.pre_order():
            if not isinstance(node, Leaf):
                continue
            for move in space.available_moves(node.block.extent):
                assert ((path, move) in legal) == \
                    reference_legal_move(tree, path, move)


def test_duplicate_partition_blocked(grid_space):
    # after cutting at x=2, adding x=1 anywhere below is illegal: the
    # same partition is reachable with x=1 applied first
    t = grid_space.root_tree().apply_move((), mv(grid_space, 2))
    assert ((0,), mv(grid_space, 1)) not in legal_moves(t)
    assert ((1,), mv(grid_space, 3)) in legal_moves(t)
    # mirrored order is fine: x=2 after x=1
    t2 = grid_space.root_tree().apply_move((), mv(grid_space, 1))
    assert ((1,), mv(grid_space, 2)) in legal_moves(t2)


def test_pending_leaf_counts_as_cut(grid_space):
    # y=1 at the root with x=2 in its left child: adding x=2 in the
    # right child completes a full x=2 cut across the root, and the
    # check must count the target leaf itself as already cut. id 2 < 4
    # makes that duplicate (the same partition grows from x=2 first).
    t = grid_space.root_tree().apply_move((), mv(grid_space, 4))
    t = t.apply_move((0,), mv(grid_space, 2))
    assert ((1,), mv(grid_space, 2)) not in legal_moves(t)
    # mirror image: completing the y=1 cut under an x=2 root is legal
    t2 = grid_space.root_tree().apply_move((), mv(grid_space, 2))
    t2 = t2.apply_move((0,), mv(grid_space, 4))
    assert ((1,), mv(grid_space, 4)) in legal_moves(t2)


def test_legal_moves_only_grow_new_partitions(grid_space):
    seen = set()
    t = grid_space.root_tree()
    frontier = [t]
    for _ in range(3):
        nxt = []
        for tree in frontier:
            for path, move in legal_moves(tree):
                child = tree.apply_move(path, move)
                sig = child.signature()
                assert sig not in seen
                seen.add(sig)
                nxt.append(child)
        frontier = nxt


# ---- canonical form ----

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_normalize_matches_independent_rebuild(seed):
    rng = random.Random(seed)
    space = random_instance(rng)
    tree = random_loose_tree(space, rng)
    norm = normalize(tree)
    assert norm.signature() == tree.signature()
    assert is_legal(norm)
    rebuilt = rebuild_canonical(space, tree.leaf_blocks())
    assert norm.root == rebuilt


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_trees_from_legal_moves_are_canonical(seed):
    rng = random.Random(seed)
    space = random_instance(rng)
    tree = random_tree(space, rng)
    assert is_legal(tree)
    assert normalize(tree).root == tree.root


def test_internal_nodes_hold_only_their_split():
    assert [f.name for f in dataclasses.fields(Internal)] == \
        ["split", "left", "right", "cuts"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_canonical_form_splits_no_cells(seed):
    # canonicalization works on extents alone: it never partitions cells
    rng = random.Random(seed)
    space = random_instance(rng)
    trees = [random_tree(space, rng), random_loose_tree(space, rng)]

    def refused(*args):
        raise AssertionError("canonicalization split a block's cells")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Space, "apply_split", refused)
        for tree in trees:
            norm = normalize(tree)
            assert canonical_tree(space, tree.leaf_blocks()).root == norm.root
            assert is_legal(norm)
            is_legal(tree)


def test_blocks_that_are_no_partition_raise_value_error(grid_space):
    root = grid_space.root_block
    for blocks in ([root, root], []):
        with pytest.raises(ValueError, match="no partition"):
            canonical_tree(grid_space, blocks)


# ---- garbage ----

def test_growing_and_normalizing_leave_no_reference_cycles():
    """Trees are freed by reference counting alone: with the cyclic
    collector off, nothing is left for it after `apply_move` and
    `normalize`, nor after a best-first search, whose nodes, frontiers
    and lineages are freed the same way, nor after the DP's frames."""
    cfg = {"attributes": [
        {"name": "c", "kind": "categorical", "role": "qi",
         "values": ["p", "q", "r"], "splits": {"type": "taxonomy"}},
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 3],
         "splits": {"type": "explicit", "values": [1, 2]}},
    ]}
    space = build_space(cfg, [(c, x + 0.5) for c in "pqr" for x in range(3)])
    rng = random.Random(3)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            tree = space.root_tree()
            while moves := legal_moves(tree):
                tree = tree.apply_move(*rng.choice(moves))
            assert isinstance(tree.root, Internal)
            assert gc.collect() == 0
            assert is_legal(tree)
            assert gc.collect() == 0
        for solve, config in ((search, SearchConfig()),
                              (best_first, SearchConfig()),
                              (best_first, SearchConfig(max_queue=2))):
            res = solve(space, make_metric("dm", space),
                        build_constraints(space, k=2), config)
            assert res.best_tree is not None
            del res
            assert gc.collect() == 0
    finally:
        gc.enable()
