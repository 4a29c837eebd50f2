"""Exhaustive enumeration of partitions.

`enumerate_trees` walks the duplicate-free order: every reachable
partition appears exactly once, represented by its canonical tree. With a
single numeric attribute and N splits this yields exactly 2**N trees, one
per subset of cuts.

`multi_enumerate` drops the ancestor-id rule and only keeps the pre-order
growth rule, so the same partition is reached once per admissible
construction order. It exists to validate the duplicate-free walk and is
capped to small instances. It carries each order's leaf blocks as a
pre-order list, not a `PartitionTree`, so it shares only
`Space.available_moves` and `Space.move_blocks` with the walk it checks.
"""

from __future__ import annotations

from .partition import PartitionTree, Space, legal_moves

MULTI_LIMIT = 8


def _split_memo(space: Space):
    """`move_blocks` memoized by (extent, move id), for one enumeration:
    the same block is split the same way in many trees."""
    memo: dict = {}

    def split(block, move):
        key = (block.extent, move.id)
        blocks = memo.get(key)
        if blocks is None:
            blocks = memo[key] = space.move_blocks(block, move)
        return blocks

    return split


def enumerate_trees(space: Space, limit=None):
    """Yield every reachable partition tree exactly once (DFS)."""
    count = 0
    split = _split_memo(space)

    def rec(tree: PartitionTree):
        nonlocal count
        if limit is not None and count >= limit:
            return
        yield tree
        count += 1
        for path, move in legal_moves(tree):
            blocks = split(tree.node_at(path).block, move)
            yield from rec(tree.apply_move(path, move, blocks))

    yield from rec(space.root_tree())


def count_partitions(space: Space, limit=None) -> int:
    return sum(1 for _ in enumerate_trees(space, limit))


def multi_enumerate(space: Space):
    """Yield the pre-order leaf blocks of every tree grown under the
    pre-order growth rule only; a partition shows up once per
    construction order. A move at leaf i puts its blocks in that leaf's
    place and freezes the leaves before it. Guarded to small split sets."""
    if len(space.splits) > MULTI_LIMIT:
        raise ValueError(f"multi-enumeration is limited to "
                         f"{MULTI_LIMIT} splits")

    split = _split_memo(space)

    def walk():
        stack = [([space.root_block], 0)]
        while stack:
            leaves, start = stack.pop()
            yield leaves
            for i in range(start, len(leaves)):
                head, tail = leaves[:i], leaves[i + 1:]
                for move in space.available_moves(leaves[i].extent):
                    stack.append((head + split(leaves[i], move) + tail, i))

    return walk()


def distinct_signatures(leaf_lists) -> set:
    """The distinct partitions among leaf block lists, each in the form of
    `PartitionTree.signature()`."""
    return {tuple(sorted(b.extent for b in leaves)) for leaves in leaf_lists}
