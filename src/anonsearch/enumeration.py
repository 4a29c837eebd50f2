"""Exhaustive enumeration of partitions.

`enumerate_trees` walks the duplicate-free order: every reachable
partition appears exactly once, represented by its canonical tree. With a
single numeric attribute and N splits this yields exactly 2**N trees, one
per subset of cuts.

`multi_enumerate` drops the ancestor-id rule and only keeps the pre-order
growth rule, so the same partition is reached once per admissible
construction order. It exists to validate the duplicate-free walk and is
capped to small instances.
"""

from __future__ import annotations

from .partition import PartitionTree, Space, legal_moves

MULTI_LIMIT = 8


def enumerate_trees(space: Space, limit=None):
    """Yield every reachable partition tree exactly once (DFS)."""
    count = 0

    def rec(tree: PartitionTree):
        nonlocal count
        if limit is not None and count >= limit:
            return
        yield tree
        count += 1
        for path, move in legal_moves(tree):
            yield from rec(tree.apply_move(path, move))

    yield from rec(space.root_tree())


def count_partitions(space: Space, limit=None) -> int:
    return sum(1 for _ in enumerate_trees(space, limit))


def multi_enumerate(space: Space):
    """Yield trees under the pre-order growth rule only; a partition shows
    up once per construction order. Guarded to small split sets."""
    if len(space.splits) > MULTI_LIMIT:
        raise ValueError(f"multi-enumeration is limited to "
                         f"{MULTI_LIMIT} splits")

    def rec(tree: PartitionTree):
        yield tree
        for path, leaf, _ in tree.splittable_leaves():
            for move in space.available_moves(leaf.block):
                yield from rec(tree.apply_move(path, move))

    return rec(space.root_tree())


def distinct_signatures(trees) -> set:
    return {t.signature() for t in trees}
