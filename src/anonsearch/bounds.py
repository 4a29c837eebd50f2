"""Lower bounds on the cost of all partitions reachable from a tree.

Only leaves that are still splittable (those after the most recent move
head in pre-order) can be refined; every other leaf pays its exact cost. A
refinable leaf is charged the cost of cutting it into the finest cells
the split set allows, with the per-cell floor supplied by the metric.
The constraints give the smallest admissible block size
(`ConstraintSet.min_block_size`); for the squared-size metric a cell
below it is charged that size per tuple, since any feasible solution
must merge it into a block of at least that many tuples.

Every block extent lies on split planes, so a block's finest cells are
exactly the cells it lists (`Block.cells`, binned once by the `Space`),
and its finest-refinement cost is the sum of their floors.

The refinable leaves (the frontier) are a pre-order suffix of the
leaves, so a bound is the exact cost of the frozen prefix plus the
finest-refinement cost of the frontier, added in pre-order. Growing
frontier leaf i freezes frontier leaves 0..i-1, puts the move's blocks in
place of leaf i and keeps the rest. A child's bound therefore follows
from its parent's `frontier` without walking the child's tree, and so
does its frozen prefix: `pre[i]`, the parent's frozen prefix plus the
exact costs of frontier leaves 0..i-1, the very additions a walk of the
child's leaves would make. `frontier` takes the frontier leaves, found
by a walk of only the tail of the tree (`splittable_leaves`), and the
frozen prefix from the caller; the search carries it on each node and
adds the same terms in the same order, so its bounds equal
`lower_bound` of the child bit for bit.
"""

from __future__ import annotations


class BoundContext:
    """Per-cell metric floors plus finest-refinement costs memoized per
    extent.

    The finest-cell table lives on the `Space`; this keeps the metric's
    floor of each non-empty cell under the constraints' minimum block
    size. A new extent costs one addition per cell of the block, in
    ascending cell order: the order of the cells' first rows, so row
    order can move only the last ulp of a vm sum; dm and cm floors are
    integers, exact in any order.
    """

    def __init__(self, space, metric, constraints):
        self.metric = metric
        self._memo: dict = {}
        size_floor = constraints.min_block_size()
        self._floors = [metric.floor_cost(space.cell_block(cell), size_floor)
                        for cell in range(len(space.cell_counts))]

    def min_cost(self, block) -> float:
        hit = self._memo.get(block.extent)
        if hit is not None:
            return hit
        total = 0.0
        for cell in block.cells:
            total += self._floors[cell]
        self._memo[block.extent] = total
        return total


def frontier(leaves, ctx: BoundContext, cost_of, frozen: float):
    """The bound terms of a tree from its frontier: `(pre, mins)`.

    `leaves` are the tree's refinable leaves in pre-order (the frontier,
    from `splittable_leaves`), `mins[j]` is the finest-refinement cost of
    `leaves[j]`, and `pre[j]` is the running pre-order sum of exact leaf
    costs up to, not including, `leaves[j]`; `pre[-1]` is the exact cost
    of the whole tree. The frontier is a pre-order suffix of the leaves,
    so the sum starts at `frozen`, the exact cost of the leaves before it
    added in pre-order.
    """
    pre, mins = [], []
    total = frozen
    for _, node, _ in leaves:
        pre.append(total)
        mins.append(ctx.min_cost(node.block))
        total += cost_of(node.block)
    pre.append(total)
    return pre, mins


def frozen_cost(tree, cost_of) -> float:
    """Exact cost of the leaves before the frontier, added in pre-order."""
    blocks = tree.leaf_blocks()
    total = 0.0
    for b in blocks[:len(blocks) - len(tree.splittable_leaves())]:
        total += cost_of(b)
    return total


def lower_bound(tree, ctx: BoundContext, cost_of=None) -> float:
    """Lower bound over the partitions reachable from `tree`: the frozen
    prefix at exact cost plus the frontier at finest-refinement cost,
    added in pre-order. Walks the whole tree; the search carries the
    frozen prefix instead.

    `cost_of` maps a block to its exact metric cost; defaults to the
    context's metric.
    """
    if cost_of is None:
        cost_of = ctx.metric.block_cost
    pre, mins = frontier(tree.splittable_leaves(), ctx, cost_of,
                         frozen_cost(tree, cost_of))
    total = pre[0]
    for m in mins:
        total += m
    return total
