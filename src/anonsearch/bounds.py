"""Lower bounds on the cost of all partitions reachable from a tree, and
the one owner of a solve's block statistics.

A `BoundContext` serves one solve of one `(space, metric, constraints)`:
it memoizes each block's exact cost, constraint flags and
finest-refinement cost by extent, for the search and for greedy alike.
`ConstraintSet` and the metrics hold no per-block state.

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
finest-refinement cost of the frontier, added in pre-order: `pre[0]`
plus `mins` of `frontier`, which reads both off a walk of the tree. The
search walks only the root's tree: it derives each node's frontier from
its parent's (`frontiers`) and adds the same terms in the same order,
so its bounds equal `lower_bound` of the node's tree bit for bit.
"""

from __future__ import annotations


class BoundContext:
    """The per-extent statistics of one solve: `cost`, `flags` and
    `min_cost` of a block, each memoized by extent for the life of the
    context. A metric or constraint that reads a `Space` must read this
    one; another is refused with a `ValueError` naming it.

    The finest-cell table lives on the `Space`; this keeps the metric's
    floor of each non-empty cell under the constraints' minimum block
    size, built on the first `min_cost` call, so a solve that reads no
    floor (greedy) builds none. A new extent's `min_cost` is one addition
    per cell of the block, in ascending cell order: the order of the
    cells' first rows, so row order can move only the last ulp of a vm
    sum; dm and cm floors are integers, exact in any order.
    """

    def __init__(self, space, metric, constraints):
        for kind, obj in (("metric", metric),
                          *(("constraint", c) for c in constraints)):
            if getattr(obj, "space", space) is not space:
                raise ValueError(f"{kind} {obj.name!r} was built for "
                                 "another Space")
        self.space = space
        self.metric = metric
        self.cons = constraints
        self._costs: dict = {}
        self._flags: dict = {}
        self._mins: dict = {}
        self._floors = None

    def cost(self, block) -> float:
        """The metric's exact cost of `block`."""
        hit = self._costs.get(block.extent)
        if hit is None:
            hit = self._costs[block.extent] = self.metric.block_cost(block)
        return hit

    def flags(self, block):
        """`(fails_any, fails_monotone)` of `block` under the constraints."""
        hit = self._flags.get(block.extent)
        if hit is None:
            hit = self._flags[block.extent] = self.cons.block_flags(block)
        return hit

    def min_cost(self, block) -> float:
        hit = self._mins.get(block.extent)
        if hit is not None:
            return hit
        floors = self._floors
        if floors is None:
            space, size_floor = self.space, self.cons.min_block_size()
            floors = self._floors = [
                self.metric.floor_cost(space.cell_block(cell), size_floor)
                for cell in range(len(space.cell_counts))]
        total = 0.0
        for cell in block.cells:
            total += floors[cell]
        self._mins[block.extent] = total
        return total


def frontier(tree, ctx: BoundContext):
    """The bound terms of a tree from a walk of its leaves: `(pre, mins)`.

    `mins[j]` is the finest-refinement cost of the tree's j-th refinable
    leaf in pre-order (from `splittable_leaves`), and `pre[j]` is the
    running pre-order sum of exact leaf costs of all leaves before it;
    `pre[0]` is the exact cost of the frozen prefix and `pre[-1]` the
    exact cost of the whole tree.
    """
    leaves = [leaf.block for _, leaf, _ in tree.splittable_leaves()]
    blocks = tree.leaf_blocks()
    total = 0.0
    for b in blocks[:len(blocks) - len(leaves)]:
        total += ctx.cost(b)
    pre, mins = [], []
    for b in leaves:
        pre.append(total)
        mins.append(ctx.min_cost(b))
        total += ctx.cost(b)
    pre.append(total)
    return pre, mins


def lower_bound(tree, ctx: BoundContext) -> float:
    """Lower bound over the partitions reachable from `tree`: the frozen
    prefix at exact cost plus the frontier at finest-refinement cost,
    added in pre-order."""
    pre, mins = frontier(tree, ctx)
    total = pre[0]
    for m in mins:
        total += m
    return total
