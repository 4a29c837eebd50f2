"""Lower bounds on the cost of all partitions reachable from a tree.

Only leaves that are still splittable (those after the most recent move
head in pre-order) can be refined; every other leaf pays its exact cost. A
refinable leaf is charged the cost of cutting it into the finest cells
the split set allows, with the per-cell floor supplied by the metric.
For the squared-size metric a cell below the minimum admissible size k
is charged k per tuple, since any feasible solution must merge it into a
block of at least k tuples.

Every block extent lies on split planes, so each row's global finest
cell lies inside every block that holds the row, and a block's finest
cells are exactly the cells of its rows: `BoundContext` bins the rows
into those cells once and never bisects a block's rows again.

The refinable leaves (the frontier) are a pre-order suffix of the
leaves, so a bound is the exact cost of the frozen prefix plus the
finest-refinement cost of the frontier, added in pre-order. Growing
frontier leaf i freezes frontier leaves 0..i-1, puts the move's blocks in
place of leaf i and keeps the rest. A child's bound therefore follows
from its parent's `frontier` without walking the child's tree, and so
does its frozen prefix: `pre[i]`, the parent's frozen prefix plus the
exact costs of frontier leaves 0..i-1, the very additions a walk of the
child's leaves would make. `frontier` takes the frozen prefix from the
caller and walks only the tail of the tree (`splittable_leaves`); the
search carries it on each node and adds the same terms in the same
order, so its bounds equal `lower_bound` of the child bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class BoundContext:
    """Finest-cell table plus finest-refinement costs memoized per extent.

    The table is built once per search in O(N * d) for N rows and d QI
    attributes: one bisection per row and attribute, boundary values
    placed as `Space.apply_split` places them. It keeps each non-empty
    cell's metric floor and each row's cell. A new extent costs one list
    lookup per block row plus a sort of the block's distinct cells, so no
    block costs more than binning its rows afresh.

    Cells are numbered, and their floors summed, in the order of their
    first row, as a scan of a block's rows meets them. Row order can thus
    move only the last ulp of a vm sum; dm and cm floors are integers,
    exact in any order.
    """

    def __init__(self, space, metric):
        self.metric = metric
        self._memo: dict = {}
        planes = [space.splits.planes(a) for a in space.qi]
        binned = [(bisect_left if attr.is_numeric else bisect_right,
                   cuts, space.columns[a]) for a, attr, cuts
                  in zip(space.qi, space.qi_schema, planes)]
        index: dict = {}    # cell index tuple -> cell position
        self._cell_of = [
            index.setdefault(tuple([find(cuts, col[r])
                                    for find, cuts, col in binned]),
                             len(index))
            for r in space.root_block.rows]
        members = [[] for _ in index]
        for r, cell in enumerate(self._cell_of):
            members[cell].append(r)

        # cell i of an attribute spans edges[i]..edges[i + 1]
        edges = [[lo, *cuts, hi] for cuts, (lo, hi)
                 in zip(planes, space.root_block.extent)]
        labels = getattr(metric, "labels", None)
        volume = getattr(metric, "volume", None)
        self._floors = []
        for key, rows in zip(index, members):
            vol = 0.0
            if volume is not None:
                vol = volume(tuple((e[i], e[i + 1]) for i, e in zip(key, edges)))
            cell_labels = None if labels is None else [labels[r] for r in rows]
            self._floors.append(metric.floor_cost(len(rows), vol, cell_labels))

    def min_cost(self, block) -> float:
        hit = self._memo.get(block.extent)
        if hit is not None:
            return hit
        total = 0.0
        for cell in sorted(set(map(self._cell_of.__getitem__, block.rows))):
            total += self._floors[cell]
        self._memo[block.extent] = total
        return total


def frontier(tree, ctx: BoundContext, cost_of, frozen: float):
    """The bound terms of `tree` from its frontier: `(leaves, pre, mins)`.

    `leaves` are the refinable leaves as `(path, leaf)` in pre-order (the
    frontier), `mins[j]` is the finest-refinement cost of `leaves[j]`, and
    `pre[j]` is the running pre-order sum of exact leaf costs up to, not
    including, `leaves[j]`; `pre[-1]` is the exact cost of the whole tree.
    The frontier is a pre-order suffix of the leaves, so the sum starts
    at `frozen`, the exact cost of the leaves before it added in
    pre-order, and only the frontier is walked.
    """
    leaves = tree.splittable_leaves()
    pre, mins = [], []
    total = frozen
    for _, node in leaves:
        pre.append(total)
        mins.append(ctx.min_cost(node.block))
        total += cost_of(node.block)
    pre.append(total)
    return leaves, pre, mins


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
    _, pre, mins = frontier(tree, ctx, cost_of, frozen_cost(tree, cost_of))
    total = pre[0]
    for m in mins:
        total += m
    return total
