"""Lower bounds on the cost of all partitions reachable from a tree, and
the one owner of a solve's block statistics.

A `BoundContext` serves one solve of one `(space, metric, constraints)`:
it keeps one record per block extent (`ExtentRecord`), for best-first,
the DP and greedy alike. A record holds the block's exact cost,
constraint flags and finest-refinement cost, plus best-first's move
table of the block (`fill`) or the DP's optimum of it. `ConstraintSet`
and the metrics hold no per-block state.

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


def is_whole(x) -> bool:
    """Whether `x` is a non-negative whole number."""
    return x >= 0 and x % 1 == 0


class ExtentRecord:
    """Everything one solve knows of one block extent: the block, its
    exact `cost`, its `flags` `(fails_any, fails_monotone)` and its
    `floor` (the finest-refinement cost, None until `min_cost` computes
    it).

    The move table is best-first's, None until best-first expands a
    leaf with this block: its `moves`, their id `ids` bits, `known` with
    the bits of the moves filled in (`BoundContext.fill`), `bad` those
    whose child adds a monotone failure, and `terms` mapping each other
    filled move's id to `(records, costs, floors, d_any)` of its new
    blocks in `move_blocks` order, `d_any` their any-failure count minus
    the old block's.

    Once the DP (`dp.ExtentDP`) solves the extent, `opt` is the least
    cost of a feasible partition of the block, inf if none, and `choice`
    the records of the new blocks of the move its optimal partition
    starts with, in `move_blocks` order, None if the block is that
    partition."""

    __slots__ = ("block", "cost", "flags", "floor", "moves", "ids", "terms",
                 "known", "bad", "opt", "choice")

    def __init__(self, block, cost, flags):
        self.block = block
        self.cost = cost
        self.flags = flags
        self.floor = self.moves = self.ids = self.terms = None
        self.opt = self.choice = None
        self.known = self.bad = 0


class BoundContext:
    """The per-extent statistics of one solve: one `ExtentRecord` per
    extent, made with the block's cost and flags on its first read and
    kept for the life of the context. A metric or constraint that reads a
    `Space` must read this one; another is refused with a `ValueError`
    naming it.

    The finest-cell table lives on the `Space`; this keeps the metric's
    floor of each non-empty cell under the constraints' minimum block
    size, built on the first `min_cost` call, so a solve that reads no
    floor (greedy) builds none. A new floor is one addition per cell of
    the block, in ascending cell order: the order of the cells' first
    rows, so row order can move only the last ulp of a vm sum; dm and cm
    floors are integers, exact in any order.

    `exact` stays True while every floor computed, and the cost of its
    block, is a whole number and every filled move's floors add up to
    its block's: the search's test for sharing one bound between a
    frontier leaf's children.

    `sound` turns False once a block that passes every constraint has a
    floor above its cost, by more than a relative 1e-9 (float metrics
    add floors and costs in other orders): the metric breaks the floor
    contract (`metrics.Metric`), so no bound of this solve certifies
    anything. The built-in metrics never turn it False.
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
        self.exact = True
        self.sound = True
        self._records: dict = {}   # extent -> ExtentRecord
        self._floors = None

    def record(self, block) -> ExtentRecord:
        """The record of `block`'s extent."""
        rec = self._records.get(block.extent)
        if rec is None:
            rec = self._records[block.extent] = ExtentRecord(
                block, self.metric.block_cost(block),
                self.cons.block_flags(block))
        return rec

    def cost(self, block) -> float:
        """The metric's exact cost of `block`."""
        return self.record(block).cost

    def flags(self, block):
        """`(fails_any, fails_monotone)` of `block` under the constraints."""
        return self.record(block).flags

    def min_cost(self, block) -> float:
        """The finest-refinement cost of `block`: its floor."""
        rec = self.record(block)
        if rec.floor is not None:
            return rec.floor
        floors = self._floors
        if floors is None:
            space, size_floor = self.space, self.cons.min_block_size()
            floors = self._floors = [
                self.metric.floor_cost(space.cell_block(cell), size_floor)
                for cell in range(len(space.cell_counts))]
        total = 0.0
        for cell in block.cells:
            total += floors[cell]
        rec.floor = total
        if not (is_whole(rec.cost) and is_whole(total)):
            self.exact = False
        if total - rec.cost > 1e-9 * abs(rec.cost) and not rec.flags[0]:
            self.sound = False
        return total

    def fill(self, rec: ExtentRecord, ids):
        """Fill `rec`'s move table for its moves with bits in `ids`."""
        old_any, old_mono = rec.flags
        for move in rec.moves:
            if not ids & move.bits:
                continue
            new = tuple(map(self.record,
                            self.space.move_blocks(rec.block, move)))
            if sum(r.flags[1] for r in new) > old_mono:
                rec.bad |= move.bits
                continue
            floors = tuple(self.min_cost(r.block) if r.floor is None
                           else r.floor for r in new)
            if sum(floors) != rec.floor:
                self.exact = False
            rec.terms[move.id] = (new, tuple(r.cost for r in new), floors,
                                  sum(r.flags[0] for r in new) - old_any)
        rec.known |= ids


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
