"""Lower bounds on the cost of all partitions reachable from a tree.

Only leaves that are still splittable (those after the most recent move
head in pre-order) can be refined; every other leaf pays its exact cost. A
refinable leaf is charged the cost of cutting it into the finest cells
the split set allows, with the per-cell floor supplied by the metric.
For the squared-size metric a cell below the minimum admissible size k
is charged k per tuple, since any feasible solution must merge it into a
block of at least k tuples.

The refinable leaves (the frontier) are a pre-order suffix of the
leaves, so a bound is the exact cost of the frozen prefix plus the
finest-refinement cost of the frontier, added in pre-order. Growing
frontier leaf i freezes frontier leaves 0..i-1, puts the move's blocks in
place of leaf i and keeps the rest. A child's bound therefore follows
from its parent's `frontier` without walking the child's tree; the search
adds the same terms in the same order, so it equals `lower_bound` of the
child bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .partition import Leaf


class BoundContext:
    """Memoizes finest-refinement costs per block extent."""

    def __init__(self, space, metric):
        self.space = space
        self.metric = metric
        self._memo: dict = {}
        self._planes = {}
        for attr_idx in space.qi:
            self._planes[attr_idx] = sorted(
                s.plane for s in space.splits.by_attr.get(attr_idx, ()))
        self._needs_labels = hasattr(metric, "labels")
        self._needs_volume = metric.name == "vm"

    def min_cost(self, block) -> float:
        hit = self._memo.get(block.extent)
        if hit is not None:
            return hit
        value = self._compute(block)
        self._memo[block.extent] = value
        return value

    def _compute(self, block) -> float:
        space = self.space
        attrs = []
        for qi_pos, attr_idx in enumerate(space.qi):
            lo, hi = block.extent[qi_pos]
            planes = [p for p in self._planes[attr_idx] if lo < p < hi]
            numeric = space.dataset.schema[attr_idx].is_numeric
            attrs.append((qi_pos, attr_idx, planes, numeric, lo, hi))

        cells: dict = {}
        for r in block.rows:
            key = []
            for qi_pos, attr_idx, planes, numeric, _, _ in attrs:
                v = space.columns[attr_idx][r]
                # boundary values go tree-left for numeric cuts and to the
                # upper range for categorical ones
                if numeric:
                    key.append(bisect_left(planes, v))
                else:
                    key.append(bisect_right(planes, v))
            cells.setdefault(tuple(key), []).append(r)

        metric = self.metric
        total = 0.0
        for key, rows in cells.items():
            volume = 0.0
            if self._needs_volume:
                extent = []
                for (qi_pos, _, planes, _, lo, hi), idx in zip(attrs, key):
                    a = planes[idx - 1] if idx > 0 else lo
                    b = planes[idx] if idx < len(planes) else hi
                    extent.append((a, b))
                volume = metric.volume(tuple(extent))
            labels = None
            if self._needs_labels:
                labels = [metric.labels[r] for r in rows]
            total += metric.floor_cost(len(rows), volume, labels)
        return total


def frontier(tree, ctx: BoundContext, cost_of):
    """One walk of `tree` for its bound: `(leaves, pre, mins)`.

    `leaves` are the refinable leaves as `(path, leaf)` in pre-order (the
    frontier), `mins[j]` is the finest-refinement cost of `leaves[j]`, and
    `pre[j]` is the running pre-order sum of exact leaf costs up to, not
    including, `leaves[j]`; `pre[-1]` is the exact cost of the whole tree.
    The frontier is a pre-order suffix of the leaves, so `pre[0]` is the
    exact cost of the frozen prefix.
    """
    refinable = {path for path, _ in tree.splittable_leaves()}
    leaves, pre, mins = [], [], []
    total = 0.0
    for path, node in tree.pre_order():
        if not isinstance(node, Leaf):
            continue
        if path in refinable:
            leaves.append((path, node))
            pre.append(total)
            mins.append(ctx.min_cost(node.block))
        total += cost_of(node.block)
    pre.append(total)
    return leaves, pre, mins


def lower_bound(tree, ctx: BoundContext, cost_of=None) -> float:
    """Lower bound over the partitions reachable from `tree`: the frozen
    prefix at exact cost plus the frontier at finest-refinement cost,
    added in pre-order.

    `cost_of` maps a block to its exact metric cost; defaults to the
    context's metric.
    """
    if cost_of is None:
        cost_of = ctx.metric.block_cost
    _, pre, mins = frontier(tree, ctx, cost_of)
    total = pre[0]
    for m in mins:
        total += m
    return total
