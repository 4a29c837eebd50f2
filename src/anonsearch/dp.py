"""Exact dynamic program over block extents.

Every metric is a sum of per-block costs and every constraint a
per-block check, so the cheapest feasible partition reachable from a
block B decomposes over its moves:

    OPT(B) = min(cost(B) if B passes every constraint,
                 min over the moves m of B of the sum of OPT over the
                 new blocks of m)

This is the DP over rectangles for hierarchical partitions
(Muthukrishnan, Poosala & Suel, ICDT 1999). It searches shared
sub-blocks instead of whole trees: each extent is solved once, and its
optimum and the records of the new blocks of its chosen move are kept
on its `ExtentRecord` (`opt`, `choice`). A move's new blocks come from
`Space.move_blocks`, their records from the `BoundContext`; the record's
move table is best-first's, and the DP reads none of it.

- A block failing a monotone constraint has no feasible refinement: its
  optimum is inf and it is not split.
- A block failing only non-monotone constraints cannot be a leaf, but
  it can be split.
- Under the floor contract (`metrics.Metric`) no partition of a block
  costs less than its floor (`BoundContext.min_cost`). So trying moves
  stops once the best equals the floor, and a move is cut once the sum
  of its solved blocks' optima plus the floors of the others reaches
  the best so far. The cut is local to the extent: every optimum kept
  is exact.

The recursion runs on an explicit stack of generators, one per extent
being solved, so its depth is not bounded by the interpreter's; it is
at most the number of splits plus one.
"""

from __future__ import annotations

import math


class ExtentDP:
    """Solves the extents of one `BoundContext`, counting into `stats`:
    `generated` extents solved, `expanded` extents whose moves were
    tried, `pruned_bound` moves cut by floors or partial sums and
    `pruned_infeasible` moves with a block failing a monotone
    constraint."""

    def __init__(self, ctx, stats):
        self.ctx = ctx
        self.stats = stats

    def solve(self, rec) -> float:
        """The optimum of `rec`'s extent, solving it first if need be."""
        stack = [] if rec.opt is not None else [self._frame(rec)]
        while stack:
            need = next(stack[-1], None)
            if need is None:
                stack.pop()
            else:
                stack.append(self._frame(need))
        return rec.opt

    def _frame(self, rec):
        """Solve `rec`, yielding each record whose optimum it needs
        before that record is solved.

        The new blocks of every move get their records, and those of
        each move with no block failing a monotone constraint their
        floors, before the first move is tried, so the floor-contract
        guard (`BoundContext.sound`) checks the same blocks whatever
        the floors and partial sums cut."""
        ctx, stats = self.ctx, self.stats
        stats.generated += 1
        fails_any, fails_mono = rec.flags
        best = math.inf if fails_any else rec.cost
        choice = None
        floor = ctx.min_cost(rec.block) if rec.floor is None else rec.floor
        if not fails_mono and best > floor:
            stats.expanded += 1
            space, record, min_cost = ctx.space, ctx.record, ctx.min_cost
            options = []
            for move in space.available_moves(rec.block.extent):
                kids = tuple(map(record, space.move_blocks(rec.block, move)))
                if any(kid.flags[1] for kid in kids):
                    options.append(None)
                else:
                    options.append((kids, [min_cost(kid.block)
                                           if kid.floor is None
                                           else kid.floor for kid in kids]))
            for option in options:
                if option is None:
                    stats.pruned_infeasible += 1
                    continue
                # the sum of the kids' optima, cut once a partial sum
                # plus the floors of the kids not yet added reaches `best`
                kids, floors = option
                rest, total = sum(floors), 0
                for kid, kid_floor in zip(kids, floors):
                    if total + rest >= best:
                        total = math.inf
                        break
                    if kid.opt is None:
                        yield kid
                    total += kid.opt
                    rest -= kid_floor
                if total >= best:
                    stats.pruned_bound += 1
                    continue
                best, choice = total, kids
                if best <= floor:
                    break
        rec.opt, rec.choice = best, choice

    @staticmethod
    def blocks(rec) -> list:
        """The blocks of the optimal partition of a solved extent whose
        optimum is finite."""
        out, stack = [], [rec]
        while stack:
            rec = stack.pop()
            if rec.choice is None:
                out.append(rec.block)
            else:
                stack.extend(rec.choice)
        return out
