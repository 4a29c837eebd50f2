"""Best-first search for a minimum-cost feasible partition.

Nodes are partition trees from the duplicate-free order, keyed by lower
bound or cost. Every feasible node generated updates the incumbent
immediately; children are enqueued only while alpha * bound stays below
the incumbent, so alpha = 1 proves optimality and alpha > 1 proves an
alpha-approximation once the queue drains.

Blocks violating a monotone constraint can never be repaired by further
splitting, so such nodes are discarded entirely; nodes violating only
non-monotone constraints stay expandable but cannot become incumbents.

When the queue would outgrow its limit, a greedy dive from the best
entry tries to tighten the incumbent, the queue is re-filtered against
it, and if still too large the worst entries are dropped in 10% rounds
until half the limit remains. Dropped bounds are remembered: they cap
the provable lower bound, and any forced drop voids the certificate.
The node and time budgets are checked before every expansion and every
dive step.

Children are scored without building their trees. Expanding a node
walks only the tail of its tree (`bounds.frontier`): the refinable
leaves form a pre-order suffix, which `splittable_leaves` finds in
reverse pre-order, stopping at the last move head. Each node carries
`frozen`, the exact cost of the leaves before that suffix added in
pre-order, so `pre[i]`, the exact cost of every leaf before frontier
leaf i, is `frozen` plus the frontier's costs before i, and `mins` are
the frontier's finest-refinement costs. Growing frontier leaf i freezes
the leaves before it, so the child's bound is `pre[i]`, plus the floor
of each new block, plus `mins[j]` for j > i, added in that order: the
same float as `lower_bound` of the child's tree. The child's frozen
leaves are the parent's leaves before leaf i, so its `frozen` is
`pre[i]`, bit-identical to a sum over its tree. Only a tree evaluated
from scratch (the root, a seed) has its `frozen` summed from a walk of
all its leaves; the root's is 0.0. A child's tree is built at once only
when it becomes the incumbent. Most children are pruned at once; a
queued child holds its parent's tree, path and move, and its own tree
is grown only when it is expanded, since many queued nodes are pruned
or dropped unexpanded.

The legal children come from one pass over the frontier leaves. The same
walk that finds them hands out each leaf's ancestry, the cut masks of
its ancestors' other children, and `partition.legal_ids` decides all of
a leaf's moves in one walk up it. The same block meets the same move in
many nodes, so a child's terms are memoized in a table per block extent,
one slot per available move, the first time a legal move needs them: the
change in flag counts and, unless the move adds a monotone failure, the
exact cost and the floor of each new block, in `move_blocks` order. A
child that fails a monotone constraint is counted where it is reached
and never scored. Scoring a child is one lookup plus float additions:
the parent's cost less the old block's, plus each new block's cost;
`pre[i]`, plus each new floor, plus `mins[j]` for j > i. The stored
terms are the very floats a block-by-block sum would add, in the same
order, so costs and bounds stay bit-identical for every metric, vm
included.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

from .bounds import BoundContext, frontier, frozen_cost, lower_bound
from .constraints import ConstraintSet
from .metrics import Metric, theoretical_bound
# `legal_moves` is not called here; perfbench/spans.py wraps it by name
from .partition import (PartitionTree, Space, is_legal, legal_ids,
                        legal_moves, normalize)

INF = math.inf


class SearchConfigError(ValueError):
    """A `SearchConfig` value out of range; `field` names the field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


@dataclass
class SearchConfig:
    mode: str = "optimal"        # "optimal" | "approx"
    alpha: float = 1.0           # approximation factor, >= 1
    priority: str = "lb"         # "lb" | "cost"
    max_queue: int = 100_000
    time_limit: float | None = None   # seconds
    node_limit: int | None = None     # generated nodes

    def __post_init__(self):
        if self.mode not in ("optimal", "approx"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.mode == "optimal":
            self.alpha = 1.0
        elif not self.alpha >= 1:
            raise SearchConfigError("alpha", f"must be >= 1, got {self.alpha:g}")
        if self.priority not in ("lb", "cost"):
            raise ValueError(f"bad priority {self.priority!r}")
        if self.max_queue < 1:
            raise SearchConfigError(
                "max_queue", f"must be >= 1, got {self.max_queue}")
        for name in ("time_limit", "node_limit"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise SearchConfigError(name, f"must be >= 0, got {value:g}")


@dataclass
class SearchStats:
    generated: int = 0
    expanded: int = 0
    pruned_bound: int = 0
    pruned_infeasible: int = 0
    probes: int = 0
    forced_drops: int = 0
    max_queue_seen: int = 0
    elapsed_sec: float = 0.0


@dataclass
class SearchResult:
    status: str                   # optimal | approx | exhausted | infeasible
    best_tree: PartitionTree | None
    best_cost: float
    lower_bound: float
    ratio: float | None
    certified: bool
    alpha_guarantee: float | None
    stats: SearchStats
    progress: list = field(default_factory=list)

    @property
    def blocks(self):
        return None if self.best_tree is None else self.best_tree.leaf_blocks()


@dataclass(slots=True)
class _Node:
    tree: PartitionTree | None   # None until the node is expanded
    cost: float
    lb: float
    fail_any: int     # blocks violating any constraint
    fail_mono: int    # blocks violating a monotone constraint
    frozen: float     # exact cost of the leaves before the frontier
    # a queued child's tree is grown on expansion: parent.apply_move(path,
    # move); parent is None once the tree exists
    parent: PartitionTree | None = None
    path: tuple = ()
    move: object = None


class _Searcher:
    def __init__(self, space, metric, constraints, config, seed_tree=None):
        self.space = space
        self.metric = metric
        self.cons = constraints
        self.cfg = config
        self.seed_tree = seed_tree
        self.bctx = BoundContext(space, metric, constraints)
        self.theory = theoretical_bound(metric, space,
                                        constraints.min_block_size())
        self._costs: dict = {}
        # extent -> (moves, their id bits, each move's child terms or None)
        self._tables: dict = {}
        self.stats = SearchStats()
        self.progress: list = []
        self.best: float = INF
        self.best_tree = None
        self.frontier_min = INF   # min lb among bound-pruned nodes
        self.dropped_min = INF    # min lb among force-dropped nodes
        self.heap: list = []
        self._seq = 0
        self._t0 = time.monotonic()

    # ---- scoring ----

    def cost_of(self, block) -> float:
        c = self._costs.get(block.extent)
        if c is None:
            c = self.metric.block_cost(block)
            self._costs[block.extent] = c
        return c

    def _evaluate(self, tree) -> _Node:
        blocks = tree.leaf_blocks()
        cost = sum(self.cost_of(b) for b in blocks)
        fa = fm = 0
        for b in blocks:
            a, m = self.cons.block_flags(b)
            fa += a
            fm += m
        lb = lower_bound(tree, self.bctx, self.cost_of)
        return _Node(tree, cost, lb, fa, fm, frozen_cost(tree, self.cost_of))

    def _move_terms(self, block, move):
        """`(costs, floors, d_any, d_mono)` of applying `move` to `block`:
        exact cost and finest-refinement cost of each new block in
        `move_blocks` order, and the new blocks' flag counts minus the old
        block's. A move that adds a monotone failure (`d_mono > 0`) makes
        every child it grows infeasible, so its costs and floors are
        None."""
        new = self.space.move_blocks(block, move)
        flags = [self.cons.block_flags(nb) for nb in new]
        old_any, old_mono = self.cons.block_flags(block)
        d_any = sum(a for a, _ in flags) - old_any
        d_mono = sum(m for _, m in flags) - old_mono
        if d_mono > 0:
            return None, None, d_any, d_mono
        return (tuple(map(self.cost_of, new)),
                tuple(map(self.bctx.min_cost, new)), d_any, d_mono)

    def _children(self, node: _Node, count_pruned: bool):
        """Score the legal children of `node` without building their trees.

        Yields `(path, move, cost, lb, fail_any, frozen)` for each child
        with no block failing a monotone constraint, in the order of
        `legal_moves(node.tree)`. Each other legal child is counted into
        `stats.generated`, and into `stats.pruned_infeasible` if
        `count_pruned`, at the point it is reached, so a probe that the
        consumer runs between two children reads the same count as if
        the consumer had counted every child itself.

        Per frontier leaf one `legal_ids` walk decides all its moves, and
        the parent's cost less the leaf's is taken once; per child the
        memoized terms of `_move_terms` (one table per leaf extent) are
        added to it, and the bound is summed as the module docstring
        describes. `frozen` is the child's frozen prefix, `pre[i]`.
        """
        if node.tree is None:   # a queued child: grow its tree now
            node.tree = node.parent.apply_move(node.path, node.move)
            node.parent = None
        leaves = node.tree.splittable_leaves()
        pre, mins = frontier(leaves, self.bctx, self.cost_of, node.frozen)
        stats = self.stats
        fail_any, fail_mono = node.fail_any, node.fail_mono
        for i, (path, leaf, ancestry) in enumerate(leaves):
            old = leaf.block
            table = self._tables.get(old.extent)
            if table is None:
                moves = self.space.available_moves(old)
                table = (moves, sum(m.bits for m in moves),
                         [None] * len(moves))
                self._tables[old.extent] = table
            moves, ids, slots = table
            legal = legal_ids(ancestry, ids)
            base = None
            for j, move in enumerate(moves):
                if not legal & move.bits:
                    continue
                terms = slots[j]
                if terms is None:
                    terms = slots[j] = self._move_terms(old, move)
                costs, floors, d_any, d_mono = terms
                if fail_mono + d_mono:
                    stats.generated += 1
                    if count_pruned:
                        stats.pruned_infeasible += 1
                    continue
                if base is None:
                    base = node.cost - self.cost_of(old)
                    rest = mins[i + 1:]
                cost = base
                for c in costs:
                    cost += c
                lb = pre[i]
                for floor in floors:
                    lb += floor
                for floor in rest:
                    lb += floor
                yield (path, move, cost, lb, fail_any + d_any, pre[i])

    def _key(self, node: _Node):
        if self.cfg.priority == "cost":
            return (node.cost, node.lb)
        return (node.lb, node.cost)

    # ---- incumbent / bookkeeping ----

    def _update_incumbent(self, node: _Node):
        if node.fail_any == 0 and node.cost < self.best:
            self._set_best(node.cost, node.tree)

    def _offer(self, parent_tree, path, move, cost, fail_any):
        """Make a scored child the incumbent if it is feasible and cheaper.
        Returns the child's tree, built only in that case, else None."""
        if fail_any or cost >= self.best:
            return None
        tree = parent_tree.apply_move(path, move)
        self._set_best(cost, tree)
        return tree

    def _set_best(self, cost, tree):
        self.best = cost
        self.best_tree = tree
        self._progress_row()

    def _progress_row(self):
        glb = self._current_glb()
        self.progress.append({
            "elapsed_ms": (time.monotonic() - self._t0) * 1000.0,
            "best_cost": self.best,
            "lower_bound": glb,
            "ratio": self._ratio(self.best, glb),
            "queue": len(self.heap),
        })

    def _current_glb(self) -> float:
        cands = []
        if math.isfinite(self.frontier_min):
            cands.append(self.frontier_min)
        if math.isfinite(self.dropped_min):
            cands.append(self.dropped_min)
        if self.heap:
            cands.append(min(e[-1].lb for e in self.heap))
        if cands:
            g = min(cands)
        else:
            g = self.best if math.isfinite(self.best) else self.theory
        g = max(g, self.theory)
        return min(g, self.best) if math.isfinite(self.best) else g

    @staticmethod
    def _ratio(best, glb):
        if not math.isfinite(best):
            return None
        if glb <= 0:
            return 1.0 if best <= 0 else INF
        return best / glb

    def _out_of_budget(self) -> bool:
        cfg = self.cfg
        if (cfg.time_limit is not None
                and time.monotonic() - self._t0 > cfg.time_limit):
            return True
        return (cfg.node_limit is not None
                and self.stats.generated >= cfg.node_limit)

    def _push(self, node: _Node):
        if len(self.heap) >= self.cfg.max_queue:
            self._probe()
        self._seq += 1
        # flat (key..., seq, node): no key tuple per entry; seq is unique,
        # so the node is never compared
        heapq.heappush(self.heap, (*self._key(node), self._seq, node))
        self.stats.max_queue_seen = max(self.stats.max_queue_seen,
                                        len(self.heap))

    # ---- probe: incumbent dive + queue reduction ----

    def _dive(self, node: _Node):
        cur = node
        while not self._out_of_budget():
            best = None   # (cost, path, move, lb, frozen, tree or None)
            for path, move, cost, lb, fa, frozen in self._children(cur, False):
                self.stats.generated += 1
                tree = self._offer(cur.tree, path, move, cost, fa)
                if fa == 0 and (best is None or cost < best[0]):
                    best = (cost, path, move, lb, frozen, tree)
            if best is None:
                return
            cost, path, move, lb, frozen, tree = best
            if cur.fail_any == 0 and cost >= cur.cost:
                return
            if tree is None:
                tree = cur.tree.apply_move(path, move)
            cur = _Node(tree, cost, lb, 0, 0, frozen)

    def _probe(self):
        self.stats.probes += 1
        if self.heap:
            self._dive(self.heap[0][-1])
        alive = []
        for entry in self.heap:
            node = entry[-1]
            if self.cfg.alpha * node.lb < self.best:
                alive.append(entry)
            else:
                self.stats.pruned_bound += 1
                self.frontier_min = min(self.frontier_min, node.lb)
        self.heap = alive
        half = max(1, self.cfg.max_queue // 2)
        if len(self.heap) > half:
            self.heap.sort(key=lambda e: e[:-1])
            while len(self.heap) > half:
                k = max(1, len(self.heap) // 10)
                for entry in self.heap[-k:]:
                    self.dropped_min = min(self.dropped_min, entry[-1].lb)
                    self.stats.forced_drops += 1
                del self.heap[-k:]
        heapq.heapify(self.heap)

    # ---- main loop ----

    def run(self) -> SearchResult:
        cfg = self.cfg
        root = self._evaluate(self.space.root_tree())
        self.stats.generated += 1

        if root.fail_mono:
            return self._finish("infeasible", drained=False)

        if self.seed_tree is not None:
            seed = self._evaluate(self.seed_tree)
            if seed.fail_any:
                raise ValueError("seed tree is not feasible")
            if not is_legal(self.seed_tree):
                raise ValueError("seed tree is not in canonical form")
            self._update_incumbent(seed)

        self._update_incumbent(root)

        if root.fail_any == 0 and root.cost <= root.lb:
            return self._finish("drained", drained=True)

        if cfg.alpha * root.lb < self.best:
            self._push(root)
        else:
            self.stats.pruned_bound += 1
            self.frontier_min = min(self.frontier_min, root.lb)

        budget_hit = False
        while self.heap:
            if self._out_of_budget():
                budget_hit = True
                break
            node = heapq.heappop(self.heap)[-1]
            if cfg.alpha * node.lb >= self.best:
                self.stats.pruned_bound += 1
                self.frontier_min = min(self.frontier_min, node.lb)
                continue
            self.stats.expanded += 1
            for path, move, cost, lb, fa, frozen in self._children(node, True):
                self.stats.generated += 1
                tree = self._offer(node.tree, path, move, cost, fa)
                if cfg.alpha * lb < self.best:
                    parent = node.tree if tree is None else None
                    self._push(_Node(tree, cost, lb, fa, 0, frozen, parent,
                                     path, move))
                else:
                    self.stats.pruned_bound += 1
                    self.frontier_min = min(self.frontier_min, lb)

        return self._finish("drained", drained=not budget_hit)

    def _finish(self, reason, drained) -> SearchResult:
        self.stats.elapsed_sec = time.monotonic() - self._t0
        glb = self._current_glb()
        ratio = self._ratio(self.best, glb)
        exact_safe = self.cfg.alpha == 1.0 or self.stats.pruned_bound == 0
        if reason == "infeasible" or not math.isfinite(self.best):
            status = "infeasible"
            certified = False
            guarantee = None
        elif drained and self.stats.forced_drops == 0 and exact_safe:
            status = "optimal"
            certified = True
            guarantee = 1.0
            glb = self.best
            ratio = 1.0
        elif drained and self.stats.forced_drops == 0:
            status = "approx"
            certified = True
            guarantee = self.cfg.alpha
        else:
            status = "exhausted"
            certified = False
            guarantee = ratio
        return SearchResult(status, self.best_tree, self.best, glb, ratio,
                            certified, guarantee, self.stats, self.progress)


def search(space: Space, metric: Metric, constraints: ConstraintSet,
           config: SearchConfig | None = None,
           seed_tree: PartitionTree | None = None) -> SearchResult:
    """Best-first search under `config`. A feasible `seed_tree` (e.g. a
    greedy solution) preloads the incumbent, so the result is never worse
    than the seed."""
    cfg = config or SearchConfig()
    return _Searcher(space, metric, constraints, cfg, seed_tree).run()


# ---- greedy baseline ----

@dataclass
class GreedyResult:
    tree: PartitionTree | None
    cost: float
    feasible: bool
    steps: int
    certified: bool = False


def mondrian_greedy(space: Space, metric: Metric,
                    constraints: ConstraintSet) -> GreedyResult:
    """Steepest-descent splitting: repeatedly apply the move that lowers
    total cost the most, as long as every produced block passes every
    constraint; ties break on lowest move id then extent. Blocks may be
    split in any order (no canonical-order restriction); the final tree
    is normalized into canonical form afterwards.
    """
    costs: dict = {}

    def cost_of(block):
        c = costs.get(block.extent)
        if c is None:
            c = metric.block_cost(block)
            costs[block.extent] = c
        return c

    def best_move(block):
        """`(delta, move.id, move, new_blocks)` of the block's best
        feasible move, or None. Depends on the block alone."""
        best = None
        for move in space.available_moves(block):
            new_blocks = space.move_blocks(block, move)
            if not all(constraints.block_ok(nb) for nb in new_blocks):
                continue
            delta = sum(cost_of(nb) for nb in new_blocks) - cost_of(block)
            if best is None or (delta, move.id) < best[:2]:
                best = (delta, move.id, move, new_blocks)
        return best

    root = space.root_block
    if not constraints.feasible([root]):
        return GreedyResult(None, INF, False, 0)
    tree = space.root_tree()
    # open block extent -> (path, best move); a step changes one block,
    # so only the blocks it creates are scored
    where = {root.extent: ((), best_move(root))}
    total = cost_of(root)
    steps = 0
    while True:
        cands = [(best[0], best[1], extent)
                 for extent, (_, best) in where.items() if best is not None]
        if not cands:
            break
        delta, _, extent = min(cands)
        if delta > 0:
            break
        path, (_, _, move, new_blocks) = where.pop(extent)
        tree = tree.apply_move(path, move)
        for i, nb in enumerate(new_blocks[:-1]):
            where[nb.extent] = (path + (1,) * i + (0,), best_move(nb))
        where[new_blocks[-1].extent] = (path + (1,) * len(move.splits),
                                        best_move(new_blocks[-1]))
        total += delta
        steps += 1
    return GreedyResult(normalize(tree), total, True, steps)
