"""Best-first search for a minimum-cost feasible partition.

Nodes are partition trees from the duplicate-free order, keyed by lower
bound, cost, or their ratio. Every feasible node generated updates the
incumbent immediately; children are enqueued only while alpha * bound
stays below the incumbent, so alpha = 1 proves optimality and alpha > 1
proves an alpha-approximation once the queue drains.

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
walks its tree once (`bounds.frontier`): the refinable leaves form a
pre-order suffix, with `pre[i]` the exact cost of every leaf before
frontier leaf i and `mins` the frontier's finest-refinement costs.
Growing frontier leaf i freezes the leaves before it, so the child's
bound is `pre[i]`, plus the floor of each new block, plus `mins[j]` for
j > i, added in that order: the same float as `lower_bound` of the
child's tree. A child's tree is built only when it is queued or becomes
the incumbent; most children are pruned at once, and a queued node
holds no more than its tree, cost, bound and flag counts.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

from .bounds import BoundContext, frontier, lower_bound
from .constraints import ConstraintSet
from .metrics import Metric, theoretical_bound
from .partition import PartitionTree, Space, is_legal, legal_moves, normalize

INF = math.inf


@dataclass
class SearchConfig:
    mode: str = "optimal"        # "optimal" | "approx"
    alpha: float = 1.0           # approximation factor, >= 1
    priority: str = "lb"         # "lb" | "cost" | "lbcost"
    max_queue: int = 100_000
    time_limit: float | None = None   # seconds
    node_limit: int | None = None     # generated nodes

    def __post_init__(self):
        if self.mode not in ("optimal", "approx"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.mode == "optimal":
            self.alpha = 1.0
        elif self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.priority not in ("lb", "cost", "lbcost"):
            raise ValueError(f"bad priority {self.priority!r}")


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
    tree: PartitionTree
    cost: float
    lb: float
    fail_any: int     # blocks violating any constraint
    fail_mono: int    # blocks violating a monotone constraint


class _Searcher:
    def __init__(self, space, metric, constraints, config, seed_tree=None):
        self.space = space
        self.metric = metric
        self.cons = constraints
        self.cfg = config
        self.seed_tree = seed_tree
        self.bctx = BoundContext(space, metric)
        self.theory = theoretical_bound(metric, space)
        self._costs: dict = {}
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
        return _Node(tree, cost, lb, fa, fm)

    def _children(self, node: _Node):
        """Score every legal child of `node` without building its tree.

        Yields `(path, move, cost, lb, fail_any, fail_mono)` in the order
        of `legal_moves(node.tree)`; the bound is summed as the module
        docstring describes.
        """
        cost_of, flags = self.cost_of, self.cons.block_flags
        min_cost, move_blocks = self.bctx.min_cost, self.space.move_blocks
        leaves, pre, mins = frontier(node.tree, self.bctx, cost_of)
        index = {path: i for i, (path, _) in enumerate(leaves)}
        for path, move in legal_moves(node.tree, leaves):
            i = index[path]
            old = leaves[i][1].block
            cost = node.cost - cost_of(old)
            fa, fm = node.fail_any, node.fail_mono
            oa, om = flags(old)
            fa -= oa
            fm -= om
            lb = pre[i]
            for nb in move_blocks(old, move):
                cost += cost_of(nb)
                a, m = flags(nb)
                fa += a
                fm += m
                lb += min_cost(nb)
            for floor in mins[i + 1:]:
                lb += floor
            yield path, move, cost, lb, fa, fm

    def _key(self, node: _Node):
        if self.cfg.priority == "cost":
            return (node.cost, node.lb)
        if self.cfg.priority == "lbcost":
            r = node.lb / node.cost if node.cost > 0 else 0.0
            return (r, node.lb)
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
        self.progress.append({
            "elapsed_ms": (time.monotonic() - self._t0) * 1000.0,
            "best_cost": self.best,
            "lower_bound": self._current_glb(),
            "ratio": self._ratio(self.best, self._current_glb()),
            "queue": len(self.heap),
        })

    def _current_glb(self) -> float:
        cands = []
        if math.isfinite(self.frontier_min):
            cands.append(self.frontier_min)
        if math.isfinite(self.dropped_min):
            cands.append(self.dropped_min)
        if self.heap:
            cands.append(min(e[2].lb for e in self.heap))
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
        heapq.heappush(self.heap, (self._key(node), self._seq, node))
        self.stats.max_queue_seen = max(self.stats.max_queue_seen,
                                        len(self.heap))

    # ---- probe: incumbent dive + queue reduction ----

    def _dive(self, node: _Node):
        cur = node
        while not self._out_of_budget():
            best = None   # (cost, path, move, lb, tree or None)
            for path, move, cost, lb, fa, fm in self._children(cur):
                self.stats.generated += 1
                if fm:
                    continue
                tree = self._offer(cur.tree, path, move, cost, fa)
                if fa == 0 and (best is None or cost < best[0]):
                    best = (cost, path, move, lb, tree)
            if best is None:
                return
            cost, path, move, lb, tree = best
            if cur.fail_any == 0 and cost >= cur.cost:
                return
            if tree is None:
                tree = cur.tree.apply_move(path, move)
            cur = _Node(tree, cost, lb, 0, 0)

    def _probe(self):
        self.stats.probes += 1
        if self.heap:
            self._dive(self.heap[0][2])
        alive = []
        for entry in self.heap:
            node = entry[2]
            if self.cfg.alpha * node.lb < self.best:
                alive.append(entry)
            else:
                self.stats.pruned_bound += 1
                self.frontier_min = min(self.frontier_min, node.lb)
        self.heap = alive
        half = max(1, self.cfg.max_queue // 2)
        if len(self.heap) > half:
            self.heap.sort(key=lambda e: (e[0], e[1]))
            while len(self.heap) > half:
                k = max(1, len(self.heap) // 10)
                for entry in self.heap[-k:]:
                    self.dropped_min = min(self.dropped_min, entry[2].lb)
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
            _, _, node = heapq.heappop(self.heap)
            if cfg.alpha * node.lb >= self.best:
                self.stats.pruned_bound += 1
                self.frontier_min = min(self.frontier_min, node.lb)
                continue
            self.stats.expanded += 1
            for path, move, cost, lb, fa, fm in self._children(node):
                self.stats.generated += 1
                if fm:
                    self.stats.pruned_infeasible += 1
                    continue
                tree = self._offer(node.tree, path, move, cost, fa)
                if cfg.alpha * lb < self.best:
                    if tree is None:
                        tree = node.tree.apply_move(path, move)
                    self._push(_Node(tree, cost, lb, fa, fm))
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
    cfg = config or SearchConfig()
    floor = constraints.min_block_size()
    if metric.name == "dm" and metric.k > floor:
        # the bound charges k per tuple of a smaller cell; with k above
        # the constraints' floor it would exceed feasible costs
        raise ValueError(f"metric k={metric.k} exceeds the smallest block "
                         f"size the constraints allow, {floor}")
    return _Searcher(space, metric, constraints, cfg, seed_tree).run()


def improve_from_seed(space, metric, constraints, seed_tree,
                      config=None) -> SearchResult:
    """Search with the incumbent preloaded from a known feasible tree,
    e.g. a greedy solution. Never returns anything worse than the seed."""
    return search(space, metric, constraints, config, seed_tree=seed_tree)


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

    root = space.root_block
    if not constraints.feasible([root]):
        return GreedyResult(None, INF, False, 0)
    tree = space.root_tree()
    where = {root.extent: ((), root)}
    total = cost_of(root)
    steps = 0
    while True:
        best = None
        for extent in sorted(where):
            path, block = where[extent]
            for move in space.available_moves(block):
                new_blocks = space.move_blocks(block, move)
                if not all(constraints.block_ok(nb) for nb in new_blocks):
                    continue
                delta = sum(cost_of(nb) for nb in new_blocks) - cost_of(block)
                cand = (delta, move.id, extent)
                if best is None or cand < best[0]:
                    best = (cand, path, move, new_blocks)
        if best is None or best[0][0] > 0:
            break
        _, path, move, new_blocks = best
        old_extent = tree.node_at(path).block.extent
        tree = tree.apply_move(path, move)
        del where[old_extent]
        for i, nb in enumerate(new_blocks[:-1]):
            where[nb.extent] = (path + (1,) * i + (0,), nb)
        where[new_blocks[-1].extent] = (path + (1,) * len(move.splits),
                                        new_blocks[-1])
        total += best[0][0]
        steps += 1
    return GreedyResult(normalize(tree), total, True, steps)
