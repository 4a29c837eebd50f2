"""Search for a minimum-cost feasible partition: the dispatch between the
exact DP over extents and best-first search, and the best-first search.

`search` runs the DP over block extents (`dp.ExtentDP`) when `mode` is
"optimal" and neither a node nor a time limit is set: such a run can
only end with a certificate, so best-first's anytime incumbents buy
nothing there. Every other run, and every call of `best_first`, runs
the best-first search below. Both refuse a seed tree that is not
feasible, not canonical or no partition of the space, and both void
their certificate when the metric breaks the floor contract
(`BoundContext.sound`).

Best-first: nodes are partition trees from the duplicate-free order,
expanded least lower bound first, then least cost. Every feasible node
generated updates the incumbent immediately; children are enqueued only
while alpha * bound stays below the incumbent, so alpha = 1 proves
optimality and alpha > 1 proves an alpha-approximation once the queue
drains.

Blocks violating a monotone constraint can never be repaired by further
splitting, so such nodes are discarded entirely; nodes violating only
non-monotone constraints stay expandable but cannot become incumbents.

When the queue would outgrow its limit, a greedy dive from the best
entry tries to tighten the incumbent, the queue is re-filtered against
it, and if still too large the worst entries are dropped in 10% rounds
until half the limit remains. Any forced drop voids the certificate.
The node and time budgets are checked before every expansion and every
dive step.

The lower bound reported, in the result and in each progress row, is
read off the search's own nodes: the least of the incumbent's cost, the
least bound of any node discarded unexpanded (bound-pruned or force-
dropped), the bound of the node under expansion (the root counts from
its evaluation until it is queued or pruned) and the least queued bound.
Every partition not yet offered as the incumbent descends from one of
those nodes, so no other source is needed; with no incumbent and no
node left the bound is `inf`.

A node is the tuple `(cost, lb, fail_any, front)`, held as its
frontier, not as a tree: its refinable leaves, a pre-order suffix of its
leaves, each with its path, its extent's record in the `BoundContext`
(`ExtentRecord`: block, exact cost, flags, floor and move table), its
ancestry as `splittable_leaves` gives it, and the depth of its lowest
common ancestor with the leaf before it; plus `frozen`, the exact cost
of the leaves before the frontier added in pre-order, and the node's
lineage: the incumbent's tree is grown from it (`apply_move`) once the
search ends. Only the root's frontier comes from a tree walk.

Expanding a node scores its children without building them, one
frontier leaf at a time (`_expand`, for the main loop and the probe's
dive). Per leaf i one `legal_ids` walk decides all its moves; the
leaf's move table, filled by `BoundContext.fill`, holds each legal
move's child terms, or marks the move `bad`: its child adds a monotone
failure and is counted, never scored. `pre[i]` is `frozen` plus the
costs of leaves 0..i-1, and growing leaf i freezes those leaves, so a
child's bound is `pre[i]`, plus each new block's floor, plus the floors
of the leaves after i, added in that order: the float `lower_bound`
gives on the child's tree. The new blocks split leaf i's finest cells,
so when these sums are exact (whole costs and floors, as for dm and cm,
and no sum reaching 2**53) all children of leaf i share one bound, a
running sum: the node's bound plus each earlier leaf's cost minus its
floor. A leaf whose
shared bound reaches the incumbent is counted and pruned in one step.
Otherwise each child is scored, offered and pushed in `legal_moves`
order, the bad moves counted where that order reaches them, so a probe
run between two pushes reads the same counts.

A queued child is one flat tuple, `(lb, cost, seq, fail_any, front, at,
move)`: its bound and cost, which order the heap, a unique sequence
number, its parent's frontier `front`, the index `at` of the grown
leaf's path in it and the move. The main loop checks a popped
entry's bound before it builds anything; only then is the child's
frontier derived: first the new blocks, then the parent's leaves after
i. Those keep all but one ancestry entry: at its lowest common ancestor
with leaf i, the child off the path now holds the grown subtree, whose
cut mask is rebuilt up leaf i's path one level at a time. Its `frozen`
is the parent's `pre[i]`, the same additions in the same order, so
costs and bounds stay bit-identical for every metric, vm included. A
frontier is freed with the last queued child that refers to it.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from dataclasses import dataclass, field

from .bounds import BoundContext, frontier, is_whole, lower_bound
from .constraints import ConstraintSet
from .dp import ExtentDP
from .frontiers import HEAD, Frontiers
from .metrics import Metric
# `legal_moves` is not called here; perfbench/spans.py wraps it by name
from .partition import (PartitionTree, Space, canonical_tree, is_legal,
                        legal_ids, legal_moves)

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
    max_queue: int = 100_000
    time_limit: float | None = None   # seconds
    node_limit: int | None = None     # generated nodes

    def __post_init__(self):
        if self.mode not in ("optimal", "approx"):
            raise SearchConfigError(
                "mode", f"must be 'optimal' or 'approx', got {self.mode!r}")
        if self.mode == "optimal":
            self.alpha = 1.0
        elif not self.alpha >= 1:
            raise SearchConfigError("alpha", f"must be >= 1, got {self.alpha:g}")
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


def _ratio(best, glb):
    """The ratio of an incumbent's cost to a lower bound, None with no
    incumbent."""
    if not math.isfinite(best):
        return None
    if glb <= 0:
        return 1.0 if best <= 0 else INF
    return best / glb


def _void(progress, glb) -> float:
    """The lower bound of a solve whose `BoundContext` is not `sound`:
    no more than 0, the least cost a metric meeting the contract's
    non-negativity can reach; the progress rows are lowered to it too."""
    glb = min(glb, 0.0)
    for row in progress:
        row["lower_bound"] = min(row["lower_bound"], glb)
        row["ratio"] = _ratio(row["best_cost"], row["lower_bound"])
    return glb


def _seed_cost(ctx: BoundContext, seed: PartitionTree) -> float:
    """The cost of a seed tree, added in pre-order. Raises ValueError if
    the seed is not feasible, not canonical or no partition of the
    space."""
    blocks = seed.leaf_blocks()
    if any(ctx.flags(b)[0] for b in blocks):
        raise ValueError("seed tree is not feasible")
    if not is_legal(seed):
        raise ValueError("seed tree is not in canonical form")
    return sum(map(ctx.cost, blocks))


def _grow(line) -> PartitionTree:
    """The tree of a lineage: a tree, or `(line, path, move)`."""
    steps = []
    while not isinstance(line, PartitionTree):
        line, path, move = line
        steps.append((path, move))
    for path, move in reversed(steps):
        line = line.apply_move(path, move)
    return line


class _Searcher:
    def __init__(self, space, metric, constraints, config, seed_tree=None):
        self.space = space
        self.cfg = config
        self.seed_tree = seed_tree
        self.bctx = BoundContext(space, metric, constraints)
        self._fronts = Frontiers()
        self.stats = SearchStats()
        self.progress: list = []
        self.best: float = INF
        self.best_line = None     # the incumbent's lineage
        self.discard_min = INF    # min lb among nodes discarded unexpanded
        self.open_lb = INF        # lb of the node under expansion
        self.heap: list = []
        self._seq = 0
        self._t0 = time.monotonic()

    # ---- nodes ----

    # A node is a scored tree with no block failing a monotone constraint,
    # held as the tuple `(cost, lb, fail_any, front)`: `fail_any` counts
    # its blocks violating any constraint, `front` is its frontier.

    def _evaluate(self, tree):
        """`(node, fail_mono)` of a tree scored from a walk of it: its
        node, and the number of its blocks failing a monotone
        constraint."""
        ctx = self.bctx
        blocks = tree.leaf_blocks()
        cost = sum(map(ctx.cost, blocks))
        fa = fm = 0
        for b in blocks:
            a, m = ctx.flags(b)
            fa += a
            fm += m
        lb = lower_bound(tree, ctx)
        head = (tree, frontier(tree, ctx)[0][0])
        # `lower_bound` has computed the floor of every frontier leaf
        front = self._fronts.of_tree(tree, head, ctx.record)
        return (cost, lb, fa, front), fm

    def _derive(self, front, at, move) -> tuple:
        """The frontier of the child grown at `front[at]` by `move`, from
        its parent's: `frozen` is the parent's plus the costs of the
        leaves before `front[at]`, the same additions in the same order as
        the child's `pre` in `_expand`."""
        frozen = front[1]
        for x in front[HEAD + 1:at:4]:
            frozen += x.cost
        return self._fronts.grown(
            front, at, move, front[at + 1].terms[move.id][0],
            ((front[0], front[at], move), frozen))

    def _node(self, entry) -> tuple:
        """The node of a queue entry, a queued child's frontier derived."""
        lb, cost, _, fail_any, front, at, move = entry
        if at is not None:
            front = self._derive(front, at, move)
        return cost, lb, fail_any, front

    # ---- scoring ----

    def _expand(self, node, dive=False):
        """Score the legal children of `node` without building them.

        Each child with no block failing a monotone constraint is
        counted into `stats.generated` and offered as the incumbent; in
        the main loop it is then pushed as a queue entry while alpha
        times its bound stays below the incumbent and bound-pruned
        otherwise, while a `dive` returns the cheapest feasible child as
        `(cost, lb, at, move)`, the first of equals, or None. Each other
        legal child is counted into `generated`, and outside a dive into
        `pruned_infeasible`, before the next scored child of its leaf, so
        a probe run before a push reads the counts of scoring every child
        in `legal_moves` order. Outside a dive, a leaf whose children
        share a bound at or above the incumbent is counted and pruned
        whole.
        """
        node_cost, node_lb, node_any, front = node
        ctx = self.bctx
        stats = self.stats
        alpha = self.cfg.alpha
        max_queue = self.cfg.max_queue
        push = heapq.heappush
        heap = self.heap
        pick = None
        pre = front[1]
        # while every term is a whole number and no sum reaches 2**53, so
        # that all these additions are exact, the children of leaf i share
        # the bound `pre[i]` plus the floors from leaf i on: `shared`, the
        # node's bound plus each earlier leaf's cost minus its floor
        shared = node_lb if ctx.exact and is_whole(pre) else None
        for at in range(HEAD, len(front), 4):
            path, rec, ancestry = front[at:at + 3]
            if shared is not None and shared >= 2 ** 53:
                shared = None
            frozen, lb = pre, shared
            pre += rec.cost
            if shared is not None:
                shared += rec.cost - rec.floor
            if rec.moves is None:
                rec.moves = self.space.available_moves(rec.block.extent)
                rec.ids = sum(m.bits for m in rec.moves)
                rec.terms = {}
            legal = legal_ids(ancestry, rec.ids)
            if not legal:
                continue
            if legal & ~rec.known:
                ctx.fill(rec, legal & ~rec.known)
            bad = legal & rec.bad
            live = legal ^ bad
            rest = None
            if lb is not None and ctx.exact:
                if lb >= self.best and not dive:
                    # nothing to offer: a feasible child costs at least
                    # its bound
                    stats.generated += legal.bit_count()
                    stats.pruned_infeasible += bad.bit_count()
                    if live:
                        stats.pruned_bound += live.bit_count()
                        self.discard_min = min(self.discard_min, lb)
                    continue
            else:
                rest = [x.floor for x in front[at + 5::4]]
            counted = 0
            base = node_cost - rec.cost
            terms = rec.terms
            for move in rec.moves:
                if not live:
                    break
                bits = move.bits
                if not live & bits:
                    continue
                if bad and not dive:
                    before = (bad & (bits - 1)).bit_count()
                    if before > counted:
                        stats.generated += before - counted
                        stats.pruned_infeasible += before - counted
                        counted = before
                _, costs, floors, d_any = terms[move.id]
                cost = base
                for c in costs:
                    cost += c
                if rest is not None:
                    # the float `lower_bound` gives on the child's tree
                    lb = frozen
                    for floor in floors:
                        lb += floor
                    for floor in rest:
                        lb += floor
                fa = node_any + d_any
                stats.generated += 1
                if not fa and cost < self.best:
                    self._set_best(cost, (front[0], path, move))
                if dive:
                    if not fa and (pick is None or cost < pick[0]):
                        pick = (cost, lb, at, move)
                elif alpha * lb < self.best:
                    if len(heap) >= max_queue:
                        self._probe()
                        heap = self.heap
                    # seq is unique, so the rest of an entry is never
                    # compared
                    self._seq += 1
                    push(heap, (lb, cost, self._seq, fa, front, at, move))
                else:
                    stats.pruned_bound += 1
                    self.discard_min = min(self.discard_min, lb)
                live ^= bits
            if bad:
                stats.generated += bad.bit_count() - counted
                if not dive:
                    stats.pruned_infeasible += bad.bit_count() - counted
        return pick

    # ---- incumbent / bookkeeping ----

    def _set_best(self, cost, line):
        self.best = cost
        self.best_line = line
        self._progress_row()

    def _progress_row(self):
        glb = self._glb()
        self.progress.append({
            "elapsed_ms": (time.monotonic() - self._t0) * 1000.0,
            "best_cost": self.best,
            "lower_bound": glb,
            "ratio": _ratio(self.best, glb),
            "queue": len(self.heap),
        })

    def _glb(self) -> float:
        """The least of the discard minimum, the open node's bound, the
        least queued bound (the heap's first, as entries lead with their
        bound) and the incumbent's cost; a node bound wins a tie."""
        queued = self.heap[0][0] if self.heap else INF
        return min(self.discard_min, self.open_lb, queued, self.best)

    def _out_of_budget(self) -> bool:
        cfg = self.cfg
        if (cfg.time_limit is not None
                and time.monotonic() - self._t0 > cfg.time_limit):
            return True
        return (cfg.node_limit is not None
                and self.stats.generated >= cfg.node_limit)

    # ---- probe: incumbent dive + queue reduction ----

    def _dive(self, node):
        while not self._out_of_budget():
            pick = self._expand(node, dive=True)
            if pick is None:
                return
            cost, lb, at, move = pick
            node_cost, _, node_any, front = node
            if node_any == 0 and cost >= node_cost:
                return
            node = (cost, lb, 0, self._derive(front, at, move))

    def _probe(self):
        stats = self.stats
        stats.probes += 1
        # the queue is largest just before a probe or a pop
        stats.max_queue_seen = max(stats.max_queue_seen, len(self.heap))
        if self.heap:
            self._dive(self._node(self.heap[0]))
        alpha, best, heap = self.cfg.alpha, self.best, self.heap
        alive = [e for e in heap if alpha * e[0] < best]
        if len(alive) < len(heap):
            stats.pruned_bound += len(heap) - len(alive)
            self.discard_min = min(self.discard_min, *(
                e[0] for e in heap if not alpha * e[0] < best))
        # entries are (lb, cost, seq, ...) with a unique seq, so they sort
        # by bound, then cost; the 10% rounds drop one tail of that order.
        # The n least entries are those whose bound is below the n-th
        # least, then the least of those tied at it, so only the bounds
        # and the ties are sorted
        half = max(1, self.cfg.max_queue // 2)
        n = len(alive)
        while n > half:
            n -= max(1, n // 10)
        if n < len(alive):
            cut = sorted([e[0] for e in alive])[n - 1]
            kept = [e for e in alive if e[0] < cut]
            tied = sorted([e for e in alive if e[0] == cut])
            tied_kept = n - len(kept)
            kept += tied[:tied_kept]
            dropped = [e for e in alive if e[0] > cut]
            dropped += tied[tied_kept:]
            stats.forced_drops += len(dropped)
            self.discard_min = min(self.discard_min,
                                   *(e[0] for e in dropped))
            alive = kept
        heapq.heapify(alive)
        self.heap = alive

    # ---- main loop ----

    def run(self) -> SearchResult:
        cfg = self.cfg
        root, root_mono = self._evaluate(self.space.root_tree())
        root_cost, root_lb, root_any, root_front = root
        self.stats.generated += 1
        if root_mono:
            return self._finish(drained=True)
        # the root is open until it is queued or pruned, so the progress
        # rows of the incumbents offered here count its bound
        self.open_lb = root_lb

        seed = self.seed_tree
        if seed is not None:
            self._set_best(_seed_cost(self.bctx, seed), seed)
        if root_any == 0 and root_cost < self.best:
            self._set_best(root_cost, root_front[0])

        if root_any == 0 and root_cost <= root_lb:
            return self._finish(drained=True)

        self.open_lb = INF
        stats = self.stats
        if cfg.alpha * root_lb < self.best:
            # a queue entry is `(lb, cost, seq, fail_any, front, at, move)`:
            # the child grown at `front[at]` by `move`, or with `at` None
            # the node whose frontier `front` is
            heapq.heappush(self.heap, (root_lb, root_cost, 0, root_any,
                                       root_front, None, None))
        else:
            stats.pruned_bound += 1
            self.discard_min = min(self.discard_min, root_lb)

        budget_hit = False
        while self.heap:
            stats.max_queue_seen = max(stats.max_queue_seen, len(self.heap))
            if self._out_of_budget():
                budget_hit = True
                break
            entry = heapq.heappop(self.heap)
            lb = entry[0]
            if cfg.alpha * lb >= self.best:
                stats.pruned_bound += 1
                self.discard_min = min(self.discard_min, lb)
                continue
            stats.expanded += 1
            self.open_lb = lb
            self._expand(self._node(entry))
            self.open_lb = INF

        return self._finish(drained=not budget_hit)

    def _finish(self, drained) -> SearchResult:
        """The result: a search that drained with no forced drop proves
        its status."""
        return _result(self.bctx, self.stats, self.progress, self._t0,
                       self.best, self.best_line, self._glb(),
                       drained and self.stats.forced_drops == 0,
                       self.cfg.alpha)


def _result(ctx, stats, progress, t0, best, line, glb, proved,
            alpha=1.0) -> SearchResult:
    """The result of a solve started at `t0` whose incumbent costs `best`
    with lineage `line` (a tree, or None with no incumbent) and whose
    lower bound is `glb`. A `proved` solve is `optimal`, or `approx` when
    alpha > 1 pruned a node, or `infeasible` with no incumbent; any other
    solve is `exhausted`, uncertified, its guarantee the ratio reached
    (None with no incumbent). So is a solve whose `BoundContext` is not
    `sound`, with its bound lowered by `_void`."""
    stats.elapsed_sec = time.monotonic() - t0
    if not ctx.sound:
        glb = _void(progress, glb)
        proved = False
    ratio = _ratio(best, glb)
    certified = proved and math.isfinite(best)
    if not proved:
        status, guarantee = "exhausted", ratio
    elif not certified:
        status, guarantee = "infeasible", None
    elif alpha == 1.0 or stats.pruned_bound == 0:
        status, guarantee, glb, ratio = "optimal", 1.0, best, 1.0
    else:
        status, guarantee = "approx", alpha
    tree = None if line is None else _grow(line)
    return SearchResult(status, tree, best, glb, ratio, certified, guarantee,
                        stats, progress)


def _solve_dp(space, metric, constraints, seed_tree) -> SearchResult:
    """The optimum by the DP over extents (`dp.ExtentDP`), or the seed
    if the DP finds nothing cheaper. The result's tree is the canonical
    tree of the optimal blocks and its cost their pre-order sum, as
    greedy adds it. Progress: the seed's row, bounded by the root's
    floor, then the optimum's row if it is cheaper."""
    t0 = time.monotonic()
    ctx = BoundContext(space, metric, constraints)
    stats = SearchStats()
    progress = []

    def row(cost, lb):
        progress.append({"elapsed_ms": (time.monotonic() - t0) * 1000.0,
                         "best_cost": cost, "lower_bound": lb,
                         "ratio": _ratio(cost, lb), "queue": 0})

    best, tree = INF, seed_tree
    root = ctx.record(space.root_block)
    if seed_tree is not None:
        best = _seed_cost(ctx, seed_tree)
        row(best, min(ctx.min_cost(root.block), best))
    if ExtentDP(ctx, stats).solve(root) < INF:
        found = canonical_tree(space, ExtentDP.blocks(root))
        cost = sum(map(ctx.cost, found.leaf_blocks()))
        if cost < best:
            best, tree = cost, found
            row(best, best)
    return _result(ctx, stats, progress, t0, best, tree, best, True)


def _collector_off(solve):
    """`solve()` with the cyclic collector off, its state restored on
    return and on a raise. Nodes, frontiers, records and the DP's frames
    form no reference cycles, so the collector would only rescan them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return solve()
    finally:
        if enabled:
            gc.enable()


def best_first(space: Space, metric: Metric, constraints: ConstraintSet,
               config: SearchConfig | None = None,
               seed_tree: PartitionTree | None = None) -> SearchResult:
    """Best-first search under `config`, anytime: it stops at the node or
    time budget with the best partition offered so far. A feasible
    `seed_tree` (e.g. a greedy solution) preloads the incumbent, so the
    result is never worse than the seed."""
    cfg = config or SearchConfig()
    return _collector_off(lambda: _Searcher(space, metric, constraints, cfg,
                                            seed_tree).run())


def search(space: Space, metric: Metric, constraints: ConstraintSet,
           config: SearchConfig | None = None,
           seed_tree: PartitionTree | None = None) -> SearchResult:
    """The minimum-cost feasible partition under `config`, never worse
    than a feasible `seed_tree`. With `mode="optimal"` and neither a node
    nor a time limit the run can only end with a certificate, so the
    exact DP over extents solves it (`dp.ExtentDP`); every other run is
    `best_first`. The seed is checked the same way by both."""
    cfg = config or SearchConfig()
    if (cfg.mode == "optimal" and cfg.node_limit is None
            and cfg.time_limit is None):
        return _collector_off(lambda: _solve_dp(space, metric, constraints,
                                                seed_tree))
    return best_first(space, metric, constraints, cfg, seed_tree)


# ---- greedy baseline ----

@dataclass
class GreedyResult:
    tree: PartitionTree | None
    cost: float
    feasible: bool
    steps: int


def mondrian_greedy(space: Space, metric: Metric,
                    constraints: ConstraintSet) -> GreedyResult:
    """Mondrian's top-down splitting (LeFevre, DeWitt & Ramakrishnan,
    ICDE 2006), one block at a time: a block takes its best move, the
    lowest `(delta, move.id)` among the moves whose new blocks all pass
    every constraint, if that does not raise the cost, and its new blocks
    are split in turn; otherwise it is published. Block costs add, so a
    block's best move depends on that block alone and the order the
    blocks are visited in does not matter. `steps` counts the moves
    applied. The published blocks are laid out as their canonical tree,
    and the cost is their sum in its pre-order, the float `search` gives
    that tree.
    """
    ctx = BoundContext(space, metric, constraints)
    root = space.root_block
    if ctx.flags(root)[0]:
        return GreedyResult(None, INF, False, 0)
    leaves, stack, steps = [], [root], 0
    while stack:
        block = stack.pop()
        best = None
        # moves come in id order, so a tie keeps the lowest id
        for move in space.available_moves(block.extent):
            new_blocks = space.move_blocks(block, move)
            if any(ctx.flags(nb)[0] for nb in new_blocks):
                continue
            delta = sum(map(ctx.cost, new_blocks)) - ctx.cost(block)
            if best is None or delta < best[0]:
                best = (delta, new_blocks)
        if best is None or best[0] > 0:
            leaves.append(block)
        else:
            stack.extend(best[1])
            steps += 1
    tree = canonical_tree(space, leaves)
    return GreedyResult(tree, sum(map(ctx.cost, tree.leaf_blocks())), True,
                        steps)
