import csv
import math
import random
from collections import Counter

import pytest

from anonsearch.bounds import BoundContext
from anonsearch.dataset import DataError, Dataset, load_config
from anonsearch.enumeration import enumerate_trees
from anonsearch.partition import Internal, Leaf, Space, normalize
from anonsearch.search import GreedyResult
from anonsearch.splits import generate_splits


def rows_dataset(schema, rows) -> Dataset:
    """A Dataset from row tuples, transposed into its columns."""
    rows = list(rows)
    return Dataset(schema, [[r[i] for r in rows] for i in range(len(schema))])


def dataset_rows(dataset) -> list:
    """The row tuples of a Dataset, in order."""
    return list(zip(*dataset.columns))


def reference_load_dataset(path, schema) -> list:
    """Reference for `load_dataset`: the row-major loader it replaced,
    verbatim but for returning the list of row tuples.

    Read a CSV whose header matches the schema names exactly.

    Each distinct field text is parsed and checked once per column; a
    text that fails is never remembered, so every error names the first
    line where it occurs."""
    names = [a.name for a in schema]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != names:
            raise DataError(f"{path}: header {header!r} does not match "
                            f"schema attributes {names!r}")
        rows = []
        parsed = [{} for _ in schema]   # per column: raw text -> value
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(schema):
                raise DataError(f"{path}:{lineno}: expected {len(schema)} "
                                f"fields, got {len(raw)}")
            row = []
            for col, (attr, raw_text) in enumerate(zip(schema, raw), start=1):
                v = parsed[col - 1].get(raw_text)
                if v is not None:
                    row.append(v)
                    continue
                text = raw_text.strip()
                if text == "":
                    raise DataError(f"{path}:{lineno}: column {col} "
                                    f"({attr.name}): missing value")
                if attr.is_numeric:
                    try:
                        v = float(text)
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: column {col} ({attr.name}): "
                            f"not a number: {text!r}") from None
                    lo, hi = attr.domain
                    if not lo <= v <= hi:
                        raise DataError(
                            f"{path}:{lineno}: column {col} ({attr.name}): "
                            f"{v} outside domain [{lo}, {hi}]")
                else:
                    node = attr.taxonomy.by_label.get(text)
                    if node is None or not node.is_leaf:
                        raise DataError(
                            f"{path}:{lineno}: column {col} ({attr.name}): "
                            f"unknown value {text!r}")
                    v = text
                parsed[col - 1][raw_text] = v
                row.append(v)
            rows.append(tuple(row))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def build_space(cfg, rows) -> Space:
    schema = load_config(cfg)
    ds = rows_dataset(schema, rows)
    return Space(ds, generate_splits(schema, ds))


@pytest.fixture
def grid_space():
    """Two numeric attributes, 3 + 2 cuts, a handful of points."""
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 4],
         "splits": {"type": "explicit", "values": [1, 2, 3]}},
        {"name": "y", "kind": "numeric", "role": "qi", "domain": [0, 3],
         "splits": {"type": "explicit", "values": [1, 2]}},
    ]}
    rows = [(0.5, 0.5), (1.5, 1.5), (2.5, 0.5), (3.5, 2.5), (2.5, 2.5),
            (0.5, 2.5)]
    return build_space(cfg, rows)


@pytest.fixture
def tax_space():
    """Two-level taxonomy plus one numeric attribute and a sensitive one."""
    cfg = {"attributes": [
        {"name": "w", "kind": "categorical", "role": "qi", "taxonomy": "w",
         "splits": {"type": "taxonomy"}},
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 2],
         "splits": {"type": "explicit", "values": [0.7, 1.4]}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": ["a", "b", "c"]},
    ], "taxonomies": {"w": {"label": "any", "children": [
        {"label": "pub", "children": [{"label": "fed"}, {"label": "sta"}]},
        {"label": "priv", "children": [{"label": "inc"}, {"label": "self"}]},
    ]}}}
    rows = [("fed", 0.5, "a"), ("inc", 1.5, "b"), ("sta", 1.2, "c"),
            ("self", 0.1, "a"), ("fed", 1.9, "b")]
    return build_space(cfg, rows)


# ---- random instances ----

def random_instance(rng: random.Random, total_splits=None, rows_range=(4, 12),
                    cat=True, snap=0.0) -> Space:
    """A small random instance. With probability `snap` a numeric value is
    put on a cut plane or a domain end instead of drawn uniformly."""
    total = total_splits if total_splits is not None else rng.randint(2, 5)
    n_attrs = rng.randint(2, 3)
    attrs = []
    taxos = {}
    remaining = total
    for i in range(n_attrs):
        last = i == n_attrs - 1
        take = remaining if last else rng.randint(0, remaining)
        remaining -= take
        name = f"a{i}"
        if cat and take in (2, 3) and rng.random() < 0.4:
            if take == 3 and rng.random() < 0.5:
                tax = {"label": f"{name}:any", "children": [
                    {"label": f"{name}:g0", "children": [
                        {"label": f"{name}:v0"}, {"label": f"{name}:v1"}]},
                    {"label": f"{name}:g1", "children": [
                        {"label": f"{name}:v2"}, {"label": f"{name}:v3"}]},
                ]}
                leaves = [f"{name}:v{j}" for j in range(4)]
            else:
                leaves = [f"{name}:v{j}" for j in range(take + 1)]
                tax = {"label": f"{name}:any",
                       "children": [{"label": v} for v in leaves]}
            taxos[name] = tax
            attrs.append({"name": name, "kind": "categorical", "role": "qi",
                          "taxonomy": name, "splits": {"type": "taxonomy"},
                          "_leaves": leaves})
        else:
            cuts = sorted(rng.sample(range(1, 10), take))
            attrs.append({"name": name, "kind": "numeric", "role": "qi",
                          "domain": [0, 10],
                          "splits": {"type": "explicit", "values": cuts}})
    attrs.append({"name": "s", "kind": "categorical", "role": "sensitive",
                  "values": ["u", "v", "w"]})
    leaves_of = {a["name"]: a.pop("_leaves", None) for a in attrs}
    cfg = {"attributes": attrs, "taxonomies": taxos}
    n = rng.randint(*rows_range)
    rows = []
    for _ in range(n):
        row = []
        for a in attrs:
            if a["role"] == "sensitive":
                row.append(rng.choice("uvw"))
            elif a["kind"] == "numeric":
                if snap and rng.random() < snap:
                    row.append(float(rng.choice(
                        [*a["domain"], *a["splits"]["values"]])))
                else:
                    row.append(rng.uniform(*a["domain"]))
            else:
                row.append(rng.choice(leaves_of[a["name"]]))
        rows.append(tuple(row))
    return build_space(cfg, rows)


def random_tree(space: Space, rng: random.Random, max_moves=None):
    """A random tree reached by legal moves (hence canonical)."""
    from anonsearch.partition import legal_moves
    tree = space.root_tree()
    steps = rng.randint(0, max_moves if max_moves is not None else 6)
    for _ in range(steps):
        moves = legal_moves(tree)
        if not moves:
            break
        path, move = rng.choice(moves)
        tree = tree.apply_move(path, move)
    return tree


def random_loose_tree(space: Space, rng: random.Random, max_moves=6):
    """A random tree grown without the ancestor-id rule; may be
    non-canonical."""
    tree = space.root_tree()
    for _ in range(rng.randint(0, max_moves)):
        options = []
        for path, leaf in reference_splittable_leaves(tree):
            for move in space.available_moves(leaf.block.extent):
                options.append((path, move))
        if not options:
            break
        path, move = rng.choice(options)
        tree = tree.apply_move(path, move)
    return tree


# ---- independent oracles ----

def block_rows(space: Space, block) -> list:
    """The rows of a block, derived from its cells."""
    cells = set(block.cells)
    return [r for r, c in enumerate(space.cell_of) if c in cells]


class RowBlock:
    """The row-based block the cell-based one replaced: an extent and the
    tuple of the row numbers inside it."""

    __slots__ = ("extent", "rows")

    def __init__(self, extent, rows):
        self.extent = extent
        self.rows = rows

    @property
    def count(self) -> int:
        return len(self.rows)


def row_columns(space: Space) -> dict:
    """Per QI attribute, each row's value (a leaf position if categorical)."""
    columns = {}
    for i in space.qi:
        attr = space.dataset.schema[i]
        if attr.is_numeric:
            columns[i] = list(space.dataset.columns[i])
        else:
            pos = attr.taxonomy.leaf_position
            columns[i] = [pos(v) for v in space.dataset.columns[i]]
    return columns


def row_root(space: Space) -> RowBlock:
    return RowBlock(space.root_block.extent,
                    tuple(range(len(space.dataset))))


def reference_apply_split(columns, block: RowBlock, s):
    """Split a row block into its (tree-left, tree-right) children by
    scanning its rows: the row-based `Space.apply_split`."""
    lo, hi = block.extent[s.qi_pos]
    if not lo < s.plane < hi:
        raise ValueError(f"{s} does not cut extent {block.extent}")
    col = columns[s.attr]
    left_rows, right_rows = [], []
    if s.numeric:
        for r in block.rows:
            (left_rows if col[r] <= s.plane else right_rows).append(r)
        left_ext = (lo, s.plane)
        right_ext = (s.plane, hi)
    else:
        plane = int(s.plane)
        for r in block.rows:
            (left_rows if col[r] >= plane else right_rows).append(r)
        left_ext = (plane, hi)
        right_ext = (lo, plane)
    base = list(block.extent)
    base[s.qi_pos] = left_ext
    left = RowBlock(tuple(base), tuple(left_rows))
    base[s.qi_pos] = right_ext
    right = RowBlock(tuple(base), tuple(right_rows))
    return left, right


def is_cut(node, s, pending=None) -> bool:
    """Whether split s is a full cut of the subtree rooted at `node`, by
    recursion over the tree: the reference for the cut masks.

    `pending` marks a leaf about to be split by s; descents reaching it
    count as cut, which evaluates the tree as if s were already added.
    """
    if isinstance(node, Leaf):
        return node is pending
    t = node.split
    if t.attr == s.attr:
        if t.plane == s.plane:
            return True
        below = s.plane < t.plane
        # tree-left is the lower-id side: below a numeric plane, above a
        # categorical one
        child = node.left if below == t.numeric else node.right
        return is_cut(child, s, pending)
    return is_cut(node.left, s, pending) and is_cut(node.right, s, pending)


def hull(extents):
    """The smallest extent holding all of `extents`."""
    return tuple((min(lo for lo, _ in sides), max(hi for _, hi in sides))
                 for sides in zip(*extents))


def geometric_is_cut(node, s, pending=None) -> bool:
    """Plane-geometry definition of a full cut: the plane passes strictly
    through the node's extent, the hull of its leaves' extents, but
    through no settled leaf's extent."""
    leaves, stack = [], [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Leaf):
            leaves.append(n)
        else:
            stack.append(n.left)
            stack.append(n.right)
    lo, hi = hull(n.block.extent for n in leaves)[s.qi_pos]
    if not lo < s.plane < hi:
        return False
    for n in leaves:
        a, b = n.block.extent[s.qi_pos]
        if n is not pending and a < s.plane < b:
            return False
    return True


def reference_splittable_leaves(tree):
    """Leaves that may still be split, by a forward pre-order walk of the
    whole tree.

    A leaf freezes once a later move lands after it in pre-order.
    The marker is the head of the most recent move: the chain of
    sibling boundaries added by one categorical expansion is a
    single event, so a continuation node (a tree-right child cutting
    the same sibling set as its parent) never advances the marker.
    """
    leaves = []
    marker = -1
    idx = 0
    stack = [((), tree.root, False)]
    while stack:
        path, node, cont = stack.pop()
        if isinstance(node, Internal):
            if not cont:
                marker = idx
            s = node.split
            right_cont = (isinstance(node.right, Internal)
                          and not s.numeric
                          and not node.right.split.numeric
                          and node.right.split.set_id == s.set_id)
            stack.append((path + (1,), node.right, right_cont))
            stack.append((path + (0,), node.left, False))
        else:
            leaves.append((idx, path, node))
        idx += 1
    return [(path, node) for idx, path, node in leaves if idx > marker]


def reference_legal_move(tree, path, move) -> bool:
    """The duplicate-free rule checked head by head from the leaf up: the
    leaf must be splittable; at each move head (continuation nodes of a
    categorical chain skipped) the move is legal if some split of it is
    not a full cut of the head's subspace, with the target leaf counted
    as cut, and redundant if every split is and its id is not larger
    than the head's. Re-tests each head's whole subtree geometrically."""
    if path not in [p for p, _ in reference_splittable_leaves(tree)]:
        return False
    pending = tree.node_at(path)
    for depth in range(len(path) - 1, -1, -1):
        anc = tree.node_at(path[:depth])
        if depth > 0 and path[depth - 1] == 1:
            ps, t = tree.node_at(path[:depth - 1]).split, anc.split
            if not ps.numeric and not t.numeric and ps.set_id == t.set_id:
                continue
        if not all(geometric_is_cut(anc, s, pending) for s in move.splits):
            return True
        if move.id <= anc.split.id:
            return False
    return True


def rebuild_canonical(space: Space, blocks):
    """Reconstruct the canonical tree of a partition from its blocks by
    always cutting with the smallest-id applicable move that every block
    respects. A numeric plane is a move by itself; the sibling boundaries
    of one taxonomy node form a single move laid out in id order. Written
    independently of the library's normalization."""

    def respected(bs, qi_pos, plane):
        return all(not (b.extent[qi_pos][0] < plane < b.extent[qi_pos][1])
                   for b in bs)

    def tax_boundaries(attr, lo, hi):
        stack = [attr.taxonomy.root]
        while stack:
            n = stack.pop()
            if n.leaf_range == (lo, hi) and n.children:
                return [c.leaf_range[0] for c in n.children[1:]]
            stack.extend(n.children)
        return None

    def applicable_moves(ext, bs):
        out = []
        for qi_pos, attr_idx in enumerate(space.qi):
            attr = space.dataset.schema[attr_idx]
            lo, hi = ext[qi_pos]
            here = space.splits.by_attr.get(attr_idx, ())
            if attr.is_numeric:
                for s in here:
                    if lo < s.plane < hi and respected(bs, qi_pos, s.plane):
                        out.append([s])
                continue
            planes = tax_boundaries(attr, lo, hi)
            if not planes:
                continue
            matched = [s for s in here if s.plane in planes]
            if len(matched) != len(planes):
                continue
            if all(respected(bs, qi_pos, p) for p in planes):
                out.append(sorted(matched, key=lambda s: s.id))
        return out

    def rec(bs):
        if len(bs) == 1:
            return Leaf(bs[0])
        moves = applicable_moves(hull(b.extent for b in bs), bs)
        assert moves, "partition admits no applicable move"
        unit = min(moves, key=lambda u: u[0].id)

        def chain(i, group):
            if i == len(unit):
                return rec(group)
            s = unit[i]
            if s.numeric:
                left = [x for x in group if x.extent[s.qi_pos][1] <= s.plane]
                rest = [x for x in group if x.extent[s.qi_pos][0] >= s.plane]
            else:
                left = [x for x in group if x.extent[s.qi_pos][0] >= s.plane]
                rest = [x for x in group if x.extent[s.qi_pos][1] <= s.plane]
            assert len(left) + len(rest) == len(group)
            return Internal(s, rec(left), chain(i + 1, rest))

        return chain(0, bs)

    return rec(list(blocks))


def reachable_partitions(space: Space) -> set:
    """Every partition reachable from the root, each in the form of
    `PartitionTree.signature()`, by a memoized recursion over extents: a
    block's partitions are the block itself or, for each move, the unions
    of one partition per new block. It shares only
    `Space.available_moves` and `Space.move_blocks` with the search and
    no ordering of moves with any enumerator."""
    memo = {}

    def parts(block) -> set:
        hit = memo.get(block.extent)
        if hit is None:
            hit = {frozenset([block.extent])}
            for move in space.available_moves(block.extent):
                unions = [frozenset()]
                for nb in space.move_blocks(block, move):
                    unions = [u | p for u in unions for p in parts(nb)]
                hit.update(unions)
            memo[block.extent] = hit
        return hit

    return {tuple(sorted(p)) for p in parts(space.root_block)}


def brute_best(space: Space, metric, cons) -> float:
    """Exhaustive minimum over all reachable feasible partitions."""
    best = math.inf
    for t in enumerate_trees(space):
        blocks = t.leaf_blocks()
        if cons.feasible(blocks):
            best = min(best, metric.cost(blocks))
    return best


def reference_greedy(space: Space, metric, constraints) -> GreedyResult:
    """Reference for `mondrian_greedy`: the global step loop it replaced,
    verbatim but for `math.inf`.

    Steepest-descent splitting: repeatedly apply the move that lowers
    total cost the most, as long as every produced block passes every
    constraint; ties break on lowest move id then extent. Blocks may be
    split in any order (no canonical-order restriction); the final tree
    is normalized into canonical form afterwards.
    """
    ctx = BoundContext(space, metric, constraints)

    def best_move(block):
        """`(delta, move.id, move, new_blocks)` of the block's best
        feasible move, or None. Depends on the block alone."""
        best = None
        for move in space.available_moves(block.extent):
            new_blocks = space.move_blocks(block, move)
            if any(ctx.flags(nb)[0] for nb in new_blocks):
                continue
            delta = sum(map(ctx.cost, new_blocks)) - ctx.cost(block)
            if best is None or (delta, move.id) < best[:2]:
                best = (delta, move.id, move, new_blocks)
        return best

    root = space.root_block
    if ctx.flags(root)[0]:
        return GreedyResult(None, math.inf, False, 0)
    tree = space.root_tree()
    # open block extent -> (path, best move); a step changes one block,
    # so only the blocks it creates are scored
    where = {root.extent: ((), best_move(root))}
    total = ctx.cost(root)
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


def finest_cells(space: Space, block) -> list:
    """Cells left when no move applies anywhere, computed by repeatedly
    applying the first available move. Order-independent result."""
    out = []
    stack = [block]
    while stack:
        b = stack.pop()
        moves = space.available_moves(b.extent)
        if not moves:
            out.append(b)
        else:
            stack.extend(space.move_blocks(b, moves[0]))
    return out


def oracle_min_cost(space: Space, block, metric, k=1) -> float:
    """Finest-cell bound computed on the recursive decomposition."""
    total = 0.0
    for cell in finest_cells(space, block):
        m = cell.count
        if m == 0:
            continue
        if metric.name == "dm":
            total += m * m if m >= k else k * m
        elif metric.name == "cm":
            labels = space.dataset.column(metric.class_attr)
            counts = Counter(labels[r] for r in block_rows(space, cell))
            total += m - max(counts.values())
        else:
            total += m * metric.volume(cell.extent) / metric.unit_volume
    return total
