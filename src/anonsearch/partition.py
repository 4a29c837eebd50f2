"""Partition trees over a dataset plus the legality machinery.

A partition tree is a binary kd-tree: internal nodes carry a split, leaves
carry blocks. Node timestamps are implicit: trees are only ever grown at
leaves that come after the last internal node in pre-order, so pre-order
rank doubles as insertion time.

Two rules make the enumeration duplicate free:

* a leaf may only be split if no internal node follows it in pre-order
  (otherwise the same tree could be produced in several orders), and
* adding split s at a leaf is illegal if s would form a full cut of the
  subspace of some ancestor whose own split id is >= s.id; the partition
  containing that cut is reachable with the cut applied higher up.

Numeric extents are (lo, hi) with tree-left meaning value <= cut.
Categorical extents are half open leaf position ranges; tree-left is the
side with the lower split ids, which is the geometric right part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .splits import Move, Split, SplitSet


class Block:
    """A subspace with the rows it contains.

    Within one Space the extent determines the rows, so equality and
    hashing use the extent alone.
    """

    __slots__ = ("extent", "rows")

    def __init__(self, extent, rows):
        self.extent = extent
        self.rows = rows

    @property
    def count(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, Block) and self.extent == other.extent

    def __hash__(self):
        return hash(self.extent)

    def __repr__(self):
        return f"Block({self.extent}, n={len(self.rows)})"


@dataclass(frozen=True, slots=True)
class Leaf:
    block: Block


@dataclass(frozen=True, slots=True)
class Internal:
    split: Split
    block: Block
    left: object   # tree-left: lower-id side
    right: object


def _descends_left(at: Split, plane) -> bool:
    """Whether `plane` lies on the tree-left side of split `at` (same attr)."""
    if at.numeric:
        return plane < at.plane
    return plane > at.plane


class Space:
    """A dataset bound to its split set. Owns block construction."""

    def __init__(self, dataset, splits: SplitSet):
        self.dataset = dataset
        self.splits = splits
        self.qi = splits.qi
        self.qi_schema = [dataset.schema[i] for i in self.qi]
        self.columns = {}
        for i in self.qi:
            attr = dataset.schema[i]
            if attr.is_numeric:
                self.columns[i] = [r[i] for r in dataset.rows]
            else:
                pos = attr.taxonomy.leaf_position
                self.columns[i] = [pos(r[i]) for r in dataset.rows]
        extent = []
        for attr in self.qi_schema:
            if attr.is_numeric:
                extent.append(attr.domain)
            else:
                extent.append((0, attr.taxonomy.n_leaves))
        self.root_block = Block(tuple(extent), tuple(range(len(dataset.rows))))
        self._split_cache: dict = {}

    def root_tree(self) -> "PartitionTree":
        return PartitionTree(self, Leaf(self.root_block), 0)

    def apply_split(self, block: Block, s: Split):
        """Split a block into its (tree-left, tree-right) children."""
        key = (block.extent, s.id)
        hit = self._split_cache.get(key)
        if hit is not None:
            return hit
        lo, hi = block.extent[s.qi_pos]
        if not lo < s.plane < hi:
            raise ValueError(f"{s} does not cut extent {block.extent}")
        col = self.columns[s.attr]
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
        left = Block(tuple(base), tuple(left_rows))
        base[s.qi_pos] = right_ext
        right = Block(tuple(base), tuple(right_rows))
        out = (left, right)
        self._split_cache[key] = out
        return out

    def move_blocks(self, block: Block, move: Move):
        """Blocks produced when a move is applied to `block`."""
        out = []
        cur = block
        for s in move.splits:
            left, cur = self.apply_split(cur, s)
            out.append(left)
        out.append(cur)
        return out

    def available_moves(self, block: Block):
        """Moves applicable to a block, in increasing id order.

        Numeric splits must fall strictly inside the extent. A sibling set
        applies only to a block whose extent along the attribute is exactly
        the owning taxonomy node's leaf range.
        """
        moves = []
        for qi_pos, attr_idx in enumerate(self.qi):
            lo, hi = block.extent[qi_pos]
            attr = self.dataset.schema[attr_idx]
            if attr.is_numeric:
                for s in self.splits.by_attr.get(attr_idx, ()):
                    if lo < s.plane < hi:
                        moves.append(Move((s,)))
            else:
                exp = self.splits.expansions.get((attr_idx, (lo, hi)))
                if exp is not None:
                    moves.append(exp)
        moves.sort(key=lambda m: m.id)
        return moves


class PartitionTree:
    """Immutable tree handle; mutation returns a new tree sharing nodes."""

    __slots__ = ("space", "root", "n_internal")

    def __init__(self, space: Space, root, n_internal: int):
        self.space = space
        self.root = root
        self.n_internal = n_internal

    # ---- traversal ----

    def pre_order(self):
        stack = [((), self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            if isinstance(node, Internal):
                stack.append((path + (1,), node.right))
                stack.append((path + (0,), node.left))

    def node_at(self, path):
        node = self.root
        for step in path:
            node = node.right if step else node.left
        return node

    def leaf_blocks(self):
        return [n.block for _, n in self.pre_order() if isinstance(n, Leaf)]

    def splittable_leaves(self):
        """Leaves that may still be split.

        A leaf freezes once a later move lands after it in pre-order.
        The marker is the head of the most recent move: the chain of
        sibling boundaries added by one categorical expansion is a
        single event, so a continuation node (a tree-right child cutting
        the same sibling set as its parent) never advances the marker.
        """
        leaves = []
        marker = -1
        idx = 0
        stack = [((), self.root, False)]
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

    def signature(self):
        return tuple(sorted(b.extent for b in self.leaf_blocks()))

    # ---- growth ----

    def _replaced(self, node, path, sub):
        if not path:
            return sub
        if path[0]:
            return Internal(node.split, node.block, node.left,
                            self._replaced(node.right, path[1:], sub))
        return Internal(node.split, node.block,
                        self._replaced(node.left, path[1:], sub), node.right)

    def apply_move(self, path, move: Move) -> "PartitionTree":
        """Grow the leaf at `path` by a move. No legality checking here."""
        leaf = self.node_at(path)
        if not isinstance(leaf, Leaf):
            raise ValueError("moves apply to leaves")

        def chain(block, i):
            if i == len(move.splits):
                return Leaf(block)
            left, right = self.space.apply_split(block, move.splits[i])
            return Internal(move.splits[i], block, Leaf(left),
                            chain(right, i + 1))

        sub = chain(leaf.block, 0)
        return PartitionTree(self.space, self._replaced(self.root, path, sub),
                             self.n_internal + len(move.splits))


# ---- cut detection and move legality ----

def is_cut(node, s: Split, pending=None) -> bool:
    """Whether split s is a full cut of the subtree rooted at `node`.

    `pending` marks a leaf about to be split by s; descents reaching it
    count as cut, which evaluates the tree as if s were already added.
    """
    if isinstance(node, Leaf):
        return node is pending
    t = node.split
    if t.attr == s.attr:
        if t.plane == s.plane:
            return True
        child = node.left if _descends_left(t, s.plane) else node.right
        return is_cut(child, s, pending)
    return is_cut(node.left, s, pending) and is_cut(node.right, s, pending)


def _constraint2_ok(tree: PartitionTree, path, move: Move) -> bool:
    """Ancestor-id rule. A move is redundant iff every one of its splits
    fully cuts the subspace of some ancestor move whose id is not larger.

    Only move heads are inspected: a continuation node (tree-right child
    cutting the same sibling set as its parent) is an artifact of laying
    a categorical expansion out as a chain, not a real subspace. The walk
    stops at the first non-cut head since cuts only get harder higher up.
    """
    pending = tree.node_at(path)
    for depth in range(len(path) - 1, -1, -1):
        anc = tree.node_at(path[:depth])
        if depth > 0 and path[depth - 1] == 1:
            ps = tree.node_at(path[:depth - 1]).split
            if (not ps.numeric and not anc.split.numeric
                    and ps.set_id == anc.split.set_id):
                continue
        if not all(is_cut(anc, s, pending) for s in move.splits):
            return True
        if move.id <= anc.split.id:
            return False
    return True


def detect_legal_move(tree: PartitionTree, path, move: Move) -> bool:
    """Check that growing `path` by `move` keeps the tree reachable in the
    duplicate-free order."""
    if not any(path == lp for lp, _ in tree.splittable_leaves()):
        return False
    return _constraint2_ok(tree, path, move)


def legal_moves(tree: PartitionTree, leaves=None):
    """All (path, move) pairs producing a distinct-partition child.

    `leaves` may pass in `tree.splittable_leaves()` when the caller has
    already computed it.
    """
    if leaves is None:
        leaves = tree.splittable_leaves()
    out = []
    for path, leaf in leaves:
        for move in tree.space.available_moves(leaf.block):
            if _constraint2_ok(tree, path, move):
                out.append((path, move))
    return out


# ---- switches ----

def _case1(space: Space, n: Internal) -> Internal:
    s1, s2 = n.split, n.left.split
    lb, rb = space.apply_split(n.block, s2)
    return Internal(s2, n.block,
                    Internal(s1, lb, n.left.left, n.right.left),
                    Internal(s1, rb, n.left.right, n.right.right))


def _left_rotate(space: Space, n: Internal) -> Internal:
    # lifts the right child's split; same-attribute parallel case
    r = n.right
    lb, _ = space.apply_split(n.block, r.split)
    return Internal(r.split, n.block,
                    Internal(n.split, lb, n.left, r.left), r.right)


def _right_rotate(space: Space, n: Internal) -> Internal:
    l = n.left
    _, rb = space.apply_split(n.block, l.split)
    return Internal(l.split, n.block, l.left,
                    Internal(n.split, rb, l.right, n.right))


def parent_child_switch(tree: PartitionTree, path, child=None) -> PartitionTree:
    """Exchange the split at `path` with a child split, preserving the
    partition. Orthogonal case: both children are internal with the same
    split. Parallel case: one child splits the same attribute; `child`
    ("left" or "right") selects it when both do.
    """
    n = tree.node_at(path)
    if not isinstance(n, Internal):
        raise ValueError("switch needs an internal node")
    li = isinstance(n.left, Internal)
    ri = isinstance(n.right, Internal)
    if child is None:
        if li and ri and n.left.split == n.right.split:
            new = _case1(tree.space, n)
        else:
            left_par = li and n.left.split.attr == n.split.attr
            right_par = ri and n.right.split.attr == n.split.attr
            if left_par and right_par:
                raise ValueError("ambiguous switch, pass child=")
            if left_par:
                new = _right_rotate(tree.space, n)
            elif right_par:
                new = _left_rotate(tree.space, n)
            else:
                raise ValueError("no switch applies at this node")
    elif child == "left":
        if not (li and n.left.split.attr == n.split.attr):
            raise ValueError("left child does not split the same attribute")
        new = _right_rotate(tree.space, n)
    elif child == "right":
        if not (ri and n.right.split.attr == n.split.attr):
            raise ValueError("right child does not split the same attribute")
        new = _left_rotate(tree.space, n)
    else:
        raise ValueError(f"bad child {child!r}")
    return PartitionTree(tree.space, tree._replaced(tree.root, path, new),
                         tree.n_internal)


# ---- canonical form ----

def _respects_all(blocks, s: Split) -> bool:
    for b in blocks:
        lo, hi = b.extent[s.qi_pos]
        if lo < s.plane < hi:
            return False
    return True


def _canon_node(space: Space, block, blocks):
    """Rebuild the canonical subtree over `blocks`, a partition of
    `block`: apply the lowest-id move that every block respects, route
    the blocks into its cells and recurse."""
    if len(blocks) == 1:
        return Leaf(blocks[0])
    moves = [m for m in space.available_moves(block)
             if all(_respects_all(blocks, s) for s in m.splits)]
    move = min(moves, key=lambda m: m.id)

    def build(b, i, group):
        if i == len(move.splits):
            return _canon_node(space, b, group)
        s = move.splits[i]
        lb, rb = space.apply_split(b, s)
        left, rest = [], []
        for blk in group:
            lo, hi = blk.extent[s.qi_pos]
            side = hi <= s.plane if s.numeric else lo >= s.plane
            (left if side else rest).append(blk)
        return Internal(s, b, _canon_node(space, lb, left),
                        build(rb, i + 1, rest))

    return build(block, 0, blocks)


def normalize(tree: PartitionTree) -> PartitionTree:
    """Canonical legal tree of the partition: at every node the smallest-id
    applicable move that all blocks respect sits on top, recursively. A
    categorical expansion counts as one move with the id of its first cut."""
    root = _canon_node(tree.space, tree.space.root_block, tree.leaf_blocks())
    return PartitionTree(tree.space, root, tree.n_internal)


def is_legal(tree: PartitionTree) -> bool:
    """A tree is reachable by the duplicate-free order iff it equals its
    canonical form."""
    return normalize(tree).root == tree.root
