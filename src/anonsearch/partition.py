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

Full cuts are bit masks over split ids: every internal node keeps the
set of splits that fully cut its subtree (`Internal.cuts`), built from
its children's when the node is made, so the second rule is decided for
all moves of a leaf in one walk up its ancestors (`legal_ids`).

Numeric extents are (lo, hi) with tree-left meaning value <= cut.
Categorical extents are half open leaf position ranges; tree-left is the
side with the lower split ids, which is the geometric right part.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .splits import Move, Split, SplitSet


class Block:
    """A subspace with the finest cells it contains.

    `cells` are the numbers of the non-empty finest cells of the Space
    inside the extent, ascending, and `count` is their total row count.
    Every extent lies on split planes, so each cell lies wholly inside or
    wholly outside a block, and the block's rows are exactly the rows of
    its cells. Within one Space the extent determines the cells, so
    equality and hashing use the extent alone.
    """

    __slots__ = ("extent", "cells", "count")

    def __init__(self, extent, cells, count):
        self.extent = extent
        self.cells = cells
        self.count = count

    def __eq__(self, other):
        return isinstance(other, Block) and self.extent == other.extent

    def __hash__(self):
        return hash(self.extent)

    def __repr__(self):
        return f"Block({self.extent}, n={self.count})"


@dataclass(slots=True, unsafe_hash=True)
class Leaf:
    block: Block
    cuts = 0   # a leaf fully cuts nothing


@dataclass(slots=True, unsafe_hash=True)
class Internal:
    """Nodes are never changed once made. They are not frozen because a
    frozen dataclass sets each field through `object.__setattr__`, which
    makes a node about twice as slow to build.

    `cuts` has bit s set iff split s is a full cut of the subtree: its
    plane crosses the node's extent and no leaf below straddles it. That
    holds for the node's own split, for a split of the same attribute
    that is a full cut of the child on its side of the plane, and for a
    split of another attribute that is a full cut of both children.
    """
    split: Split
    block: Block
    left: object   # tree-left: lower-id side
    right: object
    cuts: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, lc, rc = self.split, self.left.cuts, self.right.cuts
        self.cuts = (1 << s.id | lc & s.keep_left | rc & s.keep_right
                     | lc & rc & s.other_attrs)


class Space:
    """A dataset bound to its split set. Owns block construction.

    Each row is binned once into its finest cell: per QI attribute, the
    slot between consecutive split planes holding its value, a value on
    a plane placed as a split places it. Non-empty cells are numbered in
    the order of their first row; `cell_of` maps rows to cells and
    `cell_counts` cells to row counts.
    """

    def __init__(self, dataset, splits: SplitSet):
        self.dataset = dataset
        self.splits = splits
        self.qi = splits.qi
        self.qi_schema = [dataset.schema[i] for i in self.qi]
        extent = []
        for attr in self.qi_schema:
            if attr.is_numeric:
                extent.append(attr.domain)
            else:
                extent.append((0, attr.taxonomy.n_leaves))
        planes = [splits.planes(a) for a in self.qi]
        # slot i of QI attribute q spans edges[q][i]..edges[q][i + 1]
        self.edges = [[lo, *cuts, hi] for cuts, (lo, hi)
                      in zip(planes, extent)]
        self._slot_of_plane = {s.id: planes[s.qi_pos].index(s.plane)
                               for s in splits.splits}
        rows = dataset.rows
        slots = []
        for a, attr, cuts in zip(self.qi, self.qi_schema, planes):
            values = set(map(itemgetter(a), rows))
            if attr.is_numeric:
                memo = {v: bisect_left(cuts, v) for v in values}
            else:
                pos = attr.taxonomy.leaf_position
                memo = {v: bisect_right(cuts, pos(v)) for v in values}
            # streamed: no column of the table is held
            slots.append(map(memo.__getitem__, map(itemgetter(a), rows)))
        keys = zip(*slots) if slots else [()] * len(dataset.rows)
        index: dict = {}    # slot tuple -> cell number
        self.cell_of = [index.setdefault(key, len(index)) for key in keys]
        # per QI attribute, the slot of each cell
        self._slots = list(zip(*index)) or [() for _ in self.qi]
        self.cell_counts = [0] * len(index)
        for cell in self.cell_of:
            self.cell_counts[cell] += 1
        self.root_block = Block(tuple(extent), tuple(range(len(index))),
                                len(self.cell_of))
        self._split_cache: dict = {}
        self._moves_cache: dict = {}
        self._label_tables: dict = {}

    def root_tree(self) -> "PartitionTree":
        return PartitionTree(self, Leaf(self.root_block))

    def cell_block(self, cell) -> Block:
        """One finest cell as a block."""
        extent = tuple((e[s[cell]], e[s[cell] + 1])
                       for e, s in zip(self.edges, self._slots))
        return Block(extent, (cell,), self.cell_counts[cell])

    def label_counts(self, name):
        """Per-cell histograms of column `name`: `(values, table)` with the
        column's distinct values sorted and `table[c]` the `(value index,
        count)` pairs of cell c in index order. Built once per column."""
        hit = self._label_tables.get(name)
        if hit is None:
            col = self.dataset.column(name)
            values = sorted(set(col))
            index = {v: i for i, v in enumerate(values)}
            pairs = Counter(zip(self.cell_of, map(index.__getitem__, col)))
            table = [[] for _ in self.cell_counts]
            for (cell, i), n in sorted(pairs.items()):
                table[cell].append((i, n))
            hit = (values, table)
            self._label_tables[name] = hit
        return hit

    def histogram(self, block, name) -> list:
        """Row count of each value of column `name` inside `block`, indexed
        like `label_counts(name)`: the sum of its cells' histograms."""
        values, table = self.label_counts(name)
        hist = [0] * len(values)
        for cell in block.cells:
            for i, n in table[cell]:
                hist[i] += n
        return hist

    def apply_split(self, block: Block, s: Split):
        """Split a block into its (tree-left, tree-right) children.

        A cell lies above the split's plane when its slot along the split
        attribute is past the plane's; that side is tree-right for a
        numeric split and tree-left for a categorical one."""
        key = (block.extent, s.id)
        hit = self._split_cache.get(key)
        if hit is not None:
            return hit
        lo, hi = block.extent[s.qi_pos]
        if not lo < s.plane < hi:
            raise ValueError(f"{s} does not cut extent {block.extent}")
        slot = self._slots[s.qi_pos]
        at = self._slot_of_plane[s.id]
        below, above = [], []
        for c in block.cells:
            (above if slot[c] > at else below).append(c)
        n_below = sum(map(self.cell_counts.__getitem__, below))
        plane = s.plane if s.numeric else int(s.plane)
        base = list(block.extent)
        base[s.qi_pos] = (lo, plane)
        lower = Block(tuple(base), tuple(below), n_below)
        base[s.qi_pos] = (plane, hi)
        upper = Block(tuple(base), tuple(above), block.count - n_below)
        out = (lower, upper) if s.numeric else (upper, lower)
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
        the owning taxonomy node's leaf range. The list depends only on the
        extent and is memoized per extent: it is shared between callers,
        who must not mutate it.
        """
        moves = self._moves_cache.get(block.extent)
        if moves is not None:
            return moves
        moves = []
        for qi_pos, attr_idx in enumerate(self.qi):
            lo, hi = block.extent[qi_pos]
            attr = self.dataset.schema[attr_idx]
            if attr.is_numeric:
                for s in self.splits.by_attr.get(attr_idx, ()):
                    if lo < s.plane < hi:
                        moves.append(self.splits.numeric_moves[s.id])
            else:
                exp = self.splits.expansions.get((attr_idx, (lo, hi)))
                if exp is not None:
                    moves.append(exp)
        moves.sort(key=lambda m: m.id)
        self._moves_cache[block.extent] = moves
        return moves


class PartitionTree:
    """Immutable tree handle; mutation returns a new tree sharing nodes."""

    __slots__ = ("space", "root")

    def __init__(self, space: Space, root):
        self.space = space
        self.root = root

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
        """Leaves that may still be split, as `(path, leaf, ancestry)` in
        pre-order.

        A leaf freezes once a later move lands after it in pre-order, so
        the splittable leaves are those after the head of the most recent
        move. The chain of sibling boundaries added by one categorical
        expansion is a single event: a continuation node (a tree-right
        child cutting the same sibling set as its parent) is not a head.

        The walk runs in reverse pre-order (right child popped before
        left) with a sentinel pushed under each head, which pops right
        after the head's subtree. The first sentinel to pop belongs to
        the last head in pre-order, so the walk stops there, having
        visited only the leaves after it and their ancestors.

        A leaf's `ancestry` is what `legal_ids` needs of its ancestors,
        nearest first, as nested `(free, keep, next)` ending in None.
        `free` has the splits of attributes other than the ancestor's
        that are no full cut of its child off the leaf's path; `keep`
        has the ids above the ancestor's split id if it is a head, and
        every id (-1) if it is a continuation node.
        """
        leaves = []
        stack = [None, ((), self.root, None, True)]
        while True:
            entry = stack.pop()
            if entry is None:
                break
            path, node, up, head = entry
            if isinstance(node, Leaf):
                leaves.append((path, node, up))
                continue
            s, left, right = node.split, node.left, node.right
            keep = -(2 << s.id) if head else -1
            if isinstance(left, Internal):
                stack.append(None)
            stack.append((path + (0,), left,
                          (s.other_attrs & ~right.cuts, keep, up), True))
            head = not (isinstance(right, Internal) and not s.numeric
                        and not right.split.numeric
                        and right.split.set_id == s.set_id)
            if head and isinstance(right, Internal):
                stack.append(None)
            stack.append((path + (1,), right,
                          (s.other_attrs & ~left.cuts, keep, up), head))
        leaves.reverse()
        return leaves

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
        return PartitionTree(self.space, self._replaced(self.root, path, sub))


# ---- move legality ----

def legal_ids(ancestry, ids) -> int:
    """Ancestor-id rule for all candidate moves of one splittable leaf at
    once: the bits of the ids of the legal ones. `ancestry` is the leaf's
    from `splittable_leaves()`; `ids` has the bits of the
    candidates' ids (`Move.bits`).

    A move is redundant iff at some move head above the leaf whose id is
    not below the move's, every split of the move fully cuts the head's
    subtree, the leaf counted as cut. Continuation nodes are no heads: a
    categorical expansion laid out as a chain is one subspace.

    The leaf straddles every split s of a move, so s passes strictly
    through each ancestor's extent. An ancestor's subtree is the path
    child's subtree plus its other child's, so s stays a full cut going
    up exactly while the other child is fully cut by s too, or the
    ancestor splits s's attribute (the other child then lies beyond the
    plane). One walk up the ancestry therefore decides every move: at each
    ancestor the undecided moves with a split in `free` are legal, since
    a split that is no full cut at some depth is none higher up; then at
    a head the undecided ids not above its id are redundant. A move
    still undecided at the root is legal.

    A move's first split stands for all of its splits. A sibling set is
    only ever applied whole and to its owner's exact range, so along a
    categorical attribute every node of a tree grown by moves spans a
    taxonomy node's range, but for a chain's continuation nodes, and a
    subtree whose root spans one is cut by all or none of a set's
    boundaries. `free` reads a set's bits only at an ancestor splitting
    another attribute, whose children are no continuation nodes of the
    set's.
    """
    legal = 0
    while ancestry is not None and ids:
        free, keep, ancestry = ancestry
        legal |= ids & free
        ids &= ~free & keep
    return legal | ids


def detect_legal_move(tree: PartitionTree, path, move: Move) -> bool:
    """Check that growing `path` by `move` keeps the tree reachable in the
    duplicate-free order."""
    for at, _, ancestry in tree.splittable_leaves():
        if at == path:
            return legal_ids(ancestry, move.bits) != 0
    return False


def legal_moves(tree: PartitionTree):
    """All (path, move) pairs producing a distinct-partition child: the
    splittable leaves in pre-order, each leaf's moves in id order."""
    out = []
    for path, leaf, ancestry in tree.splittable_leaves():
        moves = tree.space.available_moves(leaf.block)
        legal = legal_ids(ancestry, sum(m.bits for m in moves))
        out.extend((path, m) for m in moves if legal & m.bits)
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
    return PartitionTree(tree.space, tree._replaced(tree.root, path, new))


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
    return PartitionTree(tree.space, root)


def is_legal(tree: PartitionTree) -> bool:
    """A tree is reachable by the duplicate-free order iff it equals its
    canonical form."""
    return normalize(tree).root == tree.root
