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
from operator import add

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
    """A node holds only its split, its children and their cut mask. Its
    region, the union of its leaves' blocks, is not stored: the canonical
    form carries extents down from the root (`split_extents`) and needs
    no cells. Nodes are never changed once made. They are not frozen
    because a frozen dataclass sets each field through
    `object.__setattr__`, which makes a node about twice as slow to
    build.

    `cuts` has bit s set iff split s is a full cut of the subtree: its
    plane crosses the node's extent and no leaf below straddles it. That
    holds for the node's own split, for a split of the same attribute
    that is a full cut of the child on its side of the plane, and for a
    split of another attribute that is a full cut of both children.
    """
    split: Split
    left: object   # tree-left: lower-id side
    right: object
    cuts: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.cuts = node_cuts(self.split, self.left.cuts, self.right.cuts)


def split_extents(extent, s: Split):
    """The (tree-left, tree-right) child extents of `extent` split by `s`.
    Raises ValueError if `s` does not cut `extent`."""
    lo, hi = extent[s.qi_pos]
    if not lo < s.plane < hi:
        raise ValueError(f"{s} does not cut extent {extent}")
    plane = s.plane if s.numeric else int(s.plane)
    base = list(extent)
    base[s.qi_pos] = (lo, plane)
    lower = tuple(base)
    base[s.qi_pos] = (plane, hi)
    upper = tuple(base)
    return (lower, upper) if s.numeric else (upper, lower)


def node_cuts(s: Split, lc: int, rc: int) -> int:
    """The cut mask of a node splitting by `s` whose tree-left and
    tree-right children have cut masks `lc` and `rc`."""
    return (1 << s.id | lc & s.keep_left | rc & s.keep_right
            | lc & rc & s.other_attrs)


class _Numbering(dict):
    """Numbers its keys in the order of their first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        number = self[key] = len(self)
        return number


class Space:
    """A dataset bound to its split set. Owns block construction.

    Each row is binned once into its finest cell: per QI attribute, the
    slot between consecutive split planes holding its value, a value on
    a plane placed as a split places it. A row's cell key is the
    mixed-radix number of its slots: each QI attribute with a plane maps
    its distinct values once to `slot * stride`, its stride being the
    product of the slot counts of the attributes before it, and the keys
    are the sums of those columns; an attribute with no plane has one
    slot and adds nothing. Non-empty cells are numbered in the order of
    their first row, and each cell's slots are decoded from its key.
    `cell_of` maps rows to cells and `cell_counts` cells to row counts.
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
        keys = None
        strides = []    # (QI position, stride) of each attribute with a plane
        stride = 1
        for q, (a, attr, cuts) in enumerate(zip(self.qi, self.qi_schema,
                                                planes)):
            if not cuts:
                continue
            column = dataset.columns[a]
            values = set(column)
            if attr.is_numeric:
                memo = {v: bisect_left(cuts, v) * stride for v in values}
            else:
                pos = attr.taxonomy.leaf_position
                memo = {v: bisect_right(cuts, pos(v)) * stride
                        for v in values}
            # lazy: the keys are read once, by the cell numbering below
            digits = map(memo.__getitem__, column)
            keys = digits if keys is None else map(add, keys, digits)
            strides.append((q, stride))
            stride *= len(cuts) + 1
        index = _Numbering()    # cell key -> cell number
        self.cell_of = list(map(index.__getitem__,
                                [0] * len(dataset) if keys is None else keys))
        # per QI attribute, the slot of each cell: the quotient by its
        # stride of what the larger strides leave of the key
        self._slots = [(0,) * len(index)] * len(self.qi)
        rest = list(index)
        for q, stride in reversed(strides):
            self._slots[q] = [key // stride for key in rest]
            rest = [key % stride for key in rest]
        self.cell_counts = list(Counter(self.cell_of).values())
        self.root_block = Block(tuple(extent), tuple(range(len(index))),
                                len(self.cell_of))
        # per numeric QI attribute its planes and their moves, in id order
        self._plane_moves = [
            (cuts, [splits.numeric_moves[s.id]
                    for s in splits.by_attr.get(a, ())])
            if attr.is_numeric else None
            for a, attr, cuts in zip(self.qi, self.qi_schema, planes)]
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

    def apply_split(self, block: Block, s: Split, extents=None):
        """Split a block into its (tree-left, tree-right) children.
        `extents` are their extents if the caller has them from
        `split_extents`.

        A cell lies above the split's plane when its slot along the split
        attribute is past the plane's; that side is tree-right for a
        numeric split and tree-left for a categorical one."""
        left, right = extents or split_extents(block.extent, s)
        slot = self._slots[s.qi_pos]
        at = self._slot_of_plane[s.id]
        below, above = [], []
        for c in block.cells:
            (above if slot[c] > at else below).append(c)
        cells_l, cells_r = (below, above) if s.numeric else (above, below)
        n_left = sum(map(self.cell_counts.__getitem__, cells_l))
        return (Block(left, tuple(cells_l), n_left),
                Block(right, tuple(cells_r), block.count - n_left))

    def move_blocks(self, block: Block, move: Move):
        """Blocks produced when a move is applied to `block`."""
        out = []
        cur = block
        for s in move.splits:
            left, cur = self.apply_split(cur, s)
            out.append(left)
        out.append(cur)
        return out

    def available_moves(self, extent):
        """Moves applicable to a block with extent `extent`, in increasing
        id order: a new list per call.

        Numeric splits must fall strictly inside the extent. A sibling set
        applies only to a block whose extent along the attribute is exactly
        the owning taxonomy node's leaf range. Split ids ascend with the QI
        position and, within a numeric attribute, with the plane
        (`SplitSet`), so the moves come in id order attribute by
        attribute.
        """
        moves = []
        for a, numeric, (lo, hi) in zip(self.qi, self._plane_moves, extent):
            if numeric is not None:
                planes, plane_moves = numeric
                moves += plane_moves[bisect_right(planes, lo):
                                     bisect_left(planes, hi)]
            else:
                exp = self.splits.expansions.get((a, (lo, hi)))
                if exp is not None:
                    moves.append(exp)
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

        A leaf's `ancestry` is one entry per ancestor, nearest first, as
        nested `(free, keep, next, split, sib)` ending in None. `split`
        is the ancestor's split and `sib` the cut mask of its child off
        the leaf's path. `free` has the splits of attributes other than
        the ancestor's that are no full cut of that child; `keep` has the
        ids above the ancestor's split id if it is a head, and every id
        (-1) if it is a continuation node. `legal_ids` reads `free` and
        `keep`; with `split` and `sib` the cut masks up a leaf's path can
        be rebuilt without the tree (`frontiers.Frontiers.grown`). Leaves
        on the same side of an ancestor share its entry.
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
            stack.append((path + (0,), left, (s.other_attrs & ~right.cuts,
                                              keep, up, s, right.cuts), True))
            head = not (isinstance(right, Internal) and not s.numeric
                        and not right.split.numeric
                        and right.split.set_id == s.set_id)
            if head and isinstance(right, Internal):
                stack.append(None)
            stack.append((path + (1,), right, (s.other_attrs & ~left.cuts,
                                               keep, up, s, left.cuts), head))
        leaves.reverse()
        return leaves

    def signature(self):
        return tuple(sorted(b.extent for b in self.leaf_blocks()))

    # ---- growth ----

    def _replaced(self, node, path, sub):
        """`node` with the subtree at `path` below it replaced by `sub`,
        its ancestors rebuilt bottom-up."""
        spine = []
        for step in path:
            spine.append(node)
            node = node.right if step else node.left
        for node, step in zip(reversed(spine), reversed(path)):
            sub = (Internal(node.split, node.left, sub) if step
                   else Internal(node.split, sub, node.right))
        return sub

    def apply_move(self, path, move: Move, blocks=None) -> "PartitionTree":
        """Grow the leaf at `path` by a move. No legality checking here.
        `blocks` are the move's new blocks in `move_blocks` order, if the
        caller has them; otherwise the leaf's block is split."""
        leaf = self.node_at(path)
        if not isinstance(leaf, Leaf):
            raise ValueError("moves apply to leaves")
        if blocks is None:
            blocks = self.space.move_blocks(leaf.block, move)
        # a chain down the tree-right side: each split cuts the block
        # the previous one left on its tree-right
        sub = Leaf(blocks[-1])
        for s, left in zip(reversed(move.splits), reversed(blocks[:-1])):
            sub = Internal(s, Leaf(left), sub)
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
        free, keep, ancestry, _, _ = ancestry
        legal |= ids & free
        ids &= ~free & keep
    return legal | ids


def legal_moves(tree: PartitionTree):
    """All (path, move) pairs producing a distinct-partition child: the
    splittable leaves in pre-order, each leaf's moves in id order."""
    out = []
    for path, leaf, ancestry in tree.splittable_leaves():
        moves = tree.space.available_moves(leaf.block.extent)
        legal = legal_ids(ancestry, sum(m.bits for m in moves))
        out.extend((path, m) for m in moves if legal & m.bits)
    return out


# ---- canonical form ----

def _respects_all(blocks, s: Split) -> bool:
    for b in blocks:
        lo, hi = b.extent[s.qi_pos]
        if lo < s.plane < hi:
            return False
    return True


def _canon_node(space: Space, extent, blocks):
    """Rebuild the canonical subtree over `blocks`, a partition of the
    region `extent`: apply the lowest-id move that every block respects,
    route the blocks into its regions (each split's tree-left child and
    the last tree-right one) and rebuild each of them the same way.
    Raises ValueError if `blocks` is no partition of the region.

    The regions are rebuilt depth first on an explicit stack, left to
    right, so the depth of the tree is not bounded by the interpreter's
    recursion limit. An entry `(None, splits)` under a move's regions
    lays out its chain once they are built."""
    built, stack = [], [(extent, blocks)]
    while stack:
        extent, blocks = stack.pop()
        if extent is None:
            sub = built.pop()
            for s in reversed(blocks):
                sub = Internal(s, built.pop(), sub)
            built.append(sub)
            continue
        if len(blocks) == 1 and blocks[0].extent == extent:
            built.append(Leaf(blocks[0]))
            continue
        for move in space.available_moves(extent):
            if all(_respects_all(blocks, s) for s in move.splits):
                break
        else:
            raise ValueError(f"the blocks are no partition of {extent}")
        regions = []
        for s in move.splits:
            left_extent, extent = split_extents(extent, s)
            left, rest = [], []
            for blk in blocks:
                lo, hi = blk.extent[s.qi_pos]
                side = hi <= s.plane if s.numeric else lo >= s.plane
                (left if side else rest).append(blk)
            regions.append((left_extent, left))
            blocks = rest
        regions.append((extent, blocks))
        stack.append((None, move.splits))
        stack.extend(reversed(regions))
    return built[0]


def canonical_tree(space: Space, blocks) -> PartitionTree:
    """Canonical legal tree of the partition `blocks` of the whole space:
    at every node the smallest-id applicable move that all blocks respect
    sits on top, recursively. A categorical expansion counts as one move
    with the id of its first cut. Works on extents alone and splits no
    cells; raises ValueError if `blocks` is no partition of the space."""
    return PartitionTree(space, _canon_node(space, space.root_block.extent,
                                            blocks))


def normalize(tree: PartitionTree) -> PartitionTree:
    """The canonical tree of `tree`'s partition."""
    return canonical_tree(tree.space, tree.leaf_blocks())


def is_legal(tree: PartitionTree) -> bool:
    """A tree is reachable by the duplicate-free order iff it equals its
    canonical form. Raises ValueError if its leaves are no partition of
    the space. The trees are compared node by node on an explicit stack,
    not by the nodes' recursive `__eq__`."""
    stack = [(normalize(tree).root, tree.root)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Leaf) or isinstance(b, Leaf):
            if a != b:
                return False
        elif a.split != b.split:
            return False
        else:
            stack += ((a.left, b.left), (a.right, b.right))
    return True
