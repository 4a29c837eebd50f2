"""The frontier of a partition tree, derived from its parent's frontier.

A tree's frontier is its refinable leaves (`splittable_leaves`), a
pre-order suffix of its leaves. Here it is one flat tuple: the caller's
`HEAD` fields, then per leaf in pre-order its path, the caller's payload
for its block, its ancestry as `splittable_leaves` gives it, and the
depth of its lowest common ancestor with the leaf before it.

Growing frontier leaf i by a move freezes the leaves before it, so the
child tree's frontier is the move's new leaves followed by the leaves
after i. The new leaves' paths, ancestry entries and ancestor depths
follow from the move alone and leaf i's. A leaf after i keeps its path,
payload and every ancestry entry but one: at its lowest common ancestor
with leaf i, the child off its path now holds the grown subtree, so
that entry takes the subtree's new cut mask. The cut masks are rebuilt
up leaf i's path one level at a time from the move's, reading each
ancestor's split and other child's mask from leaf i's entries, and only
as high as the leaves after i need. Once a mask is unchanged, so is
every mask above it: the first leaf after i whose entry at that
ancestor keeps its mask ends the rebuild, and it and the rest of the
parent's frontier are copied in one slice. Entries that do not change
are shared, never copied.
"""

from __future__ import annotations

from .partition import node_cuts

HEAD = 2   # caller's fields before the leaves


def _chain(move):
    """The subtree `move` grows at a leaf: its cut mask and, per split
    from the top, the split, its `keep` and its tree-left child's `free`
    in the ancestry form, and its tree-right child's cut mask. The top
    is a move head; the splits below it continue its sibling set."""
    levels = []
    below = 0
    for s in reversed(move.splits):
        levels.append([s, -1, s.other_attrs & ~below, below])
        below = node_cuts(s, 0, below)
    levels[-1][1] = -(2 << move.id)
    return below, tuple(map(tuple, reversed(levels)))


class Frontiers:
    """Makes the frontiers of one search. Every frontier it makes shares
    one tuple per path and one `_chain` per move."""

    def __init__(self):
        self._kids: dict = {}     # path -> its two children's paths
        self._chains: dict = {}   # move id -> _chain(move)

    def of_tree(self, tree, head, payload) -> tuple:
        """The frontier of `tree` from a walk of it, with `payload(block)`
        for each leaf."""
        front = list(head)
        prev = ()
        for path, leaf, ancestry in tree.splittable_leaves():
            lca = 0
            while lca < len(prev) and prev[lca] == path[lca]:
                lca += 1
            front += (path, payload(leaf.block), ancestry, lca)
            prev = path
        return tuple(front)

    def grown(self, front, at, move, payloads, head) -> tuple:
        """The frontier of the tree grown at the leaf whose path is
        `front[at]` by `move`; `payloads` are the new blocks', in
        `move_blocks` order."""
        path, _, ancestry, lca = front[at:at + 4]
        out = list(head)
        chain = self._chains.get(move.id)
        if chain is None:
            chain = self._chains[move.id] = _chain(move)
        cuts, levels = chain
        depth = len(path)
        up, step = ancestry, path
        # split t of the move has new block t on its tree-left
        for t, (s, keep, free, below) in enumerate(levels):
            kids = self._kids.get(step)
            if kids is None:
                kids = self._kids[step] = (step + (0,), step + (1,))
            right = (s.other_attrs, keep, up, s, 0)
            left = (free, keep, up, s, below) if below else right
            out += (kids[0], payloads[t], left, depth + t - 1 if t else lca)
            up, step = right, kids[1]
        out += (step, payloads[-1], up, depth + len(levels) - 1)
        # `cuts` is the new cut mask of the node at depth e on the grown
        # path, `walk` the entry of its parent, d the depth of the lowest
        # common ancestor of the grown leaf and the leaf at hand
        e = d = depth
        walk, old, new = ancestry, None, None
        for u in range(at + 4, len(front), 4):
            p, x, anc, lca = front[u:u + 4]
            if lca < d:
                d = lca
                while e > d + 1:
                    e -= 1
                    _, _, walk_up, s, sib = walk
                    cuts = (node_cuts(s, sib, cuts) if path[e]
                            else node_cuts(s, cuts, sib))
                    walk = walk_up
            below = []   # the leaf's entries under that ancestor
            top = anc
            for _ in range(len(p) - 1 - d):
                below.append(top)
                top = top[2]
            if top is not old:
                _, keep, up, s, sib = old = top
                if sib == cuts:
                    # the masks above are unchanged too: so is every entry
                    # of this leaf and the leaves after it
                    out += front[u:]
                    break
                new = (s.other_attrs & ~cuts, keep, up, s, cuts)
            anc = new
            for free, keep, _, s, sib in reversed(below):
                anc = (free, keep, anc, s, sib)
            out += (p, x, anc, lca)
        return tuple(out)
