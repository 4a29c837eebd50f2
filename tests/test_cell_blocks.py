"""Cell-based blocks against the row scans they replaced.

The Space's cell table is checked against binning each row on its own.
Every tree node's block is replayed on row blocks with the row-based
split (`conftest.reference_apply_split`); counts, class histograms,
metric costs, finest-cell bounds and constraint checks must equal those
computed by scanning the rows, and a shuffled copy of the rows must give
the same costs and flags.
"""

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.bounds import BoundContext
from anonsearch.constraints import (EntropyLDiversity, EpsPrivacy, KAnonymity,
                                    TCloseness, build_constraints,
                                    ordered_distance)
from anonsearch.metrics import make_metric
from anonsearch.partition import Internal, Space

from conftest import (build_space, dataset_rows, random_instance, random_tree,
                      reference_apply_split, row_columns, row_root,
                      rows_dataset)


TAXONOMY = {"label": "any", "children": [
    {"label": "ab", "children": [{"label": "a"}, {"label": "b"}]},
    {"label": "c"}]}


def numeric(name, cuts, role="qi"):
    splits = ({"type": "explicit", "values": cuts} if cuts
              else {"type": "none"})
    return {"name": name, "kind": "numeric", "role": role,
            "domain": [0, 10], "splits": splits}


def categorical(name, split_type, role="qi"):
    return {"name": name, "kind": "categorical", "role": role,
            "taxonomy": "t", "splits": {"type": split_type}}


def reference_cell_table(space):
    """Each row binned on its own by bisecting its values among the
    planes: the rows' cell numbers in first-row order, the cells' row
    counts and extents, and the root extent."""
    schema, columns = space.dataset.schema, space.dataset.columns
    bounds, planes = [], []
    for a in space.qi:
        attr = schema[a]
        bounds.append(attr.domain if attr.is_numeric
                      else (0, attr.taxonomy.n_leaves))
        planes.append(space.splits.planes(a))
    number, cell_of, extents = {}, [], []
    for r in range(len(space.dataset)):
        slots = []
        for a, cuts in zip(space.qi, planes):
            attr, v = schema[a], columns[a][r]
            slots.append(bisect_left(cuts, v) if attr.is_numeric else
                         bisect_right(cuts, attr.taxonomy.leaf_position(v)))
        key = tuple(slots)
        if key not in number:
            number[key] = len(number)
            extents.append(tuple(
                ([lo, *cuts, hi][i], [lo, *cuts, hi][i + 1])
                for i, cuts, (lo, hi) in zip(key, planes, bounds)))
        cell_of.append(number[key])
    counts = [cell_of.count(c) for c in range(len(number))]
    return cell_of, counts, extents, tuple(bounds)


@pytest.mark.parametrize("attrs", [
    # a numeric QI attribute with no cut beside one with cuts
    [numeric("x", []), numeric("y", [2.5, 5, 7.5])],
    # a categorical QI attribute with type none, then a numeric one
    [categorical("c", "none"), numeric("y", [5]),
     numeric("s", [3], role="sensitive")],
    # no plane at all: one cell holds every row
    [numeric("x", []), categorical("c", "none")],
    # a later attribute with more slots than an earlier one
    [numeric("x", [5]), categorical("c", "taxonomy"),
     numeric("y", [1, 2, 3, 4, 6, 8])],
])
def test_cell_table_matches_per_row_binning(attrs):
    rng = random.Random(len(attrs))
    rows = [tuple(rng.choice([0, 1, 2, 2.5, 5, 6.5, 7.5, 10])
                  if a["kind"] == "numeric" else rng.choice("abc")
                  for a in attrs) for _ in range(60)]
    space = build_space({"attributes": attrs,
                         "taxonomies": {"t": TAXONOMY}}, rows)
    cell_of, counts, extents, root = reference_cell_table(space)
    assert space.cell_of == cell_of
    assert space.cell_counts == counts
    if not space.splits.splits:
        assert counts == [len(rows)]
    for c, extent in enumerate(extents):
        block = space.cell_block(c)
        assert (block.extent, block.cells, block.count) == \
            (extent, (c,), counts[c])
    block = space.root_block
    assert (block.extent, block.cells, block.count) == \
        (root, tuple(range(len(counts))), len(rows))


def row_cost(name, metric, block, labels):
    n = block.count
    if name == "dm":
        return n * n
    if name == "cm":
        if not n:
            return 0
        return n - max(Counter(labels[r] for r in block.rows).values())
    return n * metric.volume(block.extent) / metric.unit_volume


def row_cells(space, columns, block):
    """The non-empty finest cells of a row block, by splitting at any
    plane inside the extent until none is left, in the order of their
    first rows. (Moves alone would stop at the intermediate blocks of a
    categorical chain, whose ranges are no taxonomy node's.)"""
    out, stack = [], [block]
    while stack:
        b = stack.pop()
        inside = [s for s in space.splits.splits
                  if b.extent[s.qi_pos][0] < s.plane < b.extent[s.qi_pos][1]]
        if inside:
            stack.extend(reference_apply_split(columns, b, inside[0]))
        elif b.rows:
            out.append(b)
    return sorted(out, key=lambda c: min(c.rows))


def row_min_cost(name, metric, cells, labels, size_floor):
    total = 0.0
    for cell in cells:
        m = cell.count
        if name == "dm":
            total += m * m if m >= size_floor else size_floor * m
        else:
            total += row_cost(name, metric, cell, labels)
    return total


def row_ok(c, block, labels, order):
    """The row-scan check of constraint `c` on a row block."""
    n = block.count
    if isinstance(c, KAnonymity):
        return n == 0 or n >= c.k
    if n == 0:
        return True
    counts = Counter(labels[r] for r in block.rows)
    if isinstance(c, EntropyLDiversity):
        entropy = -sum((m / n) * math.log(m / n) for m in counts.values())
        return entropy >= c.threshold - 1e-12
    if isinstance(c, TCloseness):
        p = [counts.get(v, 0) / n for v in order]
        total = Counter(labels)
        q = [total[v] / len(labels) for v in order]
        return ordered_distance(p, q) <= c.t + 1e-12
    assert isinstance(c, EpsPrivacy)
    if n - c.b < c.r1_floor - 1e-12:
        return False
    return max(counts.values()) / (n + c.b) <= c.r2_bound + 1e-12


def problem(space, k, l_div, t):
    metrics = {name: make_metric(name, space) for name in ("dm", "cm", "vm")}
    cons = build_constraints(space, k=k, l_div=l_div, t_close=t,
                             eps={"eps": 4, "sigma": 1, "b": 1})
    return metrics, cons


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cell_blocks_match_row_scans(seed):
    rng = random.Random(seed)
    while True:   # draw until a taxonomy expansion is a chain of cuts
        space = random_instance(rng, total_splits=rng.randint(3, 6),
                                rows_range=(6, 24), snap=0.4)
        if any(len(m.splits) > 1 for m in space.splits.expansions.values()):
            break
    rows = dataset_rows(space.dataset)
    rng.shuffle(rows)
    shuffled = Space(rows_dataset(space.dataset.schema, rows), space.splits)
    columns = row_columns(space)
    labels = space.dataset.column("s")
    leaf = space.dataset.schema[space.dataset.attr_index("s")].taxonomy
    order = sorted(set(labels), key=leaf.leaf_position)
    k = rng.randint(1, 3)
    l_div, t = rng.choice([1.5, 2.0, 2.5]), rng.choice([0.1, 0.3, 0.6])
    metrics, cons = problem(space, k, l_div, t)
    smetrics, scons = problem(shuffled, k, l_div, t)
    ctxs = {name: BoundContext(space, m, cons) for name, m in metrics.items()}
    sctxs = {name: BoundContext(shuffled, m, scons)
             for name, m in smetrics.items()}
    # entropy l-diversity needs ceil(l) distinct labels, so no feasible
    # block is smaller than that or k
    size_floor = max(k, math.ceil(l_div))

    def replay(node, block, ref, sblock):
        yield block, ref, sblock
        if isinstance(node, Internal):
            bl, br = space.apply_split(block, node.split)
            rl, rr = reference_apply_split(columns, ref, node.split)
            sl, sr = shuffled.apply_split(sblock, node.split)
            yield from replay(node.left, bl, rl, sl)
            yield from replay(node.right, br, rr, sr)

    for _ in range(4):
        tree = random_tree(space, rng)
        for block, ref, sblock in replay(tree.root, space.root_block,
                                         row_root(space),
                                         shuffled.root_block):
            assert block.extent == ref.extent == sblock.extent
            assert block.count == ref.count == sblock.count
            assert list(block.cells) == sorted(block.cells)
            values = space.label_counts("s")[0]
            hist = dict(zip(values, space.histogram(block, "s")))
            want = Counter(labels[r] for r in ref.rows)
            assert {v: n for v, n in hist.items() if n} == want
            cells = row_cells(space, columns, ref)
            for name, metric in metrics.items():
                cost = metric.block_cost(block)
                assert cost == row_cost(name, metric, ref, labels)
                assert smetrics[name].block_cost(sblock) == cost
                bound = ctxs[name].min_cost(block)
                assert bound == row_min_cost(name, metric, cells, labels,
                                             size_floor)
                if name != "vm":   # vm may differ in the last ulp
                    assert sctxs[name].min_cost(sblock) == bound
            oks = [row_ok(c, ref, labels, order) for c in cons]
            for c, ok in zip(cons, oks):
                assert c.block_ok(block) == ok, c.name
            flags = (not all(oks),
                     any(not ok and c.monotone for c, ok in zip(cons, oks)))
            assert cons.block_flags(block) == flags
            assert scons.block_flags(sblock) == flags
