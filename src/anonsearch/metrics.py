"""Information loss metrics and count-query estimation.

All metrics are sums of per-block terms, which keeps incremental cost
maintenance during search trivial: replacing one block by its children
changes the total by the difference of their terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge, gt

from .dataset import ConfigError, is_finite_number


class Metric:
    """Base: cost(blocks) = sum of block_cost. `floor_cost` is the term of
    one finest cell, given as a block, when bounding from below on finest
    cells; `size_floor` is the smallest non-empty block size the
    constraints allow (`ConstraintSet.min_block_size`). By default the
    term is the cell's own cost.

    The floor contract, which every bound and certificate relies on: no
    cost is negative, and a block that passes every constraint costs at
    least the sum of its finest cells' floors. The built-in metrics meet
    it; a solve that meets a block breaking it certifies nothing
    (`BoundContext.sound`)."""

    name = "?"

    def block_cost(self, block):
        raise NotImplementedError

    def cost(self, blocks) -> float:
        return sum(self.block_cost(b) for b in blocks)

    def floor_cost(self, cell, size_floor):
        return self.block_cost(cell)


class Discernibility(Metric):
    """Sum of squared block sizes. In lower bounds a cell below the size
    floor is charged the floor per tuple, since a feasible partition puts
    it in a block of at least that many tuples."""

    name = "dm"

    def block_cost(self, block):
        n = block.count
        return n * n

    def floor_cost(self, cell, size_floor):
        n = cell.count
        return n * n if n >= size_floor else size_floor * n


class ClassificationError(Metric):
    """Per block: tuples not in the block's majority class. The class
    histogram is the sum of the block's cell histograms
    (`Space.histogram`)."""

    name = "cm"

    def __init__(self, space, class_attr: str):
        self.space = space
        self.class_attr = class_attr

    def block_cost(self, block):
        if not block.count:
            return 0
        return block.count - max(self.space.histogram(block, self.class_attr))


class VolumeMetric(Metric):
    """Each tuple pays its block's normalized volume in units of
    `unit_volume`. No block is smaller than the smallest cell the split
    set can produce, so N times that cell's volume over the unit is a
    universal lower bound; the default unit is that volume, which makes
    the bound N."""

    name = "vm"

    def __init__(self, space, unit_volume=None):
        self.space = space
        self._lengths = []
        for attr in space.qi_schema:
            if attr.is_numeric:
                lo, hi = attr.domain
                self._lengths.append(hi - lo)
            else:
                self._lengths.append(float(attr.taxonomy.n_leaves))
        if unit_volume is None:
            unit_volume = self._min_cell_volume()
        if not 0 < unit_volume < math.inf:
            raise ConfigError("unit volume must be finite and positive, "
                              f"got {unit_volume}")
        self.unit_volume = unit_volume

    def _min_cell_volume(self):
        unit = 1.0
        for edges, length in zip(self.space.edges, self._lengths):
            unit *= min(b - a for a, b in zip(edges, edges[1:])) / length
        return unit

    def volume(self, extent) -> float:
        v = 1.0
        for (lo, hi), ln in zip(extent, self._lengths):
            v *= (hi - lo) / ln
        return v

    def block_cost(self, block):
        return block.count * self.volume(block.extent) / self.unit_volume


def make_metric(name, space, class_attr=None, unit_volume=None) -> Metric:
    if name == "dm":
        return Discernibility()
    if name == "cm":
        if class_attr is None:
            for a in space.dataset.schema:
                if a.role == "sensitive":
                    class_attr = a.name
                    break
        if class_attr is None:
            raise ConfigError("cm needs a class attribute "
                              "(a sensitive attribute or class_attr=)")
        space.dataset.attr_index(class_attr)   # unknown names fail here
        return ClassificationError(space, class_attr)
    if name == "vm":
        return VolumeMetric(space, unit_volume)
    raise ConfigError(f"unknown metric {name!r}")


def theoretical_bound(metric: Metric, space, size_floor: int) -> float:
    """Instance-wide lower bound on the metric over all partitions whose
    non-empty blocks hold at least `size_floor` tuples."""
    n = len(space.dataset)
    if metric.name == "dm":
        return size_floor * n
    if metric.name == "cm":
        return 0
    if metric.name == "vm":
        return float(n) * (metric._min_cell_volume() / metric.unit_volume)
    raise ConfigError(f"unknown metric {metric.name!r}")


# ---- count queries ----

def parse_query(space, spec: dict) -> dict:
    """Resolve a {attr: range-or-label} mapping to per-position ranges.

    Numeric attributes take [lo, hi] pairs; categorical attributes take a
    taxonomy label (any node: its whole leaf range is queried).
    """
    if not isinstance(spec, dict):
        raise ConfigError("expected an object")
    out = {}
    by_name = {space.dataset.schema[i].name: (qi_pos, i)
               for qi_pos, i in enumerate(space.qi)}
    for name, rng in spec.items():
        if name not in by_name:
            raise ConfigError(f"query on non-QI attribute {name!r}")
        qi_pos, attr_idx = by_name[name]
        attr = space.dataset.schema[attr_idx]
        if attr.is_numeric:
            if not (isinstance(rng, (list, tuple)) and len(rng) == 2
                    and all(map(is_finite_number, rng))):
                raise ConfigError(f"query range for {name!r} must be "
                                  "[lo, hi] of finite numbers")
            a, b = float(rng[0]), float(rng[1])
            if a > b:
                raise ConfigError(f"query range for {name!r} is empty")
            out[qi_pos] = (a, b)
        else:
            node = attr.taxonomy.node(str(rng))
            out[qi_pos] = node.leaf_range
    return out


@dataclass(frozen=True)
class CountedBlock:
    """Extent plus count, enough for estimation; lets reports run on
    partitions reloaded from disk without the raw rows."""
    extent: tuple
    count: int


def count_estimate(space, blocks, query: dict) -> float:
    """Estimated number of tuples matching the query, assuming tuples are
    uniform inside each block. Blocks fully inside contribute exactly."""
    total = 0.0
    for b in blocks:
        if b.count == 0:
            continue
        frac = 1.0
        for qi_pos, (qa, qb) in query.items():
            lo, hi = b.extent[qi_pos]
            inter = min(hi, qb) - max(lo, qa)
            if inter <= 0:
                frac = 0.0
                break
            frac *= min(1.0, inter / (hi - lo))
        total += b.count * frac
    return total


def true_count(space, query: dict) -> int:
    """Exact matches in the data. Numeric ranges are left-open except at
    the domain minimum, mirroring how splits assign boundary values."""
    ds = space.dataset
    hits = range(len(ds))
    for qi_pos, (qa, qb) in query.items():
        attr_idx = space.qi[qi_pos]
        attr, col = ds.schema[attr_idx], ds.columns[attr_idx]
        if attr.is_numeric:
            above = ge if qa <= attr.domain[0] else gt
            hits = [r for r in hits if above(col[r], qa) and col[r] <= qb]
        else:
            pos = attr.taxonomy.leaf_position
            hits = [r for r in hits if qa <= pos(col[r]) < qb]
    return len(hits)


def query_error_report(space, blocks, queries) -> dict:
    """Per-query estimates vs. exact counts.

    Relative error uses max(true, 1) in the denominator so empty answers
    stay finite.
    """
    rows = []
    for i, spec in enumerate(queries):
        try:
            q = parse_query(space, spec)
        except ConfigError as exc:
            raise ConfigError(f"queries[{i}]: {exc}") from None
        est = count_estimate(space, blocks, q)
        true = true_count(space, q)
        rel = abs(est - true) / max(true, 1)
        rows.append({"query": i, "estimate": est, "true": true,
                     "abs_error": abs(est - true), "rel_error": rel})
    rels = [r["rel_error"] for r in rows]
    summary = {
        "queries": len(rows),
        "mean_rel_error": sum(rels) / len(rels) if rels else 0.0,
        "max_rel_error": max(rels) if rels else 0.0,
    }
    return {"rows": rows, "summary": summary}
