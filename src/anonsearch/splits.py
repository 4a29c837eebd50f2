"""Split generation and the global split id order.

Ids form one total order over all splits. Within a numeric attribute ids
increase with the cut value. Within a categorical attribute the sibling
sets (children of one taxonomy node) are numbered level by level from the
root, and inside one set the boundaries get consecutive ids starting from
the rightmost boundary: the rightmost boundary takes the lowest id and
ids grow towards the left. The lower-id side of a split is its tree-left
side, so numeric tree-left means value <= cut while categorical tree-left
is the geometric right part.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .dataset import ConfigError, is_count, is_finite_number


@dataclass(frozen=True, slots=True)
class Split:
    """One cut plane. The masks are sets of splits as bits (split id i is
    bit i), filled in by the `SplitSet`; they define a node's cut mask
    (`partition.Internal`). Another split of the same attribute is on
    the tree-left side when its plane is below this one's for a numeric
    split and above it for a categorical one."""
    id: int
    attr: int           # schema index
    qi_pos: int         # position inside block extents
    plane: float        # numeric: cut value; categorical: boundary leaf position
    numeric: bool
    set_id: int = -1    # sibling set id, -1 for numeric splits
    owner: str = ""     # label of the taxonomy node the set belongs to
    # the other splits of the same attribute on the tree-left side, on
    # the tree-right side, and every split of another attribute
    keep_left: int = field(default=0, compare=False)
    keep_right: int = field(default=0, compare=False)
    other_attrs: int = field(default=0, compare=False)

    def __repr__(self):
        kind = "num" if self.numeric else f"cat:{self.owner}"
        return f"Split(#{self.id} a{self.attr} {kind}@{self.plane:g})"


@dataclass(frozen=True, slots=True)
class Move:
    """One refinement action: a numeric split or a whole sibling set.

    A sibling set is applied atomically, lowest id first, so a single move
    replaces one block by all children of the owning taxonomy node. `id`
    is its first split's id and `bits` is `1 << id`, the move's bit in
    the id masks of `partition.legal_ids`.
    """
    splits: tuple
    id: int = field(init=False, compare=False)
    bits: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "id", self.splits[0].id)
        object.__setattr__(self, "bits", 1 << self.id)


class SplitSet:
    """All splits of an instance plus the indexes used during search."""

    def __init__(self, schema, splits):
        self.schema = tuple(schema)
        self.qi = [i for i, a in enumerate(schema) if a.role == "qi"]
        for expect, s in enumerate(splits, start=1):
            if s.id != expect:
                raise ConfigError("split ids must be consecutive from 1")
        # `partition.Space.available_moves` relies on this order
        for a, b in zip(splits, splits[1:]):
            if b.qi_pos < a.qi_pos or (b.qi_pos == a.qi_pos and b.numeric
                                       and not a.plane < b.plane):
                raise ConfigError("split ids must ascend with the QI "
                                  "position, and with the plane within a "
                                  "numeric attribute")
        self.splits = tuple(_with_masks(splits))
        self.by_id = {s.id: s for s in self.splits}
        self.by_attr: dict[int, tuple] = {}
        for s in self.splits:
            self.by_attr.setdefault(s.attr, ())
            self.by_attr[s.attr] += (s,)
        # one move per numeric split, shared by every block it cuts
        self.numeric_moves = {s.id: Move((s,)) for s in self.splits
                              if s.numeric}
        # sibling sets in id order; expansion moves keyed by covered range
        sets: dict[int, tuple] = {}
        for s in self.splits:
            if s.set_id >= 0:
                sets.setdefault(s.set_id, ())
                sets[s.set_id] += (s,)
        self.expansions: dict[tuple, Move] = {}
        for members in sets.values():
            attr = members[0].attr
            tax = self.schema[attr].taxonomy
            node = tax.node(members[0].owner)
            self.expansions[(attr, node.leaf_range)] = Move(members)

    def __len__(self):
        return len(self.splits)

    def planes(self, attr) -> list:
        """The split planes of one attribute, sorted."""
        return sorted(s.plane for s in self.by_attr.get(attr, ()))


def _with_masks(splits):
    """The splits with their masks filled in."""
    out = []
    for t in splits:
        left = right = other = 0
        for s in splits:
            if s.attr != t.attr:
                other |= 1 << s.id
            elif s is not t:
                if (s.plane < t.plane) == t.numeric:
                    left |= 1 << s.id
                else:
                    right |= 1 << s.id
        out.append(replace(t, keep_left=left, keep_right=right,
                           other_attrs=other))
    return out


def _numeric_cuts(attr, spec, dataset):
    lo, hi = attr.domain
    kind = spec.get("type")
    if kind == "none":
        return []
    if kind == "explicit":
        values = spec.get("values", ())
        if not (isinstance(values, (list, tuple))
                and all(map(is_finite_number, values))):
            raise ConfigError(f"attribute {attr.name!r}: explicit split "
                              "values must be a list of finite numbers")
        cuts = [float(v) for v in values]
        if len(cuts) != len(set(cuts)):
            raise ConfigError(f"attribute {attr.name!r}: duplicate split values")
        for v in cuts:
            if not lo < v < hi:
                raise ConfigError(f"attribute {attr.name!r}: split {v} not "
                                  f"strictly inside [{lo}, {hi}]")
        return sorted(cuts)
    if kind in ("equi_width", "quantile"):
        count = spec.get("count", 0)
        if not is_count(count):
            raise ConfigError(f"attribute {attr.name!r}: split count must "
                              f"be a whole number >= 0, got {count!r}")
        count = int(count)
    if kind == "equi_width":
        return [lo + i * (hi - lo) / (count + 1) for i in range(1, count + 1)]
    if kind == "quantile":
        # imported here, its one user: a solve with no quantile spec
        # never loads the module
        import statistics
        if dataset is None:
            raise ConfigError(f"attribute {attr.name!r}: quantile splits "
                              "need data")
        values = dataset.column(attr.name)
        distinct = sorted(set(values))
        if len(distinct) < 2 or count == 0:
            return []
        mids = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
        if len(values) < 2:
            return []
        qs = statistics.quantiles(values, n=count + 1)
        cuts = []
        for q in qs:
            best = min(mids, key=lambda m: (abs(m - q), m))
            if lo < best < hi and best not in cuts:
                cuts.append(best)
        return sorted(cuts)
    raise ConfigError(f"attribute {attr.name!r}: unknown split type {kind!r}")


def generate_splits(schema, dataset=None) -> SplitSet:
    """Build the SplitSet for a schema, consuming each attribute's
    `splits` spec. Quantile specs need the `dataset` and read its column;
    no other spec reads data. Every QI attribute must carry a spec; use
    type "none" (or explicit []) to opt out.
    """
    splits = []
    next_id = 1
    next_set_id = 0
    qi_pos = 0
    for attr_idx, attr in enumerate(schema):
        if attr.role != "qi":
            continue
        spec = attr.split_spec
        if spec is None:
            raise ConfigError(f"attribute {attr.name!r}: QI attributes need "
                              "a 'splits' entry (use type 'none' to opt out)")
        if not isinstance(spec, dict):
            raise ConfigError(f"attribute {attr.name!r}: 'splits' must be "
                              "an object")
        if attr.is_numeric:
            for v in _numeric_cuts(attr, spec, dataset):
                splits.append(Split(next_id, attr_idx, qi_pos, v, True))
                next_id += 1
        else:
            kind = spec.get("type")
            if kind == "none":
                pass
            elif kind == "taxonomy":
                for node in attr.taxonomy.internal_nodes_bfs():
                    planes = [c.leaf_range[1] for c in node.children[:-1]]
                    for plane in reversed(planes):  # rightmost boundary first
                        splits.append(Split(next_id, attr_idx, qi_pos,
                                            float(plane), False,
                                            set_id=next_set_id,
                                            owner=node.label))
                        next_id += 1
                    next_set_id += 1
            else:
                raise ConfigError(f"attribute {attr.name!r}: categorical "
                                  f"splits must be 'taxonomy' or 'none', "
                                  f"got {kind!r}")
        qi_pos += 1
    return SplitSet(schema, splits)
