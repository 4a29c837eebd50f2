"""Dataset loading, attribute schemas and taxonomy trees."""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional


class ConfigError(ValueError):
    """Malformed schema, taxonomy or constraint configuration."""


class DataError(ValueError):
    """Malformed data file. Messages carry file/row/column positions."""


def is_finite_number(x) -> bool:
    """`x` is a finite number as JSON gives one: an int or a float, not
    a bool."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or isinstance(x, float) and math.isfinite(x)


def is_count(x) -> bool:
    """`x` is a finite, whole, non-negative number."""
    return is_finite_number(x) and x >= 0 and x == int(x)


NUMERIC = "numeric"
CATEGORICAL = "categorical"
ROLES = ("qi", "sensitive", "ignore")


class TaxonomyNode:
    __slots__ = ("label", "children", "parent", "leaf_range")

    def __init__(self, label: str, children=()):
        self.label = label
        self.children = list(children)
        self.parent = None
        self.leaf_range = (0, 0)  # half open leaf positions, set by TaxonomyTree

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self):
        return f"TaxonomyNode({self.label!r})"


class TaxonomyTree:
    """Generalization hierarchy over categorical values.

    Leaf positions are assigned left to right, so every subtree covers a
    contiguous half open range of positions. Internal nodes with a single
    child are rejected: they would make subtree ranges ambiguous.
    """

    def __init__(self, root: TaxonomyNode):
        self.root = root
        self.by_label: dict[str, TaxonomyNode] = {}
        self.leaves: list[TaxonomyNode] = []
        self._index(root)
        if not self.leaves:
            raise ConfigError("taxonomy has no leaves")

    def _index(self, node: TaxonomyNode):
        if node.label in self.by_label:
            raise ConfigError(f"duplicate taxonomy label {node.label!r}")
        self.by_label[node.label] = node
        if node.is_leaf:
            pos = len(self.leaves)
            node.leaf_range = (pos, pos + 1)
            self.leaves.append(node)
        else:
            if len(node.children) < 2:
                raise ConfigError(
                    f"taxonomy node {node.label!r} has a single child")
            for child in node.children:
                child.parent = node
                self._index(child)
            node.leaf_range = (node.children[0].leaf_range[0],
                               node.children[-1].leaf_range[1])

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def node(self, label: str) -> TaxonomyNode:
        try:
            return self.by_label[label]
        except KeyError:
            raise ConfigError(f"unknown taxonomy label {label!r}") from None

    def leaf_position(self, label: str) -> int:
        node = self.node(label)
        if not node.is_leaf:
            raise ConfigError(f"{label!r} is not a leaf value")
        return node.leaf_range[0]

    def internal_nodes_bfs(self) -> list[TaxonomyNode]:
        """Internal nodes level by level, left to right within a level."""
        out, queue = [], [self.root]
        while queue:
            node = queue.pop(0)
            if not node.is_leaf:
                out.append(node)
                queue.extend(node.children)
        return out

    def range_node(self, rng) -> Optional[TaxonomyNode]:
        # unique because single-child nodes are rejected
        return self._range_index().get(tuple(rng))

    def _range_index(self):
        idx = getattr(self, "_ranges", None)
        if idx is None:
            idx = {n.leaf_range: n for n in self.by_label.values()}
            self._ranges = idx
        return idx


def taxonomy_from_dict(spec) -> TaxonomyTree:
    def build(d):
        if not isinstance(d, dict) or "label" not in d:
            raise ConfigError("taxonomy nodes need a 'label' key")
        children = d.get("children", [])
        if not isinstance(children, list):
            raise ConfigError(f"taxonomy node {d['label']!r}: 'children' "
                              f"must be a list, got {children!r}")
        children = [build(c) for c in children]
        return TaxonomyNode(str(d["label"]), children)

    return TaxonomyTree(build(spec))


def flat_taxonomy(name: str, values) -> TaxonomyTree:
    """One-level hierarchy: a root covering the given values. A single
    value is a one-leaf taxonomy, which allows no split."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"attribute {name!r}: 'values' must be a "
                          f"nonempty list, got {values!r}")
    if len(values) != len(set(values)):
        raise ConfigError(f"attribute {name}: duplicate values")
    if len(values) == 1:
        return taxonomy_from_dict({"label": str(values[0])})
    return taxonomy_from_dict(
        {"label": f"<{name}>", "children": [{"label": str(v)} for v in values]})


@dataclass(frozen=True, eq=False)
class AttributeSchema:
    name: str
    kind: str
    role: str
    domain: Optional[tuple] = None            # numeric: (lo, hi)
    taxonomy: Optional[TaxonomyTree] = None   # categorical
    split_spec: Optional[dict] = None

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC


def load_config(source) -> tuple:
    """Parse a config document into a tuple of AttributeSchema.

    `source` may be a path, an open file or an already parsed dict. The
    document holds an `attributes` list plus optional shared `taxonomies`;
    a categorical attribute may instead inline its values via `values`.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{source}: {exc}") from None
    elif isinstance(source, dict):
        doc = source
    else:
        doc = json.load(source)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object, got "
                          f"{type(doc).__name__}")

    attrs_spec = doc.get("attributes")
    if not isinstance(attrs_spec, list) or not attrs_spec:
        raise ConfigError("config needs a nonempty 'attributes' list")

    tax_specs = doc.get("taxonomies") or {}
    if not isinstance(tax_specs, dict):
        raise ConfigError("'taxonomies' must be an object of named "
                          f"taxonomies, got {tax_specs!r}")
    taxonomies = {}
    for name, spec in tax_specs.items():
        try:
            taxonomies[name] = taxonomy_from_dict(spec)
        except ConfigError as exc:
            raise ConfigError(f"taxonomy {name!r}: {exc}") from None

    schema = []
    seen = set()
    for a in attrs_spec:
        if not isinstance(a, dict):
            raise ConfigError("attribute entries must be objects")
        name = a.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError("attribute name must be a nonempty string, "
                              f"got {name!r}")
        if name in seen:
            raise ConfigError(f"duplicate attribute {name!r}")
        seen.add(name)
        kind = a.get("kind")
        if kind not in (NUMERIC, CATEGORICAL):
            raise ConfigError(f"attribute {name!r}: kind must be "
                              f"'numeric' or 'categorical', got {kind!r}")
        role = a.get("role", "qi")
        if role not in ROLES:
            raise ConfigError(f"attribute {name!r}: unknown role {role!r}")

        if kind == NUMERIC:
            dom = a.get("domain")
            if not (isinstance(dom, (list, tuple)) and len(dom) == 2
                    and all(map(is_finite_number, dom))):
                raise ConfigError(f"attribute {name!r}: numeric domain must "
                                  "be [lo, hi] of finite numbers")
            lo, hi = float(dom[0]), float(dom[1])
            if not lo < hi:
                raise ConfigError(f"attribute {name!r}: empty domain")
            schema.append(AttributeSchema(name, kind, role, domain=(lo, hi),
                                          split_spec=a.get("splits")))
        else:
            if "values" in a:
                tax = flat_taxonomy(name, a["values"])
            elif "taxonomy" in a:
                ref = a["taxonomy"]
                if not isinstance(ref, str) or ref not in taxonomies:
                    raise ConfigError(f"attribute {name!r}: taxonomy "
                                      f"{ref!r} not defined")
                tax = taxonomies[ref]
            else:
                raise ConfigError(f"attribute {name!r}: categorical attributes "
                                  "need 'taxonomy' or 'values'")
            schema.append(AttributeSchema(name, kind, role, taxonomy=tax,
                                          split_spec=a.get("splits")))
    return tuple(schema)


class Dataset:
    """A table aligned with an attribute schema, held as one list per
    attribute: `columns[i]` has every row's value of `schema[i]`, a float
    for a numeric attribute and a taxonomy leaf label for a categorical
    one. No row tuple is ever built."""

    def __init__(self, schema, columns):
        self.schema = tuple(schema)
        self.columns = list(columns)
        if len(self.columns) != len(self.schema):
            raise ValueError(f"{len(self.columns)} columns for "
                             f"{len(self.schema)} attributes")
        if len(set(map(len, self.columns))) > 1:
            raise ValueError("columns differ in length")
        self._col_index = {a.name: i for i, a in enumerate(self.schema)}

    def __len__(self):
        return len(self.columns[0]) if self.columns else 0

    def attr_index(self, name: str) -> int:
        try:
            return self._col_index[name]
        except KeyError:
            raise ConfigError(f"unknown attribute {name!r}") from None

    def column(self, name: str) -> list:
        """The stored column: shared between callers, who must not
        mutate it."""
        return self.columns[self.attr_index(name)]


# records read, transposed and checked at a time by `load_dataset`
CHUNK_ROWS = 256


def _parse(attr, raw_text):
    """The value of one field text; the ValueError says what is wrong."""
    text = raw_text.strip()
    if text == "":
        raise ValueError("missing value")
    if attr.is_numeric:
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"not a number: {text!r}") from None
        lo, hi = attr.domain
        if not lo <= v <= hi:
            raise ValueError(f"{v} outside domain [{lo}, {hi}]")
        return v
    node = attr.taxonomy.by_label.get(text)
    if node is None or not node.is_leaf:
        raise ValueError(f"unknown value {text!r}")
    return text


class _Memo(dict):
    """One column's parsed values, keyed by raw field text. A text is
    parsed on its first lookup; one that fails raises its ValueError and
    is never stored."""

    __slots__ = ("attr",)

    def __init__(self, attr):
        self.attr = attr

    def __missing__(self, text):
        value = self[text] = _parse(self.attr, text)
        return value


def _first_error(path, schema, memos):
    """Raise the first fault of the file in (line, column) order: a wrong
    field count or a field that does not parse. The file is read again
    from the top with the reader's own line count, so the error names the
    line where the faulty record starts even after a quoted field that
    holds a line break."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)                    # the header, already checked
        lineno = reader.line_num + 1    # the line the next record starts on
        for raw in reader:
            if raw and len(raw) != len(schema):
                raise DataError(f"{path}:{lineno}: expected {len(schema)} "
                                f"fields, got {len(raw)}")
            for col, (attr, memo, raw_text) in enumerate(
                    zip(schema, memos, raw), start=1):
                if raw_text in memo:
                    continue
                try:
                    _parse(attr, raw_text)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: column {col} "
                                    f"({attr.name}): {exc}") from None
            lineno = reader.line_num + 1
    raise AssertionError("the file has no fault")


def load_dataset(path, schema) -> Dataset:
    """Read a CSV whose header matches the schema names exactly.

    Records are read `CHUNK_ROWS` at a time and blank ones dropped; a
    chunk of blank records only is skipped. Each chunk is transposed into
    per-column tuples, and each tuple is mapped in one pass through its
    column's memo, which parses a distinct field text on its first lookup
    and never remembers a text that fails. The transposition is strict,
    inside and out, so a record of the wrong length stops it as a parse
    failure does. At the first fault the file is read again record by
    record (`_first_error`), so the error names the line where the first
    faulty record starts, and its column. A record the csv module refuses
    (a field over its size limit) names the line it was read to, and text
    that does not decode names the file."""
    names = [a.name for a in schema]
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if [h.strip() for h in header] != names:
                raise DataError(f"{path}: header {header!r} does not match "
                                f"schema attributes {names!r}")
            columns = [[] for _ in schema]
            memos = [_Memo(attr) for attr in schema]
            while chunk := list(islice(reader, CHUNK_ROWS)):
                records = list(filter(None, chunk))
                if not records:
                    continue
                try:
                    # strict inside: every record as long as the first;
                    # strict outside: the first as long as the schema
                    for memo, column, raw in zip(
                            memos, columns, zip(*records, strict=True),
                            strict=True):
                        column.extend(map(memo.__getitem__, raw))
                except ValueError:
                    _first_error(path, schema, memos)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not any(columns):
        raise DataError(f"{path}: no data rows")
    return Dataset(schema, columns)


def sample_dataset(dataset: Dataset, n: int, seed: int = 0) -> Dataset:
    """Seeded uniform subsample of n >= 1 rows without replacement. The
    rows and their order are those of shuffling the row list with
    `random.Random(seed)` and keeping the first n."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if n >= len(dataset):
        return dataset
    order = list(range(len(dataset)))
    random.Random(seed).shuffle(order)
    del order[n:]
    return Dataset(dataset.schema,
                   [list(map(col.__getitem__, order))
                    for col in dataset.columns])
