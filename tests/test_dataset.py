import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch import dataset as dataset_mod
from anonsearch.constraints import build_constraints
from anonsearch.dataset import (CHUNK_ROWS, ConfigError, DataError, Dataset,
                                load_config, load_dataset, sample_dataset,
                                taxonomy_from_dict)
from anonsearch.metrics import make_metric
from anonsearch.partition import Space
from anonsearch.search import search
from anonsearch.splits import generate_splits

from conftest import reference_load_dataset

BASE = {"attributes": [
    {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
     "splits": {"type": "explicit", "values": [5]}},
    {"name": "c", "kind": "categorical", "role": "qi",
     "values": ["a", "b", "c"], "splits": {"type": "taxonomy"}},
]}


def test_load_config_roundtrip():
    schema = load_config(BASE)
    assert [a.name for a in schema] == ["x", "c"]
    assert schema[0].domain == (0.0, 10.0)
    tax = schema[1].taxonomy
    assert tax.n_leaves == 3
    assert tax.leaf_position("b") == 1
    assert tax.root.leaf_range == (0, 3)


def test_values_shorthand_builds_flat_taxonomy():
    schema = load_config(BASE)
    tax = schema[1].taxonomy
    assert [n.label for n in tax.leaves] == ["a", "b", "c"]
    assert all(n.parent is tax.root for n in tax.leaves)


@pytest.mark.parametrize("splits", [{"type": "none"}, {"type": "taxonomy"}])
def test_single_value_is_a_one_leaf_taxonomy(tmp_path, splits):
    # a constant column is valid data: it loads and solves, unsplit
    doc = {"attributes": [BASE["attributes"][0],
                          {"name": "c", "kind": "categorical", "role": "qi",
                           "values": ["a"], "splits": splits}]}
    schema = load_config(doc)
    tax = schema[1].taxonomy
    assert tax.n_leaves == 1 and tax.root.is_leaf
    assert tax.root.label == "a" and tax.leaf_position("a") == 0
    ds = load_dataset(write(tmp_path, "x,c\n1,a\n2,a\n7,a\n8,a\n"), schema)
    space = Space(ds, generate_splits(schema, ds))
    assert [s.attr for s in space.splits.splits] == [0]
    res = search(space, make_metric("dm", space),
                 build_constraints(space, k=2))
    assert (res.status, res.best_cost) == ("optimal", 8)
    assert [b.extent[1] for b in res.blocks] == [(0, 1), (0, 1)]


def test_taxonomy_subtree_ranges_contiguous():
    tax = taxonomy_from_dict({"label": "r", "children": [
        {"label": "l", "children": [{"label": "l1"}, {"label": "l2"}]},
        {"label": "m"},
        {"label": "rr", "children": [{"label": "r1"}, {"label": "r2"},
                                     {"label": "r3"}]},
    ]})
    assert tax.node("l").leaf_range == (0, 2)
    assert tax.node("m").leaf_range == (2, 3)
    assert tax.node("rr").leaf_range == (3, 6)
    assert tax.range_node((3, 6)).label == "rr"
    assert tax.range_node((1, 6)) is None


@pytest.mark.parametrize("doc,msg", [
    ({"attributes": []}, "nonempty"),
    ({"attributes": [{"kind": "numeric"}]}, "name"),
    ({"attributes": [{"name": "x", "kind": "int"}]}, "kind"),
    ({"attributes": [{"name": "x", "kind": "numeric", "role": "id"}]},
     "role"),
    ({"attributes": [{"name": "x", "kind": "numeric", "domain": [1]}]},
     "domain"),
    ({"attributes": [{"name": "x", "kind": "numeric", "domain": [2, 2]}]},
     "empty domain"),
    ({"attributes": [{"name": "x", "kind": "categorical"}]}, "taxonomy"),
    ({"attributes": [{"name": "x", "kind": "categorical",
                      "taxonomy": "nope"}]}, "not defined"),
    ({"attributes": [{"name": "x", "kind": "numeric", "domain": [0, 1]},
                     {"name": "x", "kind": "numeric", "domain": [0, 1]}]},
     "duplicate"),
    *(({"attributes": [{"name": "c", "kind": "categorical", "values": v}]},
       "attribute 'c': 'values' must be a nonempty list")
      for v in ([], "ab", "a", None, {"a": 1})),
    *(({"attributes": [{"name": "age", "kind": "numeric", "domain": d}]},
       "attribute 'age': numeric domain must be")
      for d in ([17, "ninety"], [17, None], [0, float("inf")], [True, 9])),
    ({"attributes": [{"name": "c", "kind": "categorical", "taxonomy": "t"}],
      "taxonomies": [1]}, "'taxonomies' must be an object"),
    ({"attributes": [{"name": "c", "kind": "categorical", "taxonomy": "t"}],
      "taxonomies": {"t": {"label": "a", "children": 5}}},
     "taxonomy 't': taxonomy node 'a': 'children' must be a list"),
    ({"attributes": [{"name": ["x"], "kind": "numeric", "domain": [0, 1]}]},
     r"attribute name must be a nonempty string, got \['x'\]"),
    ({"attributes": [{"name": "c", "kind": "categorical", "taxonomy": ["t"]}],
      "taxonomies": {"t": {"label": "a"}}},
     r"attribute 'c': taxonomy \['t'\] not defined"),
])
def test_bad_configs(doc, msg):
    with pytest.raises(ConfigError, match=msg):
        load_config(doc)


def test_duplicate_taxonomy_labels_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        taxonomy_from_dict({"label": "r", "children": [
            {"label": "a"}, {"label": "a"}]})


def test_single_child_taxonomy_node_rejected():
    with pytest.raises(ConfigError, match="single child"):
        taxonomy_from_dict({"label": "r", "children": [
            {"label": "a", "children": [{"label": "b"}]},
            {"label": "c"}]})


def write(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    return p


def test_load_dataset_ok(tmp_path):
    schema = load_config(BASE)
    p = write(tmp_path, "x,c\n1.5,a\n9,b\n")
    ds = load_dataset(p, schema)
    assert len(ds) == 2
    assert ds.columns == [[1.5, 9.0], ["a", "b"]]
    assert ds.column("c") == ["a", "b"]
    assert ds.column("c") is ds.columns[1]


@pytest.mark.parametrize("text,fragment", [
    ("", "empty file"),
    ("x,c\n", "no data rows"),
    ("x,wrong\n1,a\n", "header"),
    ("x,c\n1\n", ":2: expected 2 fields"),
    ("x,c\nfoo,a\n", "column 1 (x): not a number"),
    ("x,c\n99,a\n", "outside domain"),
    ("x,c\n1,zzz\n", "column 2 (c): unknown value"),
    ("x,c\n1,\n", "missing value"),
    ("x,c\n1,a\n2,b\n3,zzz\n", ":4: column 2"),
    # a record after a quoted line break: the line it starts on
    ('x,c\n"5\n",a\n7,zz\n', ":4: column 2 (c): unknown value 'zz'"),
    ('x,c\r\n"5\r\n",a\r\n\r\n7,zz\r\n', ":5: column 2 (c): unknown value"),
    ('x,c\n"1\n\n",a\n\n"2",b\n"3",\n', ":7: column 2 (c): missing value"),
    ('x,"c\n"\n"1\n",b\n5\n', ":5: expected 2 fields, got 1"),
    # a fault inside a record of several lines: the line it starts on
    ('x,c\n1,a\n"5\nx",a\n', ":3: column 1 (x): not a number: '5\\nx'"),
    ('x,c\n1,a\n2,"b\n"\n3,"a\nc,\nd"\n', ":5: column 2 (c): unknown value"),
    ('x,c\n"1\n2"\n4,a\n', ":2: expected 2 fields, got 1"),
])
def test_load_dataset_errors(tmp_path, text, fragment):
    schema = load_config(BASE)
    p = write(tmp_path, text)
    with pytest.raises(DataError, match=None) as err:
        load_dataset(p, schema)
    assert fragment in str(err.value)


def test_internal_taxonomy_label_is_not_a_value(tmp_path):
    cfg = {"attributes": [
        {"name": "c", "kind": "categorical", "role": "qi", "taxonomy": "t",
         "splits": {"type": "taxonomy"}}],
        "taxonomies": {"t": {"label": "any", "children": [
            {"label": "a"}, {"label": "b"}]}}}
    schema = load_config(cfg)
    p = write(tmp_path, "c\nany\n")
    with pytest.raises(DataError, match="unknown value"):
        load_dataset(p, schema)


def test_sample_dataset_deterministic():
    schema = load_config(BASE)
    rows = [(float(i), "a") for i in range(10)]
    ds = Dataset(schema, [[float(i) for i in range(10)], ["a"] * 10])
    s1 = sample_dataset(ds, 4, seed=3)
    s2 = sample_dataset(ds, 4, seed=3)
    assert s1.columns == s2.columns
    assert len(s1) == 4
    assert sample_dataset(ds, 99, seed=0) is ds
    assert set(zip(*s1.columns)) <= set(rows)


def test_dataset_rejects_misaligned_columns():
    schema = load_config(BASE)
    with pytest.raises(ValueError, match="1 columns for 2 attributes"):
        Dataset(schema, [[1.0]])
    with pytest.raises(ValueError, match="columns differ in length"):
        Dataset(schema, [[1.0, 2.0], ["a"]])


@pytest.mark.parametrize("tail,line,message", [
    # each distinct text is checked once per column: a bad text first
    # seen after many good repeats still names its own line
    ("1,zzz\n", 62, "column 2 (c): unknown value 'zzz'"),
    (" 99 ,b\n", 62, "column 1 (x): 99.0 outside domain [0.0, 10.0]"),
    # "a" is a good value of c but not of x
    ("a,a\n", 62, "column 1 (x): not a number: 'a'"),
    ("3, \n", 62, "column 2 (c): missing value"),
    # a bad text repeated: the first line is reported
    ("2,b\n1,  zzz\n1,zzz\n", 63, "column 2 (c): unknown value 'zzz'"),
])
def test_load_dataset_errors_after_repeats(tmp_path, tail, line, message):
    schema = load_config(BASE)
    good = ["5,a", " 5 ,a", "5, a ", "5.0,a", "2,b", "2 ,  b"] * 10
    p = write(tmp_path, "x,c\n" + "\n".join(good) + "\n" + tail)
    with pytest.raises(DataError) as err:
        load_dataset(p, schema)
    assert str(err.value) == f"{p}:{line}: {message}"


def test_load_dataset_whitespace_variants_parse_alike(tmp_path):
    schema = load_config(BASE)
    p = write(tmp_path, "x,c\n5,a\n 5 ,a\n5, a \n5.0,a\n 2,b\n2 , b\n")
    ds = load_dataset(p, schema)
    assert ds.columns == [[5.0] * 4 + [2.0] * 2, ["a"] * 4 + ["b"] * 2]


@pytest.mark.parametrize("n", [0, -1])
def test_sample_dataset_rejects_sizes_below_one(n):
    # before, n = 0 kept no rows and n = -1 dropped the last one
    ds = Dataset(load_config(BASE), [[float(i) for i in range(4)], ["a"] * 4])
    with pytest.raises(ValueError, match=f"sample size must be >= 1, got {n}"):
        sample_dataset(ds, n)


# ---- the column loader against the row-major reference ----

TAXO = {"attributes": [
    {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
     "splits": {"type": "explicit", "values": [5]}},
    {"name": "c", "kind": "categorical", "role": "qi", "taxonomy": "t",
     "splits": {"type": "taxonomy"}},
], "taxonomies": {"t": {"label": "any", "children": [
    {"label": "ab", "children": [{"label": "a"}, {"label": "b"}]},
    {"label": "c"}]}}}

# field texts as written in the file: whitespace variants, a quoted field
GOOD = {"x": ["5", " 5 ", "5.0", "2", "2 ", "0", "10", "7.25", '"3"'],
        "c": ["a", " a", "b ", "c", '"b"']}
BAD = {"missing value": {"x": ["", "  "], "c": ["", " "]},
       "not a number": {"x": ["foo", "a", "1,5"]},
       "out of domain": {"x": ["99", "-1", "nan", "inf"]},
       "unknown label": {"c": ["zz", "5"]},
       "internal label": {"c": ["ab", "any"]}}


def line(fields):
    return ",".join(fields)


@st.composite
def csv_lines(draw):
    """Data lines: good records and blank lines, with up to two faults,
    a chunk size, and the faults' lines drawn near chunk boundaries."""
    chunk = draw(st.integers(1, 6))
    n = draw(st.integers(0, 4 * chunk + 2))
    lines = []
    for _ in range(n):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        else:
            lines.append(line([draw(st.sampled_from(GOOD["x"])),
                               draw(st.sampled_from(GOOD["c"]))]))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["wrong count", *BAD]))
        if kind == "wrong count":
            fields = draw(st.sampled_from([["5"], ["5", "a", "a"], ["", "", ""]]))
        else:
            col = draw(st.sampled_from(sorted(BAD[kind])))
            fields = [draw(st.sampled_from(GOOD["x"])),
                      draw(st.sampled_from(GOOD["c"]))]
            fields["xc".index(col)] = draw(st.sampled_from(BAD[kind][col]))
        boundary = chunk * draw(st.integers(0, 4))
        at = min(len(lines), max(0, boundary + draw(st.integers(-1, 1))))
        lines.insert(at, line(fields))
    return chunk, lines


def assert_loads_like_reference(path, schema):
    try:
        want = reference_load_dataset(path, schema)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_dataset(path, schema)
        assert str(err.value) == str(exc)
        return
    ds = load_dataset(path, schema)
    assert ds.columns == [list(col) for col in zip(*want)]
    assert [list(map(type, col)) for col in ds.columns] == \
        [list(map(type, col)) for col in zip(*want)]


@settings(max_examples=300, deadline=None)
@given(csv_lines(), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
def test_load_dataset_matches_row_reference(drawn, newline, final_newline):
    chunk, lines = drawn
    schema = load_config(TAXO)
    text = newline.join(["x,c", *lines]) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(dataset_mod, "CHUNK_ROWS", chunk):
            assert_loads_like_reference(path, schema)


@pytest.mark.parametrize("faults", [
    {CHUNK_ROWS - 1: "7,zz"}, {CHUNK_ROWS: "7,zz"},
    {CHUNK_ROWS - 1: "99,a", CHUNK_ROWS: "7"},
    {CHUNK_ROWS: "7", CHUNK_ROWS + 1: "foo,a"},
    {CHUNK_ROWS + 1: "7,any"}, {2 * CHUNK_ROWS - 1: ",b"}, {},
])
def test_load_dataset_at_chunk_boundaries(tmp_path, faults):
    """The real chunk size: faults just before, at and after a chunk's
    first line, with repeats and blank lines before them."""
    rng = random.Random(len(faults))
    lines = [line([rng.choice(GOOD["x"]), rng.choice(GOOD["c"])])
             if i % 17 else "" for i in range(2 * CHUNK_ROWS + 5)]
    for at, text in faults.items():
        lines[at] = text
    path = tmp_path / "d.csv"
    path.write_text("\n".join(["x,c", *lines]) + "\n")
    assert_loads_like_reference(path, load_config(TAXO))


@pytest.mark.parametrize("lines", [
    ["5,a", "5,a,a"],                     # a later record one field long
    ["5,a", "5,b", "", "", "7,c"],        # a chunk of blank records only
    ["5,a", "5,b", "", ""],               # ... as the last chunk
    ["5,a", "5"],                         # a later record one field short
    ["5,a", "2,b", "3,c", "foo,a"],       # a bad text after a new one
    ["5,a", "5,zz", "2,b", "5,zz"],       # the same bad text twice
    ["5,a", "foo,b", "foo,b"],            # ... in one chunk
])
def test_load_dataset_pitfalls(tmp_path, lines):
    """Two-record chunks: a record of the wrong length after a good one,
    a chunk with no record, and faults that follow texts already parsed
    or repeat a text that failed load as the row-major reference does."""
    path = tmp_path / "d.csv"
    path.write_text("\n".join(["x,c", *lines]) + "\n")
    with mock.patch.object(dataset_mod, "CHUNK_ROWS", 2):
        assert_loads_like_reference(path, load_config(TAXO))


@pytest.mark.parametrize("n,seed", [(1, 0), (3, 1), (7, 3), (19, 42),
                                    (20, 5), (38, 7), (39, 11)])
def test_sample_dataset_keeps_the_row_shuffle(n, seed):
    """The rows and their order are those of shuffling the row list with
    `random.Random(seed)` and keeping the first n."""
    schema = load_config(BASE)
    rows = [(float(i % 11), "abc"[i % 3]) for i in range(40)]
    ds = Dataset(schema, [[r[0] for r in rows], [r[1] for r in rows]])
    want = list(rows)
    random.Random(seed).shuffle(want)
    got = sample_dataset(ds, n, seed)
    assert list(zip(*got.columns)) == want[:n]
    assert len(got) == n
