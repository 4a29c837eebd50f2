import pytest

from anonsearch.dataset import (ConfigError, DataError, Dataset, load_config,
                                load_dataset, sample_dataset,
                                taxonomy_from_dict)

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
    assert ds.rows[0] == (1.5, "a")
    assert ds.column("c") == ["a", "b"]


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
    ds = Dataset(schema, rows)
    s1 = sample_dataset(ds, 4, seed=3)
    s2 = sample_dataset(ds, 4, seed=3)
    assert s1.rows == s2.rows
    assert len(s1) == 4
    assert sample_dataset(ds, 99, seed=0) is ds
    assert set(s1.rows) <= set(rows)


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
    assert ds.rows == [(5.0, "a")] * 4 + [(2.0, "b")] * 2


@pytest.mark.parametrize("n", [0, -1])
def test_sample_dataset_rejects_sizes_below_one(n):
    # before, n = 0 kept no rows and n = -1 dropped the last one
    ds = Dataset(load_config(BASE), [(float(i), "a") for i in range(4)])
    with pytest.raises(ValueError, match=f"sample size must be >= 1, got {n}"):
        sample_dataset(ds, n)
