import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.dataset import ConfigError, Dataset, load_config
from anonsearch.splits import SplitSet, generate_splits

from conftest import build_space


def numeric_cfg(values, domain=(0, 10)):
    return {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi",
         "domain": list(domain), "splits": {"type": "explicit",
                                            "values": values}}]}


def test_ids_consecutive_from_one():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
         "splits": {"type": "explicit", "values": [3, 1, 7]}},
        {"name": "y", "kind": "numeric", "role": "qi", "domain": [0, 10],
         "splits": {"type": "explicit", "values": [5]}},
    ]}
    ss = generate_splits(load_config(cfg))
    assert [s.id for s in ss.splits] == [1, 2, 3, 4]
    # within an attribute, ids increase with the cut value
    assert [s.plane for s in ss.by_attr[0]] == [1, 3, 7]
    assert ss.by_attr[1][0].plane == 5
    # `Space.available_moves` relies on that order, and on ids ascending
    # with the QI position: a split set out of either order is refused
    x1, x3, x7, y5 = ss.splits
    for bad in ([replace(x3, id=1), replace(x1, id=2), x7, y5],
                [replace(y5, id=1), replace(x1, id=2), replace(x3, id=3),
                 replace(x7, id=4)]):
        with pytest.raises(ConfigError, match="must ascend"):
            SplitSet(ss.schema, bad)


def test_categorical_set_numbering_and_orientation():
    cfg = {"attributes": [
        {"name": "c", "kind": "categorical", "role": "qi", "taxonomy": "t",
         "splits": {"type": "taxonomy"}}],
        "taxonomies": {"t": {"label": "any", "children": [
            {"label": "g0", "children": [{"label": "a"}, {"label": "b"},
                                         {"label": "c"}]},
            {"label": "g1", "children": [{"label": "d"}, {"label": "e"}]},
        ]}}}
    ss = generate_splits(load_config(cfg))
    # root set first (one boundary at position 3), then g0's two
    # boundaries right to left, then g1's single boundary
    assert [(s.id, s.owner, s.plane) for s in ss.splits] == [
        (1, "any", 3.0),
        (2, "g0", 2.0), (3, "g0", 1.0),
        (4, "g1", 4.0),
    ]
    # expansion moves are keyed by the owning node's exact leaf range
    assert set(ss.expansions) == {(0, (0, 5)), (0, (0, 3)), (0, (3, 5))}
    root_move = ss.expansions[(0, (0, 5))]
    assert [s.id for s in root_move.splits] == [1]
    g0_move = ss.expansions[(0, (0, 3))]
    assert [s.plane for s in g0_move.splits] == [2.0, 1.0]


def test_explicit_duplicates_rejected():
    with pytest.raises(ConfigError, match="duplicate split"):
        generate_splits(load_config(numeric_cfg([1, 1, 2])))


def test_explicit_outside_domain_rejected():
    with pytest.raises(ConfigError, match="strictly inside"):
        generate_splits(load_config(numeric_cfg([0])))
    with pytest.raises(ConfigError, match="strictly inside"):
        generate_splits(load_config(numeric_cfg([10])))


@pytest.mark.parametrize("spec", [
    {"type": "equi_width", "count": "many"},
    {"type": "equi_width", "count": 2.5},
    {"type": "quantile", "count": None},
    {"type": "explicit", "values": ["x"]},
    {"type": "explicit", "values": 5},
    [{"type": "equi_width", "count": 2}],
])
def test_malformed_split_spec_rejected(spec):
    cfg = {"attributes": [{"name": "age", "kind": "numeric", "role": "qi",
                           "domain": [17, 90], "splits": spec}]}
    with pytest.raises(ConfigError, match="attribute 'age': "):
        generate_splits(load_config(cfg))


def test_qi_without_split_spec_rejected():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 1]}]}
    with pytest.raises(ConfigError, match="'splits' entry"):
        generate_splits(load_config(cfg))


def test_categorical_explicit_spec_rejected():
    cfg = {"attributes": [
        {"name": "c", "kind": "categorical", "role": "qi",
         "values": ["a", "b"], "splits": {"type": "explicit"}}]}
    with pytest.raises(ConfigError, match="taxonomy"):
        generate_splits(load_config(cfg))


def test_equi_width_positions():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
         "splits": {"type": "equi_width", "count": 4}}]}
    ss = generate_splits(load_config(cfg))
    assert [s.plane for s in ss.splits] == [2.0, 4.0, 6.0, 8.0]


def test_quantile_cuts_sit_between_distinct_values():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
         "splits": {"type": "quantile", "count": 3}}]}
    schema = load_config(cfg)
    ds = Dataset(schema, [[1, 1, 1, 2, 2, 5, 5, 5, 8, 9]])
    ss = generate_splits(schema, ds)
    planes = [s.plane for s in ss.splits]
    assert planes == sorted(set(planes))
    mids = {1.5, 3.5, 6.5, 8.5}
    assert set(planes) <= mids


def test_quantile_needs_rows():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
         "splits": {"type": "quantile", "count": 2}}]}
    with pytest.raises(ConfigError, match="need data"):
        generate_splits(load_config(cfg))


def test_quantile_single_distinct_value_yields_none():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
         "splits": {"type": "quantile", "count": 2}}]}
    schema = load_config(cfg)
    ss = generate_splits(schema, Dataset(schema, [[4.0, 4.0, 4.0]]))
    assert len(ss) == 0


def test_none_spec_gives_no_splits():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 1],
         "splits": {"type": "none"}},
        {"name": "c", "kind": "categorical", "role": "qi",
         "values": ["a", "b"], "splits": {"type": "none"}}]}
    assert len(generate_splits(load_config(cfg))) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_id_order_properties(seed):
    rng = random.Random(seed)
    n_attr = rng.randint(1, 4)
    attrs = []
    for i in range(n_attr):
        cuts = sorted(rng.sample(range(1, 100), rng.randint(0, 6)))
        attrs.append({"name": f"x{i}", "kind": "numeric", "role": "qi",
                      "domain": [0, 100],
                      "splits": {"type": "explicit", "values": cuts}})
    ss = generate_splits(load_config({"attributes": attrs}))
    ids = [s.id for s in ss.splits]
    assert ids == list(range(1, len(ids) + 1))
    for splits in ss.by_attr.values():
        planes = [s.plane for s in splits]
        assert planes == sorted(planes)
        sid = [s.id for s in splits]
        assert sid == sorted(sid)


def test_non_qi_attributes_never_split():
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi", "domain": [0, 10],
         "splits": {"type": "explicit", "values": [5]}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": ["a", "b"]},
        {"name": "junk", "kind": "numeric", "role": "ignore",
         "domain": [0, 1]},
    ]}
    space = build_space(cfg, [(1.0, "a", 0.5), (7.0, "b", 0.9)])
    assert len(space.splits) == 1
    # block extents cover QI attributes only
    assert len(space.root_block.extent) == 1
