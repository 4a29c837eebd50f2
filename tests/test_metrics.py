import pytest

from anonsearch.constraints import build_constraints
from anonsearch.dataset import ConfigError
from anonsearch.metrics import (CountedBlock, VolumeMetric, count_estimate,
                                make_metric, parse_query, query_error_report,
                                theoretical_bound, true_count)

from conftest import brute_best


def split_blocks(space, split_id):
    s = space.splits.by_id[split_id]
    return list(space.apply_split(space.root_block, s))


def test_squared_sizes(grid_space):
    m = make_metric("dm", grid_space)
    assert m.cost([grid_space.root_block]) == 36
    assert m.cost(split_blocks(grid_space, 2)) == 18  # 3 + 3 rows


def test_majority_error(tax_space):
    m = make_metric("cm", tax_space)  # class defaults to the sensitive attr
    assert m.cost([tax_space.root_block]) == 3  # 5 rows, best majority 2
    left, right = split_blocks(tax_space, 1)
    assert m.block_cost(left) == 1 and m.block_cost(right) == 2


def test_majority_error_needs_class(grid_space):
    with pytest.raises(ConfigError, match="class"):
        make_metric("cm", grid_space)


def test_volume_unit_defaults_to_finest_cell(grid_space):
    m = make_metric("vm", grid_space)
    assert m.unit_volume == pytest.approx(1 / 12)  # (1/4) * (1/3)
    assert m.cost([grid_space.root_block]) == pytest.approx(72)
    assert m.cost(split_blocks(grid_space, 2)) == pytest.approx(36)
    explicit = VolumeMetric(grid_space, unit_volume=1.0)
    assert explicit.cost([grid_space.root_block]) == pytest.approx(6)


def test_volume_counts_categorical_leaves(tax_space):
    m = make_metric("vm", tax_space)
    left, right = split_blocks(tax_space, 1)  # halves of the 4-leaf attr
    assert m.volume(left.extent) == pytest.approx(0.5 * 1.0)
    # x cut at 0.7 of [0, 2]
    xl, _ = split_blocks(tax_space, 4)
    assert m.volume(xl.extent) == pytest.approx(1.0 * 0.35)


def test_theoretical_bounds(grid_space):
    assert theoretical_bound(make_metric("dm", grid_space), grid_space,
                             3) == 18
    assert theoretical_bound(make_metric("vm", grid_space), grid_space,
                             3) == 6
    # the smallest cell is 1/4 by 1/3 of the domain: N of them, in units
    # of `unit`, bound every partition from below
    cons = build_constraints(grid_space)
    for unit in (1 / 24, 1 / 6, 0.5):
        vm = make_metric("vm", grid_space, unit_volume=unit)
        bound = theoretical_bound(vm, grid_space, 1)
        assert bound == pytest.approx(6 / 12 / unit)
        assert bound <= brute_best(grid_space, vm, cons) + 1e-9


def test_unknown_metric(grid_space):
    with pytest.raises(ConfigError):
        make_metric("huh", grid_space)


# ---- count queries ----

def test_parse_query_shapes(tax_space):
    q = parse_query(tax_space, {"w": "pub", "x": [0, 1]})
    assert q == {0: (0, 2), 1: (0.0, 1.0)}
    with pytest.raises(ConfigError, match="non-QI"):
        parse_query(tax_space, {"s": "a"})
    with pytest.raises(ConfigError, match="empty"):
        parse_query(tax_space, {"x": [2, 1]})


def test_estimate_partial_overlap(grid_space):
    blocks = split_blocks(grid_space, 2)
    q = parse_query(grid_space, {"x": [0, 1]})
    assert count_estimate(grid_space, blocks, q) == pytest.approx(1.5)
    assert true_count(grid_space, q) == 2


def test_estimate_exact_when_aligned(grid_space):
    blocks = split_blocks(grid_space, 2)
    for rng, expect in [((0, 2), 3), ((2, 4), 3), ((0, 4), 6)]:
        q = parse_query(grid_space, {"x": list(rng)})
        assert count_estimate(grid_space, blocks, q) == pytest.approx(expect)
        assert true_count(grid_space, q) == expect


def test_estimate_works_without_rows(grid_space):
    blocks = [CountedBlock(b.extent, b.count)
              for b in split_blocks(grid_space, 2)]
    q = parse_query(grid_space, {"x": [0, 1]})
    assert count_estimate(grid_space, blocks, q) == pytest.approx(1.5)


def test_categorical_query(tax_space):
    blocks = split_blocks(tax_space, 1)
    q = parse_query(tax_space, {"w": "pub"})
    assert count_estimate(tax_space, blocks, q) == pytest.approx(3)
    assert true_count(tax_space, q) == 3
    q = parse_query(tax_space, {"w": "fed"})
    assert true_count(tax_space, q) == 2


def test_error_report_summary(grid_space):
    blocks = split_blocks(grid_space, 2)
    rep = query_error_report(grid_space, blocks,
                             [{"x": [0, 1]}, {"x": [0, 2]}])
    assert rep["summary"]["queries"] == 2
    assert rep["rows"][0]["rel_error"] == pytest.approx(0.25)
    assert rep["rows"][1]["rel_error"] == pytest.approx(0.0)
    assert rep["summary"]["max_rel_error"] == pytest.approx(0.25)
    assert rep["summary"]["mean_rel_error"] == pytest.approx(0.125)
