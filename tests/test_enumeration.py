import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsearch.dataset import ConfigError
from anonsearch.enumeration import (count_partitions, distinct_signatures,
                                    enumerate_trees, multi_enumerate)
from anonsearch.partition import is_legal

from conftest import build_space, random_instance


def line_space(n_cuts, rows=None):
    cuts = [float(i) for i in range(1, n_cuts + 1)]
    cfg = {
        "attributes": [
            {"name": "x", "kind": "numeric", "role": "qi",
             "domain": [0, n_cuts + 1],
             "splits": {"type": "explicit", "values": cuts}},
        ],
    }
    if rows is None:
        rows = [[i + 0.5] for i in range(n_cuts + 1)]
    return build_space(cfg, rows)


@pytest.mark.parametrize("n", range(0, 7))
def test_single_attribute_counts_double(n):
    space = line_space(n)
    assert count_partitions(space) == 2 ** n


def test_two_cut_line_has_four_partitions_five_orderings():
    space = line_space(2)
    trees = list(enumerate_trees(space))
    assert len(trees) == 4
    assert sum(1 for _ in multi_enumerate(space)) == 5  # both grid orders
    assert distinct_signatures(multi_enumerate(space)) == \
        {t.signature() for t in trees}


def test_enumerated_trees_unique_and_canonical(grid_space):
    sigs = set()
    for t in enumerate_trees(grid_space):
        sig = t.signature()
        assert sig not in sigs
        sigs.add(sig)
        assert is_legal(t)
    assert len(sigs) == count_partitions(grid_space)


# a fixed draw: the oracle's run time swings with the instance drawn
@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_enumeration_matches_orderings_oracle(seed):
    rng = random.Random(seed)
    space = random_instance(rng, total_splits=rng.randint(2, 5))
    sigs = [t.signature() for t in enumerate_trees(space)]
    assert len(sigs) == len(set(sigs))
    assert set(sigs) == distinct_signatures(multi_enumerate(space))


def test_limit_stops_enumeration(grid_space):
    got = list(enumerate_trees(grid_space, limit=7))
    assert len(got) == 7


def test_multi_enumerate_refuses_large_spaces():
    space = line_space(9)
    with pytest.raises(ValueError):
        multi_enumerate(space)
