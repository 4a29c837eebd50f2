import random

import pytest

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


def test_enumeration_matches_orderings_oracle():
    # 50 seeded instances, fixed by this code. The oracle's run time
    # swings with the instance drawn: about 1 in 100 draws has tens of
    # thousands of partitions and takes the oracle seconds, so draws of
    # more than 5,000 are skipped; the acceptance test covers large spaces
    draws = random.Random(50)
    checked = 0
    while checked < 50:
        seed = draws.randrange(10 ** 6)
        rng = random.Random(seed)
        space = random_instance(rng, total_splits=rng.randint(2, 5))
        if count_partitions(space, limit=5001) > 5000:
            continue
        sigs = [t.signature() for t in enumerate_trees(space)]
        assert len(sigs) == len(set(sigs)), seed
        assert set(sigs) == distinct_signatures(multi_enumerate(space)), seed
        checked += 1


def test_limit_stops_enumeration(grid_space):
    got = list(enumerate_trees(grid_space, limit=7))
    assert len(got) == 7


def test_multi_enumerate_refuses_large_spaces():
    space = line_space(9)
    with pytest.raises(ValueError):
        multi_enumerate(space)
