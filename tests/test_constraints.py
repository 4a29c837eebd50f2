import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from anonsearch.constraints import (EntropyLDiversity, EpsPrivacy, KAnonymity,
                                    MinLength, TCloseness, build_constraints,
                                    ordered_distance)
from anonsearch.dataset import ConfigError
from anonsearch.partition import Block

from conftest import build_space

_next_ext = iter(range(10 ** 6))


def mk(rows):
    # unique extent per call so cached flags never collide
    return Block(((next(_next_ext), 10 ** 6),), tuple(rows))


def label_space(labels):
    cfg = {"attributes": [
        {"name": "x", "kind": "numeric", "role": "qi",
         "domain": [0, len(labels) + 1], "splits": {"type": "none"}},
        {"name": "s", "kind": "categorical", "role": "sensitive",
         "values": sorted(set(labels) | {"zz"})},
    ]}
    return build_space(cfg, [(i + 0.5, v) for i, v in enumerate(labels)])


# ---- size and length ----

def test_k_anonymity():
    c = KAnonymity(2)
    assert not c.block_ok(mk([1]))
    assert c.block_ok(mk([1, 2]))
    assert c.block_ok(mk([]))  # empty blocks carry no one to expose
    with pytest.raises(ConfigError):
        KAnonymity(0)


def test_min_length(grid_space):
    c = MinLength(grid_space, {"x": 2})
    assert c.block_ok(Block(((0.0, 2.0), (0.0, 3.0)), ()))
    assert not c.block_ok(Block(((0.0, 1.0), (0.0, 3.0)), ()))
    # applies to empty blocks: the region itself is published
    assert not c.block_ok(Block(((2.0, 3.0), (0.0, 3.0)), ()))


@pytest.mark.parametrize("lengths,frag", [
    ({"z": 1}, "non-QI"),
    ({"x": 0}, "positive"),
])
def test_min_length_config_errors(grid_space, lengths, frag):
    with pytest.raises(ConfigError, match=frag):
        MinLength(grid_space, lengths)


def test_min_length_rejects_categorical(tax_space):
    with pytest.raises(ConfigError, match="categorical"):
        MinLength(tax_space, {"w": 1})


# ---- entropy diversity ----

def test_entropy_diversity_threshold():
    space = label_space(["a", "a", "b", "b", "a", "b"])
    c = EntropyLDiversity(space, 2, "s")
    assert c.block_ok(mk([0, 2]))       # a, b: entropy exactly ln 2
    assert c.block_ok(mk([0, 1, 2, 3]))
    assert not c.block_ok(mk([0, 1, 2]))  # 2:1 mix falls short
    assert c.block_ok(mk([]))
    with pytest.raises(ConfigError):
        EntropyLDiversity(space, 1, "s")


def test_min_block_size_is_the_largest_size_floor():
    space = label_space(["a", "b", "c", "a", "b", "c"])
    assert build_constraints(space).min_block_size() == 1
    assert build_constraints(space, k=4).min_block_size() == 4
    assert build_constraints(space, l_div=2.0).min_block_size() == 2
    assert build_constraints(space, l_div=2.5).min_block_size() == 3
    assert build_constraints(space, k=2, l_div=2.5).min_block_size() == 3
    assert build_constraints(space, k=5, l_div=2.5).min_block_size() == 5
    assert build_constraints(space, t_close=0.5).min_block_size() == 1
    # the floor is tight: a block of that many distinct values passes
    c = EntropyLDiversity(space, 2.5, "s")
    assert c.block_ok(mk([0, 1, 2])) and not c.block_ok(mk([0, 1]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abc"), min_size=1, max_size=8))
def test_entropy_of_union_at_least_min(xs, ys):
    # merging two blocks never drops entropy below the worse one, which
    # is what makes the diversity constraint monotone under splitting
    space = label_space(xs + ys)
    c = EntropyLDiversity(space, 2, "s")
    a = mk(range(len(xs)))
    b = mk(range(len(xs), len(xs) + len(ys)))
    u = mk(range(len(xs) + len(ys)))
    assert c.entropy(u) >= min(c.entropy(a), c.entropy(b)) - 1e-12


# ---- ordered distance / t-closeness ----

def test_ordered_distance_hand_values():
    assert ordered_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)
    assert ordered_distance([1.0], [1.0]) == 0.0
    assert ordered_distance([0, 0, 1], [1, 0, 0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ordered_distance([1.0], [0.5, 0.5])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(0.01, 1), min_size=m, max_size=m),
        st.lists(st.floats(0.01, 1), min_size=m, max_size=m))))
def test_ordered_distance_is_normalized_emd(pq):
    p, q = pq
    p = [v / sum(p) for v in p]
    q = [v / sum(q) for v in q]
    m = len(p)
    pos = list(range(m))
    want = wasserstein_distance(pos, pos, p, q) / (m - 1)
    assert ordered_distance(p, q) == pytest.approx(want, abs=1e-9)


def test_t_closeness_hand_case(tax_space):
    c = TCloseness(tax_space, 0.4, "s")
    assert c.global_dist == pytest.approx([0.4, 0.4, 0.2])
    aa = mk([0, 3])  # two rows with value a
    bb = mk([1, 4])
    assert c.distance(aa) == pytest.approx(0.4)
    assert c.distance(bb) == pytest.approx(0.3)
    assert c.block_ok(aa) and c.block_ok(bb)
    assert not TCloseness(tax_space, 0.35, "s").block_ok(aa)
    with pytest.raises(ConfigError):
        TCloseness(tax_space, 1.5, "s")


def test_t_closeness_not_monotone_in_practice(tax_space):
    # a fine block can be farther from the global distribution than its
    # parent, and a merge can fix it: no pruning from this constraint
    c = TCloseness(tax_space, 0.1, "s")
    parent = mk([0, 1, 2, 3, 4])
    child = mk([0, 3])
    assert c.block_ok(parent) and not c.block_ok(child)
    assert c.monotone is False


# ---- attacker bounds ----

def test_eps_privacy_hand_case():
    space = label_space(["a", "b", "c", "a", "a", "b"])
    c = EpsPrivacy(space, eps=3, sigma=1, b=1, sensitive="s")
    assert c.r1_floor == pytest.approx(1.0)
    assert c.r2_bound == pytest.approx(1 / 3)
    assert c.block_ok(mk([0, 1, 2]))       # 1/4 each <= 1/3
    assert not c.block_ok(mk([0, 3, 1]))   # two a's: 2/4 > 1/3
    assert not c.block_ok(mk([0]))         # 1 - b < floor
    assert c.block_ok(mk([]))


def test_eps_privacy_infinite_eps():
    space = label_space(["a", "a", "b"])
    c = EpsPrivacy(space, eps=math.inf, sigma=2, b=0, sensitive="s")
    assert c.r1_floor == 0.0
    assert c.r2_bound == pytest.approx(1.0)
    assert c.block_ok(mk([0, 1]))  # single value allowed at eps = inf
    lone = EpsPrivacy(space, eps=math.inf, sigma=1, b=0, sensitive="s")
    assert lone.r2_bound == -math.inf  # one insider pins the value exactly
    assert not lone.block_ok(mk([0, 1]))


@pytest.mark.parametrize("kw,frag", [
    (dict(eps=1.0, sigma=1, b=0), "eps"),
    (dict(eps=2.0, sigma=0, b=0), "positive"),
    (dict(eps=2.0, sigma=-1, b=1), ">= 0"),
])
def test_eps_privacy_config_errors(kw, frag):
    space = label_space(["a", "b"])
    with pytest.raises(ConfigError, match=frag):
        EpsPrivacy(space, sensitive="s", **kw)


# ---- the bundle ----

def test_build_constraints_fixed_order(tax_space):
    cons = build_constraints(tax_space, eps={"eps": 3, "sigma": 1, "b": 1},
                             t_close=0.5, l_div=1.5, k=2,
                             min_lengths={"x": 0.5})
    assert [c.name for c in cons] == [
        "k_anonymity", "min_length", "l_diversity", "t_closeness",
        "eps_privacy"]


def test_k_of_one_adds_nothing(tax_space):
    assert len(build_constraints(tax_space, k=1)) == 0
    assert len(build_constraints(tax_space, k=2)) == 1


def test_assume_monotone_flag(tax_space):
    cons = build_constraints(tax_space, t_close=0.5,
                             assume_monotone=("t_closeness",))
    assert cons.constraints[0].monotone is True


def test_block_flags_distinguish_monotone(tax_space):
    cons = build_constraints(tax_space, k=2, t_close=0.05)
    tiny = mk([0])        # fails k (monotone)
    skewed = mk([0, 3])   # two a's: fails closeness only
    assert cons.block_flags(tiny) == (True, True)
    assert cons.block_flags(skewed) == (True, False)
    assert cons.block_flags(mk([0, 1, 2, 3, 4])) == (False, False)


def test_first_violation_reports_in_constraint_order(tax_space):
    cons = build_constraints(tax_space, k=2, t_close=0.05)
    skewed = mk([0, 3])
    tiny = mk([4])
    # the closeness failure on the first block loses to the k failure on
    # the second: constraints are the outer loop
    v = cons.first_violation([skewed, tiny])
    assert v.constraint == "k_anonymity"
    assert v.extent == tiny.extent
    assert "< k=2" in v.detail
    assert cons.first_violation([mk([0, 1, 2, 3, 4])]) is None
    assert cons.feasible([mk([0, 2, 4]), mk([1, 3])]) is False
