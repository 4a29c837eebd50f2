"""Privacy constraints. Each one is a conjunction of per-block checks.

A constraint is *monotone* when a violating block stays violated in every
refinement of that block: then an infeasible partition can never be fixed
by further splitting and the search may discard it outright. Size, length
and entropy diversity checks are monotone; distribution-distance checks
are not, so they only filter candidate solutions unless the caller opts
in to treating them as monotone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .dataset import ConfigError

_ENTROPY_TOL = 1e-12
_EMD_TOL = 1e-12


class KAnonymity:
    monotone = True
    name = "k_anonymity"

    def __init__(self, k: int):
        if k < 1:
            raise ConfigError("k must be >= 1")
        self.k = int(k)

    def block_ok(self, block) -> bool:
        return block.count == 0 or block.count >= self.k

    def describe(self, block) -> str:
        return f"block of size {block.count} < k={self.k}"


class MinLength:
    """Per-attribute minimum extent length; applies to empty blocks too."""

    monotone = True
    name = "min_length"

    def __init__(self, space, lengths: dict):
        self.checks = []
        by_name = {space.dataset.schema[i].name: (qi_pos, i)
                   for qi_pos, i in enumerate(space.qi)}
        for name, min_len in lengths.items():
            if name not in by_name:
                raise ConfigError(f"length restriction on non-QI "
                                  f"attribute {name!r}")
            qi_pos, attr_idx = by_name[name]
            if not space.dataset.schema[attr_idx].is_numeric:
                raise ConfigError(f"length restriction on categorical "
                                  f"attribute {name!r}")
            if min_len <= 0:
                raise ConfigError(f"length restriction for {name!r} "
                                  "must be positive")
            self.checks.append((qi_pos, name, float(min_len)))

    def block_ok(self, block) -> bool:
        for qi_pos, _, min_len in self.checks:
            lo, hi = block.extent[qi_pos]
            if hi - lo < min_len - 1e-9:
                return False
        return True

    def describe(self, block) -> str:
        for qi_pos, name, min_len in self.checks:
            lo, hi = block.extent[qi_pos]
            if hi - lo < min_len - 1e-9:
                return f"{name} extent {hi - lo:g} < {min_len:g}"
        return "?"


class EntropyLDiversity:
    """Entropy of the sensitive distribution inside each nonempty block
    must reach ln(l). Non-integer l is allowed."""

    monotone = True
    name = "l_diversity"

    def __init__(self, space, l, sensitive: str):
        if l <= 1:
            raise ConfigError("l must be > 1")
        self.l = float(l)
        self.values = space.dataset.column(sensitive)
        self.threshold = math.log(self.l)

    def entropy(self, block) -> float:
        counts = Counter(self.values[r] for r in block.rows)
        n = block.count
        return -sum((c / n) * math.log(c / n) for c in counts.values())

    def block_ok(self, block) -> bool:
        if block.count == 0:
            return True
        return self.entropy(block) >= self.threshold - _ENTROPY_TOL

    def describe(self, block) -> str:
        return (f"entropy {self.entropy(block):.4f} < "
                f"ln(l)={self.threshold:.4f}")


def ordered_distance(p, q) -> float:
    """Earth mover's distance between two distributions over the same
    ordered m values with unit spacing, normalized by m - 1."""
    if len(p) != len(q):
        raise ValueError("distributions must share support")
    m = len(p)
    if m <= 1:
        return 0.0
    acc = 0.0
    cum = 0.0
    for pi, qi in zip(p[:-1], q[:-1]):
        cum += pi - qi
        acc += abs(cum)
    return acc / (m - 1)


class TCloseness:
    """Ordered-distance closeness of each block's sensitive distribution
    to the whole table's. Not monotone: merging or splitting can move the
    distance either way."""

    monotone = False
    name = "t_closeness"

    def __init__(self, space, t, sensitive: str):
        if not 0 <= t <= 1:
            raise ConfigError("t must be in [0, 1]")
        self.t = float(t)
        values = space.dataset.column(sensitive)
        attr = space.dataset.schema[space.dataset.attr_index(sensitive)]
        if attr.is_numeric:
            self.order = sorted(set(values))
        else:
            pos = attr.taxonomy.leaf_position
            self.order = sorted(set(values), key=pos)
        self.index = {v: i for i, v in enumerate(self.order)}
        self.values = values
        n = len(values)
        counts = Counter(values)
        self.global_dist = [counts.get(v, 0) / n for v in self.order]

    def distance(self, block) -> float:
        counts = Counter(self.values[r] for r in block.rows)
        n = block.count
        p = [counts.get(v, 0) / n for v in self.order]
        return ordered_distance(p, self.global_dist)

    def block_ok(self, block) -> bool:
        if block.count == 0:
            return True
        return self.distance(block) <= self.t + _EMD_TOL

    def describe(self, block) -> str:
        return f"distance {self.distance(block):.4f} > t={self.t:g}"


class EpsPrivacy:
    """Bounds what an attacker with sigma insider tuples and b fake tuples
    can infer. Two per-block conditions: the block must keep enough real
    tuples beyond the attacker's additions, and no sensitive value may
    dominate the padded block."""

    monotone = False
    name = "eps_privacy"

    def __init__(self, space, eps, sigma, b, sensitive: str, delta=0.0):
        if not eps > 1:
            raise ConfigError("eps must be > 1")
        if sigma < 0 or b < 0:
            raise ConfigError("sigma and b must be >= 0")
        if sigma + b == 0:
            raise ConfigError("sigma + b must be positive")
        self.eps = float(eps)
        self.sigma = float(sigma)
        self.b = float(b)
        self.delta = float(delta)
        self.values = space.dataset.column(sensitive)
        sb = self.sigma + self.b
        self.r1_floor = sb / (self.eps - 1)  # 0 when eps is infinite
        if math.isinf(self.eps) and sb == 1:
            eps_prime = 0.0
        else:
            eps_prime = self.eps * (1 - 1 / sb)
        denom = eps_prime + self.delta
        if denom > 0:
            self.r2_bound = 1 - 1 / denom
        else:
            self.r2_bound = -math.inf
        self.eps_prime = eps_prime

    def block_ok(self, block) -> bool:
        if block.count == 0:
            return True
        n = block.count
        if n - self.b < self.r1_floor - 1e-12:
            return False
        counts = Counter(self.values[r] for r in block.rows)
        top = max(counts.values())
        return top / (n + self.b) <= self.r2_bound + 1e-12

    def describe(self, block) -> str:
        n = block.count
        if n - self.b < self.r1_floor:
            return (f"size {n} - b={self.b:g} below "
                    f"(sigma+b)/(eps-1)={self.r1_floor:g}")
        return f"a sensitive value exceeds ratio bound {self.r2_bound:g}"


@dataclass(frozen=True)
class Violation:
    constraint: str
    extent: tuple
    detail: str


class ConstraintSet:
    """Ordered bundle of constraints with per-block result caching."""

    def __init__(self, constraints):
        self.constraints = tuple(constraints)
        self._flags: dict = {}

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def block_flags(self, block):
        """(fails_any, fails_monotone) for one block, cached by extent."""
        hit = self._flags.get(block.extent)
        if hit is None:
            fails_any = fails_mono = False
            for c in self.constraints:
                if not c.block_ok(block):
                    fails_any = True
                    if c.monotone:
                        fails_mono = True
                        break
            hit = (fails_any, fails_mono)
            self._flags[block.extent] = hit
        return hit

    def block_ok(self, block) -> bool:
        return not self.block_flags(block)[0]

    def min_block_size(self) -> int:
        """Smallest size a non-empty block of a feasible partition can
        have: k for k-anonymity, the fewest distinct values whose entropy
        reaches ln(l) (ceil(l)) for entropy l-diversity, 1 otherwise."""
        floor = 1
        for c in self.constraints:
            if isinstance(c, KAnonymity):
                floor = max(floor, c.k)
            elif isinstance(c, EntropyLDiversity):
                need = math.exp(c.threshold - _ENTROPY_TOL)
                floor = max(floor, math.ceil(need))
        return floor

    def feasible(self, blocks) -> bool:
        return all(not self.block_flags(b)[0] for b in blocks)

    def first_violation(self, blocks) -> Optional[Violation]:
        """Constraints are checked in their fixed order; the first failing
        (constraint, block) pair is reported."""
        for c in self.constraints:
            for b in blocks:
                if not c.block_ok(b):
                    return Violation(c.name, b.extent, c.describe(b))
        return None


_ORDER = ("k_anonymity", "min_length", "l_diversity", "t_closeness",
          "eps_privacy")


def build_constraints(space, k=None, min_lengths=None, l_div=None,
                      t_close=None, eps=None, sensitive=None,
                      assume_monotone=()) -> ConstraintSet:
    """Assemble the standard constraint stack in its fixed order.

    `sensitive` names the attribute used by the distribution constraints;
    it defaults to the schema's first sensitive attribute. Names listed in
    `assume_monotone` are treated as monotone for pruning purposes: only
    sound if the caller knows the instance behaves that way.
    """
    if sensitive is None:
        for a in space.dataset.schema:
            if a.role == "sensitive":
                sensitive = a.name
                break
    out = []
    if k is not None and k > 1:
        out.append(KAnonymity(k))
    if min_lengths:
        out.append(MinLength(space, min_lengths))
    if l_div is not None:
        if sensitive is None:
            raise ConfigError("l-diversity needs a sensitive attribute")
        out.append(EntropyLDiversity(space, l_div, sensitive))
    if t_close is not None:
        if sensitive is None:
            raise ConfigError("t-closeness needs a sensitive attribute")
        out.append(TCloseness(space, t_close, sensitive))
    if eps is not None:
        if sensitive is None:
            raise ConfigError("eps-privacy needs a sensitive attribute")
        out.append(EpsPrivacy(space, eps["eps"], eps.get("sigma", 0),
                              eps.get("b", 0), sensitive,
                              eps.get("delta", 0.0)))
    for c in out:
        if c.name in assume_monotone:
            c.monotone = True
    order = {name: i for i, name in enumerate(_ORDER)}
    out.sort(key=lambda c: order[c.name])
    return ConstraintSet(out)
