"""Privacy constraints. Each one is a conjunction of per-block checks.

A constraint is *monotone* when a violating block stays violated in every
refinement of that block: then an infeasible partition can never be fixed
by further splitting and the search may discard it outright. Size, length
and entropy diversity checks are monotone; distribution-distance checks
are not, so they only filter candidate solutions unless the caller opts
in to treating them as monotone.

The distribution checks read a block's sensitive histogram, the sum of
its finest cells' histograms (`Space.histogram`); no check scans rows.

Constraints and `ConstraintSet` hold no per-block state: every call
checks the block afresh, so one set may serve any number of solves. The
flags of one solve are memoized per extent by its `BoundContext`. The
checks that read a `Space` (l-diversity, t-closeness, eps-privacy) keep
the one they were built for, and a `BoundContext` refuses them for
another.
"""

from __future__ import annotations

import math

from .dataset import ConfigError

_ENTROPY_TOL = 1e-12
_EMD_TOL = 1e-12


class KAnonymity:
    monotone = True
    name = "k_anonymity"

    def __init__(self, k: int):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        self.k = int(k)

    def block_ok(self, block) -> bool:
        return block.count == 0 or block.count >= self.k


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
            if not 0 < min_len < math.inf:
                raise ConfigError(f"length restriction for {name!r} must "
                                  f"be finite and positive, got {min_len}")
            self.checks.append((qi_pos, float(min_len)))

    def block_ok(self, block) -> bool:
        for qi_pos, min_len in self.checks:
            lo, hi = block.extent[qi_pos]
            if hi - lo < min_len - 1e-9:
                return False
        return True


class EntropyLDiversity:
    """Entropy of the sensitive distribution inside each nonempty block
    must reach ln(l). Non-integer l is allowed."""

    monotone = True
    name = "l_diversity"

    def __init__(self, space, l, sensitive: str):
        if not 1 < l < math.inf:
            raise ConfigError(f"l must be finite and > 1, got {l}")
        self.l = float(l)
        self.space = space
        self.sensitive = sensitive
        space.dataset.attr_index(sensitive)   # unknown names fail here
        self.threshold = math.log(self.l)

    def entropy(self, block) -> float:
        """Summed over the values in sorted order, whatever the row order."""
        n = block.count
        return -sum((c / n) * math.log(c / n)
                    for c in self.space.histogram(block, self.sensitive) if c)

    def block_ok(self, block) -> bool:
        if block.count == 0:
            return True
        return self.entropy(block) >= self.threshold - _ENTROPY_TOL


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
        self.space = space
        self.sensitive = sensitive
        values = space.label_counts(sensitive)[0]
        attr = space.dataset.schema[space.dataset.attr_index(sensitive)]
        if attr.is_numeric:
            self.order = values
        else:
            self.order = sorted(values, key=attr.taxonomy.leaf_position)
        # histogram index of each value, in distance order
        index = {v: i for i, v in enumerate(values)}
        self._at = [index[v] for v in self.order]
        self.global_dist = self._dist(space.root_block)

    def _dist(self, block) -> list:
        hist = self.space.histogram(block, self.sensitive)
        n = block.count
        return [hist[i] / n for i in self._at]

    def distance(self, block) -> float:
        return ordered_distance(self._dist(block), self.global_dist)

    def block_ok(self, block) -> bool:
        if block.count == 0:
            return True
        return self.distance(block) <= self.t + _EMD_TOL


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
        for field, value in (("sigma", sigma), ("b", b)):
            if not 0 <= value < math.inf:
                raise ConfigError(f"{field} must be finite and >= 0, "
                                  f"got {value}")
        if not math.isfinite(delta):
            raise ConfigError(f"delta must be finite, got {delta}")
        if sigma + b == 0:
            raise ConfigError("sigma + b must be positive")
        self.eps = float(eps)
        self.sigma = float(sigma)
        self.b = float(b)
        self.delta = float(delta)
        self.space = space
        self.sensitive = sensitive
        space.dataset.attr_index(sensitive)   # unknown names fail here
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
        top = max(self.space.histogram(block, self.sensitive))
        return top / (n + self.b) <= self.r2_bound + 1e-12


class ConstraintSet:
    """Ordered bundle of constraints. Stateless: `BoundContext` memoizes
    the flags of one solve."""

    def __init__(self, constraints):
        self.constraints = tuple(constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def block_flags(self, block):
        """(fails_any, fails_monotone) for one block."""
        fails_any = False
        for c in self.constraints:
            if not c.block_ok(block):
                if c.monotone:
                    return True, True
                fails_any = True
        return fails_any, False

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


def build_constraints(space, k=None, min_lengths=None, l_div=None,
                      t_close=None, eps=None, sensitive=None,
                      assume_monotone=()) -> ConstraintSet:
    """Assemble the standard constraint stack in its fixed order:
    k-anonymity, min length, l-diversity, t-closeness, eps-privacy.

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
    if k is not None and k != 1:   # k = 1 is no constraint; k < 1 raises
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
    return ConstraintSet(out)
