"""Independent check of one `anonsearch search --out DIR` result.

Everything is recomputed from the raw CSV rows and the JSON config with
the standard library alone; nothing here imports anonsearch. Rows are
bucketed into the grid that the released block extents span, so each
block's rows, cost and constraint checks are sums over grid cells.

Extent semantics follow the documented output: a numeric extent (lo, hi]
holds lo < v <= hi (the lowest edge of the domain is closed), and a
categorical extent [lo, hi) is a half-open range of taxonomy leaf
positions, numbered left to right.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from bisect import bisect_left
from collections import Counter
from pathlib import Path

ENTROPY_TOL = 1e-9
RATIO_TOL = 1e-9


def _leaf_positions(node, out):
    children = node.get("children") or []
    if not children:
        out[node["label"]] = len(out)
    for child in children:
        _leaf_positions(child, out)
    return out


class Instance:
    """The QI columns and the first sensitive column of a data set."""

    def __init__(self, data_csv, config_json):
        with open(config_json) as fh:
            config = json.load(fh)
        attrs = config["attributes"]
        self.qi = [a for a in attrs if a.get("role", "qi") == "qi"]
        self.sensitive = next(a["name"] for a in attrs
                              if a.get("role") == "sensitive")
        self.positions = {}
        for a in self.qi:
            if a["kind"] == "categorical":
                if "values" in a:
                    self.positions[a["name"]] = {
                        v: i for i, v in enumerate(a["values"])}
                else:
                    tree = config["taxonomies"][a["taxonomy"]]
                    self.positions[a["name"]] = _leaf_positions(tree, {})
        with open(data_csv, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            col = {name: i for i, name in enumerate(header)}
            self.rows = []
            for raw in reader:
                if not raw:
                    continue
                point = []
                for a in self.qi:
                    text = raw[col[a["name"]]].strip()
                    if a["kind"] == "numeric":
                        point.append(float(text))
                    else:
                        point.append(self.positions[a["name"]][text])
                self.rows.append((tuple(point),
                                  raw[col[self.sensitive]].strip()))


def flag(flags, name, cast=str):
    """Value of `--name V` in a flag list, or None."""
    if name in flags:
        return cast(flags[flags.index(name) + 1])
    return None


def _entropy(labels: Counter) -> float:
    n = sum(labels.values())
    return -sum((c / n) * math.log(c / n) for c in labels.values() if c)


def check_output(inst: Instance, out_dir, flags, expect=None) -> list:
    """Problems found in result.json and partition.json; empty when the
    output is correct. `expect` may pin a status and a best cost."""
    out_dir = Path(out_dir)
    problems = []
    try:
        with open(out_dir / "result.json") as fh:
            result = json.load(fh)
        with open(out_dir / "partition.json") as fh:
            blocks = json.load(fh)["blocks"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]

    # ---- grid spanned by the block extents ----
    axes = []   # per QI attribute: sorted numeric edges, or None
    for a in inst.qi:
        if a["kind"] == "numeric":
            edges = {float(a["domain"][0]), float(a["domain"][1])}
            for b in blocks:
                edges.update(float(v) for v in b["extent"][a["name"]])
            axes.append(sorted(edges))
        else:
            axes.append(None)

    cell_rows: dict = {}
    for point, label in inst.rows:
        cell = []
        for v, edges in zip(point, axes):
            if edges is None:
                cell.append(v)
            elif not edges[0] <= v <= edges[-1]:
                problems.append(f"row value {v} outside the domain")
                cell.append(-1)
            else:
                cell.append(max(0, bisect_left(edges, v) - 1))
        cell_rows.setdefault(tuple(cell), Counter())[label] += 1

    cover: Counter = Counter()
    stats = []  # (count, label counter) per block
    for b in blocks:
        ranges = []
        for a, edges in zip(inst.qi, axes):
            lo, hi = b["extent"][a["name"]]
            if edges is None:
                ranges.append(range(int(lo), int(hi)))
            else:
                ranges.append(range(edges.index(float(lo)),
                                    edges.index(float(hi))))
        labels: Counter = Counter()
        for cell in itertools.product(*ranges):
            cover[cell] += 1
            labels.update(cell_rows.get(cell, ()))
        count = sum(labels.values())
        if count != b["count"]:
            problems.append(f"block {b['extent']} holds {count} rows, "
                            f"partition.json says {b['count']}")
        stats.append((count, labels))

    for cell, labels in cell_rows.items():
        if cover[cell] != 1:
            problems.append(f"{sum(labels.values())} rows lie in "
                            f"{cover[cell]} blocks")
    if any(n > 1 for n in cover.values()):
        problems.append("blocks overlap")

    # ---- cost and constraints ----
    metric = flag(flags, "--metric") or "dm"
    if metric == "dm":
        cost = sum(n * n for n, _ in stats)
    elif metric == "cm":
        cost = sum(n - max(lab.values()) for n, lab in stats if n)
    else:
        raise ValueError(f"the check does not cover metric {metric!r}")
    best = result.get("best_cost")
    if best != cost:
        problems.append(f"best_cost {best} but the blocks cost {cost}")
    k = flag(flags, "--k", int)
    l_div = flag(flags, "--l", float)
    for n, labels in stats:
        if n and k is not None and n < k:
            problems.append(f"a block of {n} rows breaks k={k}")
        if (n and l_div is not None
                and _entropy(labels) < math.log(l_div) - ENTROPY_TOL):
            problems.append(f"a block breaks entropy l={l_div}")
    if result.get("n_rows") != len(inst.rows):
        problems.append(f"n_rows {result.get('n_rows')} != {len(inst.rows)}")
    if result.get("n_blocks") != len(blocks):
        problems.append(f"n_blocks {result.get('n_blocks')} != {len(blocks)}")

    # ---- certificate ----
    lb = result.get("lower_bound")
    ratio = result.get("ratio")
    if not isinstance(lb, (int, float)) or lb > cost:
        problems.append(f"lower_bound {lb} above best_cost {cost}")
    elif lb > 0:
        if not math.isclose(ratio, cost / lb, rel_tol=RATIO_TOL):
            problems.append(f"ratio {ratio} != {cost} / {lb}")
    elif ratio != (1.0 if cost == 0 else "inf"):
        problems.append(f"ratio {ratio} with lower_bound {lb}")
    seed_cost = result.get("seed_cost")
    if seed_cost is not None and cost > seed_cost:
        problems.append(f"best_cost {cost} worse than the greedy seed "
                        f"{seed_cost}")

    status = result.get("status")
    st = result.get("stats", {})
    node_limit = flag(flags, "--node-limit", int)
    if status == "optimal":
        if lb != cost or ratio != 1.0:
            problems.append(f"optimal with bound {lb}, cost {cost}, "
                            f"ratio {ratio}")
    elif status == "exhausted":
        spent = node_limit is not None and st.get("generated", 0) >= node_limit
        if not spent and not st.get("forced_drops"):
            problems.append("exhausted before the node budget was spent "
                            "and without forced drops")
    else:
        problems.append(f"unexpected status {status!r}")
    expect = expect or {}
    if "status" in expect and status != expect["status"]:
        problems.append(f"status {status!r}, expected {expect['status']!r}")
    if "best_cost" in expect and cost != expect["best_cost"]:
        problems.append(f"best_cost {cost}, expected {expect['best_cost']}")
    return problems
