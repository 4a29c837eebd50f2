"""Globally optimal multi-attribute generalization for anonymization.

The package enumerates hierarchical space partitions without duplicates,
prunes with per-leaf lower bounds, and returns either a provably optimal
partition or one with a certified approximation factor, under the usual
privacy constraints (k-anonymity, extent length restrictions, entropy
l-diversity, t-closeness, eps-privacy).
"""

from .constraints import build_constraints
from .dataset import load_config, load_dataset, sample_dataset
from .metrics import make_metric
from .partition import Space
from .search import SearchConfig, mondrian_greedy, search
from .splits import generate_splits

__version__ = "0.1.0"

__all__ = [
    "SearchConfig", "Space", "build_constraints", "generate_splits",
    "load_config", "load_dataset", "make_metric", "mondrian_greedy",
    "sample_dataset", "search",
]
