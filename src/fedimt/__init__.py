"""Imbalance-aware federated learning lab.

Estimates each aggregation round's class composition from last-layer weight
updates and auxiliary probe data, tracks the global ratio with a gain-blended
recursive observer, and re-balances the cross-entropy loss every round.
"""

from .config import parse_config
from .federation import run_experiment
from .metrics import write_metrics
