"""Imbalance-aware federated learning lab.

Estimates each aggregation round's class composition from last-layer weight
updates and auxiliary probe data, tracks the global ratio with a gain-blended
recursive observer, and re-balances the cross-entropy loss every round.
"""

from .config import ConfigError, ExperimentConfig, parse_config
from .data import (
    AuxiliarySet,
    ClientDataset,
    Dataset,
    SyntheticSpec,
    auxiliary_from_dataset,
    gen_synthetic,
    load_idx,
    make_synthetic_spec,
    sample_auxiliary,
    shard_partition,
    window_latest,
    write_idx,
)
from .estimator import (
    AuxGradients,
    CountEstimate,
    counts_to_ratio,
    estimate_counts,
    oracle_counts,
    probe_auxiliary,
)
from .federation import (
    ClientUpdate,
    FederatedRunner,
    FlConfig,
    aggregate,
    local_update,
    run_experiment,
    select_clients,
)
from .metrics import (
    EvalResult,
    ExperimentReport,
    RoundRecord,
    evaluate,
    report_from_json,
    write_metrics,
)
from .nn import (
    Activations,
    LossSpec,
    LossTargets,
    MlpModel,
    OptState,
    backward,
    compute_loss,
    forward,
    grad_check,
    layer_views,
    loss_targets,
    mlp_init,
    sgd_step,
)
from .observer import (
    DropDecision,
    RatioObserverState,
    balanced_weights,
    cosine_similarity,
    mismatch_check,
    observer_init,
    observer_update,
)

__version__ = "0.1.0"
