"""The benchmark's workloads, kept here so that editing configs/ cannot change them.

Each workload is the text of a strict fedimt config file; the benchmark writes
it to a scratch directory and loads it with fedimt's own `parse_config`, so
the config rules apply exactly as they do to `fedimt run`. The workload seed
is appended as the config's `seed` key.

Each workload loads a different layer (README.md has the measured shares):
tenclass_train the client trainer, manyclass_server the server-side
estimator and evaluation, ford_focal_prox the trainer through focal loss,
momentum and the proximal term with the estimator and observer switched off.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    config: str
    # Output floors: a model that trained and an estimator that tracked
    # cleared them on every seed tried (seeds 0-49, and 0-149 for
    # ford_focal_prox); a broken trainer or estimator falls below them.
    min_final_acc: float
    min_mean_t_j: float | None = None
    min_minority_acc: float | None = None


WORKLOADS: dict[str, Workload] = {
    # Training-bound: 15,000 local SGD steps per run, local_update ~90% of
    # the time. The values of configs/estimation_10class.cfg, copied.
    "tenclass_train": Workload(
        config="""\
data = synthetic
preset = tenclass
num_clients = 50
rounds = 50
selection_rate = 0.3
local_epochs = 5
batch_size = 32
lr = 0.001
momentum = 0.0
strategy = fedavg
algorithm = fedimt
beta = 0.999
drop_threshold = 0.5
hidden_sizes = 32
shards_per_client = 3
aux_per_class = 128
test_fraction = 0.2
""",
        min_final_acc=0.15,
        min_mean_t_j=0.85,
    ),
    # 40 classes over 120 clients with one short epoch each: per-class probe
    # and solve loops, 6,000-row evaluation and 132 window_latest calls per
    # round outweigh local training; some rounds are dropped.
    "manyclass_server": Workload(
        config="""\
data = synthetic
classes = 40
feature_dim = 64
class_counts = {counts}
cluster_scale = 0.6
class_separation = 3.0
run_length = 8
num_clients = 120
rounds = 60
selection_rate = 0.1
n_latest = 32
local_epochs = 1
batch_size = 32
lr = 0.2
momentum = 0.0
strategy = fedavg
algorithm = fedimt
hidden_sizes = 128
shards_per_client = 3
aux_per_class = 128
test_fraction = 0.5
""".format(counts=",".join(["300"] * 40)),
        min_final_acc=0.5,
        min_mean_t_j=0.85,
    ),
    # The ford_imbalance task trained as a focal-loss FedProx baseline: the
    # trainer through focal loss, momentum and the prox term, while the
    # estimator and observer never run.
    "ford_focal_prox": Workload(
        config="""\
data = synthetic
preset = ford
num_clients = 20
rounds = 60
selection_rate = 0.3
local_epochs = 5
batch_size = 32
lr = 0.002
momentum = 0.9
strategy = fedprox
prox_mu = 0.01
algorithm = baseline
baseline_loss = focal
hidden_sizes = 24
shards_per_client = 2
test_fraction = 0.25
""",
        min_final_acc=0.5,
        # Seeds 0-149 read 0.42 to 0.96; a majority-class predictor reads 0.
        min_minority_acc=0.25,
    ),
}


def config_text(name: str, seed: int) -> str:
    """The workload's config file, seeded."""
    return WORKLOADS[name].config + f"seed = {seed}\n"
