"""Deterministic desk-scale simulator of federated semi-supervised learning.

Clients train a small MLP with FixMatch-style pseudo-labeling plus a proximal
term and upload parameter deltas; the server aggregates them and maintains
teacher models under several EMA placement variants, including an adaptive
teacher/student switching rule driven by prediction-entropy diagnostics.
Every run is a pure function of its config and seed, and every transmitted
parameter vector is metered byte-exactly.
"""

from fedssl.config import (
    DatasetConfig,
    ExperimentConfig,
    TrainConfig,
    parse_config,
    parse_config_text,
    resolved_ini,
)
from fedssl.data import (
    AugmentConfig,
    Dataset,
    ShardPlan,
    dirichlet_shard,
    gen_blobs,
    load_csv,
    make_stream_schedule,
)
from fedssl.engine import (
    RoundPlan,
    ServerState,
    client_update,
    init_server,
    run_round,
    select_clients,
)
from fedssl.metrics import CommLedger, RoundReport, evaluate
from fedssl.nn import ModelSpec, ParamVector, init_params
from fedssl.rng import derive_seed
from fedssl.runner import SweepCell, TrialSummary, run_experiment, run_sweep
from fedssl.semisup import SslHyper, kl_to_uniform, pseudo_label
from fedssl.variants import VARIANT_KINDS, VARIANTS, VariantConfig

__all__ = [
    "AugmentConfig",
    "CommLedger",
    "Dataset",
    "DatasetConfig",
    "ExperimentConfig",
    "ModelSpec",
    "ParamVector",
    "RoundPlan",
    "RoundReport",
    "ServerState",
    "ShardPlan",
    "SslHyper",
    "SweepCell",
    "TrainConfig",
    "TrialSummary",
    "VARIANT_KINDS",
    "VARIANTS",
    "VariantConfig",
    "client_update",
    "derive_seed",
    "dirichlet_shard",
    "evaluate",
    "gen_blobs",
    "init_params",
    "init_server",
    "kl_to_uniform",
    "load_csv",
    "make_stream_schedule",
    "parse_config",
    "parse_config_text",
    "pseudo_label",
    "resolved_ini",
    "run_experiment",
    "run_round",
    "run_sweep",
    "select_clients",
]
