"""Online training of binary RBMs with generative replay.

Public surface re-exported here: model primitives, the training kernel,
the streaming trainers, evaluation, and data loading.
"""

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    EmptyBatchError,
    FormatError,
    InfeasibleSizeError,
    OcdgrError,
    ScheduleError,
)
from .model import (
    BinaryBatch,
    Hyperparameters,
    RbmParameters,
    energy,
    free_energy,
    gibbs_from_hidden,
    hidden_probs,
    init_params,
    load_model,
    sample_bernoulli,
    save_model,
    visible_probs,
)
from .training import (
    GradientStatistics,
    UpdateState,
    apply_update,
    cd_negative_phase,
    effective_momentum,
    positive_statistics,
    train_offline,
)
from .online import (
    CheckpointSnapshot,
    OnlineTrainerState,
    ReplayMemory,
    er_ml_capacity,
    er_update_procedure,
    generate_replay,
    ocdgr_update_procedure,
    stream_states,
    stream_train,
)
from .evaluation import (
    AisSchedule,
    EvaluationReport,
    ais_log_z,
    class_histogram,
    exact_log_z,
    knn_classify,
    test_log_prob_report,
)
from .data import (
    StreamOrder,
    binarize,
    load_binary_text,
    load_idx,
    order_stream,
    toy_generate,
)
from .config import ExperimentConfig, derive_rng, load_dataset

__version__ = "0.1.0"
