"""A desk-scale laboratory for gated cross-attention in dual-domain
sequential recommenders: a small autodiff engine, configurable model
wirings, orthogonality probes, and a reproducible experiment harness."""

from .attention import Encoder, MultiHeadAttention, SequenceBatch
from .backbone import (
    DualDomainModel,
    LowRankAdapter,
    ModelConfig,
    build,
    count_parameters,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    InteractionLog,
    SplitDataset,
    SynthSpec,
    generate_synthetic,
    load_log,
    save_log,
    split_leave_one_out,
)
from .errors import GcalabError
from .gca import GcaBlock, GcaConfig, GcaProbe
from .metrics import (
    MetricsRecord,
    aggregate_over_seeds,
    auc,
    five_number_summary,
    ndcg_at_k,
    pearson_r,
)
from .optim import Adam
from .rng import derive_rng, derive_seed
from .runner import (
    AnalysisReport,
    ComparisonReport,
    ComparisonSpec,
    RunSpec,
    SweepSpec,
    TrainingParams,
    analyze,
    match_parameters,
    run_comparison,
    run_sweep,
    run_train,
    write_report,
)
from .tensor import Parameter, ParameterStore, Tensor

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AnalysisReport",
    "ComparisonReport",
    "ComparisonSpec",
    "DualDomainModel",
    "Encoder",
    "GcaBlock",
    "GcaConfig",
    "GcaProbe",
    "GcalabError",
    "InteractionLog",
    "LowRankAdapter",
    "MetricsRecord",
    "ModelConfig",
    "MultiHeadAttention",
    "Parameter",
    "ParameterStore",
    "RunSpec",
    "SequenceBatch",
    "SplitDataset",
    "SweepSpec",
    "SynthSpec",
    "Tensor",
    "TrainingParams",
    "aggregate_over_seeds",
    "analyze",
    "auc",
    "build",
    "count_parameters",
    "derive_rng",
    "derive_seed",
    "five_number_summary",
    "generate_synthetic",
    "load_checkpoint",
    "load_log",
    "match_parameters",
    "ndcg_at_k",
    "pearson_r",
    "run_comparison",
    "run_sweep",
    "run_train",
    "save_checkpoint",
    "save_log",
    "split_leave_one_out",
    "write_report",
]
