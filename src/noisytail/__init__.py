"""Classification under simultaneous label noise and long-tail imbalance.

Two-stage method on feature-vector datasets: contrastive pre-screening
with a noise-tolerant classifier, confidence-times-rarity soft-label
refurbishment, and a shot-adaptive three-expert ensemble, plus a
simulator for long-tailed noisy benchmarks.
"""

from .datagen import (
    Dataset,
    LongTailSpec,
    MixtureSpec,
    NoiseSpec,
    import_embeddings,
    inject_asymmetric,
    inject_symmetric,
    load_dataset,
    longtail_counts,
    save_dataset,
    synth_dataset,
    synth_split,
)
from .ensemble import (
    EnsembleModel,
    EvalReport,
    Stage2Config,
    SubgroupThresholds,
    evaluate,
    soft_class_counts,
    train_stage2,
)
from .errors import (
    InvalidInputError,
    InvalidSpecError,
    NoisytailError,
    NumericError,
    ParseError,
)
from .numerics import (
    GradCheckReport,
    Mlp,
    finite_diff_grad,
    gradient_check,
    init_mlp,
    make_rng,
)
from .pipeline import (
    PipelineConfig,
    SweepSpec,
    default_config,
    run_in_memory,
    run_pipeline,
    stage_seed,
)
from .refurbish import (
    ClassStats,
    RefurbishConfig,
    RefurbishRecord,
    RefurbishRecords,
    class_proportions,
    rarity,
    refurbish_dataset,
)
from .stage1 import (
    FeatureQueue,
    Predictions,
    Stage1Config,
    Stage1Model,
    augment,
    banc_loss,
    contrastive_loss,
    predict_all,
    sce_loss,
    train_stage1,
)

__version__ = "0.1.0"
