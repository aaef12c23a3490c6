"""physkit: desk-scale building blocks for pulse-signal stationarization,
attention-based feature fusion, text-prototype reprogramming, prompt cue
learning, and a small trainable waveform-regression pipeline, all on a
numpy-backed reverse-mode tape.
"""

from .errors import (
    ContractError,
    EstimationError,
    NumericError,
    ParseError,
    PhyskitError,
    ShapeError,
)
from .numcore import (
    ParamStore,
    Parameter,
    Tape,
    Tensor,
    adam_step,
    backward,
    grad_check,
)
from .wavelet import DB4, HAAR, Decomposition, WaveletBasis, dwt, get_basis, idwt
from .stationarize import (
    SmootherParams,
    SmootherTrace,
    StationarityReport,
    ema_smooth,
    init_smoother,
    smooth,
    smooth_batch,
    standardize,
    stationarity_report,
)
from .attention import (
    AttentionParams,
    FeedForwardParams,
    cross_attention,
    feed_forward,
    init_attention,
    init_feed_forward,
    self_attention,
)
from .aggregator import AggregatorParams, FeaturePyramid, aggregate, init_aggregator, project_level
from .reprogram import (
    ReprogrammerParams,
    VocabEmbedding,
    derive_prototypes,
    init_probe,
    init_reprogrammer,
    init_vocab,
    reprogram,
)
from .cues import (
    TASK_CAPTION,
    SceneMeta,
    StatSummary,
    compress,
    fuse_cues,
    init_compressor,
    init_fusion,
    signal_stats,
    stats_caption,
    tokenize,
    vision_caption,
)
from .signals import (
    ClipRecord,
    HrEstimate,
    MetricsReport,
    SyntheticClip,
    estimate_hr,
    gen_clip,
    load_waveform,
    metrics,
    read_manifest,
    save_waveform,
    write_manifest,
)
from .pipeline import (
    ModelConfig,
    Pipeline,
    TrainConfig,
    TrainLog,
    batch_from_clips,
    build_pipeline,
    load_pipeline,
    mse_loss,
    predict,
    train,
)

__version__ = "0.1.0"
