"""End-to-end toy pipeline: cue prompts, fused visual tokens, and smoothed
signal tokens feed a small trainable transformer that regresses the pulse
waveform, trained with mean squared error.

Token budget: prompt_len + 2 * n_prototypes tokens enter the regressor for
every sample (the two prototype blocks are the reprogrammed visual and
signal streams). The regression head starts at zero so the first predicted
waveform is flat and the initial loss equals the target's mean power.

The model computes in float32: its parameters, every op of the forward and
backward pass, and the optimizer state. ``train`` and ``predict`` run with
subnormal numbers flushed to zero (``numcore.subnormals_flushed``). A clip's
feature pyramid is float32 and enters the aggregator as it is; its waveforms
``x_enc`` and ``bvp`` are float64. The stationarizer smooths in float64 and
hands its blend to the model in float32; ``grad_check`` audits the model
through the store's float64 image, which casts the pyramid up. In
float32 the GELU's normal CDF is a rational approximation within 2.2e-7 of
the exact one, and building, training and predicting load no scipy module;
the float64 audit computes it with ``scipy.special.erf``.

``evaluate`` scores the model by the heart rate ``estimate_hr`` reads from
each predicted clip, for train's held-out report and ``eval --ckpt`` alike.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import numcore as nc
from .aggregator import AggregatorParams, FeaturePyramid, aggregate, init_aggregator
from .attention import (
    AttentionParams,
    FeedForwardParams,
    feed_forward,
    init_attention,
    init_feed_forward,
    self_attention,
)
from .cues import (
    CUE_KINDS,
    TASK_CAPTION,
    CompressorParams,
    SceneMeta,
    compress,
    fuse_cues,
    init_compressor,
    init_fusion,
    signal_stats,
    stats_caption,
    tokenize,
    vision_caption,
)
from .errors import ContractError, ParseError, PhyskitError, ShapeError
from .reprogram import (
    ReprogrammerParams,
    VocabEmbedding,
    derive_prototypes,
    init_probe,
    init_reprogrammer,
    init_vocab,
    reprogram,
)
from .signals import (
    LEVEL_SHAPES, MetricsReport, SyntheticClip, estimate_hr, metrics, require_hr_length,
)
from .stationarize import SmootherParams, init_smoother, smooth_batch
from .wavelet import get_basis

# signal patches are embedded with this gain so the pooled features keep
# a strong linear image of the smoothed pulse for the zero-initialized head
PATCH_GAIN = 2.0
# gain on the smoothed signal entering the head's skip readout; larger
# values shrink the weights Adam must reach within its step budget
SKIP_GAIN = 12.0


def _integer(config: str, name: str, value, least: int) -> int:
    """A config field's value as an int; refused, naming the field, unless
    it is an integer (not a bool) of at least `least`."""
    if not nc.is_int(value):
        raise ContractError(f"{config} config {name} must be an integer, got {value!r}")
    if value < least:
        raise ContractError(f"{config} config {name} must be at least {least}, got {value}")
    return int(value)


@dataclass
class ModelConfig:
    dim: int = 64
    heads: int = 4
    vocab_size: int = 1024
    n_prototypes: int = 64
    prompt_len: int = 16
    target_len: int = 32
    chunk_len: int = 128
    patch_len: int = 16
    patch_stride: int = 8
    level_shapes: tuple[tuple[int, int], ...] = LEVEL_SHAPES
    alpha: float = 0.8
    wavelet: str = "haar"
    level: int = 3
    lm_layers: int = 2

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":
                least = 0 if f.name == "lm_layers" else 1
                setattr(self, f.name, _integer("model", f.name, getattr(self, f.name), least))
        if not (nc.is_real(self.alpha) and math.isfinite(self.alpha)):
            raise ContractError(f"model config alpha must be a finite real, got {self.alpha!r}")
        self.alpha = float(self.alpha)
        if not isinstance(self.wavelet, str):
            raise ContractError(f"model config wavelet must be a string, got {self.wavelet!r}")
        try:
            shapes = tuple((h, w) for h, w in self.level_shapes)
        except (TypeError, ValueError):
            shapes = ()
        if not shapes or not all(nc.is_int(n) and n >= 1 for shape in shapes for n in shape):
            raise ContractError(
                "model config level_shapes must be a non-empty sequence of (height, width) "
                f"pairs of positive integers, got {self.level_shapes!r}"
            )
        self.level_shapes = tuple((int(h), int(w)) for h, w in shapes)
        if not self.patch_stride <= self.patch_len <= self.chunk_len:
            raise ContractError(
                "model config needs patch_stride <= patch_len <= chunk_len, got "
                f"{self.patch_stride}, {self.patch_len}, {self.chunk_len}"
            )

    @property
    def n_signal_tokens(self) -> int:
        return (self.chunk_len - self.patch_len) // self.patch_stride + 1

    @property
    def n_tokens(self) -> int:
        return self.prompt_len + 2 * self.n_prototypes


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 5e-5
    batch_size: int = 4
    steps: int = 200
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                setattr(self, f.name, _integer("train", f.name, value, 0 if f.name == "seed" else 1))
            elif nc.is_real(value) and 0 <= value < math.inf:
                setattr(self, f.name, float(value))
            else:
                raise ContractError(f"train config {f.name} must be a finite real >= 0, got {value!r}")


@dataclass
class Pipeline:
    cfg: ModelConfig
    store: nc.ParamStore
    vocab: VocabEmbedding
    probe: nc.Parameter
    reprogrammer: ReprogrammerParams
    aggregator: AggregatorParams
    smoother: SmootherParams
    compressors: dict[str, CompressorParams]
    fusion: dict[str, nc.Parameter]
    patch_embed: nc.Parameter
    positions: nc.Parameter
    lm_attn: list[AttentionParams]
    lm_ffn: list[FeedForwardParams]
    head: nc.Parameter
    head_skip: nc.Parameter

    # -- forward ------------------------------------------------------------

    def forward(self, pyramid: FeaturePyramid, x_enc, scenes: list[SceneMeta]) -> nc.Tensor:
        cfg = self.cfg
        x_enc = np.asarray(x_enc)
        if x_enc.ndim != 2 or x_enc.shape[1] != cfg.chunk_len:
            raise ShapeError(f"x_enc must be (batch, {cfg.chunk_len}), got {x_enc.shape}")
        bsz = x_enc.shape[0]
        if pyramid.batch != bsz or len(scenes) != bsz:
            raise ShapeError(
                f"batch mismatch: pyramid {pyramid.batch}, x_enc {bsz}, scenes {len(scenes)}"
            )

        prototypes = derive_prototypes(self.vocab, self.probe)

        with _stage("signal tokens"):
            smoothed = smooth_batch(x_enc, self.smoother)
            patches = nc.patches_1d(smoothed, cfg.patch_len, cfg.patch_stride)
            sig_tokens = nc.matmul(patches, self.patch_embed.use())
            t_signal = reprogram(sig_tokens, prototypes, self.reprogrammer)
        with _stage("visual tokens"):
            fused_visual = aggregate(pyramid, self.aggregator)
            t_vision = reprogram(fused_visual, prototypes, self.reprogrammer)
        with _stage("cue tokens"):
            t_cue = self._cue_tokens(x_enc, scenes)

        tokens = nc.concat([t_cue, t_vision, t_signal], axis=1)
        tokens = nc.add(tokens, self.positions.use())
        for attn, ffn in zip(self.lm_attn, self.lm_ffn):
            tokens = nc.add(tokens, self_attention(tokens, attn))
            tokens = nc.add(tokens, feed_forward(tokens, ffn))
        pooled = nc.mean_over(tokens, axis=1)
        # head = pooled-token readout plus a skip readout of the smoothed
        # signal; zero-initialized token attention alone cannot recover a
        # phase-accurate waveform within the optimizer's step budget
        token_part = nc.matmul(pooled, self.head.use())
        skip_part = nc.matmul(nc.scale(smoothed, SKIP_GAIN), self.head_skip.use())
        return nc.add(token_part, skip_part)

    def _cue_tokens(self, x_enc: np.ndarray, scenes: list[SceneMeta]) -> nc.Tensor:
        captions = {
            "task": [TASK_CAPTION] * len(scenes),
            "vision": [vision_caption(scene) for scene in scenes],
            "stats": [stats_caption(signal_stats(row)) for row in x_enc],
        }
        streams = {}
        for kind, texts in captions.items():
            rows = [self.vocab.rows(tokenize(text, self.vocab.vocab_size)) for text in texts]
            lengths = {r.shape[0] for r in rows}
            if len(lengths) > 1:
                raise ContractError(f"{kind} captions disagree on token count: {sorted(lengths)}")
            streams[kind] = compress(nc.Tensor(np.stack(rows)), self.compressors[kind])
        return fuse_cues(streams, self.fusion)


@contextmanager
def _stage(name: str):
    """Prefix the stage's name onto a physkit error escaping it."""
    try:
        yield
    except PhyskitError as exc:
        exc.args = (f"[{name}] {exc.args[0] if exc.args else ''}",) + exc.args[1:]
        raise


def build_pipeline(cfg: ModelConfig | None = None, seed: int = 0) -> Pipeline:
    """Register every sub-module's parameters in one float32 store,
    deterministically."""
    cfg = cfg if cfg is not None else ModelConfig()
    store = nc.ParamStore(config=asdict(cfg), dtype=np.float32)
    vocab = init_vocab(store, cfg.vocab_size, cfg.dim, seed=seed)
    probe = init_probe(store, cfg.vocab_size, cfg.n_prototypes, nc.rng(seed, "probe"))
    reprogrammer = init_reprogrammer(
        store, "reprog", cfg.dim, cfg.heads, cfg.n_prototypes, nc.rng(seed, "reprog"),
        lengths=(cfg.n_signal_tokens, cfg.target_len), seed=seed,
    )
    aggregator_params = init_aggregator(
        store,
        "va",
        cfg.level_shapes,
        cfg.chunk_len,
        cfg.target_len,
        cfg.dim,
        cfg.heads,
        nc.rng(seed, "aggregator"),
    )
    smoother = init_smoother(store, alpha=cfg.alpha, level=cfg.level, basis=get_basis(cfg.wavelet))
    compressors = {
        kind: init_compressor(store, f"cue.{kind}", cfg.prompt_len, cfg.dim, nc.rng(seed, f"cue-{kind}"))
        for kind in CUE_KINDS
    }
    fusion = init_fusion(store, "cue.fuse", cfg.prompt_len, cfg.dim)
    patch_embed = store.add(
        "signal.patch_embed",
        nc.rng(seed, "patch").standard_normal((cfg.patch_len, cfg.dim))
        * (PATCH_GAIN / math.sqrt(cfg.patch_len)),
    )
    # unit scale, comparable to the tokens', so attention can route
    # position-specifically instead of averaging the blocks together
    positions = store.add(
        "lm.positions", nc.rng(seed, "positions").standard_normal((cfg.n_tokens, cfg.dim))
    )
    lm_attn, lm_ffn = [], []
    for i in range(cfg.lm_layers):
        lm_attn.append(init_attention(store, f"lm.layer{i}.attn", cfg.dim, cfg.heads, nc.rng(seed, f"lm-a{i}")))
        lm_ffn.append(init_feed_forward(store, f"lm.layer{i}.ffn", cfg.dim, nc.rng(seed, f"lm-f{i}")))
    # zero heads: training starts from the flat waveform
    head = store.add("lm.head", np.zeros((cfg.dim, cfg.chunk_len)))
    head_skip = store.add("lm.head_skip", np.zeros((cfg.chunk_len, cfg.chunk_len)))
    return Pipeline(
        cfg=cfg,
        store=store,
        vocab=vocab,
        probe=probe,
        reprogrammer=reprogrammer,
        aggregator=aggregator_params,
        smoother=smoother,
        compressors=compressors,
        fusion=fusion,
        patch_embed=patch_embed,
        positions=positions,
        lm_attn=lm_attn,
        lm_ffn=lm_ffn,
        head=head,
        head_skip=head_skip,
    )


def load_pipeline(path) -> Pipeline:
    """Rebuild the model a checkpoint was saved from, with its values.

    The model config comes from the checkpoint's header; no seed is needed
    because every value, the frozen vocabulary included, is in the file.
    """
    try:
        cfg = ModelConfig(**nc.ParamStore.read_config(path))
    except (TypeError, ContractError) as exc:
        raise ParseError(f"header is not a model config: {exc}", line=2) from exc
    model = build_pipeline(cfg)
    model.store.load_into(path)
    return model


def mse_loss(pred, target) -> nc.Tensor:
    """Mean squared error, with the target cast to the prediction's dtype."""
    pred, target = nc.as_tensor(pred), nc.as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    d = nc.sub(pred, nc.Tensor(target.data.astype(pred.data.dtype, copy=False), target.node))
    return nc.mean_all(nc.mul(d, d))


def batch_from_clips(clips: list[SyntheticClip]) -> tuple[FeaturePyramid, np.ndarray, list[SceneMeta]]:
    pyramid = FeaturePyramid(
        [np.stack([c.pyramid[i] for c in clips]) for i in range(len(clips[0].pyramid))]
    )
    x_enc = np.stack([c.x_enc for c in clips])
    return pyramid, x_enc, [c.scene for c in clips]


def _require_chunk_len(clips: list[SyntheticClip], chunk_len: int, what: str) -> None:
    """Refuse, naming it, the first clip that is not chunk_len samples long."""
    for i, c in enumerate(clips):
        if c.x_enc.size != chunk_len:
            raise ShapeError(
                f"{what} {i} (seed {c.seed}) has {c.x_enc.size} samples, "
                f"the model reads chunk_len={chunk_len}"
            )


def predict(model: Pipeline, clips: list[SyntheticClip], batch_size: int = 8) -> list[np.ndarray]:
    """Plain forward passes; no tape, no parameter updates."""
    if not (nc.is_int(batch_size) and batch_size >= 1):
        raise ContractError(f"predict batch_size must be a positive integer, got {batch_size!r}")
    _require_chunk_len(clips, model.cfg.chunk_len, "clip")
    outputs: list[np.ndarray] = []
    with nc.subnormals_flushed():
        for lo in range(0, len(clips), batch_size):
            chunk = clips[lo : lo + batch_size]
            pyr, x_enc, scenes = batch_from_clips(chunk)
            pred = model.forward(pyr, x_enc, scenes)
            outputs.extend(np.asarray(row) for row in pred.data)
    return outputs


def _require_scorable(clips: list[SyntheticClip], chunk_len: int) -> None:
    """Refuse clips that ``evaluate`` cannot score, before any forward pass:
    one of another length, or one shorter than the 4 s ``estimate_hr`` reads."""
    _require_chunk_len(clips, chunk_len, "eval clip")
    for c in clips:
        require_hr_length(chunk_len, c.fs)


def evaluate(model: Pipeline, clips: list[SyntheticClip]) -> MetricsReport:
    """Metrics of ``estimate_hr`` on each predicted clip against its true rate."""
    _require_scorable(clips, model.cfg.chunk_len)
    preds = predict(model, clips)
    est = [estimate_hr(p, c.fs).bpm for p, c in zip(preds, clips)]
    return metrics(est, [c.hr_bpm for c in clips])


def _backward_step(model: Pipeline, clips: list[SyntheticClip]) -> float:
    """The loss on one batch, with every trainable grad set to its gradient.

    The step's graph, its tape nodes and the activations their backward
    closures hold, lives only in this frame, so it is freed on return."""
    pyr, x_enc, scenes = batch_from_clips(clips)
    target = np.stack([c.bvp for c in clips])
    with nc.Tape():
        loss = mse_loss(model.forward(pyr, x_enc, scenes), nc.Tensor(target))
        nc.backward(loss, model.store)
    return float(loss.item())


@dataclass
class TrainLog:
    losses: list[float] = field(default_factory=list)  # step i + 1 at index i
    initial_running_loss: float = float("nan")
    final_running_loss: float = float("nan")
    hr_metrics: MetricsReport | None = None


def train(
    clips: list[SyntheticClip],
    cfg: TrainConfig,
    model: Pipeline | None = None,
    eval_clips: list[SyntheticClip] | None = None,
) -> tuple[Pipeline, TrainLog]:
    """Mini-batch Adam on the waveform MSE; returns the model and its log.

    The running-loss endpoints average the first and last 10% of steps.
    When eval_clips are given, ``hr_metrics`` is their ``evaluate`` report.
    A step's graph is freed once its gradients are set, before the Adam
    update, so no two steps' graphs are alive at once.
    """
    if not clips:
        raise ContractError("training needs a non-empty dataset")
    model = model if model is not None else build_pipeline(seed=cfg.seed)
    _require_chunk_len(clips, model.cfg.chunk_len, "train clip")
    # evaluate reads the eval clips after the last step; refuse bad ones before the first
    _require_scorable(eval_clips or [], model.cfg.chunk_len)
    batch_rng = nc.rng(cfg.seed, "train-batches")
    log = TrainLog()
    with nc.subnormals_flushed():
        for step in range(1, cfg.steps + 1):
            idx = batch_rng.integers(0, len(clips), size=cfg.batch_size)
            log.losses.append(_backward_step(model, [clips[i] for i in idx]))
            nc.adam_step(model.store, lr=cfg.lr, wd=cfg.weight_decay, t=step)
    window = max(1, cfg.steps // 10)
    log.initial_running_loss = float(np.mean(log.losses[:window]))
    log.final_running_loss = float(np.mean(log.losses[-window:]))
    if eval_clips:
        log.hr_metrics = evaluate(model, eval_clips)
    return model, log
