"""End-to-end toy pipeline: cue prompts, fused visual tokens, and smoothed
signal tokens feed a small trainable transformer that regresses the pulse
waveform, trained with mean squared error.

Token budget: prompt_len + 2 * n_prototypes tokens enter the regressor for
every sample (the two prototype blocks are the reprogrammed visual and
signal streams). The regression head starts at zero so the first predicted
waveform is flat and the initial loss equals the target's mean power.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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
    CompressorParams,
    FusionWeights,
    SceneMeta,
    compress,
    fuse_cues,
    init_compressor,
    init_fusion,
    render_caption,
    signal_stats,
    tokenize,
)
from .errors import ContractError, ParseError, PhyskitError, ShapeError
from .reprogram import (
    PrototypeProbe,
    ReprogrammerParams,
    VocabEmbedding,
    derive_prototypes,
    init_probe,
    init_reprogrammer,
    init_vocab,
    reprogram,
)
from .signals import MetricsReport, SyntheticClip, _rng, estimate_hr, metrics
from .stationarize import SmootherParams, init_smoother, smooth_batch
from .wavelet import get_basis


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
    level_shapes: tuple[tuple[int, int], ...] = ((8, 8), (6, 6), (4, 4))
    alpha: float = 0.8
    wavelet: str = "haar"
    level: int = 3
    eps: float = 1e-5
    lm_layers: int = 2
    # signal patches are embedded with this gain so the pooled features keep
    # a strong linear image of the smoothed pulse for the zero-initialized head
    patch_gain: float = 2.0
    # position table scale comparable to token scale, so attention can route
    # position-specifically instead of averaging the blocks together
    pos_scale: float = 1.0
    # gain on the smoothed signal entering the head's skip readout; larger
    # values shrink the weights Adam must reach within its step budget
    skip_gain: float = 12.0

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
        if min(self.lr, self.weight_decay) < 0 or min(self.batch_size, self.steps) < 1:
            raise ContractError(f"need lr, weight_decay >= 0 and batch_size, steps >= 1: {self}")


@dataclass
class Pipeline:
    cfg: ModelConfig
    store: nc.ParamStore
    vocab: VocabEmbedding
    probe: PrototypeProbe
    reprogrammer: ReprogrammerParams
    aggregator: AggregatorParams
    smoother: SmootherParams
    compressors: dict[str, CompressorParams]
    fusion: FusionWeights
    patch_embed: nc.Parameter
    positions: nc.Parameter
    lm_attn: list[AttentionParams]
    lm_ffn: list[FeedForwardParams]
    head: nc.Parameter
    head_skip: nc.Parameter

    @property
    def param_count(self) -> int:
        return self.store.n_values()

    # -- forward ------------------------------------------------------------

    def forward(self, pyramid: FeaturePyramid, x_enc, scenes: list[SceneMeta]) -> nc.Tensor:
        cfg = self.cfg
        x_enc = np.asarray(x_enc, dtype=np.float64)
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
        skip_part = nc.matmul(nc.scale(smoothed, cfg.skip_gain), self.head_skip.use())
        return nc.add(token_part, skip_part)

    def _cue_tokens(self, x_enc: np.ndarray, scenes: list[SceneMeta]) -> nc.Tensor:
        streams = {}
        for kind in CUE_KINDS:
            rows = []
            for row, scene in zip(x_enc, scenes):
                if kind == "stats":
                    caption = render_caption("stats", stats=signal_stats(row))
                elif kind == "vision":
                    caption = render_caption("vision", scene=scene)
                else:
                    caption = render_caption("task")
                rows.append(self.vocab.rows(tokenize(caption, self.vocab.vocab_size).ids))
            lengths = {r.shape[0] for r in rows}
            if len(lengths) > 1:
                raise ContractError(f"{kind} captions disagree on token count: {sorted(lengths)}")
            streams[kind] = compress(nc.Tensor(np.stack(rows)), self.compressors[kind])
        return fuse_cues(streams["task"], streams["vision"], streams["stats"], self.fusion)


class _stage:
    """Prefix module attribution onto contract violations escaping a phase."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, PhyskitError) and not getattr(exc, "_staged", False):
            exc._staged = True
            exc.args = (f"[{self.name}] {exc.args[0] if exc.args else ''}",) + exc.args[1:]
        return False


def build_pipeline(cfg: ModelConfig | None = None, seed: int = 0) -> Pipeline:
    """Register every sub-module's parameters in one store, deterministically."""
    cfg = cfg if cfg is not None else ModelConfig()
    store = nc.ParamStore(config=asdict(cfg))
    vocab = init_vocab(store, cfg.vocab_size, cfg.dim, seed=seed)
    probe = init_probe(store, cfg.vocab_size, cfg.n_prototypes, _rng(seed, "probe"))
    reprogrammer = init_reprogrammer(
        store, "reprog", cfg.dim, cfg.heads, cfg.n_prototypes, _rng(seed, "reprog"),
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
        _rng(seed, "aggregator"),
    )
    smoother = init_smoother(
        store, "smoother", alpha=cfg.alpha, level=cfg.level, basis=get_basis(cfg.wavelet), eps=cfg.eps
    )
    compressors = {
        kind: init_compressor(store, f"cue.{kind}", cfg.prompt_len, cfg.dim, _rng(seed, f"cue-{kind}"))
        for kind in CUE_KINDS
    }
    fusion = init_fusion(store, "cue.fuse", cfg.prompt_len, cfg.dim)
    patch_embed = store.add(
        "signal.patch_embed",
        _rng(seed, "patch").standard_normal((cfg.patch_len, cfg.dim))
        * (cfg.patch_gain / math.sqrt(cfg.patch_len)),
    )
    positions = store.add(
        "lm.positions",
        _rng(seed, "positions").standard_normal((cfg.n_tokens, cfg.dim)) * cfg.pos_scale,
    )
    lm_attn, lm_ffn = [], []
    for i in range(cfg.lm_layers):
        lm_attn.append(init_attention(store, f"lm.layer{i}.attn", cfg.dim, cfg.heads, _rng(seed, f"lm-a{i}")))
        lm_ffn.append(init_feed_forward(store, f"lm.layer{i}.ffn", cfg.dim, _rng(seed, f"lm-f{i}")))
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
    config = nc.ParamStore.read_config(path)
    try:
        cfg = ModelConfig(**{**config, "level_shapes": tuple(map(tuple, config["level_shapes"]))})
    except (KeyError, TypeError) as exc:
        raise ParseError(f"header is not a model config: {exc}", line=2) from exc
    model = build_pipeline(cfg)
    model.store.load_into(path)
    return model


def mse_loss(pred, target) -> nc.Tensor:
    pred, target = nc.as_tensor(pred), nc.as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    d = nc.sub(pred, target)
    return nc.mean_all(nc.mul(d, d))


def batch_from_clips(clips: list[SyntheticClip]) -> tuple[FeaturePyramid, np.ndarray, list[SceneMeta]]:
    pyramid = FeaturePyramid(
        [np.stack([c.pyramid[i] for c in clips]) for i in range(len(clips[0].pyramid))]
    )
    x_enc = np.stack([c.x_enc for c in clips])
    return pyramid, x_enc, [c.scene for c in clips]


def predict(model: Pipeline, clips: list[SyntheticClip], batch_size: int = 8) -> list[np.ndarray]:
    """Plain forward passes; no tape, no parameter updates."""
    outputs: list[np.ndarray] = []
    for lo in range(0, len(clips), batch_size):
        chunk = clips[lo : lo + batch_size]
        pyr, x_enc, scenes = batch_from_clips(chunk)
        pred = model.forward(pyr, x_enc, scenes)
        outputs.extend(np.asarray(row) for row in pred.data)
    return outputs


@dataclass
class TrainLog:
    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    initial_running_loss: float = float("nan")
    final_running_loss: float = float("nan")
    hr_metrics: MetricsReport | None = None
    param_count: int = 0

    def curve(self) -> list[tuple[int, float]]:
        return list(zip(self.steps, self.losses))


def train(
    clips: list[SyntheticClip],
    cfg: TrainConfig,
    model: Pipeline | None = None,
    eval_clips: list[SyntheticClip] | None = None,
) -> tuple[Pipeline, TrainLog]:
    """Mini-batch Adam on the waveform MSE; returns the model and its log.

    The running-loss endpoints average the first and last 10% of steps.
    Post-training heart-rate metrics are computed on eval_clips when given.
    """
    if not clips:
        raise ContractError("training needs a non-empty dataset")
    model = model if model is not None else build_pipeline(seed=cfg.seed)
    batch_rng = _rng(cfg.seed, "train-batches")
    log = TrainLog(param_count=model.param_count)
    for step in range(1, cfg.steps + 1):
        idx = batch_rng.integers(0, len(clips), size=cfg.batch_size)
        chosen = [clips[i] for i in idx]
        pyr, x_enc, scenes = batch_from_clips(chosen)
        target = np.stack([c.bvp for c in chosen])
        with nc.Tape():
            pred = model.forward(pyr, x_enc, scenes)
            loss = mse_loss(pred, nc.Tensor(target))
            nc.backward(loss, model.store)
        nc.adam_step(model.store, lr=cfg.lr, wd=cfg.weight_decay, t=step)
        log.steps.append(step)
        log.losses.append(float(loss.item()))
    window = max(1, cfg.steps // 10)
    log.initial_running_loss = float(np.mean(log.losses[:window]))
    log.final_running_loss = float(np.mean(log.losses[-window:]))
    if eval_clips:
        preds = predict(model, eval_clips)
        est = [estimate_hr(p, c.fs).bpm for p, c in zip(preds, eval_clips)]
        log.hr_metrics = metrics(est, [c.hr_bpm for c in eval_clips])
    return model, log
