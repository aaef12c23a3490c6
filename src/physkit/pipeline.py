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
float32 the GELU's normal CDF is a tanh form, (1 + tanh(x R(x^2))) / 2
with R a polynomial, within 9.6e-8 of the exact one; the float64 audit
computes it with ``math.erf``. physkit needs only numpy and the standard
library.

``predict_rates`` is the one route from a model to heart rates: the rate
``estimate_hr`` reads from each predicted clip. ``physkit predict`` writes
them, and ``evaluate``, the scorer of ``train(eval_clips=)``, scores them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import numcore as nc
from .aggregator import AggregatorParams, aggregate, init_aggregator
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
from .errors import ContractError, ParseError, ShapeError, within
from .reprogram import (
    ReprogrammerParams,
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
# each module's parameters by name prefix; every parameter of the model
# falls under exactly one, and only Pipeline.params reads them
MODULES = {
    "tpg": ("vocab.", "probe.", "reprog."),
    "aggregator": ("va.",),
    "dds": ("smoother.",),
    "cue": ("cue.",),
    "signal": ("signal.",),
    "lm": ("lm.",),
}


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
    vocab: nc.Parameter
    probe: nc.Parameter
    reprogrammer: ReprogrammerParams
    aggregator: AggregatorParams
    smoother: SmootherParams
    compressors: dict[str, CompressorParams]
    fusion: dict[str, nc.Parameter]
    patch_embed: nc.Parameter
    positions: nc.Parameter
    lm: list[tuple[AttentionParams, FeedForwardParams]]
    head: nc.Parameter
    head_skip: nc.Parameter

    def params(self, module: str) -> list[nc.Parameter]:
        """The parameters of one MODULES entry, frozen ones included, in store order."""
        return [p for p in self.store if p.name.startswith(MODULES[module])]

    # -- forward ------------------------------------------------------------

    def forward(self, pyramid: list, x_enc, scenes: list[SceneMeta]) -> nc.Tensor:
        """The predicted waveforms (batch, chunk_len) of a batch: its pyramid,
        one (batch, chunk_len, h, w) array per level of ``LEVEL_SHAPES``,
        its encoder waveforms (batch, chunk_len) and one scene per row. A
        batch size that differs among them is a ShapeError."""
        cfg = self.cfg
        x_enc = np.asarray(x_enc)
        if x_enc.ndim != 2 or x_enc.shape[1] != cfg.chunk_len:
            raise ShapeError(f"x_enc must be (batch, {cfg.chunk_len}), got {x_enc.shape}")
        bsz = x_enc.shape[0]
        shapes = [np.shape(level) for level in pyramid]
        if any(shape[:1] != (bsz,) for shape in shapes) or len(scenes) != bsz:
            raise ShapeError(f"batch mismatch: pyramid {shapes}, x_enc {x_enc.shape}, scenes {len(scenes)}")

        prototypes = derive_prototypes(self.vocab, self.probe)

        with within("[signal tokens] "):
            smoothed = smooth_batch(x_enc, self.smoother)
            patches = nc.patches_1d(smoothed, cfg.patch_len, cfg.patch_stride)
            sig_tokens = nc.matmul(patches, self.patch_embed.use())
            t_signal = reprogram(sig_tokens, prototypes, self.reprogrammer)
        with within("[visual tokens] "):
            fused_visual = aggregate(pyramid, self.aggregator)
            t_vision = reprogram(fused_visual, prototypes, self.reprogrammer)
        with within("[cue tokens] "):
            t_cue = self._cue_tokens(x_enc, scenes)

        with within("[lm] "):
            tokens = nc.concat([t_cue, t_vision, t_signal], axis=1)
            tokens = nc.add(tokens, self.positions.use())
            for attn, ffn in self.lm:
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
            "stats": [stats_caption(stats) for stats in signal_stats(x_enc)],
        }
        streams = {}
        for kind, texts in captions.items():
            ids = [tokenize(text, self.cfg.vocab_size) for text in texts]
            lengths = {len(i) for i in ids}
            if len(lengths) > 1:
                raise ContractError(f"{kind} captions disagree on token count: {sorted(lengths)}")
            streams[kind] = compress(nc.Tensor(self.vocab.value[np.array(ids)]), self.compressors[kind])
        return fuse_cues(streams, self.fusion)


def build_pipeline(cfg: ModelConfig | None = None, seed: int = 0) -> Pipeline:
    """Register every sub-module's parameters in one float32 store,
    deterministically. The keywords below are evaluated in order, so their
    order is the store's order and the checkpoint's record order."""
    cfg = cfg if cfg is not None else ModelConfig()
    store = nc.ParamStore(config=asdict(cfg), dtype=np.float32)
    return Pipeline(
        cfg=cfg,
        store=store,
        vocab=init_vocab(store, cfg.vocab_size, cfg.dim, seed),
        probe=init_probe(store, cfg.vocab_size, cfg.n_prototypes, seed),
        reprogrammer=init_reprogrammer(
            store, cfg.dim, cfg.heads, cfg.n_prototypes, (cfg.n_signal_tokens, cfg.target_len), seed
        ),
        aggregator=init_aggregator(
            store, LEVEL_SHAPES, cfg.chunk_len, cfg.target_len, cfg.dim, cfg.heads, seed
        ),
        smoother=init_smoother(store, alpha=cfg.alpha, level=cfg.level, basis=get_basis(cfg.wavelet)),
        compressors={
            kind: init_compressor(store, f"cue.{kind}", cfg.prompt_len, cfg.dim, nc.rng(seed, f"cue-{kind}"))
            for kind in CUE_KINDS
        },
        fusion=init_fusion(store, cfg.prompt_len, cfg.dim),
        patch_embed=store.add(
            "signal.patch_embed",
            nc.rng(seed, "patch").standard_normal((cfg.patch_len, cfg.dim))
            * (PATCH_GAIN / math.sqrt(cfg.patch_len)),
        ),
        # unit scale, comparable to the tokens', so attention can route
        # position-specifically instead of averaging the blocks together
        positions=store.add(
            "lm.positions", nc.rng(seed, "positions").standard_normal((cfg.n_tokens, cfg.dim))
        ),
        lm=[
            (
                init_attention(store, f"lm.layer{i}.attn", cfg.dim, cfg.heads, nc.rng(seed, f"lm-a{i}")),
                init_feed_forward(store, f"lm.layer{i}.ffn", cfg.dim, nc.rng(seed, f"lm-f{i}")),
            )
            for i in range(cfg.lm_layers)
        ],
        # zero heads: training starts from the flat waveform
        head=store.add("lm.head", np.zeros((cfg.dim, cfg.chunk_len))),
        head_skip=store.add("lm.head_skip", np.zeros((cfg.chunk_len, cfg.chunk_len))),
    )


def load_pipeline(path) -> Pipeline:
    """Rebuild the model a checkpoint was saved from, with its values.

    The model config comes from the checkpoint's header; no seed is needed
    because every value, the frozen vocabulary included, is in the file.
    """
    config = nc.ParamStore.read_config(path)
    with within(f"{path}: "):
        try:
            cfg = ModelConfig(**config)
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


def batch_from_clips(clips: list[SyntheticClip]) -> tuple[list[np.ndarray], np.ndarray, list[SceneMeta]]:
    """The forward inputs of a batch: each pyramid level stacked over the clips."""
    pyramid = [np.stack(level) for level in zip(*(c.pyramid for c in clips))]
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
    """Refuse clips that ``predict_rates`` cannot read, before any forward pass:
    one of another length, or one shorter than the 4 s ``estimate_hr`` reads."""
    _require_chunk_len(clips, chunk_len, "eval clip")
    for c in clips:
        require_hr_length(chunk_len, c.fs)


def predict_rates(model: Pipeline, clips: list[SyntheticClip]) -> tuple[list[np.ndarray], list[float]]:
    """Each clip's predicted waveform and the rate ``estimate_hr`` reads from it."""
    _require_scorable(clips, model.cfg.chunk_len)
    preds = predict(model, clips)
    return preds, [estimate_hr(p, c.fs).bpm for p, c in zip(preds, clips)]


def evaluate(model: Pipeline, clips: list[SyntheticClip]) -> MetricsReport:
    """Metrics of ``predict_rates`` against each clip's true rate."""
    return metrics(predict_rates(model, clips)[1], [c.hr_bpm for c in clips])


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
            with within(f"step {step}: "):
                log.losses.append(_backward_step(model, [clips[i] for i in idx]))
                nc.adam_step(model.store, lr=cfg.lr, wd=cfg.weight_decay, t=step)
    window = max(1, cfg.steps // 10)
    log.initial_running_loss = float(np.mean(log.losses[:window]))
    log.final_running_loss = float(np.mean(log.losses[-window:]))
    if eval_clips:
        log.hr_metrics = evaluate(model, eval_clips)
    return model, log
