"""Prompt material for the pulse-regression pipeline: signal statistics,
deterministic caption templates, a hash tokenizer, per-kind attentive
compressors, and the learnable weighted fusion of the three cue streams.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ContractError, ShapeError
from .stationarize import normalized_autocorr

CUE_KINDS = ("task", "vision", "stats")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneMeta:
    """Synthetic scene descriptors consumed by the vision caption."""

    lighting: str  # "dim" | "normal" | "bright"
    motion: bool
    skin_tone: str  # "type-1" .. "type-6"


@dataclass(frozen=True)
class StatSummary:
    minimum: float
    maximum: float
    median: float
    trend: float  # sum of first differences; telescopes to last - first
    direction: int  # sign of trend in {-1, 0, +1}
    top_lags: tuple[int, ...]  # strongest autocorrelation lags, descending


def signal_stats(x) -> StatSummary:
    """Order statistics, trend, and the 5 strongest autocorrelation lags.

    Lags are searched over [1, T/2], ranked by autocorrelation magnitude,
    ties broken toward the smaller lag. Fewer than 5 lags are returned
    when T/2 < 5.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 4:
        raise ContractError(f"signal_stats needs a 1-d sequence of length >= 4, got {x.shape}")
    trend = float(np.sum(np.diff(x)))
    direction = int(np.sign(trend))
    max_lag = x.size // 2
    r = normalized_autocorr(x, max_lag)
    # sort by (-|r|, lag): descending magnitude, smaller lag wins ties
    order = sorted(range(max_lag), key=lambda i: (-abs(r[i]), i))
    top = tuple(i + 1 for i in order[:5])
    return StatSummary(
        minimum=float(x.min()),
        maximum=float(x.max()),
        median=float(np.median(x)),
        trend=trend,
        direction=direction,
        top_lags=top,
    )


# ---------------------------------------------------------------------------
# captions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CueText:
    kind: str
    text: str


TASK_CAPTION = (
    "Task: recover the blood volume pulse waveform from facial video features "
    "and report the heart rate. The pulse is quasi periodic between 45 and 150 "
    "beats per minute; illumination changes and head motion are nuisance factors."
)

_DIRECTION_WORDS = {-1: "falling", 0: "flat", 1: "rising"}


def render_caption(
    kind: str, stats: StatSummary | None = None, scene: SceneMeta | None = None
) -> CueText:
    """Fill the fixed template for one cue kind; numbers use 3 decimals."""
    if kind == "task":
        return CueText("task", TASK_CAPTION)
    if kind == "vision":
        if scene is None:
            raise ContractError("vision caption needs scene metadata")
        motion = "moving" if scene.motion else "still"
        text = (
            f"Scene: the subject has {scene.skin_tone} skin and is {motion} "
            f"under {scene.lighting} lighting."
        )
        return CueText("vision", text)
    if kind == "stats":
        if stats is None:
            raise ContractError("stats caption needs a statistics summary")
        lags = " ".join(str(l) for l in stats.top_lags)
        text = (
            f"Signal statistics: min {stats.minimum:.3f}, max {stats.maximum:.3f}, "
            f"median {stats.median:.3f}, trend {stats.trend:.3f}, "
            f"direction {_DIRECTION_WORDS[stats.direction]}, "
            f"dominant lags {lags} samples."
        )
        return CueText("stats", text)
    raise ContractError(f"unknown cue kind {kind!r}; expected one of {CUE_KINDS}")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenSeq:
    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


_PIECES = re.compile(r"[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(piece: str) -> int:
    h = _FNV_OFFSET
    for byte in piece.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def tokenize(text, vocab_size: int) -> TokenSeq:
    """Lowercase, split on whitespace/punctuation, hash each piece mod V.

    The FNV-1a hash keeps ids stable across runs and platforms, unlike the
    interpreter's salted hash().
    """
    if isinstance(text, CueText):
        text = text.text
    if not text:
        raise ContractError("cannot tokenize empty text")
    if vocab_size < 1:
        raise ContractError(f"vocab size must be positive, got {vocab_size}")
    pieces = _PIECES.findall(text.lower())
    if not pieces:
        raise ContractError(f"text has no alphanumeric pieces: {text!r}")
    return TokenSeq(tuple(_fnv1a64(p) % vocab_size for p in pieces))


# ---------------------------------------------------------------------------
# attentive compression
# ---------------------------------------------------------------------------


@dataclass
class CompressorParams:
    """Learnable queries that attend over caption tokens; single head, no
    output projection, so one input token passes straight through its value
    projection."""

    queries: nc.Parameter
    w_q: nc.Parameter
    w_k: nc.Parameter
    w_v: nc.Parameter
    prompt_len: int
    dim: int


def init_compressor(
    store: nc.ParamStore, prefix: str, prompt_len: int, dim: int, rng: np.random.Generator
) -> CompressorParams:
    s = 1.0 / math.sqrt(dim)
    return CompressorParams(
        queries=store.add(f"{prefix}.queries", rng.standard_normal((prompt_len, dim)) * s),
        w_q=store.add(f"{prefix}.w_q", rng.standard_normal((dim, dim)) * s),
        w_k=store.add(f"{prefix}.w_k", rng.standard_normal((dim, dim)) * s),
        w_v=store.add(f"{prefix}.w_v", rng.standard_normal((dim, dim)) * s),
        prompt_len=prompt_len,
        dim=dim,
    )


def compress(tokens, p: CompressorParams) -> nc.Tensor:
    """Reduce (batch, n, dim) caption embeddings to (batch, prompt_len, dim)."""
    tokens = nc.as_tensor(tokens)
    if tokens.ndim != 3 or tokens.shape[-1] != p.dim:
        raise ShapeError(f"compress expects (batch, n, {p.dim}), got {tokens.shape}")
    if tokens.shape[1] < 1:
        raise ContractError("compress needs at least one input token")
    q = nc.matmul(p.queries.use(), p.w_q.use())  # (L, D), broadcast over batch
    k = nc.matmul(tokens, p.w_k.use())
    v = nc.matmul(tokens, p.w_v.use())
    scores = nc.scale(nc.matmul(q, nc.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(p.dim))
    return nc.matmul(nc.softmax_rows(scores), v)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


@dataclass
class FusionWeights:
    """Per-kind (prompt_len, dim) weights, broadcast over the batch."""

    task: nc.Parameter
    vision: nc.Parameter
    stats: nc.Parameter


def init_fusion(store: nc.ParamStore, prefix: str, prompt_len: int, dim: int) -> FusionWeights:
    """Every weight starts at 1/3: the fused stream is the streams' mean."""
    shape = (prompt_len, dim)
    return FusionWeights(
        task=store.add(f"{prefix}.task", np.full(shape, 1.0 / 3.0)),
        vision=store.add(f"{prefix}.vision", np.full(shape, 1.0 / 3.0)),
        stats=store.add(f"{prefix}.stats", np.full(shape, 1.0 / 3.0)),
    )


def fuse_cues(e_task, e_vision, e_stats, w: FusionWeights) -> nc.Tensor:
    """Element-wise weighted sum of the three compressed cue streams."""
    e_task, e_vision, e_stats = (nc.as_tensor(e) for e in (e_task, e_vision, e_stats))
    if not (e_task.shape == e_vision.shape == e_stats.shape):
        raise ShapeError(
            f"cue streams disagree: {e_task.shape}, {e_vision.shape}, {e_stats.shape}"
        )
    if e_task.shape[1:] != w.task.shape:
        raise ShapeError(f"streams {e_task.shape} do not match weights {w.task.shape}")
    return nc.add(
        nc.add(nc.mul(w.task.use(), e_task), nc.mul(w.vision.use(), e_vision)),
        nc.mul(w.stats.use(), e_stats),
    )
