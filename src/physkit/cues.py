"""Prompt material for the pulse-regression pipeline: the three task cues.

Each cue is a plain-string caption: the task description is the constant
``TASK_CAPTION``, the scene context comes from ``vision_caption`` and the
physiological statistics from ``signal_stats`` through ``stats_caption``.
``tokenize`` hashes a caption into a tuple of vocabulary ids. A per-kind
attentive compressor squeezes each caption's embeddings to a fixed prompt
length, and learnable element-wise weights fuse the three streams. Streams,
compressors and fusion weights are dicts keyed by ``CUE_KINDS``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

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


TASK_CAPTION = (
    "Task: recover the blood volume pulse waveform from facial video features "
    "and report the heart rate. The pulse is quasi periodic between 45 and 150 "
    "beats per minute; illumination changes and head motion are nuisance factors."
)

_DIRECTION_WORDS = {-1: "falling", 0: "flat", 1: "rising"}


def vision_caption(scene: SceneMeta) -> str:
    """The scene-context caption."""
    motion = "moving" if scene.motion else "still"
    return (
        f"Scene: the subject has {scene.skin_tone} skin and is {motion} "
        f"under {scene.lighting} lighting."
    )


def stats_caption(stats: StatSummary) -> str:
    """The physiological-statistics caption; numbers use 3 decimals."""
    lags = " ".join(str(l) for l in stats.top_lags)
    return (
        f"Signal statistics: min {stats.minimum:.3f}, max {stats.maximum:.3f}, "
        f"median {stats.median:.3f}, trend {stats.trend:.3f}, "
        f"direction {_DIRECTION_WORDS[stats.direction]}, "
        f"dominant lags {lags} samples."
    )


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


_PIECES = re.compile(r"[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(piece: str) -> int:
    h = _FNV_OFFSET
    for byte in piece.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def tokenize(text: str, vocab_size: int) -> tuple[int, ...]:
    """Lowercase, split on whitespace/punctuation, hash each piece mod V.

    The FNV-1a hash keeps ids stable across runs and platforms, unlike the
    interpreter's salted hash().
    """
    if not text:
        raise ContractError("cannot tokenize empty text")
    if vocab_size < 1:
        raise ContractError(f"vocab size must be positive, got {vocab_size}")
    pieces = _PIECES.findall(text.lower())
    if not pieces:
        raise ContractError(f"text has no alphanumeric pieces: {text!r}")
    return tuple(_fnv1a64(p) % vocab_size for p in pieces)


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


def init_compressor(
    store: nc.ParamStore, prefix: str, prompt_len: int, dim: int, rng: np.random.Generator
) -> CompressorParams:
    s = 1.0 / math.sqrt(dim)
    return CompressorParams(
        queries=store.add(f"{prefix}.queries", rng.standard_normal((prompt_len, dim)) * s),
        w_q=store.add(f"{prefix}.w_q", rng.standard_normal((dim, dim)) * s),
        w_k=store.add(f"{prefix}.w_k", rng.standard_normal((dim, dim)) * s),
        w_v=store.add(f"{prefix}.w_v", rng.standard_normal((dim, dim)) * s),
    )


def compress(tokens, p: CompressorParams) -> nc.Tensor:
    """Reduce (batch, n, dim) caption embeddings to (batch, prompt_len, dim)."""
    tokens = nc.as_tensor(tokens)
    dim = p.w_k.shape[0]
    if tokens.ndim != 3 or tokens.shape[-1] != dim:
        raise ShapeError(f"compress expects (batch, n, {dim}), got {tokens.shape}")
    if tokens.shape[1] < 1:
        raise ContractError("compress needs at least one input token")
    q = nc.matmul(p.queries.use(), p.w_q.use())  # (L, D), broadcast over batch
    k = nc.matmul(tokens, p.w_k.use())
    v = nc.matmul(tokens, p.w_v.use())
    scores = nc.scale(nc.matmul(q, nc.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dim))
    return nc.matmul(nc.softmax_rows(scores), v)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def init_fusion(store: nc.ParamStore, prefix: str, prompt_len: int, dim: int) -> dict[str, nc.Parameter]:
    """One (prompt_len, dim) weight per kind, keyed and added in ``CUE_KINDS``
    order. Every weight starts at 1/3: the fused stream is the streams' mean."""
    return {kind: store.add(f"{prefix}.{kind}", np.full((prompt_len, dim), 1.0 / 3.0)) for kind in CUE_KINDS}


def fuse_cues(streams: dict, weights: dict[str, nc.Parameter]) -> nc.Tensor:
    """Element-wise weighted sum (task + vision) + stats of the compressed cue
    streams; streams and weights are both keyed by exactly ``CUE_KINDS``."""
    if set(streams) != set(CUE_KINDS) or set(weights) != set(CUE_KINDS):
        raise ContractError(f"cues must be keyed by {CUE_KINDS}, got {tuple(streams)}, {tuple(weights)}")
    e = [nc.as_tensor(streams[kind]) for kind in CUE_KINDS]
    if len({t.shape for t in e}) > 1:
        raise ShapeError(f"cue streams disagree: {', '.join(str(t.shape) for t in e)}")
    if e[0].shape[1:] != weights["task"].shape:
        raise ShapeError(f"streams {e[0].shape} do not match weights {weights['task'].shape}")
    return reduce(nc.add, (nc.mul(weights[kind].use(), t) for kind, t in zip(CUE_KINDS, e)))
