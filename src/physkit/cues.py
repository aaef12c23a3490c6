"""Prompt material for the pulse-regression pipeline: the three task cues.

Each cue is a plain-string caption: the task description is the constant
``TASK_CAPTION``, the scene context comes from ``vision_caption`` and the
physiological statistics from ``signal_stats`` through ``stats_caption``.
``signal_stats`` summarises a whole batch of rows in one call. ``tokenize``
hashes a caption into a tuple of vocabulary ids; the hash of each piece is
memoised in a bounded cache. Learnable queries squeeze each kind's caption
embeddings to a fixed prompt length through a one-head
``numcore.attention``; element-wise weights fuse the three streams.
Streams, compressors and weights are keyed by ``CUE_KINDS``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import numcore as nc
from .errors import ContractError, NumericError, ShapeError
from .stationarize import normalized_autocorr

CUE_KINDS = ("task", "vision", "stats")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


LIGHTING = ("dim", "normal", "bright")
SKIN_TONES = tuple(f"type-{i}" for i in range(1, 7))


@dataclass(frozen=True)
class SceneMeta:
    """Synthetic scene descriptors consumed by the vision caption. A label
    outside LIGHTING or SKIN_TONES, or a motion that is not a bool, is a
    ContractError naming the field: its caption would tokenize to another
    length than the others of a batch."""

    lighting: str
    motion: bool
    skin_tone: str

    def __post_init__(self):
        for name, labels in (("lighting", LIGHTING), ("skin_tone", SKIN_TONES)):
            if getattr(self, name) not in labels:
                raise ContractError(f"{name} must be one of {', '.join(labels)}, got {getattr(self, name)!r}")
        if not isinstance(self.motion, bool):
            raise ContractError(f"motion must be a bool, got {self.motion!r}")


@dataclass(frozen=True)
class StatSummary:
    minimum: float
    maximum: float
    median: float
    trend: float  # sum of first differences; telescopes to last - first
    direction: int  # sign of trend in {-1, 0, +1}
    top_lags: tuple[int, ...]  # strongest autocorrelation lags, descending


def signal_stats(x):
    """Order statistics, trend, and the 5 strongest autocorrelation lags of
    one sequence (T,), or of each row of a batch (rows, T) as a list.

    Lags are searched over [1, T/2], ranked by the magnitude of
    ``stationarize.normalized_autocorr`` (zero for a constant row), ties
    broken toward the smaller lag. Fewer than 5 lags are returned when
    T/2 < 5. A batch is one call, with no loop over its rows. A row that
    holds NaN or an infinity, or whose trend overflows, raises NumericError
    naming the first such row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] < 4:
        raise ContractError(f"signal_stats needs (T,) or (rows, T) with T >= 4, got {x.shape}")
    rows = x.reshape(-1, x.shape[-1])
    # a non-finite sample makes its row's trend non-finite, so the trend is the one check
    with np.errstate(over="ignore", invalid="ignore"):
        trend = np.diff(rows, axis=1).sum(axis=1)
    bad = ~np.isfinite(trend)
    if bad.any():
        row = int(np.argmax(bad))
        what = "values whose trend overflows" if np.isfinite(rows[row]).all() else "non-finite values"
        raise NumericError(f"signal_stats received {what} in row {row}")
    r = normalized_autocorr(rows, rows.shape[1] // 2)
    # descending magnitude; the stable sort lets the smaller lag win ties
    top = np.argsort(-np.abs(r), axis=1, kind="stable")[:, :5] + 1
    order_stats = zip(rows.min(axis=1), rows.max(axis=1), np.median(rows, axis=1))
    stats = [
        StatSummary(
            minimum=float(lo),
            maximum=float(hi),
            median=float(med),
            trend=float(t),
            direction=int(np.sign(t)),
            top_lags=tuple(int(lag) for lag in lags),
        )
        for (lo, hi, med), t, lags in zip(order_stats, trend, top)
    ]
    return stats if x.ndim == 2 else stats[0]


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


@lru_cache(maxsize=4096)
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
    """Learnable (prompt_len, dim) queries and the Q, K, V projections of a
    single-head attention over caption tokens. It has no output projection,
    so one input token passes straight through its value projection."""

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
    """(batch, n >= 1, dim) caption embeddings to (batch, prompt_len, dim) by a
    one-head ``nc.attention`` of the queries, with the identity as its w_o."""
    tokens, queries = nc.as_tensor(tokens), p.queries.use()
    repeated = nc.add(np.zeros(tokens.shape[:1] + queries.shape, queries.data.dtype), queries)
    identity = np.eye(queries.shape[1], dtype=queries.data.dtype)
    return nc.attention(repeated, tokens, p.w_q.use(), p.w_k.use(), p.w_v.use(), identity, heads=1)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def init_fusion(store: nc.ParamStore, prompt_len: int, dim: int) -> dict[str, nc.Parameter]:
    """One (prompt_len, dim) weight per kind, keyed and added in ``CUE_KINDS``
    order and named ``cue.fuse.<kind>``: a model builds one fusion. Every
    weight starts at 1/3: the fused stream is the streams' mean."""
    return {kind: store.add(f"cue.fuse.{kind}", np.full((prompt_len, dim), 1.0 / 3.0)) for kind in CUE_KINDS}


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
