"""Shared attention primitives: scaled dot-product cross/self attention and
a position-free feed-forward block.

Primitives return raw sub-layer outputs; residual composition is the
caller's job so that fusion formulas upstream can be written literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ContractError, ShapeError


@dataclass
class AttentionParams:
    """Multi-head projection matrices; heads must divide the model width."""

    w_q: nc.Parameter
    w_k: nc.Parameter
    w_v: nc.Parameter
    w_o: nc.Parameter
    heads: int
    dim: int

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ContractError(f"width {self.dim} is not divisible by {self.heads} heads")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class FeedForwardParams:
    """Token-wise two-layer GELU block; hidden width is 4x the model width."""

    w_in: nc.Parameter
    w_out: nc.Parameter
    dim: int


def init_attention(
    store: nc.ParamStore,
    prefix: str,
    dim: int,
    heads: int,
    rng: np.random.Generator,
    out_gain: float = 1.0,
) -> AttentionParams:
    s = 1.0 / math.sqrt(dim)
    return AttentionParams(
        w_q=store.add(f"{prefix}.w_q", rng.standard_normal((dim, dim)) * s),
        w_k=store.add(f"{prefix}.w_k", rng.standard_normal((dim, dim)) * s),
        w_v=store.add(f"{prefix}.w_v", rng.standard_normal((dim, dim)) * s),
        w_o=store.add(f"{prefix}.w_o", rng.standard_normal((dim, dim)) * s * out_gain),
        heads=heads,
        dim=dim,
    )


def init_feed_forward(
    store: nc.ParamStore, prefix: str, dim: int, rng: np.random.Generator
) -> FeedForwardParams:
    hidden = 4 * dim
    return FeedForwardParams(
        w_in=store.add(f"{prefix}.w_in", rng.standard_normal((dim, hidden)) / math.sqrt(dim)),
        w_out=store.add(f"{prefix}.w_out", rng.standard_normal((hidden, dim)) / math.sqrt(hidden)),
        dim=dim,
    )


def _split_heads(t: nc.Tensor, heads: int, head_dim: int) -> nc.Tensor:
    b, n, _ = t.shape
    return nc.transpose(nc.reshape(t, (b, n, heads, head_dim)), (0, 2, 1, 3))


def _merge_heads(t: nc.Tensor, dim: int) -> nc.Tensor:
    b, _, n, _ = t.shape
    return nc.reshape(nc.transpose(t, (0, 2, 1, 3)), (b, n, dim))


def cross_attention(q_in, kv_in, p: AttentionParams) -> nc.Tensor:
    """softmax(QK^T / sqrt(d)) V per head, followed by the output projection.

    Queries come from q_in, keys and values from kv_in; both are
    (batch, tokens, width) with the width matching the parameters.
    """
    q_in, kv_in = nc.as_tensor(q_in), nc.as_tensor(kv_in)
    for name, t in (("query", q_in), ("key/value", kv_in)):
        if t.ndim != 3 or t.shape[-1] != p.dim:
            raise ShapeError(
                f"{name} input must be (batch, tokens, {p.dim}), got {t.shape}"
            )
    if q_in.shape[0] != kv_in.shape[0]:
        raise ShapeError(f"batch sizes differ: {q_in.shape} vs {kv_in.shape}")

    weights = _softmax_weights(q_in, kv_in, p)
    v = _split_heads(nc.matmul(kv_in, p.w_v.use()), p.heads, p.head_dim)
    mixed = _merge_heads(nc.matmul(weights, v), p.dim)
    return nc.matmul(mixed, p.w_o.use())


def _softmax_weights(q_in: nc.Tensor, kv_in: nc.Tensor, p: AttentionParams) -> nc.Tensor:
    """softmax(QK^T / sqrt(d)) per head, shaped (batch, heads, Lq, Lk)."""
    q = _split_heads(nc.matmul(q_in, p.w_q.use()), p.heads, p.head_dim)
    k = _split_heads(nc.matmul(kv_in, p.w_k.use()), p.heads, p.head_dim)
    scores = nc.scale(nc.matmul(q, nc.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(p.head_dim))
    return nc.softmax_rows(scores)


def self_attention(x, p: AttentionParams) -> nc.Tensor:
    return cross_attention(x, x, p)


def attention_weights(q_in, kv_in, p: AttentionParams) -> np.ndarray:
    """Row-stochastic attention map (batch, heads, Lq, Lk); diagnostic only."""
    return _softmax_weights(nc.as_tensor(q_in), nc.as_tensor(kv_in), p).data


def feed_forward(x, p: FeedForwardParams) -> nc.Tensor:
    x = nc.as_tensor(x)
    if x.shape[-1] != p.dim:
        raise ShapeError(f"feed_forward expects trailing width {p.dim}, got {x.shape}")
    return nc.matmul(nc.gelu(nc.matmul(x, p.w_in.use())), p.w_out.use())
