"""Shared attention primitives: scaled dot-product cross/self attention and
a position-free feed-forward block.

Primitives return raw sub-layer outputs; residual composition is the
caller's job so that fusion formulas upstream can be written literally.
Every attention in the package, the cue compressor's too, is one
``numcore.attention`` node on the tape with a hand-written backward; the
feed-forward block is the three ops matmul, gelu, matmul.
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

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ContractError(f"width {self.dim} is not divisible by {self.heads} heads")

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]


@dataclass
class FeedForwardParams:
    """Token-wise two-layer GELU block; hidden width is 4x the model width."""

    w_in: nc.Parameter
    w_out: nc.Parameter


def init_attention(
    store: nc.ParamStore,
    prefix: str,
    dim: int,
    heads: int,
    rng: np.random.Generator,
) -> AttentionParams:
    s = 1.0 / math.sqrt(dim)
    return AttentionParams(
        w_q=store.add(f"{prefix}.w_q", rng.standard_normal((dim, dim)) * s),
        w_k=store.add(f"{prefix}.w_k", rng.standard_normal((dim, dim)) * s),
        w_v=store.add(f"{prefix}.w_v", rng.standard_normal((dim, dim)) * s),
        w_o=store.add(f"{prefix}.w_o", rng.standard_normal((dim, dim)) * s),
        heads=heads,
    )


def init_feed_forward(
    store: nc.ParamStore, prefix: str, dim: int, rng: np.random.Generator
) -> FeedForwardParams:
    hidden = 4 * dim
    return FeedForwardParams(
        w_in=store.add(f"{prefix}.w_in", rng.standard_normal((dim, hidden)) / math.sqrt(dim)),
        w_out=store.add(f"{prefix}.w_out", rng.standard_normal((hidden, dim)) / math.sqrt(hidden)),
    )


def cross_attention(q_in, kv_in, p: AttentionParams) -> nc.Tensor:
    """softmax(QK^T / sqrt(d)) V per head, followed by the output projection.

    Queries come from q_in, keys and values from kv_in; both are
    (batch, tokens, width) with the width matching the parameters, which
    ``nc.attention`` checks; it checks finiteness once, on its output.
    """
    weights = (p.w_q.use(), p.w_k.use(), p.w_v.use(), p.w_o.use())
    return nc.attention(q_in, kv_in, *weights, p.heads)


def self_attention(x, p: AttentionParams) -> nc.Tensor:
    return cross_attention(x, x, p)


def feed_forward(x, p: FeedForwardParams) -> nc.Tensor:
    x = nc.as_tensor(x)
    if x.shape[-1] != p.w_in.shape[0]:
        raise ShapeError(f"feed_forward expects trailing width {p.w_in.shape[0]}, got {x.shape}")
    return nc.matmul(nc.gelu(nc.matmul(x, p.w_in.use())), p.w_out.use())
