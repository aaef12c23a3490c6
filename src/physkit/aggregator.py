"""Fuse a pyramid of backbone feature levels into one token sequence.

A batch's pyramid is a list of M >= 2 arrays, shallowest first, level i
shaped (batch, time, height_i, width_i). Every level is flattened
spatially, projected to the model width, and compressed along time to a
fixed token count. The deepest level queries the concatenated shallow
levels through cross-attention, refines itself with self-attention, and
the two refinements are folded back through learnable per-channel gates:

    fused = deep + gate_outer * (cross + gate_inner * self)

Both gates start at zero, so an untrained aggregator is the identity on the
deepest level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .attention import AttentionParams, cross_attention, init_attention, self_attention
from .errors import ContractError, ShapeError


@dataclass
class AggregatorParams:
    spatial: list[nc.Parameter]
    temporal: nc.Parameter
    cross: AttentionParams
    self_attn: AttentionParams
    gate_inner: nc.Parameter
    gate_outer: nc.Parameter
    level_shapes: tuple[tuple[int, int], ...]


def init_aggregator(
    store: nc.ParamStore,
    level_shapes: tuple[tuple[int, int], ...],
    chunk_len: int,
    target_len: int,
    dim: int,
    heads: int,
    seed: int,
) -> AggregatorParams:
    """Parameters named under the fixed prefix ``va.``, drawn from
    ``nc.rng(seed, "aggregator")``: a model builds one aggregator."""
    if len(level_shapes) < 2:
        raise ContractError(f"need at least 2 pyramid levels, got {len(level_shapes)}")
    rng = nc.rng(seed, "aggregator")
    return AggregatorParams(
        spatial=[
            store.add(f"va.spatial{i}", rng.standard_normal((h * w, dim)) / math.sqrt(h * w))
            for i, (h, w) in enumerate(level_shapes)
        ],
        temporal=store.add(
            "va.temporal", rng.standard_normal((chunk_len, target_len)) / math.sqrt(chunk_len)
        ),
        cross=init_attention(store, "va.cross", dim, heads, rng),
        self_attn=init_attention(store, "va.self", dim, heads, rng),
        # zero gates make the module start as identity on the deepest level
        gate_inner=store.add("va.gate_inner", np.zeros(dim)),
        gate_outer=store.add("va.gate_outer", np.zeros(dim)),
        level_shapes=tuple((int(h), int(w)) for h, w in level_shapes),
    )


def project_level(f, p: AggregatorParams, level: int) -> nc.Tensor:
    """Flatten a level spatially, map to the model width, compress time.
    The level is cast to the dtype of the aggregator's parameters."""
    f = np.asarray(f, dtype=p.temporal.value.dtype)
    if f.ndim != 4:
        raise ShapeError(f"level tensor must be (batch, time, h, w), got {f.shape}")
    b, t, h, w = f.shape
    n = len(p.level_shapes)
    if not 0 <= level < n:
        raise ShapeError(f"level {level} is out of range: aggregator registered {n} levels")
    if p.level_shapes[level] != (h, w):
        raise ShapeError(f"level {level} expects spatial {p.level_shapes[level]}, got {(h, w)}")
    if t != p.temporal.shape[0]:
        raise ShapeError(f"level has {t} frames, aggregator registered {p.temporal.shape[0]}")
    tokens = nc.matmul(nc.Tensor(f.reshape(b, t, h * w)), p.spatial[level].use())
    return nc.token_map(tokens, p.temporal.use())


def aggregate(levels: list, p: AggregatorParams) -> nc.Tensor:
    """Gated cross/self-attention fusion of all levels onto the deepest one.
    ``project_level`` checks each level's shape; ``nc.concat`` and the
    cross-attention refuse levels whose batch sizes differ."""
    if len(levels) != len(p.level_shapes):
        raise ShapeError(f"pyramid has {len(levels)} levels, aggregator registered {len(p.level_shapes)}")
    projected = [project_level(f, p, level=i) for i, f in enumerate(levels)]
    deep = projected[-1]
    shallow = nc.concat(projected[:-1], axis=1)
    crossed = cross_attention(deep, shallow, p.cross)
    refined = self_attention(crossed, p.self_attn)
    inner = nc.add(crossed, nc.mul(p.gate_inner.use(), refined))
    return nc.add(deep, nc.mul(p.gate_outer.use(), inner))
