"""Reprogram continuous token sequences through a small bank of text
prototypes probed from a frozen vocabulary embedding.

The vocabulary stands in for a language model's word embeddings: a
fixed-seed Gaussian table held in one frozen ``Parameter``, which never
receives gradient. The probe, one trainable (n_prototypes, vocab_size)
``Parameter`` as in Time-LLM (Jin et al., ICLR 2024), mixes its rows down
to a much smaller prototype bank, and incoming visual or signal tokens are
fused with that bank through self-attention, a token-count adapter,
cross-attention, and a feed-forward block. Output token count always equals
the prototype count, whatever the input length.

One instance is meant to serve several modalities; everything is shared
except the token-count adapters (a fixed linear map over the token axis
cannot accept two different lengths). `init_reprogrammer` takes every token
length the instance will serve and creates one adapter per distinct length,
so all parameters exist before the first forward pass. Adapter
initialization depends only on (seed, length), never on the order the
lengths are given in, so checkpoints and reruns stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import numcore as nc
from .attention import (
    AttentionParams,
    FeedForwardParams,
    cross_attention,
    feed_forward,
    init_attention,
    init_feed_forward,
    self_attention,
)
from .errors import ContractError, ShapeError


def init_vocab(store: nc.ParamStore, vocab_size: int, dim: int, seed: int) -> nc.Parameter:
    """The frozen (vocab_size, dim) table ``vocab.embedding``, drawn from
    ``nc.rng(seed, 0x56C4B)``; its rows are the fixed semantic anchors."""
    table = nc.rng(seed, 0x56C4B).standard_normal((vocab_size, dim))
    return store.add("vocab.embedding", table, trainable=False)


def init_probe(store: nc.ParamStore, vocab_size: int, n_prototypes: int, seed: int) -> nc.Parameter:
    """The probe: one trainable (n_prototypes, vocab_size) Parameter,
    ``probe.weight``, drawn from ``nc.rng(seed, "probe")``."""
    if n_prototypes > vocab_size // 4:
        raise ContractError(
            f"prototype count {n_prototypes} exceeds vocab_size/4 = {vocab_size // 4}"
        )
    weight = nc.rng(seed, "probe").standard_normal((n_prototypes, vocab_size))
    return store.add("probe.weight", weight / math.sqrt(vocab_size))


def derive_prototypes(vocab: nc.Parameter, probe: nc.Parameter) -> nc.Tensor:
    """Prototype bank = probe @ vocabulary, shaped (n_prototypes, dim)."""
    return nc.matmul(probe.use(), vocab.use())


@dataclass
class ReprogrammerParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ffn: FeedForwardParams
    # token length -> linear map over the token axis to the prototype count
    adapters: dict[int, nc.Parameter]


def init_reprogrammer(
    store: nc.ParamStore,
    dim: int,
    heads: int,
    n_prototypes: int,
    lengths: Iterable[int],
    seed: int,
) -> ReprogrammerParams:
    """Parameters named under the fixed prefix ``reprog.``: a model builds one
    reprogrammer. Attention and feed-forward weights are drawn from
    ``nc.rng(seed, "reprog")``, the adapter of each length from
    ``nc.rng(seed, 0xADA, length)``."""
    rng = nc.rng(seed, "reprog")
    return ReprogrammerParams(
        self_attn=init_attention(store, "reprog.self", dim, heads, rng),
        cross_attn=init_attention(store, "reprog.cross", dim, heads, rng),
        ffn=init_feed_forward(store, "reprog.ffn", dim, rng),
        adapters={
            length: store.add(
                f"reprog.adapt.len{length}",
                nc.rng(seed, 0xADA, length).standard_normal((length, n_prototypes)) / math.sqrt(length),
            )
            for length in sorted(set(lengths))
        },
    )


def reprogram(x, prototypes, p: ReprogrammerParams) -> nc.Tensor:
    """Fuse (batch, tokens, dim) features with the prototype bank.

    Steps: self-attend the input, adapt its token axis to the prototype
    count, add the bank (broadcast over batch), cross-attend the fused bank
    against the raw input, fold the residual back, and finish token-wise
    with the feed-forward block. Output is (batch, n_prototypes, dim).
    """
    x = nc.as_tensor(x)
    prototypes = nc.as_tensor(prototypes)
    dim = p.self_attn.dim
    if x.ndim != 3 or x.shape[-1] != dim:
        raise ShapeError(f"input must be (batch, tokens, {dim}), got {x.shape}")
    adapter = p.adapters.get(x.shape[1])
    if adapter is None:
        raise ShapeError(
            f"no adapter for {x.shape[1]} input tokens; built for lengths {sorted(p.adapters)}"
        )
    bank = (adapter.shape[1], dim)
    if prototypes.shape != bank:
        raise ShapeError(f"prototype bank must be {bank}, got {prototypes.shape}")
    x_self = self_attention(x, p.self_attn)
    fused = nc.add(nc.token_map(x_self, adapter.use()), prototypes)
    crossed = cross_attention(fused, x, p.cross_attn)
    return feed_forward(nc.add(fused, crossed), p.ffn)
