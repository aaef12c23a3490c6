"""Reprogram continuous token sequences through a small bank of text
prototypes probed from a frozen vocabulary embedding.

The vocabulary matrix stands in for a language model's word embeddings: a
fixed-seed Gaussian table that never receives gradient. A trainable probe
mixes its rows down to a much smaller prototype bank, and incoming visual or
signal tokens are fused with that bank through self-attention, a token-count
adapter, cross-attention, and a feed-forward block. Output token count
always equals the prototype count, whatever the input length.

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

import numpy as np

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


@dataclass
class VocabEmbedding:
    """Frozen (vocab_size, dim) table; rows are the fixed semantic anchors."""

    param: nc.Parameter
    vocab_size: int
    dim: int

    def rows(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ContractError(f"token id out of range [0, {self.vocab_size})")
        return self.param.value[ids]


def init_vocab(
    store: nc.ParamStore,
    vocab_size: int = 1024,
    dim: int = 64,
    seed: int = 0,
    name: str = "vocab.embedding",
) -> VocabEmbedding:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x56C4B]))
    table = rng.standard_normal((vocab_size, dim))
    return VocabEmbedding(
        param=store.add(name, table, trainable=False),
        vocab_size=vocab_size,
        dim=dim,
    )


@dataclass
class PrototypeProbe:
    """Trainable (n_prototypes, vocab_size) mixer; prototypes stay few."""

    weight: nc.Parameter
    n_prototypes: int
    vocab_size: int


def init_probe(
    store: nc.ParamStore,
    vocab_size: int,
    n_prototypes: int,
    rng: np.random.Generator,
    prefix: str = "probe",
) -> PrototypeProbe:
    if n_prototypes > vocab_size // 4:
        raise ContractError(
            f"prototype count {n_prototypes} exceeds vocab_size/4 = {vocab_size // 4}"
        )
    weight = store.add(
        f"{prefix}.weight", rng.standard_normal((n_prototypes, vocab_size)) / math.sqrt(vocab_size)
    )
    return PrototypeProbe(weight=weight, n_prototypes=n_prototypes, vocab_size=vocab_size)


def derive_prototypes(vocab: VocabEmbedding, probe: PrototypeProbe) -> nc.Tensor:
    """Prototype bank = probe @ vocabulary, shaped (n_prototypes, dim)."""
    if probe.vocab_size != vocab.vocab_size:
        raise ShapeError(
            f"probe was built for vocab {probe.vocab_size}, embedding has {vocab.vocab_size}"
        )
    if probe.n_prototypes > vocab.vocab_size // 4:
        raise ContractError(
            f"prototype count {probe.n_prototypes} exceeds vocab_size/4 = {vocab.vocab_size // 4}"
        )
    return nc.matmul(probe.weight.use(), vocab.param.use())


@dataclass
class ReprogrammerParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ffn: FeedForwardParams
    n_prototypes: int
    dim: int
    # token length -> linear map over the token axis to the prototype count
    adapters: dict[int, nc.Parameter]


def init_reprogrammer(
    store: nc.ParamStore,
    prefix: str,
    dim: int,
    heads: int,
    n_prototypes: int,
    rng: np.random.Generator,
    lengths: Iterable[int],
    seed: int = 0,
) -> ReprogrammerParams:
    params = ReprogrammerParams(
        self_attn=init_attention(store, f"{prefix}.self", dim, heads, rng),
        cross_attn=init_attention(store, f"{prefix}.cross", dim, heads, rng),
        ffn=init_feed_forward(store, f"{prefix}.ffn", dim, rng),
        n_prototypes=n_prototypes,
        dim=dim,
        adapters={},
    )
    for length in sorted(set(lengths)):
        adapter_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA, length]))
        params.adapters[length] = store.add(
            f"{prefix}.adapt.len{length}",
            adapter_rng.standard_normal((length, n_prototypes)) / math.sqrt(length),
        )
    return params


def reprogram(x, prototypes, p: ReprogrammerParams) -> nc.Tensor:
    """Fuse (batch, tokens, dim) features with the prototype bank.

    Steps: self-attend the input, adapt its token axis to the prototype
    count, add the bank (broadcast over batch), cross-attend the fused bank
    against the raw input, fold the residual back, and finish token-wise
    with the feed-forward block. Output is (batch, n_prototypes, dim).
    """
    x = nc.as_tensor(x)
    prototypes = nc.as_tensor(prototypes)
    if x.ndim != 3 or x.shape[-1] != p.dim:
        raise ShapeError(f"input must be (batch, tokens, {p.dim}), got {x.shape}")
    if prototypes.shape != (p.n_prototypes, p.dim):
        raise ShapeError(
            f"prototype bank must be ({p.n_prototypes}, {p.dim}), got {prototypes.shape}"
        )
    adapter = p.adapters.get(x.shape[1])
    if adapter is None:
        raise ShapeError(
            f"no adapter for {x.shape[1]} input tokens; built for lengths {sorted(p.adapters)}"
        )
    x_self = self_attention(x, p.self_attn)
    adapted = nc.transpose(
        nc.matmul(nc.transpose(x_self, (0, 2, 1)), adapter.use()), (0, 2, 1)
    )
    fused = nc.add(adapted, prototypes)
    crossed = cross_attention(fused, x, p.cross_attn)
    return feed_forward(nc.add(fused, crossed), p.ffn)
