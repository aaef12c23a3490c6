#!/usr/bin/env python3
"""Map continuous feature tokens into a frozen embedding space.

A trainable probe mixes the frozen vocabulary down to a small prototype
bank; incoming tokens are fused with the bank through attention and leave
with exactly one token per prototype, whatever their input length. The
same instance serves any number of modalities, sharing every weight except
one token-count adapter per input length, all created up front.
"""

import numpy as np

from physkit import (
    ParamStore,
    derive_prototypes,
    init_probe,
    init_reprogrammer,
    init_vocab,
    reprogram,
)

store = ParamStore()
vocab = init_vocab(store, vocab_size=1024, dim=64, seed=0)
probe = init_probe(store, vocab_size=1024, n_prototypes=64, rng=np.random.default_rng(1))
lengths = (15, 32, 128)  # every input length this instance will serve
rep = init_reprogrammer(store, "reprog", dim=64, heads=4, n_prototypes=64,
                        rng=np.random.default_rng(2), lengths=lengths, seed=0)

bank = derive_prototypes(vocab, probe)
print("prototype bank:", bank.shape, "probed from", vocab.param.shape, "frozen rows")

rng = np.random.default_rng(3)
for length in lengths:
    out = reprogram(rng.standard_normal((2, length, 64)), bank, rep)
    print(f"  {length:3d} input tokens -> {out.shape[1]} output tokens")

shared = [n for n in store.names() if n.startswith("reprog.") and "adapt" not in n]
adapters = [n for n in store.names() if "adapt" in n]
print("shared parameters:", len(shared), "| per-length adapters:", adapters)
