#!/usr/bin/env python3
"""Build the three prompt cue streams and fuse them.

A task caption states the job, a scene caption describes the synthetic
recording conditions, and a statistics caption renders what the encoder
signal looks like numerically. Each caption is hash-tokenized, embedded
with the frozen vocabulary, squeezed to a fixed prompt length by its own
attentive compressor, and the three streams are combined by learnable
element-wise weights.
"""

import numpy as np

from physkit import (
    TASK_CAPTION,
    ParamStore,
    compress,
    fuse_cues,
    gen_clip,
    init_compressor,
    init_fusion,
    init_vocab,
    signal_stats,
    stats_caption,
    tokenize,
    vision_caption,
)

clip = gen_clip(hr_bpm=64.0, fs=30.0, n_samples=128, snr_db=8.0, seed=11)
stats = signal_stats(clip.x_enc)

captions = {
    "task": TASK_CAPTION,
    "vision": vision_caption(clip.scene),
    "stats": stats_caption(stats),
}
for kind, text in captions.items():
    print(f"{kind:6s}| {text}")

store = ParamStore()
vocab = init_vocab(store, vocab_size=1024, dim=64, seed=0)
streams = {}
for seed, (kind, text) in enumerate(captions.items()):
    ids = tokenize(text, vocab.shape[0])
    comp = init_compressor(store, f"cue.{kind}", prompt_len=16, dim=64,
                           rng=np.random.default_rng(seed))
    streams[kind] = compress(vocab.value[np.array(ids)][None], comp)
    print(f"{kind:6s}| {len(ids)} token ids -> {streams[kind].shape[1]} prompt tokens")

weights = init_fusion(store, prompt_len=16, dim=64)
prompt = fuse_cues(streams, weights)
print("fused prompt:", prompt.shape)
