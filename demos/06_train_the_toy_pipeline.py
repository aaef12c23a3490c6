#!/usr/bin/env python3
"""Train the full toy pipeline and score heart-rate recovery.

64 noisy clips, 200 Adam steps at the stock settings (lr 1e-4, weight
decay 5e-5, batch 4). The log reports the running-loss endpoints and
heart-rate metrics on 16 held-out noiseless clips. Expect roughly a 10x
loss drop and an MAE near 1 bpm in about 8 s on two cores of a Xeon.
"""

import math

import numpy as np

from physkit import TrainConfig, estimate_hr, gen_clip, predict, train

rng = np.random.default_rng(0)

train_clips = [
    gen_clip(float(rng.uniform(45, 150)), fs=30.0, n_samples=128, snr_db=10.0, seed=100 + i)
    for i in range(64)
]
held_out = [
    gen_clip(float(rng.uniform(45, 150)), fs=30.0, n_samples=128, snr_db=math.inf, seed=900 + i)
    for i in range(16)
]

model, log = train(train_clips, TrainConfig(steps=200, seed=0), eval_clips=held_out)

print(f"parameters:            {model.store.n_values()}")
print(f"initial running loss:  {log.initial_running_loss:.4f}")
print(f"final running loss:    {log.final_running_loss:.4f}")
print(f"held-out HR MAE:       {log.hr_metrics.mae:.2f} bpm")
print(f"held-out HR Pearson r: {log.hr_metrics.pearson_r:.3f}")

# look at one held-out prediction next to its reference rate
pred = predict(model, held_out[:1])[0]
est = estimate_hr(pred, held_out[0].fs)
print(f"\nclip 0: true {held_out[0].hr_bpm:.1f} bpm, predicted {est.bpm:.1f} bpm")
