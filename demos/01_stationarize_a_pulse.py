#!/usr/bin/env python3
"""Walk a noisy pulse waveform through the dual-domain smoother.

The smoother standardizes the sequence, exponentially smooths it in the
time domain, smooths every wavelet band the same way in the frequency
domain, and blends the two paths. On standardized white noise the theory
says: zero mean, variance alpha/(2-alpha), and autocorrelation that decays
as (1-alpha)^lag -- we check all three empirically here.
"""

import numpy as np

from physkit import HAAR, ParamStore, gen_clip, init_smoother, smooth, stationarity_report

# a noisy synthetic pulse at 72 bpm
clip = gen_clip(hr_bpm=72.0, fs=30.0, n_samples=128, snr_db=5.0, seed=1)
smoother = init_smoother(ParamStore(), alpha=0.8, level=3, basis=HAAR)
z, trace = smooth(clip.x_enc, smoother)

print("raw   mean/std :", f"{clip.x_enc.mean():+.3f} / {clip.x_enc.std():.3f}")
print("smoothed mean  :", f"{z.data.mean():+.3f}")
print(f"blend weight   : {trace.blend:.2f}  (sigmoid of the learnable raw weight)")

# the stationarity claims are proved for smoothed *noise*, so certify on noise
noise = np.random.default_rng(0).standard_normal(8192)
zn, _ = smooth(noise, init_smoother(ParamStore(), alpha=0.8, level=3, basis=HAAR, blend_override=0.0))
report = stationarity_report(zn.data, max_lag=8, alpha=0.8)
print("\nsmoothed white noise, alpha = 0.8:")
print(f"  sample mean          {report.mean:+.4f}   (theory: 0)")
print(f"  sample variance      {report.variance:.4f}   (theory: {report.theoretical_variance:.4f})")
print(f"  lag-1 autocorrelation {report.autocorr[0]:.4f}  (theory: {1 - 0.8:.4f})")
print(f"  half-window autocorrelation disagreement {report.half_window_disagreement:.4f}")
