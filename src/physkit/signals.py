"""Synthetic pulse clips, spectral heart-rate estimation, and the
beats-per-minute error metrics.

A clip is fully determined by (hr, fs, length, snr, seed): the ground-truth
waveform is a two-harmonic sinusoid plus white noise at the requested SNR,
the encoder estimate adds colored noise on top, and the feature pyramid is
built from random linear projections of sliding waveform windows so visual
tokens genuinely carry pulse information. Noise realizations are rescaled
to hit the requested SNR exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import welch

from .cues import SceneMeta
from .errors import ContractError, EstimationError, NumericError, ParseError
from .stationarize import ema_smooth

HR_BAND_BPM = (45.0, 150.0)
HR_BAND_HZ = (HR_BAND_BPM[0] / 60.0, HR_BAND_BPM[1] / 60.0)

_LIGHTING = ("dim", "normal", "bright")
_SKIN_TONES = tuple(f"type-{i}" for i in range(1, 7))


def _rng(seed: int, label: str) -> np.random.Generator:
    digest = 0
    for ch in label.encode("utf-8"):
        digest = (digest * 131 + ch) & 0xFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, digest]))


@dataclass
class SyntheticClip:
    bvp: np.ndarray
    x_enc: np.ndarray
    pyramid: list[np.ndarray]  # level i: (time, h_i, w_i)
    hr_bpm: float
    fs: float
    scene: SceneMeta
    snr_db: float
    seed: int


@dataclass(frozen=True)
class HrEstimate:
    bpm: float
    freq_hz: float
    resolution_hz: float


@dataclass
class MetricsReport:
    mae: float
    rmse: float
    pearson_r: float | None  # None when either list has zero variance

    def lines(self) -> list[str]:
        r = "undefined" if self.pearson_r is None else f"{self.pearson_r:.4f}"
        return [f"mae_bpm={self.mae:.4f}", f"rmse_bpm={self.rmse:.4f}", f"pearson_r={r}"]


def _scaled_noise(rng: np.random.Generator, n: int, power: float, color: float | None = None) -> np.ndarray:
    """White or exponentially colored noise rescaled to the exact power."""
    w = rng.standard_normal(n)
    if color is not None:
        w = ema_smooth(w, color)
    realized = float(np.mean(w * w))
    if realized == 0.0:
        return w
    return w * math.sqrt(power / realized)


def gen_clip(
    hr_bpm: float,
    fs: float = 30.0,
    n_samples: int = 128,
    snr_db: float = 10.0,
    seed: int = 0,
    level_shapes: tuple[tuple[int, int], ...] = ((8, 8), (6, 6), (4, 4)),
    window: int = 9,
) -> SyntheticClip:
    """Deterministically synthesize one clip; snr_db=inf means noiseless."""
    if not HR_BAND_BPM[0] <= hr_bpm <= HR_BAND_BPM[1]:
        raise ContractError(f"heart rate {hr_bpm} outside {HR_BAND_BPM} bpm")
    if n_samples < 64:
        raise ContractError(f"need at least 64 samples, got {n_samples}")
    f0 = hr_bpm / 60.0
    if fs <= 4.0 * f0:
        raise ContractError(f"fs={fs} violates Nyquist for the 2nd harmonic of {hr_bpm} bpm")

    t = np.arange(n_samples) / fs
    phase = float(_rng(seed, "phase").uniform(0.0, 2.0 * math.pi))
    clean = np.sin(2.0 * math.pi * f0 * t) + 0.3 * np.sin(4.0 * math.pi * f0 * t + phase)
    sig_power = float(np.mean(clean * clean))

    noiseless = math.isinf(snr_db)
    noise_power = 0.0 if noiseless else sig_power / (10.0 ** (snr_db / 10.0))

    bvp = clean.copy()
    if not noiseless:
        bvp = bvp + _scaled_noise(_rng(seed, "bvp-noise"), n_samples, noise_power)
    x_enc = bvp.copy()
    if not noiseless:
        x_enc = x_enc + _scaled_noise(_rng(seed, "enc-noise"), n_samples, noise_power, color=0.3)

    # sliding windows of the waveform, randomly projected into each level,
    # so every spatial cell is a linear functional of the local pulse
    pad = np.concatenate([np.full(window - 1, bvp[0]), bvp])
    windows = np.stack([pad[i : i + window] for i in range(n_samples)])
    pyramid = []
    for li, (h, w) in enumerate(level_shapes):
        proj = _rng(seed, f"level{li}-proj").standard_normal((window, h * w)) / math.sqrt(window)
        feat = windows @ proj
        if not noiseless:
            level_power = float(np.mean(feat * feat)) / (10.0 ** (snr_db / 10.0))
            feat = feat + _scaled_noise(
                _rng(seed, f"level{li}-noise"), feat.size, level_power
            ).reshape(feat.shape)
        pyramid.append(feat.reshape(n_samples, h, w))

    scene_rng = _rng(seed, "scene")
    scene = SceneMeta(
        lighting=_LIGHTING[int(scene_rng.integers(len(_LIGHTING)))],
        motion=bool(scene_rng.integers(2)),
        skin_tone=_SKIN_TONES[int(scene_rng.integers(len(_SKIN_TONES)))],
    )
    return SyntheticClip(
        bvp=bvp,
        x_enc=x_enc,
        pyramid=pyramid,
        hr_bpm=float(hr_bpm),
        fs=float(fs),
        scene=scene,
        snr_db=float(snr_db),
        seed=int(seed),
    )


def estimate_hr(waveform, fs: float) -> HrEstimate:
    """Welch-PSD peak inside the physiologic band, reported in bpm.

    The mean is removed first; segments are Hann windowed at 50% overlap
    with 4x zero padding, giving sub-bin peak localization.
    """
    x = np.asarray(waveform, dtype=np.float64)
    if x.ndim != 1:
        raise ContractError(f"estimate_hr expects a 1-d waveform, got shape {x.shape}")
    if x.size < 4.0 * fs:
        raise ContractError(f"need at least 4 s of samples ({int(4 * fs)}), got {x.size}")
    if not np.all(np.isfinite(x)):
        raise NumericError("waveform contains non-finite samples")
    x = x - x.mean()
    nperseg = int(min(x.size, round(256.0 * fs / 30.0)))
    nfft = 4 * nperseg
    freqs, psd = welch(
        x, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2, nfft=nfft,
        detrend=False,
    )
    band = (freqs >= HR_BAND_HZ[0]) & (freqs <= HR_BAND_HZ[1])
    if not np.any(band):
        raise EstimationError("PSD has no bins inside the heart-rate band")
    band_psd = psd[band]
    peak = int(np.argmax(band_psd))
    if not np.isfinite(band_psd[peak]) or band_psd[peak] <= 0.0:
        raise EstimationError("no finite in-band spectral peak")
    f_peak = float(freqs[band][peak])
    return HrEstimate(bpm=60.0 * f_peak, freq_hz=f_peak, resolution_hz=fs / nfft)


def metrics(pred, gt) -> MetricsReport:
    """MAE/RMSE in bpm plus the sample Pearson correlation.

    Pearson is undefined (None) when either list is constant; MAE and RMSE
    are still reported.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 1 or pred.size == 0:
        raise ContractError(f"need equal non-empty 1-d lists, got {pred.shape} and {gt.shape}")
    diff = pred - gt
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff * diff)))
    pc = pred - pred.mean()
    gc = gt - gt.mean()
    denom = math.sqrt(float(pc @ pc) * float(gc @ gc))
    pearson = float(pc @ gc) / denom if denom > 0.0 else None
    return MetricsReport(mae=mae, rmse=rmse, pearson_r=pearson)


# ---------------------------------------------------------------------------
# waveform CSV and dataset manifest formats
# ---------------------------------------------------------------------------


def save_waveform(path, samples, fs: float) -> None:
    """Header line fs=<rate>, then one decimal sample per line."""
    samples = np.asarray(samples, dtype=np.float64)
    lines = [f"fs={repr(float(fs))}"]
    lines.extend(repr(float(v)) for v in samples)
    Path(path).write_text("\n".join(lines) + "\n")


def load_waveform(path) -> tuple[np.ndarray, float]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("fs="):
        raise ParseError("expected header 'fs=<rate>'", line=1)
    try:
        fs = float(lines[0][3:])
    except ValueError as exc:
        raise ParseError(f"bad sample rate: {lines[0][3:]!r}", line=1) from exc
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            samples.append(float(line))
        except ValueError as exc:
            raise ParseError(f"bad sample: {line!r}", line=lineno) from exc
    return np.array(samples), fs


@dataclass
class ClipRecord:
    """One manifest row; enough to regenerate the clip bit-for-bit."""

    clip_id: str
    bvp_path: str
    xenc_path: str
    hr_bpm: float
    fs: float
    n_samples: int
    snr_db: float
    seed: int
    lighting: str
    motion: bool
    skin_tone: str
    level_shapes: list = field(default_factory=lambda: [[8, 8], [6, 6], [4, 4]])

    def to_clip(self) -> SyntheticClip:
        return gen_clip(
            self.hr_bpm,
            fs=self.fs,
            n_samples=self.n_samples,
            snr_db=self.snr_db,
            seed=self.seed,
            level_shapes=tuple(tuple(s) for s in self.level_shapes),
        )


def write_manifest(path, records: list[ClipRecord]) -> None:
    lines = []
    for r in records:
        payload = dict(vars(r))
        payload["snr_db"] = "inf" if math.isinf(r.snr_db) else r.snr_db
        lines.append(json.dumps(payload, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> list[ClipRecord]:
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            payload["snr_db"] = float(payload["snr_db"])
            records.append(ClipRecord(**payload))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad manifest record: {exc}", line=lineno) from exc
    return records
