"""Synthetic pulse clips, spectral heart-rate estimation, and the
beats-per-minute error metrics.

A ``gen_clip`` clip is fully determined by (hr, fs, length, snr, seed): the
ground-truth waveform is a two-harmonic sinusoid plus white noise at the
requested SNR, the encoder estimate adds colored noise on top, and the
feature pyramid is built from random linear projections of sliding waveform
windows so visual tokens genuinely carry pulse information. Noise
realizations are rescaled to hit the requested SNR exactly.

On disk a clip, from gen_clip or not, is three files beside its manifest,
which ``save_clip`` writes and ``load_clip`` reads; its row is a ``ClipRecord``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numcore as nc
from .cues import LIGHTING, SKIN_TONES, SceneMeta
from .errors import ContractError, EstimationError, NumericError, ParseError, within
from .stationarize import ema_smooth

HR_BAND_BPM = (45.0, 150.0)
HR_BAND_HZ = (HR_BAND_BPM[0] / 60.0, HR_BAND_BPM[1] / 60.0)

# samples of waveform behind each pyramid frame
_WINDOW = 9
# (height, width) of each feature-pyramid level of a clip, shallowest first;
# the only shapes load_clip reads and the model's aggregator registers
LEVEL_SHAPES = ((8, 8), (6, 6), (4, 4))


@dataclass
class SyntheticClip:
    """One clip. ``bvp`` and ``x_enc`` are float64, as the stationarizer,
    the cue statistics and the CSV writers read them; the pyramid levels are
    float32, the model's dtype, which is what the aggregator reads them in."""

    bvp: np.ndarray
    x_enc: np.ndarray
    pyramid: list[np.ndarray]  # level i: (time, h_i, w_i)
    hr_bpm: float
    fs: float
    scene: SceneMeta
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
) -> SyntheticClip:
    """Deterministically synthesize one clip; snr_db=inf means noiseless.

    The waveforms are float64. The features are computed in float64 and each
    pyramid level is stored rounded to float32, the dtype a float32 model
    reads it in; a float64 model casts it back up."""
    if not (math.isfinite(fs) and fs > 0.0):
        raise ContractError(f"sample rate must be finite and positive, got {fs}")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ContractError(f"snr_db must be a number or inf (noiseless), got {snr_db}")
    if not HR_BAND_BPM[0] <= hr_bpm <= HR_BAND_BPM[1]:
        raise ContractError(f"heart rate {hr_bpm} outside {HR_BAND_BPM} bpm")
    if n_samples < 64:
        raise ContractError(f"need at least 64 samples, got {n_samples}")
    f0 = hr_bpm / 60.0
    if fs <= 4.0 * f0:
        raise ContractError(f"fs={fs} violates Nyquist for the 2nd harmonic of {hr_bpm} bpm")

    t = np.arange(n_samples) / fs
    phase = float(nc.rng(seed, "phase").uniform(0.0, 2.0 * math.pi))
    clean = np.sin(2.0 * math.pi * f0 * t) + 0.3 * np.sin(4.0 * math.pi * f0 * t + phase)
    noiseless = math.isinf(snr_db)
    bvp, x_enc = clean, clean.copy()
    if not noiseless:
        noise_power = float(np.mean(clean * clean)) / (10.0 ** (snr_db / 10.0))
        bvp = clean + _scaled_noise(nc.rng(seed, "bvp-noise"), n_samples, noise_power)
        x_enc = bvp + _scaled_noise(nc.rng(seed, "enc-noise"), n_samples, noise_power, color=0.3)

    # sliding windows of the waveform, randomly projected into each level,
    # so every spatial cell is a linear functional of the local pulse
    pad = np.concatenate([np.full(_WINDOW - 1, bvp[0]), bvp])
    windows = np.lib.stride_tricks.sliding_window_view(pad, _WINDOW)
    pyramid = []
    for li, (h, w) in enumerate(LEVEL_SHAPES):
        proj = nc.rng(seed, f"level{li}-proj").standard_normal((_WINDOW, h * w)) / math.sqrt(_WINDOW)
        feat = windows @ proj
        if not noiseless:
            level_power = float(np.mean(feat * feat)) / (10.0 ** (snr_db / 10.0))
            feat = feat + _scaled_noise(
                nc.rng(seed, f"level{li}-noise"), feat.size, level_power
            ).reshape(feat.shape)
        pyramid.append(feat.reshape(n_samples, h, w).astype(np.float32))

    scene_rng = nc.rng(seed, "scene")
    scene = SceneMeta(
        lighting=LIGHTING[int(scene_rng.integers(len(LIGHTING)))],
        motion=bool(scene_rng.integers(2)),
        skin_tone=SKIN_TONES[int(scene_rng.integers(len(SKIN_TONES)))],
    )
    return SyntheticClip(
        bvp=bvp,
        x_enc=x_enc,
        pyramid=pyramid,
        hr_bpm=float(hr_bpm),
        fs=float(fs),
        scene=scene,
        seed=int(seed),
    )


def require_hr_length(n_samples: int, fs: float) -> None:
    """``estimate_hr`` reads a spectrum only from at least 4 s of samples."""
    if n_samples < 4.0 * fs:
        raise ContractError(f"need at least 4 s of samples ({int(4 * fs)}), got {n_samples}")


def welch_psd(x: np.ndarray, fs: float, nperseg: int, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """Welch's one-sided power spectral density of a 1-d array: (freqs, psd).

    Segments of nperseg samples start every nperseg - nperseg // 2 samples (a
    tail too short for one more is dropped), are multiplied by a periodic Hann
    window and zero padded to nfft; their periodograms are averaged with
    density scaling. This is ``scipy.signal.welch(x, fs, "hann", nperseg,
    nperseg // 2, nfft, detrend=False)`` to rounding, in numpy alone.
    """
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(nperseg) / nperseg)
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]
    psd = np.mean(np.abs(np.fft.rfft(segments * window, nfft)) ** 2, axis=0)
    psd /= fs * float(window @ window)
    # fold the negative frequencies onto every bin but DC and, for even nfft, Nyquist
    psd[1 : (nfft + 1) // 2] *= 2.0
    return np.fft.rfftfreq(nfft, 1.0 / fs), psd


def estimate_hr(waveform, fs: float) -> HrEstimate:
    """Welch-PSD peak inside the physiologic band, reported in bpm.

    The mean is removed first; ``welch_psd`` Hann windows segments at 50%
    overlap, zero pads them to 4x their length and averages their spectra,
    computed with ``numpy.fft``. The peak is the PSD maximum on a grid of
    fs/nfft Hz (``resolution_hz``), with no interpolation.
    """
    x = np.asarray(waveform, dtype=np.float64)
    if x.ndim != 1:
        raise ContractError(f"estimate_hr expects a 1-d waveform, got shape {x.shape}")
    if not (math.isfinite(fs) and fs > 0.0):
        raise ContractError(f"sample rate must be finite and positive, got {fs}")
    require_hr_length(x.size, fs)
    if not np.all(np.isfinite(x)):
        raise NumericError("waveform contains non-finite samples")
    x = x - x.mean()
    nperseg = int(min(x.size, round(256.0 * fs / 30.0)))
    nfft = 4 * nperseg
    freqs, psd = welch_psd(x, fs, nperseg, nfft)
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


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; other bytes are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def save_waveform(path, samples, fs: float) -> None:
    """Header line fs=<rate>, then one decimal sample per line."""
    samples = np.asarray(samples, dtype=np.float64)
    lines = [f"fs={repr(float(fs))}"]
    lines.extend(repr(float(v)) for v in samples)
    Path(path).write_text("\n".join(lines) + "\n")


def parse_numbers(lines, first_line: int, what: str) -> list[float]:
    """One finite number per non-blank line; any other line is a ParseError
    naming its number, counted from first_line, and what it should hold."""
    values = []
    for lineno, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ParseError(f"bad {what}: {line!r}", line=lineno) from exc
        if not math.isfinite(values[-1]):
            raise ParseError(f"{what} is not finite: {line!r}", line=lineno)
    return values


def load_waveform(path) -> tuple[np.ndarray, float]:
    """A waveform CSV's samples and rate; a bad file is a ParseError naming it."""
    with within(f"{path}: "):
        lines = read_lines(path)
        if not lines or not lines[0].startswith("fs="):
            raise ParseError("expected header 'fs=<rate>'", line=1)
        try:
            fs = float(lines[0][3:])
        except ValueError as exc:
            raise ParseError(f"bad sample rate: {lines[0][3:]!r}", line=1) from exc
        if not (math.isfinite(fs) and fs > 0.0):
            raise ParseError(f"sample rate must be finite and positive, got {fs}", line=1)
        return np.array(parse_numbers(lines[1:], 2, "sample")), fs


@dataclass
class ClipRecord:
    """One manifest row: the id that names the clip's three files, its true
    rate, its scene labels and, only to say which synth draw made it, its seed.
    A field of the wrong type or a label ``SceneMeta`` refuses is a ContractError."""

    clip_id: str
    hr_bpm: float
    lighting: str
    motion: bool
    skin_tone: str
    seed: int

    def __post_init__(self):
        for name, accepted, kind in (
            ("clip_id", isinstance(self.clip_id, str), "a string"),
            ("hr_bpm", nc.is_real(self.hr_bpm) and math.isfinite(self.hr_bpm), "a finite number"),
            ("seed", nc.is_int(self.seed), "an integer"),
        ):
            if not accepted:
                raise ContractError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        SceneMeta(self.lighting, self.motion, self.skin_tone)  # refuses labels outside its vocabulary


def save_clip(root, clip_id: str, clip: SyntheticClip) -> ClipRecord:
    """Write <clip_id>.bvp.csv, .xenc.csv (waveform CSVs) and .pyramid under
    root, the last holding the float32 levels as consecutive .npy records
    (np.load would read only the first); the clip's manifest row."""
    stem = Path(root) / clip_id
    save_waveform(f"{stem}.bvp.csv", clip.bvp, clip.fs)
    save_waveform(f"{stem}.xenc.csv", clip.x_enc, clip.fs)
    with open(f"{stem}.pyramid", "wb") as fh:
        for level in clip.pyramid:
            np.lib.format.write_array(fh, level, allow_pickle=False)
    return ClipRecord(clip_id, clip.hr_bpm, **asdict(clip.scene), seed=clip.seed)


def load_clip(root, record: ClipRecord) -> SyntheticClip:
    """A manifest row's clip, read from its files under root. A missing file,
    a bad CSV line, an xenc unlike the bvp in length or rate, a pyramid level
    that is not finite float32 (T, h, w) for LEVEL_SHAPES, or bytes after the
    last level are refused, naming the file."""
    stem = Path(root) / record.clip_id
    bvp, fs = load_waveform(f"{stem}.bvp.csv")
    x_enc, xenc_fs = load_waveform(f"{stem}.xenc.csv")
    if (x_enc.size, xenc_fs) != (bvp.size, fs):
        with within(f"{stem}.xenc.csv: "):
            raise ParseError(f"{x_enc.size} samples at fs={xenc_fs}, bvp {bvp.size} at fs={fs}")
    pyramid = []
    with within(f"{stem}.pyramid: "), open(f"{stem}.pyramid", "rb") as fh:
        for i, (h, w) in enumerate(LEVEL_SHAPES):
            try:
                level = np.lib.format.read_array(fh, allow_pickle=False)
                if (level.dtype, level.shape) != (np.float32, (bvp.size, h, w)):
                    raise ValueError(f"{level.dtype} {level.shape}, not float32 {(bvp.size, h, w)}")
                if not np.isfinite(level).all():
                    raise ValueError("non-finite values")
            except ValueError as exc:  # numpy's EOF and format errors among them
                raise ParseError(f"bad level {i}: {exc}") from exc
            pyramid.append(level)
        if fh.read(1):
            raise ParseError(f"bytes after level {len(LEVEL_SHAPES) - 1}, the last")
    scene = SceneMeta(record.lighting, record.motion, record.skin_tone)
    return SyntheticClip(bvp, x_enc, pyramid, record.hr_bpm, fs, scene, record.seed)


def write_manifest(path, records: list[ClipRecord]) -> None:
    Path(path).write_text("".join(json.dumps(vars(r), sort_keys=True) + "\n" for r in records))


def read_manifest(path) -> list[ClipRecord]:
    """The records of a manifest; a line that is not one record ``ClipRecord``
    takes is a ParseError naming the file, the line and the field."""
    records = []
    with within(f"{path}: "):
        for lineno, line in enumerate(read_lines(path), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError(f"not a JSON object: {payload!r}")
                records.append(ClipRecord(**payload))
            except (TypeError, ValueError) as exc:  # json's decode errors and ClipRecord's refusals among them
                raise ParseError(f"bad manifest record: {exc}", line=lineno) from exc
    return records
