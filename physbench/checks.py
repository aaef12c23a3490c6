"""Output checks for the benchmark workloads, written without physkit.

Every check recomputes what it compares against with numpy (and
``scipy.signal.lfilter`` for the exponential smoother) or tests a property
of the method; none compares against a stored copy of earlier output. A
check returns nothing when the output is right and raises ``CheckFailed``
naming what is wrong otherwise.

scipy is imported inside the one function that needs it, so importing this
module adds nothing to a workload's set-up time.
"""

from __future__ import annotations

import math

import numpy as np

HR_BAND_BPM = (45.0, 150.0)


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got, want, rtol: float, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    _require(np.all(np.isfinite(got)), f"{what}: non-finite values")
    _require(err <= rtol * scale, f"{what}: max deviation {err:.3e} > {rtol:.0e} x {scale:.3g}")


# ---------------------------------------------------------------------------
# heart rate
# ---------------------------------------------------------------------------


def estimate_bpm(waveform, fs: float) -> float:
    """Peak of the Hann-windowed, zero-padded periodogram inside 45-150 bpm."""
    x = np.asarray(waveform, dtype=np.float64)
    x = x - x.mean()
    n = x.size
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    nfft = max(4096, 1 << (16 * n - 1).bit_length())
    power = np.abs(np.fft.rfft(x * window, nfft)) ** 2
    freqs_bpm = 60.0 * np.fft.rfftfreq(nfft, 1.0 / fs)
    band = (freqs_bpm >= HR_BAND_BPM[0]) & (freqs_bpm <= HR_BAND_BPM[1])
    return float(freqs_bpm[band][np.argmax(power[band])])


def hr_mae_within(waveforms, fs: float, rates_bpm, limit: float) -> float:
    """Heart rates read off the predicted waveforms track the generated ones."""
    est = np.array([estimate_bpm(w, fs) for w in waveforms])
    mae = float(np.mean(np.abs(est - np.asarray(rates_bpm, dtype=np.float64))))
    _require(mae <= limit, f"heart-rate MAE {mae:.4f} bpm > {limit} bpm")
    return mae


def metrics_match(est_bpm, true_bpm, mae: float, rmse: float, pearson_r, rtol: float = 1e-9) -> None:
    """Reported MAE, RMSE and Pearson r equal a numpy recomputation."""
    est = np.asarray(est_bpm, dtype=np.float64)
    gt = np.asarray(true_bpm, dtype=np.float64)
    diff = est - gt
    want_r = float(np.corrcoef(est, gt)[0, 1]) if est.std() > 0 and gt.std() > 0 else None
    _close(mae, np.mean(np.abs(diff)), rtol, "MAE")
    _close(rmse, np.sqrt(np.mean(diff * diff)), rtol, "RMSE")
    _require((pearson_r is None) == (want_r is None), f"Pearson r {pearson_r} vs {want_r}")
    if want_r is not None:
        _close(pearson_r, want_r, rtol, "Pearson r")


# ---------------------------------------------------------------------------
# training and prediction
# ---------------------------------------------------------------------------


def loss_halves(losses) -> None:
    """The running loss over the last tenth of steps is at most half the first."""
    losses = np.asarray(losses, dtype=np.float64)
    _require(losses.size >= 1 and np.all(np.isfinite(losses)), "losses are missing or non-finite")
    window = max(1, losses.size // 10)
    first, last = float(losses[:window].mean()), float(losses[-window:].mean())
    _require(last <= 0.5 * first, f"running loss went {first:.6f} -> {last:.6f}, not halved")


def bit_identical(got, want, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    _require(np.array_equal(got, want), f"{what}: {int(np.sum(got != want))} values differ")


def finite_and_not_flat(predictions) -> None:
    """Every predicted waveform is finite and moves; the clips are not all alike."""
    preds = np.asarray(predictions, dtype=np.float64)
    _require(np.all(np.isfinite(preds)), "non-finite predictions")
    spread = preds.std(axis=-1)
    _require(np.all(spread > 1e-6), f"{int(np.sum(spread <= 1e-6))} flat predictions")
    _require(float(np.max(np.abs(preds - preds[0]))) > 1e-6, "every clip got the same prediction")


def batch_invariant(single, batched, rtol: float = 1e-4) -> None:
    """A clip predicted alone equals its row of a batched prediction.

    Rows differ by summation order only, so the tolerance is one that a
    float32 computation would also meet, not bit-equality.
    """
    _close(single, batched, rtol, "single-clip vs batched prediction")


# ---------------------------------------------------------------------------
# dual-domain smoothing
# ---------------------------------------------------------------------------

_SQRT2, _SQRT3 = math.sqrt(2.0), math.sqrt(3.0)
_LOWPASS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "db4": np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2),
}


def _filters(basis: str) -> tuple[np.ndarray, np.ndarray]:
    lo = _LOWPASS[basis]
    hi = np.array([(-1.0) ** k * lo[lo.size - 1 - k] for k in range(lo.size)])
    return lo, hi


def _standardized(x: np.ndarray, eps: float) -> np.ndarray:
    return (x - x.mean()) / (x.std() + eps)


def ema(x: np.ndarray, alpha: float) -> np.ndarray:
    """z[0] = x[0], z[i] = alpha x[i] + (1 - alpha) z[i-1], as one IIR filter."""
    from scipy.signal import lfilter

    decay = 1.0 - alpha
    z, _ = lfilter([alpha], [1.0, -decay], x, zi=[decay * x[0]])
    return z


def time_path(x, alpha: float, eps: float) -> np.ndarray:
    return ema(_standardized(np.asarray(x, dtype=np.float64), eps), alpha)


def frequency_path(x, basis: str, level: int, alpha: float, eps: float) -> np.ndarray:
    """Periodic DWT of the edge-padded input, each band standardized and
    smoothed, then the inverse transform cropped back to the input length."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = _filters(basis)
    n = x.size
    padded = np.pad(x, (0, -n % (1 << level)), mode="edge")
    approx, details = padded, []
    for _ in range(level):
        # band[k] = sum_j tap[j] * x[(2k + j) mod n]
        shifted = [np.roll(approx, -j)[::2] for j in range(lo.size)]
        details.append(sum(h * s for h, s in zip(hi, shifted)))
        approx = sum(l * s for l, s in zip(lo, shifted))
    approx = ema(_standardized(approx, eps), alpha)
    details = [ema(_standardized(d, eps), alpha) for d in details]
    for d in reversed(details):
        # transpose of the analysis step: x[(2k + j) mod n] += lo[j] a[k] + hi[j] d[k]
        out = np.zeros(2 * approx.size)
        for j in range(lo.size):
            up = np.zeros_like(out)
            up[::2] = lo[j] * approx + hi[j] * d
            out += np.roll(up, j)
        approx = out
    return approx[:n]


def smoothed_matches(x, z, basis: str, level: int, alpha: float, eps: float, blend: float,
                     rtol: float = 1e-9) -> None:
    """Output = (1 - blend) * time path + blend * frequency path.

    blend is the pinned value, or sigmoid(raw weight) when it is learnable;
    pinned to 0 or 1 the output must be the pure path.
    """
    if blend == 0.0:
        want = time_path(x, alpha, eps)
    elif blend == 1.0:
        want = frequency_path(x, basis, level, alpha, eps)
    else:
        want = (1.0 - blend) * time_path(x, alpha, eps) + blend * frequency_path(
            x, basis, level, alpha, eps
        )
    _close(z, want, rtol, f"smoothed output (basis={basis}, blend={blend:.4f})")


def sigmoid(raw: float) -> float:
    return 1.0 / (1.0 + math.exp(-raw))


def _autocorr(x: np.ndarray, max_lag: int) -> np.ndarray:
    c = x - x.mean()
    denom = float(c @ c)
    if denom == 0.0:
        return np.zeros(max_lag)
    return np.array([float(c[:-k] @ c[k:]) / denom for k in range(1, max_lag + 1)])


def white_noise_stationary(z, alpha: float) -> None:
    """Smoothed standardized white noise is weakly stationary (criterion C1):
    mean near 0, variance alpha/(2 - alpha), lag-1 autocorrelation 1 - alpha,
    and the two halves of the series agree."""
    z = np.asarray(z, dtype=np.float64)
    var_want = alpha / (2.0 - alpha)
    half = z.size // 2
    acf_first, acf_second = _autocorr(z[:half], 8), _autocorr(z[half:], 8)
    _require(abs(z.mean()) < 0.05, f"mean {z.mean():.4f} is not near 0")
    _require(abs(z.var() - var_want) <= 0.1 * var_want, f"variance {z.var():.4f} != {var_want:.4f}")
    acf1 = _autocorr(z, 1)[0]
    _require(abs(acf1 - (1.0 - alpha)) < 0.05, f"lag-1 autocorrelation {acf1:.4f} != {1 - alpha:.4f}")
    gap = float(np.max(np.abs(acf_first - acf_second)))
    _require(gap < 0.05, f"half-window autocorrelations disagree by {gap:.4f}")


def report_matches(z, report, max_lag: int, alpha: float, rtol: float = 1e-9) -> None:
    """Every field of a stationarity report equals its recomputation."""
    z = np.asarray(z, dtype=np.float64)
    half = z.size // 2
    first, second = _autocorr(z[:half], max_lag), _autocorr(z[half:], max_lag)
    _close(report.mean, z.mean(), rtol, "report mean")
    _close(report.variance, z.var(), rtol, "report variance")
    _require(report.theoretical_variance is not None, "report has no theoretical variance")
    _close(report.theoretical_variance, alpha / (2.0 - alpha), rtol, "report theoretical variance")
    _close(report.autocorr, _autocorr(z, max_lag), rtol, "report autocorrelation")
    _close(report.autocorr_first_half, first, rtol, "report first-half autocorrelation")
    _close(report.autocorr_second_half, second, rtol, "report second-half autocorrelation")
    _close(report.half_window_disagreement, np.max(np.abs(first - second)), rtol,
           "report half-window disagreement")
    _require(bool(report.degenerate) == (z.var() == 0.0), "report degenerate flag is wrong")
