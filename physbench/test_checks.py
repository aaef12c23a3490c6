"""Each output check must reject a deliberately wrong output.

Run with ``python3 -m pytest physbench``. The correct outputs here are built
without physkit, the same way the checks build their references but by
another route (an explicit loop, a matrix, a known waveform), so a check
that accepted anything, or rejected everything, would fail these tests.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from checks import CheckFailed

FS = 30.0
RNG = np.random.default_rng(0)


def _pulse(bpm: float, n: int = 128) -> np.ndarray:
    t = np.arange(n) / FS
    return np.sin(2 * math.pi * bpm / 60 * t) + 0.3 * np.sin(4 * math.pi * bpm / 60 * t + 0.4)


def _loop_ema(x, alpha):
    z = np.empty_like(x)
    z[0] = x[0]
    for i in range(1, x.size):
        z[i] = alpha * x[i] + (1 - alpha) * z[i - 1]
    return z


_S3 = math.sqrt(3.0)
LOWPASS = {
    "haar": [1 / math.sqrt(2.0)] * 2,
    "db4": [(1 + _S3) / (4 * math.sqrt(2.0)), (3 + _S3) / (4 * math.sqrt(2.0)),
            (3 - _S3) / (4 * math.sqrt(2.0)), (1 - _S3) / (4 * math.sqrt(2.0))],
}


def _dwt_matrix(n: int, basis: str) -> np.ndarray:
    """One analysis step as an explicit orthogonal (n, n) matrix."""
    lo = LOWPASS[basis]
    hi = [(-1) ** k * lo[len(lo) - 1 - k] for k in range(len(lo))]
    m = np.zeros((n, n))
    for k in range(n // 2):
        for j in range(len(lo)):
            m[k, (2 * k + j) % n] += lo[j]
            m[n // 2 + k, (2 * k + j) % n] += hi[j]
    return m


def _matrix_frequency_path(x, basis, level, alpha, eps):
    n = x.size
    padded = np.concatenate([x, np.full(-n % (1 << level), x[-1])])
    approx, details, mats = padded, [], []
    for _ in range(level):
        m = _dwt_matrix(approx.size, basis)
        out = m @ approx
        mats.append(m)
        approx, d = out[: out.size // 2], out[out.size // 2:]
        details.append(d)

    def smooth(b):
        return _loop_ema((b - b.mean()) / (b.std() + eps), alpha)

    approx = smooth(approx)
    details = [smooth(d) for d in details]
    for m, d in zip(reversed(mats), reversed(details)):
        approx = m.T @ np.concatenate([approx, d])
    return approx[:n]


# -- heart rate --------------------------------------------------------------


def test_hr_mae_accepts_true_rates_and_rejects_wrong_ones():
    rates = [55.0, 72.0, 98.0, 131.0]
    waves = [_pulse(r) for r in rates]
    assert checks.hr_mae_within(waves, FS, rates, 3.0) <= 3.0
    with pytest.raises(CheckFailed):
        checks.hr_mae_within([_pulse(r + 8.0) for r in rates], FS, rates, 3.0)


def test_metrics_match_rejects_a_wrong_mae_rmse_or_r():
    est, gt = [60.0, 80.0, 101.0], [61.0, 78.0, 100.0]
    diff = np.array(est) - np.array(gt)
    mae, rmse = float(np.mean(np.abs(diff))), float(np.sqrt(np.mean(diff**2)))
    r = float(np.corrcoef(est, gt)[0, 1])
    checks.metrics_match(est, gt, mae, rmse, r)
    for wrong in ((mae * 1.01, rmse, r), (mae, rmse + 0.1, r), (mae, rmse, -r), (mae, rmse, None)):
        with pytest.raises(CheckFailed):
            checks.metrics_match(est, gt, *wrong)


# -- training and prediction -------------------------------------------------


def test_loss_halves_rejects_a_loss_that_does_not_halve():
    checks.loss_halves(np.linspace(1.0, 0.1, 200))
    with pytest.raises(CheckFailed):
        checks.loss_halves(np.linspace(1.0, 0.6, 200))
    with pytest.raises(CheckFailed):
        checks.loss_halves([1.0, float("nan"), 0.1])


def test_bit_identical_rejects_a_one_ulp_difference():
    a = RNG.standard_normal((4, 128))
    checks.bit_identical(a.copy(), a, "rows")
    b = a.copy()
    b[2, 5] = np.nextafter(b[2, 5], np.inf)
    with pytest.raises(CheckFailed):
        checks.bit_identical(b, a, "rows")


def test_finite_and_not_flat_rejects_nan_flat_and_identical_rows():
    good = np.stack([_pulse(r) for r in (60.0, 90.0)])
    checks.finite_and_not_flat(good)
    nan = good.copy()
    nan[1, 3] = np.nan
    flat = good.copy()
    flat[0] = 0.25
    for wrong in (nan, flat, np.stack([good[0], good[0]])):
        with pytest.raises(CheckFailed):
            checks.finite_and_not_flat(wrong)


def test_batch_invariant_allows_float32_rounding_only():
    batched = RNG.standard_normal((3, 128))
    checks.batch_invariant(batched.astype(np.float32).astype(np.float64), batched)
    with pytest.raises(CheckFailed):
        checks.batch_invariant(batched + 1e-3, batched)


# -- dual-domain smoothing ---------------------------------------------------


@pytest.mark.parametrize("basis", ["haar", "db4"])
@pytest.mark.parametrize("n", [64, 67])
def test_smoothed_matches_each_blend_and_rejects_a_wrong_one(basis, n):
    x = RNG.standard_normal(n).cumsum()
    alpha, eps, level = 0.8, 1e-5, 3
    t = _loop_ema((x - x.mean()) / (x.std() + eps), alpha)
    f = _matrix_frequency_path(x, basis, level, alpha, eps)
    b = checks.sigmoid(0.3)
    for blend, z in ((0.0, t), (1.0, f), (b, (1 - b) * t + b * f)):
        checks.smoothed_matches(x, z, basis, level, alpha, eps, blend)
    with pytest.raises(CheckFailed):
        checks.smoothed_matches(x, f, basis, level, alpha, eps, 0.0)
    with pytest.raises(CheckFailed):
        checks.smoothed_matches(x, t, basis, level, alpha, eps, 1.0)
    with pytest.raises(CheckFailed):
        checks.smoothed_matches(x, 0.5 * t + 0.5 * f, basis, level, alpha, eps, b)
    with pytest.raises(CheckFailed):
        checks.smoothed_matches(x, _loop_ema(t, 0.9), basis, level, alpha, eps, 0.0)


def test_white_noise_stationary_rejects_unsmoothed_and_trending_noise():
    x = np.random.default_rng(1).standard_normal(65536)
    z = _loop_ema((x - x.mean()) / x.std(), 0.8)
    checks.white_noise_stationary(z, 0.8)
    with pytest.raises(CheckFailed):
        checks.white_noise_stationary(x, 0.8)  # variance 1, no lag-1 correlation
    with pytest.raises(CheckFailed):
        checks.white_noise_stationary(z + np.linspace(0, 1, z.size), 0.8)


def _report(z, max_lag, alpha):
    c = z - z.mean()
    half = z.size // 2

    def acf(v):
        v = v - v.mean()
        return np.array([np.dot(v[:-k], v[k:]) / np.dot(v, v) for k in range(1, max_lag + 1)])

    first, second = acf(z[:half]), acf(z[half:])
    return SimpleNamespace(
        mean=z.mean(), variance=np.dot(c, c) / z.size, theoretical_variance=alpha / (2 - alpha),
        autocorr=acf(z), autocorr_first_half=first, autocorr_second_half=second,
        half_window_disagreement=np.max(np.abs(first - second)), degenerate=False,
    )


def test_report_matches_rejects_each_wrong_field():
    z = np.random.default_rng(2).standard_normal(1000)
    good = _report(z, 8, 0.8)
    checks.report_matches(z, good, 8, 0.8)
    wrong = {
        "mean": good.mean + 1e-3,
        "variance": good.variance * 1.001,
        "theoretical_variance": 0.8,
        "autocorr": good.autocorr[::-1],
        "autocorr_first_half": good.autocorr_second_half,
        "autocorr_second_half": good.autocorr_first_half + 1e-3,
        "half_window_disagreement": 0.0,
        "degenerate": True,
    }
    for field, value in wrong.items():
        with pytest.raises(CheckFailed):
            checks.report_matches(z, SimpleNamespace(**{**vars(good), field: value}), 8, 0.8)
