"""Dual-domain signal stationarization.

A raw quasi-periodic sequence is standardized and exponentially smoothed in
the time domain; in parallel its wavelet bands are each standardized and
smoothed the same way before inverse transformation. The two paths are
blended by a learnable weight kept in (0, 1) through a sigmoid, so the
constraint survives unconstrained gradient updates.

The smoother, the standardization and the wavelet transform act on the last
axis of an array of shape (..., time), so a batch of rows is smoothed in
one pass with no loop over rows or samples.

The exponential smoother applied to standardized uncorrelated noise is
weakly stationary: zero mean, variance alpha/(2 - alpha), and autocovariance
(1 - alpha)^|lag| times the variance. ``stationarity_report`` measures those
statistics empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from . import numcore as nc
from .errors import ContractError
from .wavelet import HAAR, WaveletBasis, dwt, idwt

DEFAULT_EPS = 1e-5


def standardize(x, eps: float = DEFAULT_EPS) -> tuple[np.ndarray, float, float]:
    """Center by the global mean and scale by the global (population) std.

    Returns (standardized, mean, std). The eps in the denominator rescues
    constant inputs, which map to all zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ContractError(f"standardize needs a 1-d sequence of length >= 2, got shape {x.shape}")
    out, mu, sigma = _standardize_any(x, eps)
    return out, float(mu[0]), float(sigma[0])


def _standardize_any(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize along the last axis; mean and std keep that axis as 1."""
    mu = x.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.mean((x - mu) ** 2, axis=-1, keepdims=True))
    return (x - mu) / (sigma + eps), mu, sigma


def ema_smooth(x, alpha: float) -> np.ndarray:
    """First-order exponential smoothing along the last axis of (..., time).

    z[..., 0] = x[..., 0] and z[..., i] = alpha x[..., i] + (1 - alpha) z[..., i-1].
    """
    if not 0.0 < alpha <= 1.0:
        raise ContractError(f"smoothing factor must be in (0, 1], got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    decay = 1.0 - alpha
    z = np.empty_like(x)
    z[..., 0] = x[..., 0]
    # the filter starts at the second sample from the state decay * x[..., 0],
    # so every step is the recurrence's own two products and one sum
    z[..., 1:] = lfilter([alpha], [1.0, -decay], x[..., 1:], axis=-1, zi=decay * x[..., :1])[0]
    return z


@dataclass
class SmootherParams:
    """Configuration plus the learnable time/frequency blend weight."""

    alpha: float = 0.8
    level: int = 3
    basis: WaveletBasis = HAAR
    eps: float = DEFAULT_EPS
    blend_raw: nc.Parameter | None = None
    # when set, the blend is pinned to this value and no longer differentiable
    blend_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ContractError(f"smoothing factor must be in (0, 1], got {self.alpha}")
        if self.eps <= 0:
            raise ContractError(f"eps must be positive, got {self.eps}")

    @property
    def blend(self) -> float:
        """Current frequency-path weight in (0, 1), or the pinned override."""
        if self.blend_override is not None:
            return float(self.blend_override)
        return float(1.0 / (1.0 + np.exp(-self.blend_raw.value)))


def init_smoother(
    store: nc.ParamStore,
    prefix: str = "smoother",
    alpha: float = 0.8,
    level: int = 3,
    basis: WaveletBasis = HAAR,
    blend_override: float | None = None,
) -> SmootherParams:
    # raw weight 0 puts the sigmoid at 0.5: no prior preference between domains
    blend_raw = store.add(f"{prefix}.blend_raw", 0.0)
    return SmootherParams(
        alpha=alpha,
        level=level,
        basis=basis,
        blend_raw=blend_raw,
        blend_override=blend_override,
    )


@dataclass
class SmootherTrace:
    """Every intermediate of one smoothing pass."""

    mu: float
    sigma: float
    x_std: np.ndarray
    z_time: np.ndarray
    z_fre: np.ndarray
    z: np.ndarray
    blend: float


def _pad_to_multiple(x: np.ndarray, block: int) -> np.ndarray:
    rem = x.shape[-1] % block
    if rem == 0:
        return x
    return np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, block - rem)], mode="edge")


def _frequency_path(x: np.ndarray, p: SmootherParams) -> np.ndarray:
    n = x.shape[-1]
    padded = _pad_to_multiple(x, 1 << p.level)
    dec = dwt(padded, p.basis, p.level)
    dec.ac = ema_smooth(_standardize_any(dec.ac, p.eps)[0], p.alpha)
    dec.dc = [ema_smooth(_standardize_any(band, p.eps)[0], p.alpha) for band in dec.dc]
    return idwt(dec, p.basis)[..., :n]


def smooth(x, p: SmootherParams) -> tuple[nc.Tensor, SmootherTrace]:
    """Run both domains on one sequence and blend them.

    The returned tensor is differentiable with respect to the blend weight
    when a tape is recording and no override is pinned. The result equals
    row 0 of ``smooth_batch`` on ``x[None]``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractError(f"smooth needs a non-empty 1-d sequence, got shape {x.shape}")
    z_t, z_f, (x_std, mu, sigma) = _domain_paths(x[None], p)
    z = nc.reshape(_blend(z_t, z_f, p), (x.size,))
    trace = SmootherTrace(
        mu=float(mu[0, 0]),
        sigma=float(sigma[0, 0]),
        x_std=x_std[0],
        z_time=z_t[0],
        z_fre=z_f[0],
        z=z.data.copy(),
        blend=p.blend,
    )
    return z, trace


def smooth_batch(x_rows, p: SmootherParams) -> nc.Tensor:
    """Smooth every row of a (batch, time) array at once, with one blend weight."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2:
        raise ContractError(f"smooth_batch expects (batch, time), got shape {x_rows.shape}")
    z_t, z_f, _ = _domain_paths(x_rows, p)
    return _blend(z_t, z_f, p)


def _domain_paths(x: np.ndarray, p: SmootherParams):
    """Time and frequency paths of (batch, time) rows, and the standardization."""
    if x.shape[-1] < (1 << p.level):
        raise ContractError(f"need at least 2**{p.level} samples, got {x.shape[-1]}")
    x_std, mu, sigma = _standardize_any(x, p.eps)
    return ema_smooth(x_std, p.alpha), _frequency_path(x, p), (x_std, mu, sigma)


def _blend(z_time: np.ndarray, z_fre: np.ndarray, p: SmootherParams) -> nc.Tensor:
    if p.blend_override is not None:
        b = float(p.blend_override)
        return nc.Tensor((1.0 - b) * z_time + b * z_fre)
    if p.blend_raw is None:
        raise ContractError("smoother has neither a blend parameter nor an override")
    b = nc.sigmoid(p.blend_raw.use())
    keep = nc.sub(nc.Tensor(1.0), b)
    return nc.add(nc.mul(nc.Tensor(z_time), keep), nc.mul(nc.Tensor(z_fre), b))


# ---------------------------------------------------------------------------
# stationarity measurement
# ---------------------------------------------------------------------------


@dataclass
class StationarityReport:
    mean: float
    variance: float
    theoretical_variance: float | None
    autocorr: np.ndarray
    autocorr_first_half: np.ndarray
    autocorr_second_half: np.ndarray
    half_window_disagreement: float
    degenerate: bool
    max_lag: int = field(default=0)

    def lines(self) -> list[str]:
        out = [
            f"mean={self.mean:.6f}",
            f"variance={self.variance:.6f}",
        ]
        if self.theoretical_variance is not None:
            out.append(f"theoretical_variance={self.theoretical_variance:.6f}")
        acf = ",".join(f"{v:.4f}" for v in self.autocorr)
        out.append(f"autocorr_1..{self.max_lag}={acf}")
        out.append(f"half_window_disagreement={self.half_window_disagreement:.6f}")
        out.append(f"degenerate={'yes' if self.degenerate else 'no'}")
        return out


def normalized_autocorr(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation r(1..max_lag), normalized by r(0)."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        return np.zeros(max_lag)
    return np.array(
        [float(centered[:-k] @ centered[k:]) / denom for k in range(1, max_lag + 1)]
    )


def stationarity_report(z, max_lag: int, alpha: float | None = None) -> StationarityReport:
    """Empirical weak-stationarity statistics over the full series and two halves."""
    z = np.asarray(z, dtype=np.float64)
    if max_lag < 1:
        raise ContractError(f"max_lag must be >= 1, got {max_lag}")
    if z.size < 8 * max_lag:
        raise ContractError(f"need at least 8*max_lag={8 * max_lag} samples, got {z.size}")
    mean = float(z.mean())
    variance = float(np.mean((z - mean) ** 2))
    degenerate = variance == 0.0
    full = normalized_autocorr(z, max_lag)
    half = z.size // 2
    first = normalized_autocorr(z[:half], max_lag)
    second = normalized_autocorr(z[half:], max_lag)
    disagreement = float(np.max(np.abs(first - second))) if not degenerate else 0.0
    theoretical = alpha / (2.0 - alpha) if alpha is not None else None
    return StationarityReport(
        mean=mean,
        variance=variance,
        theoretical_variance=theoretical,
        autocorr=full,
        autocorr_first_half=first,
        autocorr_second_half=second,
        half_window_disagreement=disagreement,
        degenerate=degenerate,
        max_lag=max_lag,
    )
