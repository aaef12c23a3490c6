"""Dual-domain signal stationarization.

A raw quasi-periodic sequence is standardized and exponentially smoothed in
the time domain; in parallel its wavelet bands are each standardized and
smoothed the same way before inverse transformation. The two paths are
blended by a learnable weight kept in (0, 1) through a sigmoid, so the
constraint survives unconstrained gradient updates. A blend pinned to 0 or 1
computes only the path it keeps: the other trace field is then None, and the
returned tensor shares memory with the computed field.

The smoother, the standardization and the wavelet transform act on the last
axis of an array of shape (..., time), so a batch of rows is smoothed in
one pass with no loop over rows or samples.

The exponential smoother applied to standardized uncorrelated noise is
weakly stationary: zero mean, variance alpha/(2 - alpha), and autocovariance
(1 - alpha)^|lag| times the variance. ``stationarity_report`` measures those
statistics empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import numcore as nc
from .errors import ContractError, NumericError
from .wavelet import WaveletBasis, dwt, idwt

DEFAULT_EPS = 1e-5


def _series(x, op: str) -> np.ndarray:
    """x as a float64 array (..., time); refused unless time has a sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ContractError(f"{op} needs an input (..., time) with at least one sample, got shape {x.shape}")
    return x


def _moments(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x - mean, mean, std) before standardize divides; a blend pinned to 1 reads no more."""
    x = _series(x, "standardize")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.sum(axis=-1, keepdims=True) / x.shape[-1]
        centered = x - mu
        sigma = np.sqrt((centered**2).sum(axis=-1, keepdims=True) / x.shape[-1])
    if not np.isfinite(sigma).all():
        raise NumericError("standardize received non-finite values, or values whose variance overflows")
    return centered, mu, sigma


def standardize(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center by the mean and scale by the (population) std along the last axis.

    Returns (standardized, mean, std); mean and std keep that axis as 1. The
    DEFAULT_EPS in the denominator rescues constant rows, which map to all
    zeros. Non-finite input, or input whose variance overflows, raises
    NumericError.
    """
    centered, mu, sigma = _moments(x)
    centered /= sigma + DEFAULT_EPS
    return centered, mu, sigma


def ema_smooth(x, alpha: float) -> np.ndarray:
    """First-order exponential smoothing along the last axis of (..., time).

    z[..., 0] = x[..., 0] and z[..., i] = alpha x[..., i] + (1 - alpha) z[..., i-1].

    The recurrence is a linear scan, computed by recursive doubling (Blelloch,
    "Prefix sums and their applications", 1990): each pass adds decay**shift
    times the partial sums shift samples back and doubles shift, so after k
    passes each output holds its last 2**k terms. The passes stop once
    decay**shift is below 2**-60, where the terms left out are lost to double
    precision anyway: 5 passes at alpha 0.8, 16 at alpha 0.001. alpha = 1 runs
    no pass and returns x exactly.
    """
    if not 0.0 < alpha <= 1.0:
        raise ContractError(f"smoothing factor must be in (0, 1], got {alpha}")
    x = _series(x, "ema_smooth")
    z = alpha * x
    z[..., 0] = x[..., 0]
    scratch = np.empty_like(z)  # each pass's decayed partial sums
    shift, c = 1, 1.0 - alpha
    while shift < x.shape[-1] and c > 2.0**-60:
        z[..., shift:] += np.multiply(c, z[..., :-shift], out=scratch[..., :-shift])
        shift, c = 2 * shift, c * c
    return z


@dataclass
class SmootherParams:
    """Configuration plus the learnable time/frequency blend weight; built by
    ``init_smoother``."""

    alpha: float
    level: int
    basis: WaveletBasis
    blend_raw: nc.Parameter
    # when set, the blend is pinned to this value and no longer differentiable
    blend_override: float | None
    # the constant standardize adds to sigma, named here for physbench's smoothing check
    eps: ClassVar[float] = DEFAULT_EPS

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ContractError(f"smoothing factor must be in (0, 1], got {self.alpha}")
        if self.level < 1:
            raise ContractError(f"decomposition level must be >= 1, got {self.level}")
        if self.blend_override is not None and not 0.0 <= self.blend_override <= 1.0:
            raise ContractError(f"blend override must be in [0, 1], got {self.blend_override}")


def init_smoother(
    store: nc.ParamStore,
    alpha: float,
    level: int,
    basis: WaveletBasis,
    blend_override: float | None = None,
) -> SmootherParams:
    """The smoother with its blend weight ``smoother.blend_raw``. It keeps
    no defaults of its own: callers pass ``ModelConfig``'s alpha, level and
    basis, or their own."""
    return SmootherParams(
        alpha=alpha,
        level=level,
        basis=basis,
        # raw weight 0 puts the sigmoid at 0.5: no prior preference between domains
        blend_raw=store.add("smoother.blend_raw", 0.0),
        blend_override=blend_override,
    )


@dataclass
class SmootherTrace:
    """Every intermediate of one smoothing pass. A blend pinned to 0 or 1
    computes one path: the other field is None, and the returned tensor
    shares memory with the computed one."""

    mu: float
    sigma: float
    z_time: np.ndarray | None
    z_fre: np.ndarray | None
    blend: float


def _pad_to_multiple(x: np.ndarray, block: int) -> np.ndarray:
    pad = -x.shape[-1] % block
    return np.concatenate([x, np.repeat(x[..., -1:], pad, axis=-1)], axis=-1) if pad else x


def _frequency_path(x: np.ndarray, p: SmootherParams) -> np.ndarray:
    n = x.shape[-1]
    padded = _pad_to_multiple(x, 1 << p.level)
    dec = dwt(padded, p.basis, p.level)
    dec.ac = ema_smooth(standardize(dec.ac)[0], p.alpha)
    dec.dc = [ema_smooth(standardize(band)[0], p.alpha) for band in dec.dc]
    return idwt(dec, p.basis)[..., :n]


def smooth(x, p: SmootherParams) -> tuple[nc.Tensor, SmootherTrace]:
    """Run the domains the blend weighs on one sequence and blend them.

    The returned tensor is differentiable with respect to the blend weight
    when a tape is recording and no override is pinned. The result equals
    row 0 of ``smooth_batch`` on ``x[None]``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractError(f"smooth needs a non-empty 1-d sequence, got shape {x.shape}")
    z_t, z_f, (mu, sigma) = _domain_paths(x[None], p)
    z, b = _blend(z_t, z_f, p)
    trace = SmootherTrace(
        mu=float(mu[0, 0]),
        sigma=float(sigma[0, 0]),
        z_time=None if z_t is None else z_t[0],
        z_fre=None if z_f is None else z_f[0],
        blend=float(b.data),
    )
    return nc.reshape(z, (x.size,)), trace


def smooth_batch(x_rows, p: SmootherParams) -> nc.Tensor:
    """Smooth every row of a (batch, time) array at once, with one blend weight."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2:
        raise ContractError(f"smooth_batch expects (batch, time), got shape {x_rows.shape}")
    z_t, z_f, _ = _domain_paths(x_rows, p)
    return _blend(z_t, z_f, p)[0]


def _domain_paths(x: np.ndarray, p: SmootherParams):
    """Time and frequency paths of (batch, time) rows, and the standardization;
    a path that a pinned blend weighs by zero is None."""
    if x.shape[-1] < (1 << p.level):
        raise ContractError(f"need at least 2**{p.level} samples, got {x.shape[-1]}")
    x_std, mu, sigma = (_moments if p.blend_override == 1.0 else standardize)(x)
    z_time = ema_smooth(x_std, p.alpha) if p.blend_override != 1.0 else None
    z_fre = _frequency_path(x, p) if p.blend_override != 0.0 else None
    return z_time, z_fre, (mu, sigma)


def _blend(z_time, z_fre, p: SmootherParams) -> tuple[nc.Tensor, nc.Tensor]:
    """The blend of the float64 paths, and the frequency-path weight it used,
    both in the blend parameter's dtype. When a pinned blend computed one
    path, that path is the blend."""
    dtype = p.blend_raw.value.dtype
    if p.blend_override is None:
        b = nc.sigmoid(p.blend_raw.use())
    else:
        b = nc.Tensor(np.asarray(p.blend_override, dtype))
    if z_time is None or z_fre is None:
        return nc.Tensor((z_fre if z_time is None else z_time).astype(dtype, copy=False)), b
    z_time, z_fre = z_time.astype(dtype, copy=False), z_fre.astype(dtype, copy=False)
    keep = nc.sub(nc.Tensor(np.ones((), dtype)), b)
    return nc.add(nc.mul(nc.Tensor(z_time), keep), nc.mul(nc.Tensor(z_fre), b)), b


# ---------------------------------------------------------------------------
# stationarity measurement
# ---------------------------------------------------------------------------


@dataclass
class StationarityReport:
    mean: float
    variance: float
    theoretical_variance: float
    autocorr: np.ndarray
    autocorr_first_half: np.ndarray
    autocorr_second_half: np.ndarray
    half_window_disagreement: float
    degenerate: bool

    def lines(self) -> list[str]:
        acf = ",".join(f"{v:.4f}" for v in self.autocorr)
        return [
            f"mean={self.mean:.6f}",
            f"variance={self.variance:.6f}",
            f"theoretical_variance={self.theoretical_variance:.6f}",
            f"autocorr_1..{len(self.autocorr)}={acf}",
            f"half_window_disagreement={self.half_window_disagreement:.6f}",
            f"degenerate={'yes' if self.degenerate else 'no'}",
        ]


def normalized_autocorr(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation r(1..max_lag), normalized by r(0), of a
    series (T,) or of each row of (rows, T); zero for a constant series.
    Non-finite input, or input whose products overflow, raises NumericError.

    Each lag is one batched matmul of BLAS dot products over all rows, for
    the batch of rows that ``cues.signal_stats`` passes.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1]
    r = np.zeros((len(rows), max_lag + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        centered = (rows - rows.mean(axis=1, keepdims=True))[:, None, :]  # (rows, 1, T)
        for k in range(min(max_lag, n - 1) + 1):  # longer lags correlate nothing
            r[:, k] = (centered[..., : n - k] @ centered[..., k:].swapaxes(-1, -2))[:, 0, 0]
    if not np.isfinite(r).all():
        raise NumericError(
            "normalized_autocorr received non-finite values, or values whose products overflow"
        )
    denom = r[:, :1]
    r = np.divide(r[:, 1:], denom, out=np.zeros((len(rows), max_lag)), where=denom != 0.0)
    return r.reshape(x.shape[:-1] + (max_lag,))


def stationarity_report(z, max_lag: int, alpha: float) -> StationarityReport:
    """Empirical weak-stationarity statistics over the full series and two
    halves. Non-finite input, or input whose variance overflows, raises
    NumericError.

    Each half of z is centred once, about its own mean, into c, and its lag
    sums s_k are the only long dot products. A half m long whose mean is e
    off the full mean adds s_k + e (sum c[:m-k] + sum c[k:]) + (m-k) e**2 to
    the full sums, as do the products that straddle the midpoint; the other
    way round would cancel catastrophically for a near-constant half.
    """
    z = np.asarray(z, dtype=np.float64)
    if max_lag < 1:
        raise ContractError(f"max_lag must be >= 1, got {max_lag}")
    if z.size < 8 * max_lag:
        raise ContractError(f"need at least 8*max_lag={8 * max_lag} samples, got {z.size}")
    lags, half, tail = np.arange(max_lag + 1), z.size // 2, slice(-max_lag, None)
    # lag sums of z about its mean, then of each half c about its own; and sum c[:k] + sum c[m-k:]
    r, ends = np.empty((3, max_lag + 1)), np.zeros((2, max_lag + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = z.sum() / z.size  # z.mean() without its wrapper
        e = np.array([[part.sum() / part.size] for part in (z[:half], z[half:])])
        c = [z[:half] - e[0, 0], z[half:] - e[1, 0]]
        e -= mean
        for h, own, end in zip(c, r[1:], ends):
            own[:] = np.correlate(h, h[: h.size - max_lag], "valid")
            own[:-1] += np.correlate(h[tail], h[tail], "full")[max_lag - 1 :]
            np.cumsum(h[:max_lag] + h[: -max_lag - 1 : -1], out=end[1:])
        size, total = np.array([[h.size, h.sum()] for h in c]).T[:, :, None]
        r[0] = (r[1:] + e * (2.0 * total - ends) + (size - lags) * e * e).sum(axis=0)
        # lag k's k products z[i] z[i + k] about the mean, with i < half <= i + k
        r[0, 1:] += np.correlate(c[1][:max_lag] + e[1], c[0][tail] + e[0], "full")[:max_lag]
    if not np.isfinite(r).all():
        raise NumericError(
            "stationarity_report received non-finite values, or values whose variance overflows"
        )
    variance = float(r[0, 0] / z.size)
    degenerate = variance == 0.0
    full, first, second = np.divide(r[:, 1:], r[:, :1], out=np.zeros((3, max_lag)), where=r[:, :1] != 0)
    disagreement = float(np.max(np.abs(first - second))) if not degenerate else 0.0
    return StationarityReport(
        mean=float(mean),
        variance=variance,
        theoretical_variance=alpha / (2.0 - alpha),
        autocorr=full,
        autocorr_first_half=first,
        autocorr_second_half=second,
        half_window_disagreement=disagreement,
        degenerate=degenerate,
    )
