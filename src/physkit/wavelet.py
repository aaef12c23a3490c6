"""Multi-level 1-D discrete wavelet transform with periodic extension.

The transform acts on the last axis of an array of shape (..., time), so a
batch of rows is decomposed in one pass; every leading index is an
independent sequence.

Only orthonormal filter banks ship (Haar and the 4-tap Daubechies pair),
so the analysis operator is orthogonal and the synthesis pass is literally
its transpose. That buys exact perfect reconstruction and energy
preservation, both of which the test suite checks to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class WaveletBasis:
    """Orthonormal analysis filter pair.

    The high-pass taps are the quadrature mirror of the low-pass ones,
    hi[k] = (-1)^k * lo[n-1-k]. The synthesis taps equal the analysis taps
    because reconstruction applies the transposed (i.e. inverse) operator.
    """

    name: str
    lo: np.ndarray
    hi: np.ndarray = field(init=False)

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", lo[::-1] * (-1.0) ** np.arange(lo.size))
        if lo.size % 2 != 0:
            raise ContractError(f"filters for {self.name!r} must have an even length")
        if not math.isclose(float(lo @ lo), 1.0, abs_tol=1e-12):
            raise ContractError(f"low-pass taps for {self.name!r} are not unit-norm")


HAAR = WaveletBasis("haar", np.array([1.0, 1.0]) / _SQRT2)
DB4 = WaveletBasis(
    "db4", np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2)
)

_BASES = {b.name: b for b in (HAAR, DB4)}


def get_basis(name: str) -> WaveletBasis:
    try:
        return _BASES[name]
    except KeyError:
        raise ContractError(f"unknown wavelet basis {name!r}; choose from {sorted(_BASES)}")


@dataclass
class Decomposition:
    """Approximation band plus detail bands ordered finest first.

    One detail band per level. Along the last axis the finest band is half
    as long as the input and each coarser band half as long again; the
    approximation band is as long as the coarsest detail band. The leading
    axes are those of the input.
    """

    ac: np.ndarray
    dc: list[np.ndarray] = field(default_factory=list)


def _analyze_step(x: np.ndarray, basis: WaveletBasis) -> tuple[np.ndarray, np.ndarray]:
    # band[..., h] = sum_k tap[k] * x[..., (2h + k) mod n], read as strided
    # slices of x extended periodically by taps - 2 samples
    taps, half = basis.lo.size, x.shape[-1] // 2
    ext = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, taps - 2)], mode="wrap")
    approx = np.zeros(x.shape[:-1] + (half,))
    detail = np.zeros_like(approx)
    for k in range(taps):
        seg = ext[..., k : k + 2 * half : 2]
        approx += basis.lo[k] * seg
        detail += basis.hi[k] * seg
    return approx, detail


def _synthesize_step(approx: np.ndarray, detail: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    # transpose of the analysis step: strided writes into n + taps - 2
    # samples, then the periodic tail folded back onto the head
    taps, n = basis.lo.size, 2 * approx.shape[-1]
    buf = np.zeros(approx.shape[:-1] + (n + taps - 2,))
    for k in range(taps):
        buf[..., k : k + n : 2] += basis.lo[k] * approx + basis.hi[k] * detail
    x = buf[..., :n]
    for start in range(n, buf.shape[-1], n):
        tail = buf[..., start : start + n]
        x[..., : tail.shape[-1]] += tail
    return x


def dwt(x, basis: WaveletBasis, level: int) -> Decomposition:
    """Cascaded filter-and-downsample along the last axis of a (..., time)
    array, with periodic boundary extension."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        raise ShapeError(f"dwt expects a (..., time) array, got shape {x.shape}")
    if level < 1:
        raise ContractError(f"decomposition level must be >= 1, got {level}")
    n = x.shape[-1]
    if n == 0 or n % (1 << level) != 0:
        raise ContractError(f"length {n} is not a positive multiple of 2**{level}")
    approx = x
    details: list[np.ndarray] = []
    for _ in range(level):
        approx, d = _analyze_step(approx, basis)
        details.append(d)
    return Decomposition(ac=approx, dc=details)


def idwt(dec: Decomposition, basis: WaveletBasis) -> np.ndarray:
    """Inverse cascade back to (..., time); exact inverse of dwt for the
    shipped bases. Each detail band, coarsest first, must have the shape of
    the approximation it is merged into."""
    approx = dec.ac
    for band in reversed(dec.dc):
        if band.shape != approx.shape:
            raise ShapeError(f"detail band {band.shape} does not match approximation {approx.shape}")
        approx = _synthesize_step(approx, band, basis)
    return approx
