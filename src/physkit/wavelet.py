"""Multi-level 1-D discrete wavelet transform with periodic extension.

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

    The high-pass taps must satisfy the quadrature-mirror relation
    hi[k] == (-1)^k * lo[n-1-k]; construction enforces it. The synthesis
    taps equal the analysis taps because reconstruction applies the
    transposed (i.e. inverse) operator.
    """

    name: str
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        n = lo.size
        if hi.size != n or n % 2 != 0:
            raise ContractError(f"filter pair for {self.name!r} must share an even length")
        mirror = np.array([(-1.0) ** k * lo[n - 1 - k] for k in range(n)])
        if not np.allclose(hi, mirror, atol=1e-12):
            raise ContractError(f"filters for {self.name!r} break the quadrature-mirror relation")
        if not math.isclose(float(lo @ lo), 1.0, abs_tol=1e-12):
            raise ContractError(f"low-pass taps for {self.name!r} are not unit-norm")


HAAR = WaveletBasis("haar", np.array([1.0, 1.0]) / _SQRT2, np.array([1.0, -1.0]) / _SQRT2)

_D4_LO = np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2)
DB4 = WaveletBasis("db4", _D4_LO, np.array([_D4_LO[3], -_D4_LO[2], _D4_LO[1], -_D4_LO[0]]))

_BASES = {b.name: b for b in (HAAR, DB4)}


def get_basis(name: str) -> WaveletBasis:
    try:
        return _BASES[name]
    except KeyError:
        raise ContractError(f"unknown wavelet basis {name!r}; choose from {sorted(_BASES)}")


@dataclass
class Decomposition:
    """Approximation band plus detail bands ordered finest first.

    With periodic extension and an input length divisible by 2**level,
    detail band j (1-based) has length n/2**j and the approximation band
    has length n/2**level.
    """

    ac: np.ndarray
    dc: list[np.ndarray] = field(default_factory=list)
    level: int = 1
    length: int = 0


def _analyze_step(x: np.ndarray, basis: WaveletBasis) -> tuple[np.ndarray, np.ndarray]:
    n = x.size
    half = np.arange(n // 2)
    approx = np.zeros(n // 2)
    detail = np.zeros(n // 2)
    for k in range(basis.lo.size):
        seg = x[(2 * half + k) % n]
        approx += basis.lo[k] * seg
        detail += basis.hi[k] * seg
    return approx, detail


def _synthesize_step(approx: np.ndarray, detail: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    n = 2 * approx.size
    half = np.arange(approx.size)
    x = np.zeros(n)
    for k in range(basis.lo.size):
        np.add.at(x, (2 * half + k) % n, basis.lo[k] * approx + basis.hi[k] * detail)
    return x


def dwt(x, basis: WaveletBasis, level: int) -> Decomposition:
    """Cascaded filter-and-downsample with periodic boundary extension."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"dwt expects a 1-d sequence, got shape {x.shape}")
    if level < 1:
        raise ContractError(f"decomposition level must be >= 1, got {level}")
    n = x.size
    if n % (1 << level) != 0:
        raise ContractError(f"length {n} is not divisible by 2**{level}")
    approx = x
    details: list[np.ndarray] = []
    for _ in range(level):
        approx, d = _analyze_step(approx, basis)
        details.append(d)
    return Decomposition(ac=approx, dc=details, level=level, length=n)


def idwt(dec: Decomposition, basis: WaveletBasis) -> np.ndarray:
    """Inverse cascade; exact inverse of dwt for the shipped bases."""
    n, level = dec.length, dec.level
    if len(dec.dc) != level:
        raise ShapeError(f"expected {level} detail bands, got {len(dec.dc)}")
    if dec.ac.size != n >> level:
        raise ShapeError(f"approximation band has length {dec.ac.size}, expected {n >> level}")
    for j, band in enumerate(dec.dc, start=1):
        if band.size != n >> j:
            raise ShapeError(f"detail band {j} has length {band.size}, expected {n >> j}")
    approx = dec.ac
    for band in reversed(dec.dc):
        approx = _synthesize_step(approx, band, basis)
    return approx
