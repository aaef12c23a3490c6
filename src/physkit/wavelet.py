"""Multi-level 1-D discrete wavelet transform with periodic extension.

The transform acts on the last axis of (..., time), so a batch of
independent rows is decomposed in one pass, each step splitting its input
into even and odd phases once, as in Mallat's fast wavelet transform.

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
    # band[..., h] = sum_k tap[k] x[..., (2h + k) mod n]; tap k reads phase k % 2
    # from sample k // 2 on, each phase extended periodically. A sum onto zeros is never
    # -0.0; with -0.0 samples made +0.0, each filter's tap above 1/2 keeps these off -0.0 too
    taps, half = basis.lo.size, x.shape[-1] // 2
    ph = np.empty((2,) + x.shape[:-1] + (half + taps // 2 - 1,))
    for p in (0, 1):
        np.add(x[..., p::2], 0.0, out=ph[p, ..., :half])
    for i in range(half, ph.shape[-1]):
        ph[..., i] = ph[..., i - half]
    approx, detail = basis.lo[0] * ph[0, ..., :half], basis.hi[0] * ph[0, ..., :half]
    product = np.empty_like(approx)
    for k in range(1, taps):
        seg = ph[k % 2, ..., k // 2 : k // 2 + half]
        approx += np.multiply(basis.lo[k], seg, out=product)
        detail += np.multiply(basis.hi[k], seg, out=product)
    return approx, detail


def _synthesize_step(approx: np.ndarray, detail: np.ndarray, basis: WaveletBasis) -> np.ndarray:
    # transpose of the analysis step: tap k adds lo[k] a + hi[k] d into phase k % 2,
    # k // 2 samples on, wrapped; + 0.0 makes a -0.0 sum the +0.0 a sum onto zeros gives
    taps, half = basis.lo.size, approx.shape[-1]
    x = np.empty(approx.shape[:-1] + (2 * half,))
    phase, term, product = (np.empty_like(approx) for _ in range(3))
    for p in (0, 1):
        np.multiply(basis.lo[p], approx, out=phase)
        phase += np.multiply(basis.hi[p], detail, out=product)
        for k in range(p + 2, taps, 2):
            np.multiply(basis.lo[k], approx, out=term)
            term += np.multiply(basis.hi[k], detail, out=product)
            j = k // 2 % half
            phase[..., j:] += term[..., : half - j]
            phase[..., :j] += term[..., half - j :]
        np.add(phase, 0.0, out=x[..., p::2])
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
