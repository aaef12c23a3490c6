import math

import numpy as np
import pytest

from physkit.errors import ContractError, ShapeError
from physkit.wavelet import DB4, HAAR, Decomposition, dwt, get_basis, idwt

SQRT2 = math.sqrt(2.0)


def test_haar_constant_signal_has_zero_detail():
    dec = dwt([1.0, 1.0, 1.0, 1.0], HAAR, level=1)
    assert np.allclose(dec.ac, [SQRT2, SQRT2], atol=1e-15)
    assert np.allclose(dec.dc[0], [0.0, 0.0], atol=1e-15)


def test_haar_alternating_pair():
    # hand evaluation of the Haar pair on [1, -1]:
    # ac = (1 + -1)/sqrt(2) = 0, dc = (1 - -1)/sqrt(2) = sqrt(2)
    dec = dwt([1.0, -1.0], HAAR, level=1)
    assert np.allclose(dec.ac, [0.0], atol=1e-15)
    assert np.allclose(dec.dc[0], [SQRT2], atol=1e-15)


def test_level3_band_lengths_on_128():
    dec = dwt(np.random.default_rng(0).standard_normal(128), HAAR, level=3)
    assert [band.size for band in dec.dc] == [64, 32, 16]
    assert dec.ac.size == 16


@pytest.mark.parametrize("basis", [HAAR, DB4])
@pytest.mark.parametrize("n", [8, 128, 1024])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_perfect_reconstruction(basis, n, level):
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(n)
        back = idwt(dwt(x, basis, level), basis)
        rel = np.linalg.norm(back - x) / np.linalg.norm(x)
        assert rel < 1e-10


@pytest.mark.parametrize("basis", [HAAR, DB4])
def test_energy_preservation(basis):
    rng = np.random.default_rng(42)
    for n, level in [(8, 1), (128, 3), (1024, 2)]:
        x = rng.standard_normal(n)
        dec = dwt(x, basis, level)
        coeff_energy = float(dec.ac @ dec.ac) + sum(float(d @ d) for d in dec.dc)
        assert abs(coeff_energy - float(x @ x)) < 1e-9


@pytest.mark.parametrize("basis", [HAAR, DB4])
def test_linearity_bandwise(basis):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(64), rng.standard_normal(64)
    a, b = 2.5, -0.75
    mixed = dwt(a * x + b * y, basis, level=3)
    dx, dy = dwt(x, basis, level=3), dwt(y, basis, level=3)
    assert np.max(np.abs(mixed.ac - (a * dx.ac + b * dy.ac))) < 1e-10
    for m, u, v in zip(mixed.dc, dx.dc, dy.dc):
        assert np.max(np.abs(m - (a * u + b * v))) < 1e-10


def test_zero_decomposition_reconstructs_zero():
    dec = dwt(np.zeros(32), DB4, level=2)
    assert np.array_equal(idwt(dec, DB4), np.zeros(32))


def test_haar_lowpass_only_gives_block_means():
    # zeroing every detail band of a level-J Haar decomposition keeps only
    # the per-block average; oracle computes block means directly
    rng = np.random.default_rng(9)
    x = rng.standard_normal(64)
    level = 3
    dec = dwt(x, HAAR, level)
    dec.dc = [np.zeros_like(d) for d in dec.dc]
    back = idwt(dec, HAAR)
    block = 1 << level
    oracle = np.repeat(x.reshape(-1, block).mean(axis=1), block)
    assert np.max(np.abs(back - oracle)) < 1e-12


@pytest.mark.parametrize("basis", [HAAR, DB4])
@pytest.mark.parametrize("n, level", [(8, 3), (2, 1), (1000, 3)])
def test_batched_transform_equals_per_row_transforms(basis, n, level):
    # n = 2**level is the smallest input: its last db4 step reads a
    # 2-sample band whose 4 taps wrap around it twice
    rows = np.random.default_rng(n + level).standard_normal((4, n))
    dec = dwt(rows, basis, level)
    singles = [dwt(row, basis, level) for row in rows]
    assert np.array_equal(dec.ac, np.stack([d.ac for d in singles]))
    for j in range(level):
        assert np.array_equal(dec.dc[j], np.stack([d.dc[j] for d in singles]))
    back = idwt(dec, basis)
    assert np.array_equal(back, np.stack([idwt(d, basis) for d in singles]))
    assert np.max(np.abs(back - rows)) < 1e-10


def test_dwt_rejects_bad_lengths_and_levels():
    with pytest.raises(ContractError):
        dwt(np.zeros(12), HAAR, level=3)  # 12 not divisible by 8
    with pytest.raises(ContractError):
        dwt(np.zeros(0), DB4, level=1)
    with pytest.raises(ContractError):
        dwt(np.zeros(8), HAAR, level=0)


def test_idwt_rejects_inconsistent_bands():
    dec = dwt(np.arange(16.0), HAAR, level=2)
    broken = Decomposition(ac=dec.ac, dc=[dec.dc[0]])
    with pytest.raises(ShapeError):
        idwt(broken, HAAR)
    broken2 = Decomposition(ac=dec.ac[:1], dc=dec.dc)
    with pytest.raises(ShapeError):
        idwt(broken2, HAAR)
    # right lengths, but the approximation carries a batch axis the details lack
    broken3 = Decomposition(ac=np.stack([dec.ac, dec.ac]), dc=dec.dc)
    with pytest.raises(ShapeError):
        idwt(broken3, HAAR)


def test_get_basis_lookup():
    assert get_basis("haar") is HAAR
    assert get_basis("db4") is DB4
    with pytest.raises(ContractError):
        get_basis("sym5")


def _rolled_dwt(x, basis, level):
    # band[..., k] = sum_j tap[j] * x[..., (2k + j) mod n], taps summed in order
    approx, details = x, []
    for _ in range(level):
        shifted = [np.roll(approx, -j, axis=-1)[..., ::2] for j in range(basis.lo.size)]
        details.append(sum(h * s for h, s in zip(basis.hi, shifted)))
        approx = sum(l * s for l, s in zip(basis.lo, shifted))
    return approx, details


def _rolled_idwt(approx, details, basis):
    # transpose of the analysis step: x[..., (2k + j) mod n] += lo[j] a[k] + hi[j] d[k]
    for d in reversed(details):
        out = np.zeros(approx.shape[:-1] + (2 * approx.shape[-1],))
        for j in range(basis.lo.size):
            up = np.zeros_like(out)
            up[..., ::2] = basis.lo[j] * approx + basis.hi[j] * d
            out += np.roll(up, j, axis=-1)
        approx = out
    return approx


@pytest.mark.parametrize("basis", [HAAR, DB4])
@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("shape", [(8,), (16,), (128,), (1000,), (3, 1000), (2, 8)])
def test_transform_is_the_rolled_sum_bit_for_bit(basis, level, shape):
    # (8,) and (2, 8) at level 3 end on a 2-sample band that db4's taps wrap twice
    x = np.random.default_rng(len(shape) * 10_000 + shape[-1]).standard_normal(shape)
    approx, details = _rolled_dwt(x, basis, level)
    dec = dwt(x, basis, level)
    assert np.array_equal(dec.ac, approx)
    assert all(np.array_equal(got, want) for got, want in zip(dec.dc, details, strict=True))
    assert np.array_equal(idwt(dec, basis), _rolled_idwt(dec.ac, dec.dc, basis))


@pytest.mark.parametrize("basis", [HAAR, DB4])
def test_signed_zeros_and_subnormals_transform_as_the_rolled_sum_byte_for_byte(basis):
    # the rolled sums start from zeros, so no sum of -0.0 terms alone is -0.0
    x = np.random.default_rng(5).choice([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323], (2, 256))
    for level in (1, 3):
        approx, details = _rolled_dwt(x, basis, level)
        dec = dwt(x, basis, level)
        assert [b.tobytes() for b in [dec.ac, *dec.dc]] == [b.tobytes() for b in [approx, *details]]
        for bands in (dec, Decomposition(ac=-dec.ac, dc=[-d for d in dec.dc])):
            assert idwt(bands, basis).tobytes() == _rolled_idwt(bands.ac, bands.dc, basis).tobytes()
