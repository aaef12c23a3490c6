import numpy as np
import pytest

from physkit import numcore as nc
from physkit.errors import ContractError
from physkit.stationarize import (
    SmootherParams,
    ema_smooth,
    init_smoother,
    normalized_autocorr,
    smooth,
    smooth_batch,
    standardize,
    stationarity_report,
)
from physkit.wavelet import DB4, HAAR


def _smoother(store=None, **kw):
    return init_smoother(store if store is not None else nc.ParamStore(), **kw)


def test_standardize_constant_input_is_rescued_by_eps():
    out, mu, sigma = standardize([5.0, 5.0, 5.0, 5.0])
    assert sigma == 0.0 and mu == 5.0
    assert np.array_equal(out, np.zeros(4))


def test_standardize_two_point():
    out, mu, sigma = standardize([0.0, 2.0])
    assert mu == 1.0 and sigma == 1.0
    assert np.allclose(out, [-1.0, 1.0], atol=2e-5)  # eps shifts the scale by ~1e-5


def test_standardize_affine_invariance():
    # exact deviation under x -> 3x+7 is |x'| * 2*eps / ((sigma+eps)(3sigma+eps)/sigma)
    # ~= |x'| * 2e-5 / (3*sigma); bound it with margin for sigma ~1, |x'| <~ 4
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256)
    a, _, sigma = standardize(x)
    b, _, _ = standardize(3.0 * x + 7.0)
    bound = np.max(np.abs(a)) * 2e-5 / (3.0 * sigma) * 1.5
    assert np.max(np.abs(a - b)) < bound


def test_standardize_rejects_short_input():
    with pytest.raises(ContractError):
        standardize([1.0])


def test_ema_identity_at_alpha_one():
    x = np.random.default_rng(1).standard_normal(32)
    assert np.array_equal(ema_smooth(x, 1.0), x)


def test_ema_impulse_unrolled_by_hand():
    # z_0 = x_0 = 1; z_k = 0.8*0 + 0.2*z_{k-1} afterwards
    z = ema_smooth([1.0, 0.0, 0.0, 0.0], alpha=0.8)
    assert np.allclose(z, [1.0, 0.2, 0.04, 0.008], atol=1e-15)


def test_ema_constant_fixed_point():
    z = ema_smooth(np.full(16, 3.7), alpha=0.35)
    assert np.allclose(z, 3.7, atol=1e-12)


def _ema_loop(x, alpha):
    """The recurrence written out sample by sample, one row at a time."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = np.empty_like(x)
    for row, out in zip(x, z):
        out[0] = row[0]
        for i in range(1, row.size):
            out[i] = alpha * row[i] + (1.0 - alpha) * out[i - 1]
    return z


@pytest.mark.parametrize("alpha", [0.05, 0.35, 0.8, 1.0])
@pytest.mark.parametrize("shape", [(257,), (3, 257)])
def test_ema_matches_the_explicit_recurrence(alpha, shape):
    x = np.random.default_rng(10).standard_normal(shape) * 3.0 + 1.0
    z = ema_smooth(x, alpha)
    assert z.shape == x.shape
    assert np.array_equal(z[..., 0], x[..., 0])
    assert np.max(np.abs(z - _ema_loop(x, alpha).reshape(shape))) < 1e-12


def test_ema_rejects_bad_alpha():
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ContractError):
            ema_smooth([1.0, 2.0], alpha)


def test_blend_identities_are_exact():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(128)
    p0 = _smoother(blend_override=0.0)
    z0, tr0 = smooth(x, p0)
    assert np.array_equal(z0.data, tr0.z_time)
    p1 = _smoother(blend_override=1.0)
    z1, tr1 = smooth(x, p1)
    assert np.array_equal(z1.data, tr1.z_fre)


def test_trace_blend_identity_holds_for_learned_weight():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64)
    store = nc.ParamStore()
    p = _smoother(store)
    p.blend_raw.value = np.asarray(0.37)
    z, tr = smooth(x, p)
    b = tr.blend
    assert np.array_equal(tr.z, (1.0 - b) * tr.z_time + b * tr.z_fre)
    assert np.array_equal(z.data, tr.z)


def test_smoothed_noise_variance_matches_geometric_sum():
    # EMA of standardized iid noise has variance alpha/(2-alpha) = 2/3 at 0.8
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8192)
    p = _smoother(alpha=0.8, blend_override=0.0)
    z, _ = smooth(x, p)
    var = float(np.var(z.data))
    assert 0.6 <= var <= 0.733


def test_stationarity_report_on_smoothed_noise():
    # closed-form EMA autocovariance R(k) = (1-alpha)^k * Var is the oracle
    alpha = 0.8
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8192)
    p = _smoother(alpha=alpha, blend_override=0.0)
    z, _ = smooth(x, p)
    rep = stationarity_report(z.data, max_lag=8, alpha=alpha)
    assert abs(rep.mean) < 0.05
    assert 0.6 <= rep.variance <= 0.733
    assert abs(rep.autocorr[0] - (1.0 - alpha)) < 0.05
    oracle = (1.0 - alpha) ** np.arange(1, 9)
    assert np.max(np.abs(rep.autocorr - oracle)) < 0.06
    assert rep.half_window_disagreement < 0.05
    assert rep.theoretical_variance == pytest.approx(alpha / (2.0 - alpha))
    assert not rep.degenerate


def test_stationarity_report_flags_constant_input():
    rep = stationarity_report(np.full(256, 2.0), max_lag=4)
    assert rep.degenerate and rep.variance == 0.0


def test_stationarity_report_rejects_short_series():
    with pytest.raises(ContractError):
        stationarity_report(np.zeros(31), max_lag=4)


def test_normalized_autocorr_of_periodic_signal_ranks_period_highly():
    # small lags of any smooth signal correlate strongly (r(1) ~ cos(2pi/25)),
    # so the period only needs to appear among the top lags, not to win
    t = np.arange(512)
    x = np.sin(2 * np.pi * t / 25.0)
    r = normalized_autocorr(x, 256)
    top5 = set((np.argsort(-r)[:5] + 1).tolist())
    assert top5 & {25, 50, 75, 100}


def test_blend_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(64)
    store = nc.ParamStore()
    p = _smoother(store)

    def f():
        z, _ = smooth(x, p)
        return nc.mean_all(nc.mul(z, z))

    assert nc.grad_check(f, store, eps=1e-5) < 1e-6


def test_padding_is_noop_for_divisible_lengths():
    from physkit.stationarize import _pad_to_multiple

    rng = np.random.default_rng(7)
    x = rng.standard_normal(128)  # divisible by 2**3
    assert _pad_to_multiple(x, 8) is x  # no copy, no edit
    padded = _pad_to_multiple(rng.standard_normal(100), 8)
    assert padded.shape == (104,) and np.all(padded[100:] == padded[99])
    # end to end, a non-divisible length trims back to its own size
    p = _smoother(blend_override=0.5)
    z3, _ = smooth(rng.standard_normal(100), p)
    assert z3.data.shape == (100,)


def test_smooth_supports_db4_basis():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(128)
    p = _smoother(basis=DB4, blend_override=1.0)
    z, tr = smooth(x, p)
    assert z.data.shape == (128,)
    assert np.all(np.isfinite(tr.z_fre))


def test_smooth_rejects_degenerate_inputs():
    p = _smoother(blend_override=0.0)
    with pytest.raises(ContractError):
        smooth(np.zeros(0), p)
    with pytest.raises(ContractError):
        smooth(np.zeros(4), p)  # below 2**level


def test_smoother_params_validate():
    with pytest.raises(ContractError):
        SmootherParams(alpha=0.0)
    with pytest.raises(ContractError):
        SmootherParams(eps=0.0)


def test_smooth_batch_matches_per_row_calls():
    rng = np.random.default_rng(9)
    for basis in (HAAR, DB4):
        for n in (64, 100):  # 100 is not a multiple of 2**level
            rows = rng.standard_normal((3, n)) * np.array([[0.5], [2.0], [7.0]])
            p = _smoother(basis=basis, blend_override=0.25)
            z = smooth_batch(rows, p)
            assert z.data.shape == (3, n)
            z_time = smooth_batch(rows, _smoother(basis=basis, blend_override=0.0))
            for row, z_row, t_row in zip(rows, z.data, z_time.data):
                z1, tr1 = smooth(row, p)
                assert np.array_equal(z1.data, z_row)
                assert np.array_equal(tr1.z_time, t_row)


def test_smooth_is_row_zero_of_smooth_batch():
    x = np.random.default_rng(11).standard_normal(100)
    p = _smoother(basis=DB4)
    p.blend_raw.value = np.asarray(-0.6)
    z, tr = smooth(x, p)
    assert np.array_equal(z.data, smooth_batch(x[None], p).data[0])
    assert np.array_equal(tr.z, z.data)
    assert isinstance(tr.mu, float) and isinstance(tr.sigma, float)
