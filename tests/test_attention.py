import math
import warnings

import numpy as np
import pytest

from physkit import numcore as nc
from physkit.attention import (
    cross_attention,
    feed_forward,
    init_attention,
    init_feed_forward,
    self_attention,
)
from physkit.errors import ContractError, NumericError, ShapeError


def _params(dim=4, heads=1, seed=0, store=None):
    store = store if store is not None else nc.ParamStore()
    rng = np.random.default_rng(seed)
    return store, init_attention(store, "attn", dim, heads, rng)


def oracle_single_head(q_in, kv_in, p):
    """Straight-line dense reference: no reshapes, loops over batch rows."""
    wq, wk, wv, wo = (p.w_q.value, p.w_k.value, p.w_v.value, p.w_o.value)
    outs = []
    for qb, kb in zip(q_in, kv_in):
        q, k, v = qb @ wq, kb @ wk, kb @ wv
        scores = q @ k.T / math.sqrt(p.dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        outs.append((w @ v) @ wo)
    return np.stack(outs)


def test_single_key_collapses_to_projected_value():
    store, p = _params(dim=4, heads=2, seed=1)
    rng = np.random.default_rng(2)
    q_in = rng.standard_normal((3, 5, 4))
    kv = rng.standard_normal((3, 1, 4))
    out = cross_attention(q_in, kv, p).data
    expected = (kv @ p.w_v.value) @ p.w_o.value  # softmax over one key is 1
    assert np.max(np.abs(out - np.repeat(expected, 5, axis=1))) < 1e-12


def test_self_attention_is_cross_attention_with_itself():
    store, p = _params(dim=8, heads=4, seed=3)
    x = np.random.default_rng(4).standard_normal((2, 6, 8))
    assert np.array_equal(self_attention(x, p).data, cross_attention(x, x, p).data)


def test_matches_straight_line_oracle():
    store, p = _params(dim=4, heads=1, seed=5)
    rng = np.random.default_rng(6)
    q_in = rng.standard_normal((1, 2, 4))
    kv = rng.standard_normal((1, 3, 4))
    out = cross_attention(q_in, kv, p).data
    assert np.max(np.abs(out - oracle_single_head(q_in, kv, p))) < 1e-12


def test_attention_weight_rows_are_stochastic():
    store, p = _params(dim=8, heads=2, seed=7)
    rng = np.random.default_rng(8)
    q_in, kv_in = (rng.standard_normal((2, n, 8)) for n in (5, 9))
    # the weights the backward uses: Q from w_q scaled by 1/sqrt(E), as attention builds it
    q = nc._heads(q_in.reshape(-1, 8), p.w_q.value * (1.0 / math.sqrt(8 // 2)), 2, p.heads)
    k = nc._heads(kv_in.reshape(-1, 8), p.w_k.value, 2, p.heads)
    w = nc._normalized_t(*nc._exp_scores_t(q, k)).swapaxes(-1, -2)
    assert w.shape == (2, 2, 5, 9)
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12
    assert np.all(w >= 0)


def oracle_op_chain(q_in, kv_in, p):
    """The multi-head attention as separate steps: project, split heads,
    scale QK^T, softmax over the last axis, mix V, merge heads, project."""
    b, heads, hd = q_in.shape[0], p.heads, p.dim // p.heads

    def split(x, w):
        return (x @ w).reshape(b, x.shape[1], heads, hd).transpose(0, 2, 1, 3)

    q, k, v = split(q_in, p.w_q.value), split(kv_in, p.w_k.value), split(kv_in, p.w_v.value)
    scores = (q @ k.transpose(0, 1, 3, 2)) / math.sqrt(hd)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    mixed = (e / e.sum(axis=-1, keepdims=True)) @ v
    return mixed.transpose(0, 2, 1, 3).reshape(b, q_in.shape[1], p.dim) @ p.w_o.value


@pytest.mark.parametrize("heads, batch, lq, lk", [(1, 2, 3, 5), (2, 3, 7, 4), (4, 1, 6, 6), (4, 2, 1, 9)])
def test_fused_attention_matches_the_op_chain(heads, batch, lq, lk):
    store, p = _params(dim=8, heads=heads, seed=20 + heads)
    rng = np.random.default_rng(21)
    q_in, kv_in = rng.standard_normal((batch, lq, 8)), rng.standard_normal((batch, lk, 8))
    out = cross_attention(q_in, kv_in, p).data
    assert out.shape == (batch, lq, 8)
    assert np.max(np.abs(out - oracle_op_chain(q_in, kv_in, p))) < 1e-12


def _input_map(store, dim=8):
    """A trainable (D, D) map: what it feeds the attention carries a node."""
    rng = np.random.default_rng(40)
    return store.add("w_in", rng.standard_normal((dim, dim)) * 0.5)


@pytest.mark.parametrize("frozen", [None, "w_q", "w_k", "w_v", "w_o"])
def test_fused_attention_gradient_check(frozen):
    store, p = _params(dim=8, heads=2, seed=30)
    w_in = _input_map(store)
    if frozen:
        getattr(p, frozen).trainable = False
    rng = np.random.default_rng(31)
    xq, xkv = rng.standard_normal((2, 3, 8)), rng.standard_normal((2, 5, 8))

    def f():
        crossed = cross_attention(nc.matmul(xq, w_in.use()), xkv, p)
        return nc.mean_all(nc.mul(crossed, crossed))

    assert nc.grad_check(f, store) < 1e-4


def test_self_attention_gradient_reaches_the_shared_input():
    store, p = _params(dim=8, heads=4, seed=32)
    w_in = _input_map(store)
    x = np.random.default_rng(33).standard_normal((2, 6, 8))

    def f():
        out = self_attention(nc.matmul(x, w_in.use()), p)
        return nc.mean_all(nc.mul(out, out))

    assert nc.grad_check(f, store) < 1e-4


def test_fused_attention_is_one_node_and_skips_constant_gradients():
    store, p = _params(dim=8, heads=2, seed=34)
    p.w_v.trainable = False
    rng = np.random.default_rng(35)
    with nc.Tape() as tape:
        out = cross_attention(rng.standard_normal((2, 3, 8)), rng.standard_normal((2, 4, 8)), p)
    assert len(tape) == 1 and out.node.op == "attention"
    grads = out.node.grad_fn(np.ones(out.shape))
    assert [g is None for g in grads] == [True, True, False, False, True, False]
    assert [g.shape for g in grads if g is not None] == [(8, 8)] * 3


def test_non_finite_input_raises():
    store, p = _params(dim=4, heads=2, seed=36)
    x = np.random.default_rng(37).standard_normal((1, 3, 4))
    x[0, 1, 2] = np.nan
    with pytest.raises(NumericError, match="^attention received non-finite values$"):
        self_attention(x, p)


@pytest.mark.parametrize("bad, weights", [
    (np.inf, "drawn"), (-np.inf, "drawn"),
    (1e20, "drawn"),  # finite projections whose scores overflow
    (1e37, "100I"),  # Q, K and V projections overflow
    (1e37, "V only"),  # only the V projection overflows: Q = K = 0
    (1e5, "W_o only"),  # finite Q, K, V and mix; only the output projection overflows
])
def test_infinite_or_overflowing_input_raises_before_any_warning(bad, weights):
    store, p = _params(dim=4, heads=2, seed=36)
    x = np.random.default_rng(37).standard_normal((1, 3, 4)).astype(np.float32)
    x[0, 1, 2] = bad
    params = [w.value.astype(np.float32) for w in (p.w_q, p.w_k, p.w_v, p.w_o)]
    if weights == "100I":
        params = [100.0 * np.eye(4, dtype=np.float32)] * 4
    elif weights == "V only":
        params[0] = params[1] = np.zeros((4, 4), np.float32)
        params[2] = 100.0 * np.eye(4, dtype=np.float32)
    elif weights == "W_o only":
        params[0] = params[1] = np.zeros((4, 4), np.float32)
        params[2] = 1e5 * np.eye(4, dtype=np.float32)
        params[3] = 1e30 * np.eye(4, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="^attention received non-finite values$"):
            nc.attention(x, x, *params, heads=p.heads)


def test_float32_attention_is_within_float32_rounding_of_a_float64_softmax():
    store, p = _params(dim=16, heads=4, seed=38)
    rng = np.random.default_rng(39)
    q_in, kv_in = (rng.standard_normal((3, n, 16)).astype(np.float32) for n in (7, 11))
    weights = [w.value.astype(np.float32) for w in (p.w_q, p.w_k, p.w_v, p.w_o)]
    out = nc.attention(q_in, kv_in, *weights, heads=4).data
    for w, w32 in zip((p.w_q, p.w_k, p.w_v, p.w_o), weights):
        w.value = w32.astype(np.float64)  # the oracle sees the float32 values exactly
    want = oracle_op_chain(q_in.astype(np.float64), kv_in.astype(np.float64), p)
    assert out.dtype == np.float32
    assert np.max(np.abs(out - want)) <= 8 * np.finfo(np.float32).eps * np.max(np.abs(want))


def test_permutation_equivariance_of_self_attention():
    store, p = _params(dim=4, heads=2, seed=9)
    x = np.random.default_rng(10).standard_normal((1, 7, 4))
    perm = np.random.default_rng(11).permutation(7)
    out = self_attention(x, p).data
    out_perm = self_attention(x[:, perm], p).data
    assert np.max(np.abs(out[:, perm] - out_perm)) < 1e-12


def test_single_token_self_attention():
    store, p = _params(dim=4, heads=1, seed=12)
    x = np.random.default_rng(13).standard_normal((1, 1, 4))
    expected = (x @ p.w_v.value) @ p.w_o.value
    assert np.max(np.abs(self_attention(x, p).data - expected)) < 1e-12


def test_shape_errors():
    store, p = _params(dim=4, heads=1)
    with pytest.raises(ShapeError, match=r"got \(1, 2, 6\), \(1, 2, 4\), \(4, 4\)"):
        cross_attention(np.zeros((1, 2, 6)), np.zeros((1, 2, 4)), p)
    with pytest.raises(ShapeError, match=r"got \(1, 2, 4\), \(2, 2, 4\), \(4, 4\)"):
        cross_attention(np.zeros((1, 2, 4)), np.zeros((2, 2, 4)), p)
    with pytest.raises(ShapeError, match=r"got \(\), \(1, 2, 4\), \(4, 4\)"):
        cross_attention(np.float64(0.0), np.zeros((1, 2, 4)), p)
    with pytest.raises(ShapeError, match=r"got \(1, 2, 4\), \(1, 0, 4\), \(4, 4\)"):
        cross_attention(np.zeros((1, 2, 4)), np.zeros((1, 0, 4)), p)
    with pytest.raises(ContractError):
        _params(dim=6, heads=4)


def test_ffn_zero_weights_give_zero_output():
    store = nc.ParamStore()
    p = init_feed_forward(store, "ffn", 4, np.random.default_rng(0))
    p.w_in.value[:] = 0.0
    p.w_out.value[:] = 0.0
    x = np.random.default_rng(1).standard_normal((2, 3, 4))
    assert np.array_equal(feed_forward(x, p).data, np.zeros((2, 3, 4)))


def test_ffn_tokenwise_independence():
    store = nc.ParamStore()
    p = init_feed_forward(store, "ffn", 4, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 5, 4))
    base = feed_forward(x, p).data
    bumped = x.copy()
    bumped[0, 2] += 1.0
    out = feed_forward(bumped, p).data
    changed = np.abs(out - base).max(axis=-1)[0]
    assert changed[2] > 0
    assert np.max(np.delete(changed, 2)) == 0.0


def test_ffn_matches_straight_line_oracle():
    store = nc.ParamStore()
    p = init_feed_forward(store, "ffn", 4, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4))
    out = feed_forward(x, p).data
    from scipy.special import erf

    h = x @ p.w_in.value
    oracle = (h * 0.5 * (1 + erf(h / math.sqrt(2)))) @ p.w_out.value
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_all_three_ops_gradient_check():
    store = nc.ParamStore()
    rng = np.random.default_rng(6)
    attn = init_attention(store, "attn", 4, 2, rng)
    ffn = init_feed_forward(store, "ffn", 4, rng)
    q_in = nc.Tensor(rng.standard_normal((2, 3, 4)))
    kv = nc.Tensor(rng.standard_normal((2, 4, 4)))

    def f():
        a = cross_attention(q_in, kv, attn)
        b = self_attention(kv, attn)
        c = feed_forward(a, ffn)
        return nc.add(
            nc.mean_all(nc.mul(nc.add(b, nc.Tensor(np.zeros((2, 4, 4)))), b)),
            nc.mean_all(nc.mul(c, c)),
        )

    assert nc.grad_check(f, store, eps=1e-5) < 1e-4
