import math

import numpy as np
import pytest

from physkit import numcore as nc
from physkit.cues import (
    CUE_KINDS,
    TASK_CAPTION,
    SceneMeta,
    StatSummary,
    compress,
    fuse_cues,
    init_compressor,
    init_fusion,
    signal_stats,
    stats_caption,
    tokenize,
    vision_caption,
)
from physkit.errors import ContractError, ShapeError

# ---------------------------------------------------------------------------
# brute-force oracle: naive loops, no numpy vectorization
# ---------------------------------------------------------------------------


def oracle_stats(x):
    xs = [float(v) for v in x]
    n = len(xs)
    lo, hi = min(xs), max(xs)
    ordered = sorted(xs)
    if n % 2:
        med = ordered[n // 2]
    else:
        med = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    trend = sum(xs[i] - xs[i - 1] for i in range(1, n))
    direction = (trend > 0) - (trend < 0)
    mean = sum(xs) / n
    centered = [v - mean for v in xs]
    denom = sum(c * c for c in centered)
    rs = []
    for lag in range(1, n // 2 + 1):
        num = sum(centered[i] * centered[i + lag] for i in range(n - lag))
        rs.append(num / denom if denom else 0.0)
    ranked = sorted(range(len(rs)), key=lambda i: (-abs(rs[i]), i))
    top = [i + 1 for i in ranked[:5]]
    return lo, hi, med, trend, direction, top, rs


def test_simple_increasing_sequence():
    s = signal_stats([1.0, 2.0, 3.0, 4.0])
    assert (s.minimum, s.maximum, s.median) == (1.0, 4.0, 2.5)
    assert s.trend == 3.0 and s.direction == 1


def test_strictly_decreasing_direction():
    s = signal_stats(np.linspace(5.0, 1.0, 16))
    assert s.direction == -1


def test_trend_telescopes_to_endpoint_difference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(4, 200))
        s = signal_stats(x)
        assert abs(s.trend - (x[-1] - x[0])) < 1e-12
        assert s.direction == int(np.sign(s.trend))


def test_sinusoid_period_appears_in_top_lags():
    t = np.arange(512)
    x = np.sin(2 * np.pi * t / 25.0)
    s = signal_stats(x)
    assert set(s.top_lags) & {25, 50, 75, 100, 125}


def test_matches_brute_force_oracle_on_random_sequences():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(8, 48))
        x = rng.standard_normal(n)
        s = signal_stats(x)
        lo, hi, med, trend, direction, top, rs = oracle_stats(x)
        assert s.minimum == lo and s.maximum == hi and s.median == med
        assert abs(s.trend - trend) < 1e-12
        assert s.direction == direction
        for got, want in zip(s.top_lags, top):
            # rankings may swap only where magnitudes tie within 1e-9
            assert got == want or abs(abs(rs[got - 1]) - abs(rs[want - 1])) < 1e-9


def test_short_lag_range_returns_fewer_lags():
    s = signal_stats([3.0, 1.0, 4.0, 1.0])
    assert len(s.top_lags) == 2
    assert all(1 <= l <= 2 for l in s.top_lags)


def test_signal_stats_rejects_short_input():
    with pytest.raises(ContractError):
        signal_stats([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# captions and tokenizer
# ---------------------------------------------------------------------------


def test_task_caption_is_byte_identical_constant():
    assert isinstance(TASK_CAPTION, str) and TASK_CAPTION.startswith("Task: ")
    import physkit

    assert physkit.TASK_CAPTION is TASK_CAPTION
    assert tokenize(TASK_CAPTION, 1024) == tokenize(TASK_CAPTION, 1024)


def test_captions_are_deterministic():
    s = signal_stats(np.sin(np.arange(64.0)))
    assert stats_caption(s) == stats_caption(s)
    scene = SceneMeta(lighting="dim", motion=True, skin_tone="type-4")
    assert vision_caption(scene) == vision_caption(scene)


def test_stats_caption_renders_three_decimals():
    s = StatSummary(
        minimum=0.123456, maximum=1.0, median=0.5, trend=-0.25, direction=-1, top_lags=(1, 2)
    )
    text = stats_caption(s)
    assert "0.123" in text and "0.1234" not in text


def test_tokenize_deterministic_and_in_range():
    ids1 = tokenize("HR task", 1024)
    ids2 = tokenize("HR task", 1024)
    assert ids1 == ids2
    rng = np.random.default_rng(2)
    alphabet = "abcdefghij0123456789 .,"
    for _ in range(1000):
        chars = rng.integers(0, len(alphabet), size=rng.integers(1, 30))
        text = "".join(alphabet[c] for c in chars)
        if not any(ch.isalnum() for ch in text):
            continue
        assert all(0 <= i < 257 for i in tokenize(text, 257))


def test_tokenize_piece_count():
    assert len(tokenize("a b, c", 64)) == 3


def test_tokenize_rejects_empty_text():
    with pytest.raises(ContractError):
        tokenize("", 64)
    with pytest.raises(ContractError):
        tokenize("...!!!", 64)


# ---------------------------------------------------------------------------
# compression and fusion
# ---------------------------------------------------------------------------


def _compressor(prompt_len=4, dim=8, seed=0, store=None):
    store = store if store is not None else nc.ParamStore()
    return store, init_compressor(store, "comp", prompt_len, dim, np.random.default_rng(seed))


def test_single_token_passes_through_value_projection():
    store, p = _compressor(seed=3)
    token = np.random.default_rng(4).standard_normal((2, 1, 8))
    out = compress(token, p).data
    expected = token @ p.w_v.value  # softmax over one key is 1, no out projection
    assert np.max(np.abs(out - np.repeat(expected, 4, axis=1))) < 1e-12


@pytest.mark.parametrize("n", [1, 7, 300])
def test_output_token_count_is_prompt_len(n):
    store, p = _compressor(seed=5)
    x = np.random.default_rng(n).standard_normal((2, n, 8))
    assert compress(x, p).shape == (2, 4, 8)


def test_compress_matches_attention_oracle():
    store, p = _compressor(seed=6)
    x = np.random.default_rng(7).standard_normal((1, 5, 8))
    out = compress(x, p).data
    q = p.queries.value @ p.w_q.value
    k = x[0] @ p.w_k.value
    v = x[0] @ p.w_v.value
    scores = q @ k.T / math.sqrt(8)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    assert np.max(np.abs(out[0] - w @ v)) < 1e-12


def test_fuse_uniform_weights_average_streams():
    store = nc.ParamStore()
    w = init_fusion(store, "fuse", 4, 8)
    rng = np.random.default_rng(8)
    a, b, c = (rng.standard_normal((2, 4, 8)) for _ in range(3))
    out = fuse_cues({"task": a, "vision": b, "stats": c}, w).data
    assert np.max(np.abs(out - (a + b + c) / 3.0)) < 1e-12


def test_fuse_masking_keeps_single_stream():
    store = nc.ParamStore()
    w = init_fusion(store, "fuse", 4, 8)
    w["task"].value = np.full((4, 8), 0.7)
    w["vision"].value = np.zeros((4, 8))
    w["stats"].value = np.zeros((4, 8))
    rng = np.random.default_rng(9)
    a, b, c = (rng.standard_normal((1, 4, 8)) for _ in range(3))
    out = fuse_cues({"task": a, "vision": b, "stats": c}, w).data
    assert np.max(np.abs(out - 0.7 * a)) < 1e-15


def test_fuse_matches_elementwise_oracle():
    store = nc.ParamStore()
    w = init_fusion(store, "fuse", 3, 4)
    rng = np.random.default_rng(10)
    w["task"].value, w["vision"].value, w["stats"].value = (
        rng.standard_normal((3, 4)) for _ in range(3)
    )
    a, b, c = (rng.standard_normal((2, 3, 4)) for _ in range(3))
    oracle = w["task"].value * a + w["vision"].value * b + w["stats"].value * c
    assert np.max(np.abs(fuse_cues({"task": a, "vision": b, "stats": c}, w).data - oracle)) < 1e-12


def test_fuse_shape_errors():
    store = nc.ParamStore()
    w = init_fusion(store, "fuse", 4, 8)
    with pytest.raises(ShapeError):
        fuse_cues({kind: np.zeros((1, n, 8)) for kind, n in zip(CUE_KINDS, (4, 3, 4))}, w)
    with pytest.raises(ShapeError):
        fuse_cues({kind: np.zeros((1, 5, 8)) for kind in CUE_KINDS}, w)


def test_compress_and_fuse_gradient_check():
    store = nc.ParamStore()
    rng = np.random.default_rng(11)
    comps = [init_compressor(store, f"comp.{k}", 3, 4, rng) for k in CUE_KINDS]
    w = init_fusion(store, "fuse", 3, 4)
    xs = [nc.Tensor(rng.standard_normal((1, n, 4))) for n in (2, 5, 3)]

    def f():
        streams = {k: compress(x, c) for k, x, c in zip(CUE_KINDS, xs, comps)}
        out = fuse_cues(streams, w)
        return nc.mean_all(nc.mul(out, out))

    entries = nc.sample_param_entries(store, 60, np.random.default_rng(12))
    assert nc.grad_check(f, store, eps=1e-5, entries=entries) < 1e-4
