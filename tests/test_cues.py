import math

import numpy as np
import pytest

from physkit import numcore as nc
from physkit.cues import (
    CUE_KINDS,
    LIGHTING,
    SKIN_TONES,
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
from physkit.errors import ContractError, NumericError, ShapeError

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


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 64, 128])
def test_batched_stats_equal_the_per_row_ones_and_the_oracle(n):
    rng = np.random.default_rng(n)
    rows = np.concatenate([
        rng.standard_normal((20, n)) * rng.uniform(0.01, 100.0, (20, 1)),
        np.full((1, n), 2.5),  # constant: every autocorrelation is 0, so lags 1, 2, ...
        np.where(np.arange(n) % 2, -1.0, 1.0)[None],  # alternating, exact in float64
    ])
    got = signal_stats(rows)
    assert got == [signal_stats(row) for row in rows]
    for s, row in zip(got, rows):
        lo, hi, med, trend, direction, top, rs = oracle_stats(row)
        assert (s.minimum, s.maximum, s.median, s.direction) == (lo, hi, med, direction)
        assert abs(s.trend - trend) <= 1e-12 * max(1.0, abs(trend))
        for lag, want in zip(s.top_lags, top):
            # rankings may swap only where magnitudes tie within 1e-9
            assert lag == want or abs(abs(rs[lag - 1]) - abs(rs[want - 1])) < 1e-9
    assert got[-2].top_lags == tuple(range(1, min(5, n // 2) + 1))


def test_lags_that_tie_exactly_go_to_the_smaller_lag():
    # period 4: r(1) = r(3) = r(5) = r(7) = 0 exactly; |r(2)| > |r(4)| > |r(6)|
    x = np.tile([1.0, 0.0, -1.0, 0.0], 4)
    assert signal_stats(x[None])[0].top_lags == (2, 4, 6, 8, 1)
    assert tuple(oracle_stats(x)[5]) == (2, 4, 6, 8, 1)


def test_signal_stats_rejects_short_input():
    with pytest.raises(ContractError):
        signal_stats([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape, row", [((16,), 0), ((3, 16), 1)], ids=["series", "row1-of-3"])
def test_signal_stats_names_a_non_finite_row_without_warning(bad, shape, row):
    x = np.sin(np.arange(np.prod(shape), dtype=np.float64)).reshape(shape)
    x.reshape(-1, 16)[row, 5] = bad  # a view of x
    with pytest.raises(NumericError, match=rf"^signal_stats received non-finite values in row {row}$"):
        signal_stats(x)


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


def test_every_scene_of_the_vocabulary_captions_to_one_token_count():
    scenes = [SceneMeta(l, m, s) for l in LIGHTING for m in (False, True) for s in SKIN_TONES]
    assert len({len(tokenize(vision_caption(scene), 1024)) for scene in scenes}) == 1


@pytest.mark.parametrize(
    "change, named",
    [
        ({"lighting": "very dim"}, "lighting must be one of dim, normal, bright, got 'very dim'"),
        ({"skin_tone": "type-9"}, "skin_tone must be one of type-1, .*, type-6, got 'type-9'"),
        ({"skin_tone": None}, "skin_tone must be one of"),
        ({"motion": 1}, "motion must be a bool, got 1"),
        ({"motion": "false"}, "motion must be a bool"),
    ],
)
def test_scene_meta_refuses_a_label_outside_the_vocabulary(change, named):
    with pytest.raises(ContractError, match=named):
        SceneMeta(**{"lighting": "dim", "motion": False, "skin_tone": "type-2", **change})


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


def test_tokenize_memo_is_bounded_and_changes_no_id():
    from physkit.cues import _fnv1a64

    text = " ".join(str(i) for i in range(6000))
    assert tokenize(text, 1000) == tuple(_fnv1a64.__wrapped__(str(i)) % 1000 for i in range(6000))
    info = _fnv1a64.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


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


@pytest.mark.parametrize("shape", [(2, 0, 8), (2, 3, 6), (3, 8), ()])
def test_compress_refuses_a_bad_token_shape_through_the_attention_op(shape):
    store, p = _compressor()
    with pytest.raises(ShapeError, match="attention needs"):
        compress(np.zeros(shape), p)


def test_compress_records_one_attention_node_after_one_broadcast_add():
    store, p = _compressor(seed=8)
    with nc.Tape() as tape:
        compress(np.random.default_rng(9).standard_normal((3, 5, 8)), p)
    assert [node.op for node in tape._nodes] == ["add", "attention"]


def test_fuse_uniform_weights_average_streams():
    store = nc.ParamStore()
    w = init_fusion(store, 4, 8)
    rng = np.random.default_rng(8)
    a, b, c = (rng.standard_normal((2, 4, 8)) for _ in range(3))
    out = fuse_cues({"task": a, "vision": b, "stats": c}, w).data
    assert np.max(np.abs(out - (a + b + c) / 3.0)) < 1e-12


def test_fuse_masking_keeps_single_stream():
    store = nc.ParamStore()
    w = init_fusion(store, 4, 8)
    w["task"].value = np.full((4, 8), 0.7)
    w["vision"].value = np.zeros((4, 8))
    w["stats"].value = np.zeros((4, 8))
    rng = np.random.default_rng(9)
    a, b, c = (rng.standard_normal((1, 4, 8)) for _ in range(3))
    out = fuse_cues({"task": a, "vision": b, "stats": c}, w).data
    assert np.max(np.abs(out - 0.7 * a)) < 1e-15


def test_fuse_matches_elementwise_oracle():
    store = nc.ParamStore()
    w = init_fusion(store, 3, 4)
    rng = np.random.default_rng(10)
    w["task"].value, w["vision"].value, w["stats"].value = (
        rng.standard_normal((3, 4)) for _ in range(3)
    )
    a, b, c = (rng.standard_normal((2, 3, 4)) for _ in range(3))
    oracle = w["task"].value * a + w["vision"].value * b + w["stats"].value * c
    assert np.max(np.abs(fuse_cues({"task": a, "vision": b, "stats": c}, w).data - oracle)) < 1e-12


def test_fuse_shape_errors():
    store = nc.ParamStore()
    w = init_fusion(store, 4, 8)
    with pytest.raises(ShapeError):
        fuse_cues({kind: np.zeros((1, n, 8)) for kind, n in zip(CUE_KINDS, (4, 3, 4))}, w)
    with pytest.raises(ShapeError):
        fuse_cues({kind: np.zeros((1, 5, 8)) for kind in CUE_KINDS}, w)


def test_compress_and_fuse_gradient_check():
    store = nc.ParamStore()
    rng = np.random.default_rng(11)
    comps = [init_compressor(store, f"comp.{k}", 3, 4, rng) for k in CUE_KINDS]
    w = init_fusion(store, 3, 4)
    xs = [nc.Tensor(rng.standard_normal((1, n, 4))) for n in (2, 5, 3)]

    def f():
        streams = {k: compress(x, c) for k, x, c in zip(CUE_KINDS, xs, comps)}
        out = fuse_cues(streams, w)
        return nc.mean_all(nc.mul(out, out))

    entries = nc.sample_param_entries(store.trainable(), 60, np.random.default_rng(12))
    assert nc.grad_check(f, store, eps=1e-5, entries=entries) < 1e-4
