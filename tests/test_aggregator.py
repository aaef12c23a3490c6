import numpy as np
import pytest

from physkit import numcore as nc
from physkit.aggregator import FeaturePyramid, aggregate, init_aggregator, project_level
from physkit.attention import cross_attention, self_attention
from physkit.errors import ContractError, ShapeError

SHAPES = ((4, 4), (3, 3), (2, 2))


def _setup(seed=0, chunk=16, target=8, dim=8, heads=2, shapes=SHAPES, store=None):
    store = store if store is not None else nc.ParamStore()
    rng = np.random.default_rng(seed)
    params = init_aggregator(store, "va", shapes, chunk, target, dim, heads, rng)
    return store, params


def _pyramid(seed, batch=2, chunk=16, shapes=SHAPES):
    rng = np.random.default_rng(seed)
    return FeaturePyramid([rng.standard_normal((batch, chunk, h, w)) for h, w in shapes])


def test_project_zero_input_gives_zero_tokens():
    _, p = _setup()
    out = project_level(np.zeros((2, 16, 4, 4)), p, level=0)
    assert np.array_equal(out.data, np.zeros((2, 8, 8)))


def test_project_compresses_time_to_target():
    _, p = _setup(chunk=128, target=32)
    out = project_level(np.random.default_rng(1).standard_normal((1, 128, 3, 3)), p, level=1)
    assert out.shape == (1, 32, 8)


def test_project_linearity():
    _, p = _setup()
    f = np.random.default_rng(4).standard_normal((1, 16, 3, 3))
    one = project_level(f, p, level=1).data
    scaled = project_level(2.5 * f, p, level=1).data
    assert np.max(np.abs(scaled - 2.5 * one)) < 1e-12


def test_project_rejects_unregistered_shape():
    _, p = _setup()
    with pytest.raises(ShapeError, match=r"level 0 expects spatial \(4, 4\), got \(5, 5\)"):
        project_level(np.zeros((1, 16, 5, 5)), p, level=0)
    with pytest.raises(ShapeError, match="12 frames"):
        project_level(np.zeros((1, 12, 4, 4)), p, level=0)


@pytest.mark.parametrize("level", [3, -1])
def test_project_rejects_a_level_out_of_range(level):
    _, p = _setup()
    with pytest.raises(ShapeError, match=rf"level {level} is out of range: aggregator registered 3 levels"):
        project_level(np.zeros((1, 16, 2, 2)), p, level=level)


def test_zero_outer_gate_is_identity_on_deep_level():
    _, p = _setup(seed=5)
    pyr = _pyramid(6)
    fused = aggregate(pyr, p).data
    deep = project_level(pyr.levels[-1], p, level=2).data
    assert np.array_equal(fused, deep)


def test_gate_algebra_outer_one_inner_zero():
    store, p = _setup(seed=7)
    p.gate_outer.value = np.ones(8)
    pyr = _pyramid(8)
    fused = aggregate(pyr, p).data
    projected = [project_level(f, p, level=i) for i, f in enumerate(pyr.levels)]
    deep = projected[-1]
    shallow = nc.concat(projected[:-1], axis=1)
    crossed = cross_attention(deep, shallow, p.cross)
    assert np.max(np.abs(fused - (deep.data + crossed.data))) < 1e-15


def test_aggregate_matches_oracle_composition():
    # straight-line recomposition of the three attention calls and gates
    store, p = _setup(seed=9)
    rng = np.random.default_rng(10)
    p.gate_inner.value = rng.standard_normal(8) * 0.5
    p.gate_outer.value = rng.standard_normal(8) * 0.5
    pyr = _pyramid(11, batch=1)
    fused = aggregate(pyr, p).data

    projected = [project_level(f, p, level=i).data for i, f in enumerate(pyr.levels)]
    deep = nc.Tensor(projected[-1])
    shallow = nc.Tensor(np.concatenate(projected[:-1], axis=1))
    crossed = cross_attention(deep, shallow, p.cross)
    refined = self_attention(crossed, p.self_attn)
    oracle = projected[-1] + p.gate_outer.value * (
        crossed.data + p.gate_inner.value * refined.data
    )
    assert np.max(np.abs(fused - oracle)) < 1e-12


def test_output_shape_fixed_regardless_of_spatial_sizes():
    shapes = ((7, 5), (2, 9), (3, 3))
    store = nc.ParamStore()
    rng = np.random.default_rng(12)
    p = init_aggregator(store, "va", shapes, 16, 8, 8, 2, rng)
    pyr = _pyramid(13, shapes=shapes)
    assert aggregate(pyr, p).shape == (2, 8, 8)


def test_gradients_flow_to_gates_projections_and_attention():
    store, p = _setup(seed=14)
    rng = np.random.default_rng(15)
    p.gate_inner.value = rng.standard_normal(8) * 0.3
    p.gate_outer.value = rng.standard_normal(8) * 0.3
    pyr = _pyramid(16, batch=1)

    def f():
        out = aggregate(pyr, p)
        return nc.mean_all(nc.mul(out, out))

    entries = nc.sample_param_entries(store, 60, np.random.default_rng(17))
    assert nc.grad_check(f, store, eps=1e-5, entries=entries) < 1e-4
    # every module parameter actually receives signal at a generic point
    with nc.Tape():
        nc.backward(f(), store)
    for name in ("va.gate_inner", "va.gate_outer", "va.spatial0", "va.temporal", "va.cross.w_q"):
        assert np.any(store[name].grad != 0.0), name


def test_aggregate_rejects_shallow_pyramids():
    store = nc.ParamStore()
    rng = np.random.default_rng(18)
    with pytest.raises(ContractError):
        init_aggregator(store, "va", ((4, 4),), 16, 8, 8, 2, rng)
    _, p = _setup(seed=19)
    with pytest.raises(ContractError):
        aggregate(FeaturePyramid([np.zeros((1, 16, 4, 4))]), p)


def test_pyramid_validates_consistency():
    with pytest.raises(ShapeError):
        FeaturePyramid([np.zeros((1, 16, 4, 4)), np.zeros((2, 16, 3, 3))])
    with pytest.raises(ShapeError):
        FeaturePyramid([np.zeros((1, 16, 4))])


def test_a_float64_aggregator_reads_a_float32_pyramid_in_float64():
    _, p = _setup()
    pyr64 = _pyramid(24)
    pyr32 = FeaturePyramid([f.astype(np.float32) for f in pyr64.levels])
    p.gate_inner.value[:] = p.gate_outer.value[:] = 0.5
    out = aggregate(pyr32, p).data
    assert out.dtype == np.float64
    cast_up = FeaturePyramid([f.astype(np.float64) for f in pyr32.levels])
    assert np.array_equal(out, aggregate(cast_up, p).data)
