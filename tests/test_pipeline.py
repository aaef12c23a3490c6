import gc
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import physkit
from physkit import numcore as nc
from physkit.aggregator import FeaturePyramid
from physkit.cues import SceneMeta
from physkit.errors import ContractError, ParseError, ShapeError
from physkit.pipeline import (
    ModelConfig,
    Pipeline,
    TrainConfig,
    batch_from_clips,
    build_pipeline,
    load_pipeline,
    mse_loss,
    predict,
    train,
)
from physkit.signals import gen_clip
from physkit.stationarize import init_smoother, smooth

TINY = ModelConfig(
    dim=8,
    heads=2,
    vocab_size=64,
    n_prototypes=8,
    prompt_len=4,
    target_len=8,
    chunk_len=32,
    patch_len=8,
    patch_stride=4,
    level_shapes=((3, 3), (2, 2)),
    lm_layers=1,
)


def _tiny_inputs(batch=1, seed=0, cfg=TINY):
    rng = np.random.default_rng(seed)
    pyr = FeaturePyramid(
        [rng.standard_normal((batch, cfg.chunk_len, h, w)) for h, w in cfg.level_shapes]
    )
    x_enc = rng.standard_normal((batch, cfg.chunk_len))
    scenes = [
        SceneMeta(lighting="normal", motion=bool(i % 2), skin_tone="type-3")
        for i in range(batch)
    ]
    return pyr, x_enc, scenes


def _clips(n, snr=10.0, base_seed=0):
    rng = np.random.default_rng(base_seed)
    return [gen_clip(float(rng.uniform(50, 145)), snr_db=snr, seed=base_seed * 1000 + i) for i in range(n)]


def test_forward_output_length_matches_chunk():
    model = build_pipeline(seed=0)
    clips = _clips(2)
    pyr, x_enc, scenes = batch_from_clips(clips)
    out = model.forward(pyr, x_enc, scenes)
    assert out.shape == (2, 128)


def test_token_budget_is_prompt_plus_two_prototype_blocks():
    model = build_pipeline(seed=0)
    assert model.cfg.n_tokens == 16 + 2 * 64 == 144
    # the positional add enforces the count inside forward: a mismatch
    # between concat output and this table would raise a shape error
    assert model.positions.shape == (144, model.cfg.dim)


def test_forward_is_bit_deterministic():
    clips = _clips(2, base_seed=3)
    pyr, x_enc, scenes = batch_from_clips(clips)
    a = build_pipeline(seed=5).forward(pyr, x_enc, scenes).data
    b = build_pipeline(seed=5).forward(pyr, x_enc, scenes).data
    assert np.array_equal(a, b)


def test_mse_loss_examples():
    assert mse_loss(nc.Tensor([1.0, 2.0]), nc.Tensor([1.0, 2.0])).item() == 0.0
    assert mse_loss(nc.Tensor(np.ones(5)), nc.Tensor(np.zeros(5))).item() == 1.0
    assert mse_loss(nc.Tensor([1.0, 1.0]), nc.Tensor([0.0, 2.0])).item() == 1.0
    with pytest.raises(ShapeError):
        mse_loss(nc.Tensor(np.zeros(3)), nc.Tensor(np.zeros(4)))


def test_loss_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(16)
    b = a + rng.standard_normal(16) * 1e-3
    assert mse_loss(nc.Tensor(a), nc.Tensor(a)).item() == 0.0
    assert mse_loss(nc.Tensor(a), nc.Tensor(b)).item() > 0.0


def test_full_pipeline_gradient_check_at_tiny_dims():
    model = build_pipeline(TINY, seed=1)
    # zero heads/gates would make the check vacuous; move to a generic point
    rng = np.random.default_rng(2)
    model.head.value = rng.standard_normal(model.head.shape) * 0.2
    model.head_skip.value = rng.standard_normal(model.head_skip.shape) * 0.2
    model.aggregator.gate_inner.value = rng.standard_normal(TINY.dim) * 0.5
    model.aggregator.gate_outer.value = rng.standard_normal(TINY.dim) * 0.5
    pyr, x_enc, scenes = _tiny_inputs(batch=1, seed=2)
    target = nc.Tensor(np.random.default_rng(3).standard_normal((1, TINY.chunk_len)))

    def f():
        return mse_loss(model.forward(pyr, x_enc, scenes), target)

    entries = nc.sample_param_entries(model.store, 50, np.random.default_rng(4))
    assert len(entries) >= 50
    assert nc.grad_check(f, model.store, eps=1e-5, entries=entries) < 1e-4


def test_frozen_vocabulary_gets_identically_zero_gradient():
    model = build_pipeline(TINY, seed=5)
    # a zero head would block gradient to everything upstream and make the
    # audit vacuous; randomize it so the graph carries real signal
    rng = np.random.default_rng(6)
    model.head.value = rng.standard_normal(model.head.shape) * 0.1
    pyr, x_enc, scenes = _tiny_inputs(batch=2, seed=6)
    target = nc.Tensor(np.random.default_rng(7).standard_normal((2, TINY.chunk_len)))
    with nc.Tape():
        loss = mse_loss(model.forward(pyr, x_enc, scenes), target)
        nc.backward(loss, model.store)
    assert np.array_equal(model.vocab.param.grad, np.zeros_like(model.vocab.param.value))
    assert np.any(model.probe.grad != 0.0)


def test_forward_rejects_mismatched_batches():
    model = build_pipeline(TINY, seed=8)
    pyr, x_enc, scenes = _tiny_inputs(batch=2, seed=9)
    with pytest.raises(ShapeError):
        model.forward(pyr, x_enc[:1], scenes)
    with pytest.raises(ShapeError):
        model.forward(pyr, x_enc[:, :16], scenes[:2])


def test_train_zero_learning_rate_is_a_noop_on_values():
    clips = _clips(4, base_seed=11)
    model = build_pipeline(seed=0)
    before = {p.name: p.value.copy() for p in model.store}
    cfg = TrainConfig(lr=0.0, steps=3, seed=0)
    model, _ = train(clips, cfg, model=model)
    assert model.store.names() == list(before)
    for p in model.store:
        assert np.array_equal(p.value, before[p.name]), p.name


def test_every_parameter_exists_once_built():
    model = build_pipeline(seed=0)
    names = model.store.names()
    assert "reprog.adapt.len15" in names and "reprog.adapt.len32" in names
    clips = _clips(4, base_seed=15)
    model.forward(*batch_from_clips(clips))
    predict(model, clips)
    train(clips, TrainConfig(steps=2), model=model)
    assert model.store.names() == names


def test_finished_tapes_are_freed_without_a_collection(monkeypatch):
    tapes = []

    class RecordedTape(nc.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(nc, "Tape", RecordedTape)
    # a collection, even one triggered by re-enabling gc, would hide a cycle
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        train(_clips(4, base_seed=16), TrainConfig(steps=3), model=build_pipeline(seed=0))
        alive = [ref() is not None for ref in tapes]
    finally:
        if was_enabled:
            gc.enable()
    assert alive == [False, False, False]


def test_a_train_step_graph_is_freed_before_the_next_forward(monkeypatch):
    inputs, live_at_forward = [], []
    gelu, forward = nc.gelu, Pipeline.forward

    def recorded_gelu(t):
        inputs.append(weakref.ref(t.data))  # gelu's backward closure holds its input
        return gelu(t)

    def recorded_forward(self, *args):
        live_at_forward.append(sum(ref() is not None for ref in inputs))
        return forward(self, *args)

    monkeypatch.setattr(nc, "gelu", recorded_gelu)
    monkeypatch.setattr(Pipeline, "forward", recorded_forward)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        train(_clips(4, base_seed=20), TrainConfig(steps=3), model=build_pipeline(seed=0))
    finally:
        if was_enabled:
            gc.enable()
    assert inputs and live_at_forward == [0, 0, 0]


def test_checkpoint_rebuilds_its_model(tmp_path):
    cfg = replace(TINY, alpha=0.3, level=2)
    model = build_pipeline(cfg, seed=7)
    model.head.value = np.random.default_rng(9).standard_normal(model.head.shape)
    path = tmp_path / "ckpt.txt"
    model.store.save(path)
    loaded = load_pipeline(path)
    assert loaded.cfg == cfg
    pyr, x_enc, scenes = _tiny_inputs(batch=2, seed=8)
    assert np.array_equal(loaded.forward(pyr, x_enc, scenes).data, model.forward(pyr, x_enc, scenes).data)


def test_checkpoint_refuses_another_model_config(tmp_path):
    path = tmp_path / "ckpt.txt"
    build_pipeline(replace(TINY, alpha=0.3), seed=0).store.save(path)
    with pytest.raises(ContractError, match="alpha is 0.3 there, 0.8 here") as err:
        build_pipeline(TINY, seed=0).store.load_into(path)
    assert "level" not in str(err.value)
    # the earlier format: a bare magic line, no config
    _magic, _config, records = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"physkit-paramstore 1\n" + records)
    with pytest.raises(ParseError):
        load_pipeline(path)


def test_checkpoint_with_an_older_header_is_refused(tmp_path):
    # checkpoints saved while the model gains were config keys carry them in the header
    path = tmp_path / "ckpt.txt"
    build_pipeline(TINY, seed=0).store.save(path)
    magic, config, records = path.read_bytes().split(b"\n", 2)
    config = json.dumps({**json.loads(config), "patch_gain": 2.0}, sort_keys=True).encode()
    path.write_bytes(b"\n".join([magic, config, records]))
    with pytest.raises(ParseError, match="line 2: header is not a model config.*patch_gain"):
        load_pipeline(path)
    with pytest.raises(ContractError, match="patch_gain is 2.0 there, None here"):
        build_pipeline(TINY, seed=0).store.load_into(path)


def test_stage_prefixes_a_visual_token_error_once():
    model = build_pipeline(TINY, seed=0)
    _, x_enc, scenes = _tiny_inputs()
    rng = np.random.default_rng(1)
    shapes = (TINY.level_shapes[0], (4, 4))  # level 1 is registered as (2, 2)
    pyr = FeaturePyramid([rng.standard_normal((1, TINY.chunk_len, h, w)) for h, w in shapes])
    with pytest.raises(ShapeError) as err:
        model.forward(pyr, x_enc, scenes)
    assert str(err.value) == "[visual tokens] level 1 expects spatial (2, 2), got (4, 4)"


def test_train_same_seed_gives_identical_loss_curves():
    clips = _clips(6, base_seed=12)
    cfg = TrainConfig(steps=4, seed=9)
    _, log_a = train(clips, cfg, model=build_pipeline(seed=2))
    _, log_b = train(clips, cfg, model=build_pipeline(seed=2))
    assert log_a.losses == log_b.losses
    assert len(log_a.losses) == 4


@pytest.mark.parametrize(
    "change, named",
    [
        ({"heads": 0}, "heads"),
        ({"lm_layers": -1}, "lm_layers"),
        ({"patch_stride": 32}, "patch_stride <= patch_len"),
        ({"patch_len": 256}, "patch_len <= chunk_len"),
        ({"dim": "64"}, "dim must be an integer, got '64'"),
        ({"dim": 64.0}, "dim must be an integer"),
        ({"lm_layers": True}, "lm_layers must be an integer"),
        ({"alpha": "0.8"}, "alpha must be a finite real"),
        ({"alpha": float("nan")}, "alpha must be a finite real"),
        ({"alpha": False}, "alpha must be a finite real"),
        ({"wavelet": 3}, "wavelet must be a string"),
        ({"level_shapes": ((8,),)}, "level_shapes must be a non-empty sequence"),
        ({"level_shapes": ()}, "level_shapes must be a non-empty sequence"),
        ({"level_shapes": ((8, 0), (4, 4))}, "level_shapes must be"),
        ({"level_shapes": ((8, 8.0), (4, 4))}, "level_shapes must be"),
        ({"level_shapes": "ab"}, "level_shapes must be"),
    ],
)
def test_model_config_refuses_bad_sizes(change, named):
    with pytest.raises(ContractError, match=named):
        ModelConfig(**change)
    assert ModelConfig(lm_layers=0).lm_layers == 0


def test_model_config_takes_numpy_integers_as_python_ints():
    cfg = replace(TINY, dim=np.int64(8), level_shapes=np.array([[3, 3], [2, 2]]))
    assert cfg == TINY and type(cfg.dim) is int
    assert build_pipeline(cfg, seed=0).store.config == build_pipeline(TINY, seed=0).store.config


@pytest.mark.parametrize("field, value", [("dim", "8"), ("alpha", "0.8"), ("level_shapes", [[3]])])
def test_load_pipeline_refuses_a_header_field_of_the_wrong_type(tmp_path, field, value):
    path = tmp_path / "ckpt.txt"
    build_pipeline(TINY, seed=0).store.save(path)
    magic, config, records = path.read_bytes().split(b"\n", 2)
    config = json.dumps({**json.loads(config), field: value}, sort_keys=True).encode()
    path.write_bytes(b"\n".join([magic, config, records]))
    with pytest.raises(ParseError, match=f"line 2: header is not a model config: model config {field}"):
        load_pipeline(path)


def test_train_refuses_short_eval_clips_before_the_first_step(monkeypatch):
    # estimate_hr needs 4 s (120 samples at 30 Hz) of each eval prediction
    clips = [gen_clip(70.0, n_samples=64, seed=i) for i in range(2)]
    model = build_pipeline(replace(ModelConfig(), chunk_len=64), seed=0)
    monkeypatch.setattr(nc, "adam_step", lambda *a, **k: pytest.fail("adam_step ran"))
    with pytest.raises(ContractError, match=r"need at least 4 s of samples \(120\), got 64"):
        train(clips, TrainConfig(steps=30), model=model, eval_clips=clips)


def test_train_refuses_eval_clips_of_another_length_before_the_first_step(monkeypatch):
    clips = [gen_clip(70.0, n_samples=128, seed=i) for i in range(2)]
    eval_clips = clips + [gen_clip(70.0, n_samples=200, seed=9)]
    monkeypatch.setattr(nc, "adam_step", lambda *a, **k: pytest.fail("adam_step ran"))
    with pytest.raises(ShapeError, match=r"eval clip 2 \(seed 9\) has 200 samples, .*chunk_len=128"):
        train(clips, TrainConfig(steps=5), eval_clips=eval_clips)


def test_train_rejects_empty_dataset():
    with pytest.raises(ContractError):
        train([], TrainConfig(steps=1))


def test_train_config_validation():
    refused = [
        ({"batch_size": 0}, "train config batch_size must be at least 1, got 0"),
        ({"batch_size": 2.5}, "train config batch_size must be an integer, got 2.5"),
        ({"batch_size": True}, "train config batch_size must be an integer, got True"),
        ({"steps": 3.7}, "train config steps must be an integer, got 3.7"),
        ({"seed": -1}, "train config seed must be at least 0, got -1"),
        ({"lr": -1e-4}, "train config lr must be a finite real >= 0, got -0.0001"),
        ({"lr": "x"}, "train config lr must be a finite real >= 0, got 'x'"),
        ({"weight_decay": math.inf}, "train config weight_decay must be a finite real >= 0, got inf"),
    ]
    for kwargs, text in refused:
        with pytest.raises(ContractError) as err:
            TrainConfig(**kwargs)
        assert str(err.value) == text
    cfg = TrainConfig(lr=1, batch_size=np.int64(2))
    assert type(cfg.lr) is float and type(cfg.batch_size) is int


def test_predict_refuses_a_batch_size_that_is_not_a_positive_integer():
    model, clips = build_pipeline(seed=0), _clips(1, base_seed=21)
    for bad in (0, -2, 2.0, True):
        with pytest.raises(ContractError) as err:
            predict(model, clips, batch_size=bad)
        assert str(err.value) == f"predict batch_size must be a positive integer, got {bad!r}"


def test_predict_returns_one_waveform_per_clip():
    clips = _clips(5, base_seed=13)
    model = build_pipeline(seed=3)
    preds = predict(model, clips, batch_size=2)
    assert len(preds) == 5
    assert all(p.shape == (128,) for p in preds)


def test_initial_loss_equals_target_power_with_zero_heads():
    # both head matrices start at zero, so the first prediction is flat zero
    clips = _clips(4, base_seed=14)
    model = build_pipeline(seed=4)
    pyr, x_enc, scenes = batch_from_clips(clips)
    target = np.stack([c.bvp for c in clips])
    loss = mse_loss(model.forward(pyr, x_enc, scenes), nc.Tensor(target)).item()
    # the model computes in float32: the target's power at that dtype
    target = target.astype(model.store.dtype)
    assert loss == pytest.approx(float(np.mean(target**2)), rel=1e-12)


def _generic_point(model, seed):
    """Nonzero heads and gates, so gradient reaches every parameter."""
    rng = np.random.default_rng(seed)
    for p, s in ((model.head, 0.2), (model.head_skip, 0.2), (model.aggregator.gate_inner, 0.5),
                 (model.aggregator.gate_outer, 0.5)):
        p.value = rng.standard_normal(p.shape) * s


def test_float32_gradients_match_the_float64_image_on_the_default_model():
    model = build_pipeline(seed=0)
    _generic_point(model, seed=1)
    clips = _clips(4, base_seed=17)
    batch = batch_from_clips(clips)
    target = nc.Tensor(np.stack([c.bvp for c in clips]))

    def grads():
        with nc.Tape():
            nc.backward(mse_loss(model.forward(*batch), target), model.store)
        return {p.name: p.grad.astype(np.float64) for p in model.store.trainable()}

    with model.store.float64_image():
        exact = grads()
    single = grads()
    for name, g in exact.items():
        norm = np.linalg.norm(g)
        assert norm > 0.0, name
        assert np.linalg.norm(single[name] - g) <= 1e-4 * norm, name


def test_the_model_dtype_sticks(tmp_path):
    clips = _clips(4, base_seed=18)
    model, _ = train(clips, TrainConfig(steps=2), model=build_pipeline(seed=0))
    for p in model.store:
        assert p.value.dtype == p.grad.dtype == np.float32, p.name
        if p.trainable:
            assert p.m.dtype == p.v.dtype == np.float32, p.name
    pyr, x_enc, scenes = batch_from_clips(clips)
    assert pyr.levels[0].dtype == np.float32 and x_enc.dtype == np.float64
    assert model.forward(pyr, x_enc, scenes).data.dtype == np.float32
    before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
    model.store.save(before)
    model.head.value = model.head.value.astype(np.float64)
    model.store.save(after)
    assert after.read_bytes() == before.read_bytes()
    # a bare store, as `physkit dds` builds it, stays in float64
    smoother = init_smoother(nc.ParamStore())
    z, trace = smooth(clips[0].x_enc, smoother)
    assert z.data.dtype == trace.z_time.dtype == trace.z_fre.dtype == np.float64
    assert smoother.blend_raw.value.dtype == np.float64


def test_every_op_of_a_float32_train_step_computes_in_float32(monkeypatch):
    dtypes = set()
    emit = nc._emit

    def spy(out, op, inputs, grad_fn):
        dtypes.add((op, out.dtype.name))

        def checked(g):
            grads = grad_fn(g)
            dtypes.update(("d " + op, d.dtype.name) for d in grads if d is not None)
            return grads

        return emit(out, op, inputs, checked)

    monkeypatch.setattr(nc, "_emit", spy)
    train(_clips(4, base_seed=19), TrainConfig(steps=1), model=build_pipeline(seed=0))
    ops = {op for op, _ in dtypes}
    assert {"matmul", "d matmul", "softmax_rows", "gelu", "d patches_1d", "attention", "d attention"} <= ops
    assert {d for _, d in dtypes} == {"float32"}, sorted(dtypes)


def test_a_float64_checkpoint_is_refused_naming_the_parameter(tmp_path):
    model = build_pipeline(TINY, seed=0)
    path = tmp_path / "old.ckpt"
    with model.store.float64_image():  # the records of a checkpoint saved before float32 models
        model.store.save(path)
    with pytest.raises(ShapeError, match=r"checkpoint float64 .* != live float32 .* for 'vocab.embedding'"):
        load_pipeline(path)
    live = build_pipeline(TINY, seed=1)
    before = {p.name: p.value.copy() for p in live.store}
    with pytest.raises(ShapeError, match="float64"):
        live.store.load_into(path)
    for p in live.store:
        assert p.value.dtype == np.float32 and np.array_equal(p.value, before[p.name]), p.name


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(physkit.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_building_training_and_predicting_load_no_scipy_module():
    code = (
        "import sys, physkit\n"
        "from physkit.pipeline import TrainConfig, build_pipeline, predict, train\n"
        "from physkit.signals import gen_clip\n"
        "clips = [gen_clip(60.0 + 10.0 * i, seed=i) for i in range(4)]\n"
        "model, _ = train(clips, TrainConfig(steps=1), model=build_pipeline())\n"
        "predict(model, clips[:2])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(code) == "[]"


def test_the_float64_audit_imports_scipy_on_demand_and_passes():
    code = (
        "import sys\n"
        "from physkit.cli import main\n"
        "assert 'scipy' not in sys.modules\n"
        "code = main(['gradcheck', '--seed', '0'])\n"
        "print(code, 'scipy.special' in sys.modules)"
    )
    assert _run_python(code).splitlines()[-1] == "0 True"
