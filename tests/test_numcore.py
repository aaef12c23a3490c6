import math
import warnings
import weakref

import numpy as np
import pytest

from physkit import numcore as nc
from physkit.errors import ContractError, NumericError, ParseError, ShapeError
from physkit.pipeline import batch_from_clips, build_pipeline, mse_loss
from physkit.signals import gen_clip


def test_matmul_identity():
    out = nc.matmul(np.eye(2), [[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_inner_product():
    out = nc.matmul([[1.0, 2.0]], [[3.0], [4.0]])
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        nc.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    assert "(2, 3)" in str(err.value)


def test_matmul_associativity_on_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(4):
        a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
        left = nc.matmul(nc.matmul(a, b), c).data
        right = nc.matmul(a, nc.matmul(b, c)).data
        assert np.max(np.abs(left - right)) < 1e-9


def test_softmax_symmetry_and_stability():
    assert np.allclose(nc.softmax_rows([[0.0, 0.0]]).data, [[0.5, 0.5]], atol=1e-15)
    assert np.allclose(nc.softmax_rows([[1000.0, 1000.0]]).data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_hand_value():
    # exp/normalize of [ln 1, ln 3] is [1, 3]/4
    out = nc.softmax_rows([[math.log(1.0), math.log(3.0)]]).data
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7)) * 10
    s = nc.softmax_rows(x).data
    assert np.max(np.abs(s.sum(axis=-1) - 1.0)) < 1e-12
    shifted = nc.softmax_rows(x + 123.456).data
    assert np.max(np.abs(s - shifted)) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        nc.softmax_rows([[0.0, np.inf]])


def test_backward_sum_gives_ones():
    store = nc.ParamStore()
    p = store.add("p", np.arange(6.0).reshape(2, 3))
    with nc.Tape():
        loss = nc.sum_all(p.use())
        nc.backward(loss, store)
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_quadratic():
    store = nc.ParamStore()
    p = store.add("p", [1.0, 2.0])
    with nc.Tape():
        t = p.use()
        loss = nc.sum_all(nc.mul(t, t))
        nc.backward(loss, store)
    assert np.allclose(p.grad, [2.0, 4.0], atol=1e-15)


def test_backward_requires_scalar_loss():
    store = nc.ParamStore()
    p = store.add("p", [1.0, 2.0])
    with nc.Tape():
        t = p.use()
        with pytest.raises(ContractError):
            nc.backward(t, store)


def test_backward_needs_the_tape_that_recorded_the_loss():
    store = nc.ParamStore()
    p = store.add("p", [1.0, 2.0])
    with nc.Tape():
        loss = nc.sum_all(p.use())
    with pytest.raises(ContractError, match="inside the `with Tape"):
        nc.backward(loss, store)
    with nc.Tape():
        with pytest.raises(ContractError, match="not recorded on the active tape"):
            nc.backward(loss, store)


def test_a_parameter_is_one_leaf_that_no_tape_holds():
    model = build_pipeline(seed=0)
    assert model.head.use().node is model.head.node
    clips = [gen_clip(70.0 + 10.0 * i, seed=i) for i in range(4)]
    pyr, x_enc, scenes = batch_from_clips(clips)
    with nc.Tape() as tape:
        loss = mse_loss(model.forward(pyr, x_enc, scenes), nc.Tensor(np.stack([c.bvp for c in clips])))
        recorded = len(tape)
        assert not [n.op for n in tape._nodes if n.op.startswith("param:") or n.grad_fn is None]
        nc.backward(loss, model.store)
    assert recorded > 0 and len(tape) == recorded
    assert all(n.grad_fn is None for n in tape._nodes)


def test_a_swept_tape_refuses_a_second_backward():
    store = nc.ParamStore()
    p = store.add("p", [1.0, 2.0])
    with nc.Tape():
        loss = nc.sum_all(nc.mul(p.use(), p.use()))
        nc.backward(loss, store)
        first = p.grad
        with pytest.raises(ContractError, match="already swept by backward"):
            nc.backward(loss, store)
    assert p.grad is first and np.array_equal(first, [2.0, 4.0])


def test_a_swept_loss_is_not_taken_on_another_tape():
    store = nc.ParamStore()
    p = store.add("p", [1.0, 2.0])
    with nc.Tape():
        loss = nc.sum_all(p.use())
        nc.backward(loss, store)
    with nc.Tape():
        with pytest.raises(ContractError, match="not recorded on the active tape"):
            nc.backward(loss, store)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_keeps_no_reference_to_its_input(dtype):
    rng = np.random.default_rng(11)
    store = nc.ParamStore(dtype=dtype)
    a = store.add("a", rng.standard_normal((3, 4)))
    b = rng.standard_normal((4, 5)).astype(dtype)
    with nc.Tape():
        h = nc.matmul(a.use(), b)
        y = nc.gelu(h)
        freed = weakref.ref(h.data)
        del h
        assert freed() is None
        nc.backward(nc.sum_all(y), store)
    x = rng.standard_normal((3, 4)).astype(dtype)
    freed = weakref.ref(x)
    y = nc.gelu(x)
    del x
    assert freed() is None and y.node is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_frees_what_a_node_saved_while_the_loss_lives(dtype):
    store = nc.ParamStore(dtype=dtype)
    p = store.add("p", np.array([1.0, -2.0, 3.0], dtype=dtype))
    c = np.array([0.5, 4.0, -1.0], dtype=dtype)
    freed = weakref.ref(c)
    with nc.Tape():
        loss = nc.sum_all(nc.mul(p.use(), c))
        del c
        assert freed() is not None  # the mul node's backward needs it
        nc.backward(loss, store)
        assert freed() is None
    assert loss.item() == 1.0 * 0.5 - 2.0 * 4.0 - 3.0
    assert np.array_equal(p.grad, np.array([0.5, 4.0, -1.0], dtype=dtype))


def test_a_parameter_used_twice_gets_both_gradients():
    store = nc.ParamStore()
    p = store.add("p", [1.0, -3.0])
    with nc.Tape():
        nc.backward(nc.sum_all(nc.add(p.use(), p.use())), store)
    assert np.array_equal(p.grad, [2.0, 2.0])


def test_a_scalar_parameter_used_as_the_loss_gets_gradient_one():
    store = nc.ParamStore()
    p = store.add("p", 0.25)
    with nc.Tape() as tape:
        nc.backward(p.use(), store)
    assert len(tape) == 0
    assert p.grad.shape == () and p.grad == 1.0


def test_backward_writes_only_the_given_store():
    outside, inside = nc.ParamStore(), nc.ParamStore()
    a = outside.add("a", [1.0, 2.0])
    b = inside.add("b", [3.0, 4.0])
    old = a.grad = np.array([7.0, 8.0])
    with nc.Tape():
        nc.backward(nc.sum_all(nc.mul(a.use(), b.use())), inside)
    assert a.grad is old and np.array_equal(a.grad, [7.0, 8.0])
    assert np.array_equal(b.grad, [1.0, 2.0])


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(2)
    store = nc.ParamStore()
    w1 = store.add("w1", rng.standard_normal((3, 5)) * 0.5)
    w2 = store.add("w2", rng.standard_normal((5, 2)) * 0.5)
    bias = store.add("b", rng.standard_normal(2) * 0.1)
    x = nc.Tensor(rng.standard_normal((4, 3)))
    y = nc.Tensor(rng.standard_normal((4, 2)))

    def f():
        h = nc.gelu(nc.matmul(x, w1.use()))
        pred = nc.add(nc.matmul(h, w2.use()), bias.use())
        d = nc.sub(pred, y)
        return nc.mean_all(nc.mul(d, d))

    assert nc.grad_check(f, store, eps=1e-5) < 1e-4


def test_grad_check_linear_is_tight():
    store = nc.ParamStore()
    p = store.add("p", [0.3, -0.7, 1.1])
    assert nc.grad_check(lambda: nc.sum_all(p.use()), store) < 1e-10


def test_grad_check_mse_linear_layer():
    rng = np.random.default_rng(3)
    store = nc.ParamStore()
    w = store.add("w", rng.standard_normal((4, 3)) * 0.3)
    x = nc.Tensor(rng.standard_normal((6, 4)))
    y = nc.Tensor(rng.standard_normal((6, 3)))

    def f():
        d = nc.sub(nc.matmul(x, w.use()), y)
        return nc.mean_all(nc.mul(d, d))

    assert nc.grad_check(f, store) < 1e-6


def test_grad_check_rejects_nondeterministic_map():
    store = nc.ParamStore()
    p = store.add("p", [1.0])
    rng = np.random.default_rng()

    def f():
        return nc.sum_all(nc.mul(p.use(), nc.Tensor(rng.standard_normal(1))))

    with pytest.raises(ContractError):
        nc.grad_check(f, store)


def test_sample_param_entries_never_gives_an_entry_twice():
    store = nc.ParamStore()
    store.add("one", 1.0)
    assert nc.sample_param_entries(store.trainable(), 60, np.random.default_rng(0)) == [("one", 0)]
    store.add("four", np.ones(4))
    entries = nc.sample_param_entries(store.trainable(), 10, np.random.default_rng(0))
    assert sorted(entries) == [("four", i) for i in range(4)] + [("one", 0)]
    store.add("many", np.ones((6, 7)))
    for seed in range(20):
        entries = nc.sample_param_entries(store.trainable(), 30, np.random.default_rng(seed))
        assert len(entries) == len(set(entries)) == 30


def test_adam_zero_grads_leave_values_unchanged():
    store = nc.ParamStore()
    p = store.add("p", [1.0, -2.0, 3.0])
    before = p.value.copy()
    nc.adam_step(store, lr=1e-3, wd=0.0, t=1)
    assert np.array_equal(p.value, before)


def test_adam_decoupled_decay_shrinks_values():
    store = nc.ParamStore()
    p = store.add("p", [2.0, -4.0])
    lr, wd = 1e-2, 0.1
    expected = p.value - lr * wd * p.value
    nc.adam_step(store, lr=lr, wd=wd, t=1)
    assert np.allclose(p.value, expected, rtol=0, atol=1e-15)


def test_adam_first_step_is_signed_lr():
    # unrolling the moment recurrences at t=1 gives m_hat=g, v_hat=g^2,
    # so the update is -lr * g / (|g| + eps) ~= -lr * sign(g)
    store = nc.ParamStore()
    p = store.add("p", [0.0, 0.0])
    p.grad = np.array([0.5, -2.0])
    nc.adam_step(store, lr=1e-3, wd=0.0, t=1)
    assert np.allclose(p.value, [-1e-3, 1e-3], rtol=1e-6)


def test_in_place_adam_equals_the_formula_bit_for_bit():
    def oracle(value, m, v, g, lr, wd, t):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat, v_hat = m / (1.0 - beta1**t), v / (1.0 - beta2**t)
        value = value - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * value
        return np.asarray(value, dtype=value.dtype), m, v

    rng = np.random.default_rng(50)
    for dtype in (np.float32, np.float64):
        store = nc.ParamStore(dtype=dtype)
        params = [store.add(f"p{n}", rng.standard_normal(shape)) for n, shape in enumerate([(), (5,), (3, 4)])]
        state = {p.name: (p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value)) for p in params}
        for t in (1, 2, 3):
            for p in params:
                p.grad = rng.standard_normal(p.shape).astype(dtype)
                state[p.name] = oracle(*state[p.name], p.grad, 3e-3, 0.05, t)
            nc.adam_step(store, lr=3e-3, wd=0.05, t=t)
            for p in params:
                value, m, v = state[p.name]
                assert p.value.dtype == p.m.dtype == p.v.dtype == dtype and p.value.shape == p.shape
                for got, want in ((p.value, value), (p.m, m), (p.v, v)):
                    assert np.asarray(got).tobytes() == np.asarray(want, dtype=dtype).tobytes(), (p.name, t)


def test_adam_never_writes_into_an_array_the_value_was_set_from():
    store = nc.ParamStore()
    p = store.add("p", [1.0, 2.0])
    given = np.array([3.0, 4.0])
    p.value = given
    p.grad = np.array([1.0, -1.0])
    nc.adam_step(store, lr=0.1, wd=0.0, t=1)
    assert given.tolist() == [3.0, 4.0] and not np.array_equal(p.value, given)


def test_a_value_of_another_shape_is_refused():
    store = nc.ParamStore()
    p = store.add("w", np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"^parameter 'w' is \(2, 3\), got a value of shape \(3,\)$"):
        p.value = np.ones(3)
    assert p.value.shape == (2, 3) and not p.value.any()


def test_adam_rejects_bad_step_index():
    store = nc.ParamStore()
    store.add("p", [1.0])
    with pytest.raises(ContractError):
        nc.adam_step(store, lr=1e-3, wd=0.0, t=0)


def test_frozen_parameter_receives_no_gradient():
    store = nc.ParamStore()
    frozen = store.add("frozen", [1.0, 2.0], trainable=False)
    live = store.add("live", [3.0, 4.0])
    with nc.Tape():
        loss = nc.sum_all(nc.mul(frozen.use(), live.use()))
        nc.backward(loss, store)
    assert np.array_equal(frozen.grad, [0.0, 0.0])
    assert np.array_equal(live.grad, [1.0, 2.0])


def test_trailing_broadcast_add_and_backward():
    rng = np.random.default_rng(4)
    store = nc.ParamStore()
    bias = store.add("bias", rng.standard_normal(3))
    x = nc.Tensor(rng.standard_normal((2, 5, 3)))
    with nc.Tape():
        loss = nc.sum_all(nc.add(x, bias.use()))
        nc.backward(loss, store)
    assert np.array_equal(bias.grad, np.full(3, 10.0))


def test_illegal_broadcast_is_rejected():
    with pytest.raises(ShapeError):
        nc.add(np.zeros((4, 1, 3)), np.zeros((4, 2, 3)))


def test_scalar_broadcast_mul():
    out = nc.mul(nc.Tensor(np.ones((2, 2))), nc.Tensor(3.0))
    assert np.array_equal(out.data, np.full((2, 2), 3.0))


def test_patches_backward_scatters_overlaps():
    store = nc.ParamStore()
    p = store.add("p", np.arange(8.0).reshape(1, 8))
    with nc.Tape():
        loss = nc.sum_all(nc.patches_1d(p.use(), patch_len=4, stride=2))
        nc.backward(loss, store)
    # coverage counts for T=8, P=4, S=2 (three windows)
    assert np.array_equal(p.grad, [[1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0]])


def test_forward_backward_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(7)
        store = nc.ParamStore()
        w = store.add("w", rng.standard_normal((4, 4)))
        x = nc.Tensor(rng.standard_normal((4, 4)))
        with nc.Tape():
            out = nc.softmax_rows(nc.matmul(x, w.use()))
            loss = nc.mean_all(out)
            nc.backward(loss, store)
        return out.data.copy(), w.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


def test_paramstore_rejects_duplicates_and_bad_names():
    store = nc.ParamStore()
    store.add("a", [1.0])
    with pytest.raises(ContractError):
        store.add("a", [2.0])
    with pytest.raises(ContractError):
        store.add("has space", [1.0])


def test_paramstore_save_load_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    store = nc.ParamStore(config={"width": 3, "shapes": ((1, 2),)})
    store.add("w.one", rng.standard_normal((3, 2)))
    store.add("frozen", rng.standard_normal(4), trainable=False)
    store.add("scalar", 0.12345678901234567)
    path = tmp_path / "params.txt"
    store.save(path)
    assert nc.ParamStore.read_config(path) == store.config == {"width": 3, "shapes": [[1, 2]]}
    loaded = nc.ParamStore(config=store.config)
    for p in store:
        loaded.add(p.name, np.zeros(p.shape), p.trainable)
    loaded.load_into(path)
    for name in store.names():
        assert np.array_equal(loaded[name].value, store[name].value)


def test_paramstore_load_into_checks_shapes(tmp_path):
    store = nc.ParamStore()
    store.add("w", np.zeros((2, 2)))
    path = tmp_path / "params.txt"
    store.save(path)

    other = nc.ParamStore()
    other.add("w", np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        other.load_into(path)


@pytest.mark.parametrize(
    "live, error",
    [
        ({"a": (2,), "b": (3, 3)}, ShapeError),  # the second record has the wrong shape
        ({"a": (2,)}, ContractError),  # the second record is unknown here
        ({"a": (2,), "b": (2, 2), "c": (1,)}, ContractError),  # c is missing from the file
    ],
)
def test_paramstore_failed_load_changes_nothing(tmp_path, live, error):
    saved = nc.ParamStore()
    saved.add("a", np.ones(2))
    saved.add("b", np.ones((2, 2)))
    path = tmp_path / "params.txt"
    saved.save(path)
    store = nc.ParamStore()
    for name, shape in live.items():
        store.add(name, np.full(shape, 7.0))
    with pytest.raises(error):
        store.load_into(path)
    for name, shape in live.items():
        assert np.array_equal(store[name].value, np.full(shape, 7.0))


def _load_fails_and_changes_nothing(path, error, match):
    """Load path into a store of sevens; the load must fail and change nothing."""
    store = nc.ParamStore()
    store.add("a", np.full(2, 7.0))
    store.add("w", np.full((3, 4), 7.0))
    with pytest.raises(error, match=match):
        store.load_into(path)
    for p in store:
        assert np.array_equal(p.value, np.full(p.shape, 7.0))


def test_paramstore_cut_record_is_a_parse_error_naming_it(tmp_path):
    saved = nc.ParamStore()
    saved.add("a", np.ones(2))
    saved.add("w", np.ones((3, 4)))
    path = tmp_path / "params.txt"
    saved.save(path)
    path.write_bytes(path.read_bytes()[:-5])
    _load_fails_and_changes_nothing(path, ParseError, "record 2 \\('w'\\)")


def test_paramstore_refuses_an_object_record_without_unpickling(tmp_path):
    path = tmp_path / "params.txt"
    with open(path, "wb") as fh:
        fh.write(f"{nc.ParamStore.MAGIC}\n{{}}\na\n".encode())
        np.lib.format.write_array(fh, np.ones(2))
        fh.write(b"w\n")
        np.lib.format.write_array(fh, np.full((3, 4), 1.0, dtype=object), allow_pickle=True)
    _load_fails_and_changes_nothing(path, ParseError, "record 2 .*allow_pickle=False")


def test_paramstore_refuses_a_float32_record_for_a_float64_parameter(tmp_path):
    # a parameter keeps its dtype when assigned, so the record is written by hand
    path = tmp_path / "params.txt"
    with open(path, "wb") as fh:
        fh.write(f"{nc.ParamStore.MAGIC}\n{{}}\na\n".encode())
        np.lib.format.write_array(fh, np.ones(2))
        fh.write(b"w\n")
        np.lib.format.write_array(fh, np.ones((3, 4), dtype=np.float32))
    _load_fails_and_changes_nothing(path, ShapeError, "float32 .*'w'")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_paramstore_refuses_a_non_finite_record_naming_file_and_parameter(tmp_path, bad):
    saved = nc.ParamStore()
    saved.add("a", np.ones(2))
    saved.add("w", np.ones((3, 4)))
    saved["w"].value[1, 2] = bad
    path = tmp_path / "params.txt"
    saved.save(path)
    _load_fails_and_changes_nothing(path, NumericError, f"^{path}: checkpoint has non-finite values for 'w'$")


def test_rng_refuses_a_seed_outside_32_bits():
    for seed in (-1, 2**32):
        with pytest.raises(ContractError, match=f"got {seed}"):
            nc.rng(seed, "x")
    for seed in (1.5, True, "3"):
        with pytest.raises(ContractError, match=f"seed must be an integer, got {seed!r}"):
            nc.rng(seed, "x")
    assert np.array_equal(nc.rng(np.uint32(3), "x").random(4), nc.rng(3, "x").random(4))
    # integer keys pass through, so the adapter streams are those of SeedSequence([seed, 0xADA, length])
    direct = np.random.default_rng(np.random.SeedSequence([2**32 - 1, 0xADA, 16]))
    assert np.array_equal(nc.rng(2**32 - 1, 0xADA, 16).standard_normal(8), direct.standard_normal(8))


def test_rng_takes_numpy_integer_keys_and_refuses_other_keys():
    assert np.array_equal(nc.rng(0, np.int64(5)).random(4), nc.rng(0, 5).random(4))
    assert np.array_equal(nc.rng(0, np.uint8(0xAD), "x").random(4), nc.rng(0, 0xAD, "x").random(4))
    for key in (-1, np.int64(-2), 1.5, np.float64(2.0), True, None, b"x"):
        with pytest.raises(ContractError) as info:
            nc.rng(0, "x", key)
        assert str(info.value) == f"rng key must be a non-negative integer or a string, got {key!r}"


@pytest.mark.parametrize(
    "text, line",
    [
        ("physkit-paramstore 1\nw 1 1 2 0.0 0.0\n", 1),  # the headerless format
        ("w 1 1 2 0.0 0.0\n", 1),
        (nc.ParamStore.MAGIC + "\nw 1 1 2 0.0 0.0\n", 2),
        (nc.ParamStore.MAGIC + "\n[1]\nw 1 1 2 0.0 0.0\n", 2),
        ("", 1),
    ],
)
def test_paramstore_refuses_a_file_without_config_header(tmp_path, text, line):
    path = tmp_path / "params.txt"
    path.write_text(text)
    store = nc.ParamStore()
    store.add("w", np.zeros(2))
    for read in (store.load_into, nc.ParamStore.read_config):
        with pytest.raises(ParseError, match=f"line {line}"):
            read(path)


def test_mean_over_and_concat_refuse_an_axis_out_of_range():
    t = nc.Tensor(np.ones((2, 3, 4)))
    for axis in (3, 5, -4):
        with pytest.raises(ShapeError, match=f"axis {axis} is out of range for a 3-d input"):
            nc.mean_over(t, axis)
        with pytest.raises(ShapeError, match=f"axis {axis} is out of range"):
            nc.concat([t, t], axis=axis)
    assert nc.mean_over(t, -1).shape == (2, 3)
    assert nc.concat([t, t], axis=-3).shape == (4, 3, 4)


def test_concat_and_reshape_mismatches_name_both_shapes():
    with pytest.raises(ShapeError, match=r"concat on axis 0: shapes \(2, 3\), \(2, 4\)"):
        nc.concat([np.ones((2, 3)), np.ones((2, 4))], axis=0)
    with pytest.raises(ShapeError, match=r"shapes \(2, 3\), \(3,\)"):
        nc.concat([np.ones((2, 3)), np.ones(3)], axis=1)
    with pytest.raises(ShapeError, match=r"reshape: cannot reshape \(2, 3\) into \(4, 2\)"):
        nc.reshape(np.ones((2, 3)), (4, 2))


def test_tensors_keep_float32_and_float64_and_widen_the_rest():
    assert nc.Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    assert nc.Tensor(np.ones(2)).data.dtype == np.float64
    for other in (np.arange(3), [1, 2], 1.5, np.ones(2, dtype=np.float16)):
        assert nc.Tensor(other).data.dtype == np.float64
    # a python float constant is weak: it does not widen a float32 op
    x = nc.Tensor(np.ones(2, dtype=np.float32))
    assert nc.scale(nc.sigmoid(x), 0.5).data.dtype == np.float32


def test_a_parameter_keeps_its_dtype_when_assigned():
    store = nc.ParamStore(dtype=np.float32)
    p = store.add("w", np.arange(3.0))
    assert p.value.dtype == p.grad.dtype == np.float32
    p.value = np.array([0.1, 0.2, 0.3])
    assert p.value.dtype == np.float32
    assert np.array_equal(p.value, np.array([0.1, 0.2, 0.3], dtype=np.float32))
    assert nc.ParamStore().add("w", 1).value.dtype == np.float64


def test_the_float64_image_is_undone_even_on_an_error():
    store = nc.ParamStore(dtype=np.float32)
    w = store.add("w", [1.0, 2.0])
    value, grad = w.value, w.grad
    with pytest.raises(RuntimeError):
        with store.float64_image():
            assert w.value.dtype == np.float64 and np.array_equal(w.value, [1.0, 2.0])
            w.value[0] = 5.0
            w.grad = np.ones(2)
            raise RuntimeError("inside")
    assert w.value is value and w.grad is grad
    assert w.value.dtype == np.float32 and np.array_equal(w.value, [1.0, 2.0])


def test_grad_check_audits_a_float32_store_in_float64_and_restores_it():
    rng = np.random.default_rng(21)
    store = nc.ParamStore(dtype=np.float32)
    w = store.add("w", rng.standard_normal((3, 2)))
    x = nc.Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    before = w.value.copy()

    def f():
        # float32 input, float64 weights in the image: promotion widens the map
        return nc.mean_all(nc.gelu(nc.matmul(x, w.use())))

    # a float32 map would fail a 1e-8 bound on round-off alone
    assert nc.grad_check(f, store) < 1e-8
    assert w.value.dtype == np.float32 and np.array_equal(w.value, before)
    with pytest.raises(ContractError, match="deterministic"):
        nc.grad_check(lambda: nc.scale(f(), rng.random()), store)
    assert w.value.dtype == np.float32 and np.array_equal(w.value, before)


def test_subnormals_flush_to_zero_only_inside_the_block():
    small, quarter = np.float32(2e-38), np.float32(0.25)  # 2e-38 is normal, 5e-39 is not
    assert small * quarter > 0.0
    with pytest.raises(RuntimeError):
        with nc.subnormals_flushed():
            assert (small * quarter == 0.0) == (nc._FENV_CALLS is not None)
            assert small * np.float32(2.0) == np.float32(4e-38)
            raise RuntimeError("inside")
    assert small * quarter == np.float32(5e-39)


def test_float32_normal_cdf_is_within_2_2e_7_of_the_exact_one():
    from scipy.special import ndtr

    # a dense grid and the worst float32 input of an exhaustive search
    x = np.append(np.linspace(-10.0, 10.0, 2_000_001, dtype=np.float32), np.float32(4.0489297))
    cdf = nc._normal_cdf(x)
    assert cdf.dtype == np.float32
    assert np.max(np.abs(cdf - ndtr(x.astype(np.float64)))) <= 2.2e-7
    # beyond the clamp the CDF is exactly 0 and 1, so GELU of a large negative input is 0
    assert nc._normal_cdf(np.array([-1e4, -6.0, 6.0, 1e4], dtype=np.float32)).tolist() == [0, 0, 1, 1]
    assert nc.gelu(np.array([-1e4], dtype=np.float32)).data[0] == 0.0


def test_float32_normal_cdf_is_non_decreasing_on_the_accuracy_grid():
    x = np.linspace(-10.0, 10.0, 2_000_001, dtype=np.float32)
    assert np.all(np.diff(nc._normal_cdf(x)) >= 0)


def test_float32_normal_cdf_saturates_exactly_and_keeps_nan_without_a_warning():
    big = np.float32(3.4e38)
    x = np.array([-np.inf, -big, -1e4, -8.0, 8.0, 1e4, big, np.inf, np.nan], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf = nc._normal_cdf(x)
    assert cdf.dtype == np.float32
    assert cdf[:-1].tolist() == [0, 0, 0, 0, 1, 1, 1, 1] and np.isnan(cdf[-1])


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e30), (np.float64, 1e200)])
def test_gelu_of_a_finite_input_whose_square_overflows_runs_without_a_warning(dtype, big):
    store = nc.ParamStore(dtype=dtype)
    p = store.add("x", np.array([-big, big], dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with nc.Tape():
            out = nc.gelu(p.use())
            nc.backward(nc.sum_all(out), store)
    assert out.data.tolist() == [0.0, dtype(big)]
    assert p.grad.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_at_the_infinities_is_its_limit_without_a_warning(dtype):
    # x * Phi(x) and x * phi(x) are inf * 0 there unless x is clamped first; NaN stays NaN
    store = nc.ParamStore(dtype=dtype)
    p = store.add("x", np.array([-np.inf, np.inf, np.nan], dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with nc.Tape():
            out = nc.gelu(p.use())
            nc.backward(nc.sum_all(out), store)
    assert out.data[:2].tolist() == [0.0, np.inf] and np.isnan(out.data[2])
    assert p.grad[:2].tolist() == [0.0, 1.0] and np.isnan(p.grad[2])


def test_float32_gelu_stays_float32_and_its_backward_matches_the_exact_derivative():
    from scipy.special import ndtr

    x = np.linspace(-10.0, 10.0, 20_001, dtype=np.float32)
    store = nc.ParamStore(dtype=np.float32)
    p = store.add("x", x)
    with nc.Tape():
        out = nc.gelu(p.use())
        nc.backward(nc.sum_all(out), store)
    assert out.data.dtype == p.grad.dtype == np.float32
    x64 = x.astype(np.float64)
    exact = ndtr(x64) + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(p.grad - exact)) <= 1e-6


def test_float64_gelu_is_the_math_erf_expression_bit_for_bit():
    from scipy.special import ndtr

    rng = np.random.default_rng(8)
    x = 3.0 * rng.standard_normal((5, 7))
    g = rng.standard_normal((5, 7))
    store = nc.ParamStore()
    p = store.add("x", x)
    with nc.Tape():
        out = nc.gelu(p.use())
        nc.backward(nc.sum_all(nc.mul(out, g)), store)
    erf = np.array([math.erf(v * (1.0 / math.sqrt(2.0))) for v in x.flat]).reshape(x.shape)
    cdf = 0.5 * (1.0 + erf)
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    assert np.array_equal(out.data, x * cdf)
    assert np.array_equal(p.grad, g * (cdf + x * pdf))
    # scipy stays the oracle: within two ulp of 1 of its CDF (2.2e-16 seen)
    wide = np.linspace(-40.0, 40.0, 400_001)
    assert np.max(np.abs(nc._normal_cdf(wide) - ndtr(wide))) <= 4.5e-16


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_gelu_is_the_unblocked_expression_bit_for_bit(dtype):
    rng = np.random.default_rng(9)
    block = 1 << 16
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        x = (3.0 * rng.standard_normal(n)).astype(dtype)
        g = rng.standard_normal(n).astype(dtype)
        store = nc.ParamStore(dtype=dtype)
        p = store.add("x", x)
        with nc.Tape():
            out = nc.gelu(p.use())
            nc.backward(nc.sum_all(nc.mul(out, g)), store)
        cdf = nc._normal_cdf(x)  # one call over the whole array
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        assert out.data.dtype == p.grad.dtype == dtype
        assert np.array_equal(out.data, x * cdf), n
        assert np.array_equal(p.grad, g * (cdf + x * pdf)), n


def test_gelu_forward_holds_two_full_size_arrays_and_block_scratch():
    import tracemalloc

    x = np.random.default_rng(10).standard_normal((8, 144, 256)).astype(np.float32)
    nc.gelu(x)
    tracemalloc.start()
    try:
        nc.gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Phi and the output, plus a few temporaries of 2**16 elements each
    assert peak <= 2 * x.nbytes + 6 * (1 << 16) * x.itemsize, peak


def test_matmul_forms_no_gradient_for_a_constant_or_a_frozen_operand():
    store = nc.ParamStore()
    w = store.add("w", np.ones((3, 2)))
    frozen = store.add("frozen", np.ones((2, 4)), trainable=False)
    assert frozen.use().node is None
    with nc.Tape():
        h = nc.matmul(np.ones((5, 3)), w.use())
        out = nc.matmul(h, frozen.use())
    ga, gb = h.node.grad_fn(np.ones((5, 2)))
    assert ga is None and gb.shape == (3, 2)
    ga, gb = out.node.grad_fn(np.ones((5, 4)))
    assert ga.shape == (5, 2) and gb is None


def test_token_map_is_the_token_axis_einsum():
    rng = np.random.default_rng(30)
    x, w = rng.standard_normal((3, 5, 4)), rng.standard_normal((5, 2))
    out = nc.token_map(x, w).data
    assert out.shape == (3, 2, 4)
    assert np.max(np.abs(out - np.einsum("btd,tn->bnd", x, w))) < 1e-12


def test_token_map_gradient_check_on_both_operands():
    rng = np.random.default_rng(31)
    store = nc.ParamStore()
    x = store.add("x", rng.standard_normal((2, 5, 3)))
    w = store.add("w", rng.standard_normal((5, 4)))
    r = nc.Tensor(rng.standard_normal((2, 4, 3)))

    def f():
        out = nc.token_map(x.use(), w.use())
        return nc.add(nc.mean_all(nc.mul(out, out)), nc.sum_all(nc.mul(out, r)))

    # f is quadratic in each entry, where the five-point stencil is exact at any
    # step: a large one only shrinks the round-off
    assert nc.grad_check(f, store, eps=0.1) < 1e-10


def test_token_map_keeps_float32_forward_and_backward():
    rng = np.random.default_rng(32)
    store = nc.ParamStore(dtype=np.float32)
    x = store.add("x", rng.standard_normal((2, 5, 3)))
    w = store.add("w", rng.standard_normal((5, 4)))
    with nc.Tape():
        out = nc.token_map(x.use(), w.use())
        nc.backward(nc.sum_all(nc.mul(out, out)), store)
    assert out.data.dtype == x.grad.dtype == w.grad.dtype == np.float32


def test_token_map_forms_no_gradient_for_a_constant_or_a_frozen_operand():
    store = nc.ParamStore()
    w = store.add("w", np.ones((5, 2)))
    frozen = store.add("frozen", np.ones((2, 4)), trainable=False)
    with nc.Tape():
        h = nc.token_map(np.ones((3, 5, 6)), w.use())
        out = nc.token_map(h, frozen.use())
    gx, gw = h.node.grad_fn(np.ones((3, 2, 6)))
    assert gx is None and gw.shape == (5, 2)
    gx, gw = out.node.grad_fn(np.ones((3, 4, 6)))
    assert gx.shape == (3, 2, 6) and gw is None


@pytest.mark.parametrize(
    "x_shape, w_shape",
    [((5, 4), (5, 2)), ((3, 5, 4), (5,)), ((3, 5, 4), (5, 2, 1)), ((3, 5, 4), (4, 2))],
)
def test_token_map_shape_errors_name_both_shapes(x_shape, w_shape):
    with pytest.raises(ShapeError) as err:
        nc.token_map(np.zeros(x_shape), np.zeros(w_shape))
    assert str(x_shape) in str(err.value) and str(w_shape) in str(err.value)


def test_paramstore_refuses_a_checkpoint_naming_a_parameter_twice(tmp_path):
    path = tmp_path / "params.txt"
    with open(path, "wb") as fh:
        fh.write(f"{nc.ParamStore.MAGIC}\n{{}}\n".encode())
        for name, value in (("a", 1.0), ("w", 2.0), ("a", 3.0)):
            fh.write(f"{name}\n".encode())
            np.lib.format.write_array(fh, np.full((2,) if name == "a" else (3, 4), value))
    _load_fails_and_changes_nothing(path, ParseError, r"record 3 names parameter 'a' a second time")
