import math

import numpy as np
import pytest

from physkit import numcore as nc
from physkit.errors import ContractError, NumericError, ParseError, ShapeError


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
    loaded = nc.ParamStore.load(path)
    assert loaded.config == store.config == {"width": 3, "shapes": [[1, 2]]}
    assert nc.ParamStore.read_config(path) == store.config
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded[name].value, store[name].value)
        assert loaded[name].trainable == store[name].trainable


def test_paramstore_load_into_checks_shapes(tmp_path):
    store = nc.ParamStore()
    store.add("w", np.zeros((2, 2)))
    path = tmp_path / "params.txt"
    store.save(path)

    other = nc.ParamStore()
    other.add("w", np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        other.load_into(path)


def test_paramstore_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(nc.ParamStore.MAGIC + "\n{}\nw 1 1 2 0.0\n")
    with pytest.raises(ParseError) as err:
        nc.ParamStore.load(path)
    assert "line 3" in str(err.value)


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
    for read in (store.load_into, nc.ParamStore.load, nc.ParamStore.read_config):
        with pytest.raises(ParseError, match=f"line {line}"):
            read(path)
