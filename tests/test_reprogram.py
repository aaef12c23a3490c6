import numpy as np
import pytest

from physkit import numcore as nc
from physkit.attention import feed_forward
from physkit.errors import ContractError, ShapeError
from physkit.reprogram import (
    derive_prototypes,
    init_probe,
    init_reprogrammer,
    init_vocab,
    reprogram,
)


def _setup(dim=8, heads=2, vocab=64, protos=8, seed=0, lengths=(4, 5)):
    store = nc.ParamStore()
    rng = np.random.default_rng(seed)
    vocab_emb = init_vocab(store, vocab_size=vocab, dim=dim, seed=seed)
    probe = init_probe(store, vocab, protos, rng)
    rep = init_reprogrammer(store, "reprog", dim, heads, protos, rng, lengths=lengths, seed=seed)
    return store, vocab_emb, probe, rep


def test_one_hot_probe_selects_vocab_rows():
    store, vocab, probe, _ = _setup()
    w = np.zeros((8, 64))
    picks = [3, 17, 41, 5, 0, 63, 12, 30]
    for row, col in enumerate(picks):
        w[row, col] = 1.0
    probe.value = w
    protos = derive_prototypes(vocab, probe).data
    assert np.array_equal(protos, vocab.param.value[picks])


def test_zero_probe_gives_zero_prototypes():
    store, vocab, probe, _ = _setup()
    probe.value = np.zeros_like(probe.value)
    assert np.array_equal(derive_prototypes(vocab, probe).data, np.zeros((8, 8)))


def test_derive_matches_matmul_oracle():
    store, vocab, probe, _ = _setup(seed=1)
    oracle = probe.value @ vocab.param.value
    assert np.max(np.abs(derive_prototypes(vocab, probe).data - oracle)) < 1e-12


def test_probe_rejects_too_many_prototypes():
    store = nc.ParamStore()
    with pytest.raises(ContractError):
        init_probe(store, 64, 17, np.random.default_rng(0))


def test_probe_for_another_vocabulary_is_refused():
    store = nc.ParamStore()
    vocab = init_vocab(store, vocab_size=32, dim=8, seed=0)
    probe = init_probe(store, 64, 8, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        derive_prototypes(vocab, probe)


def test_zero_input_collapses_to_ffn_of_prototypes():
    store, vocab, probe, rep = _setup(seed=2)
    rep.self_attn.w_o.value[:] = 0.0
    rep.cross_attn.w_o.value[:] = 0.0
    protos = derive_prototypes(vocab, probe)
    x = np.zeros((3, 5, 8))
    out = reprogram(x, protos, rep).data
    expected = feed_forward(protos.data[None, :, :], rep.ffn).data
    assert np.max(np.abs(out - np.repeat(expected, 3, axis=0))) < 1e-12


@pytest.mark.parametrize("length", [16, 32, 128])
def test_output_token_count_is_prototype_count(length):
    store, vocab, probe, rep = _setup(seed=3, lengths=(length,))
    protos = derive_prototypes(vocab, probe)
    x = np.random.default_rng(length).standard_normal((2, length, 8))
    assert reprogram(x, protos, rep).shape == (2, 8, 8)


def test_modalities_share_every_parameter():
    # adapters exist once built; inputs of one length reuse the same objects
    store, vocab, probe, rep = _setup(seed=4, lengths=(6, 6, 3))
    assert sorted(rep.adapters) == [3, 6]
    assert rep.adapters[6] is store["reprog.adapt.len6"]
    protos = derive_prototypes(vocab, probe)
    rng = np.random.default_rng(5)
    before = store.names()
    reprogram(rng.standard_normal((1, 6, 8)), protos, rep)
    reprogram(rng.standard_normal((1, 6, 8)), protos, rep)
    assert store.names() == before


def test_adapter_init_is_independent_of_call_order():
    _, _, _, rep_a = _setup(seed=6, lengths=(4, 9))
    _, _, _, rep_b = _setup(seed=6, lengths=(9, 4))
    assert np.array_equal(rep_a.adapters[4].value, rep_b.adapters[4].value)
    assert np.array_equal(rep_a.adapters[9].value, rep_b.adapters[9].value)


def test_unknown_token_length_is_named():
    store, vocab, probe, rep = _setup(seed=15, lengths=(4,))
    with pytest.raises(ShapeError, match="7 input tokens"):
        reprogram(np.zeros((1, 7, 8)), derive_prototypes(vocab, probe), rep)


def test_frozen_vocab_gets_zero_grad_while_probe_trains():
    store, vocab, probe, rep = _setup(seed=7)
    x = np.random.default_rng(8).standard_normal((1, 4, 8))
    with nc.Tape():
        protos = derive_prototypes(vocab, probe)
        out = reprogram(x, protos, rep)
        nc.backward(nc.mean_all(nc.mul(out, out)), store)
    assert np.array_equal(vocab.param.grad, np.zeros_like(vocab.param.value))
    assert np.any(probe.grad != 0.0)
    assert np.any(rep.ffn.w_in.grad != 0.0)


def test_gradient_check_over_probe_adapter_attention_ffn():
    store, vocab, probe, rep = _setup(dim=4, heads=1, vocab=32, protos=4, seed=9, lengths=(3,))
    x = nc.Tensor(np.random.default_rng(10).standard_normal((1, 3, 4)))

    def f():
        protos = derive_prototypes(vocab, probe)
        out = reprogram(x, protos, rep)
        return nc.mean_all(nc.mul(out, out))

    entries = nc.sample_param_entries(store, 60, np.random.default_rng(11))
    assert nc.grad_check(f, store, eps=1e-5, entries=entries) < 1e-4


def test_determinism_under_fixed_seed():
    def run():
        store, vocab, probe, rep = _setup(seed=12)
        x = np.random.default_rng(13).standard_normal((2, 5, 8))
        return reprogram(x, derive_prototypes(vocab, probe), rep).data

    assert np.array_equal(run(), run())


def test_shape_errors():
    store, vocab, probe, rep = _setup(seed=14)
    protos = derive_prototypes(vocab, probe)
    with pytest.raises(ShapeError):
        reprogram(np.zeros((1, 4, 6)), protos, rep)  # wrong width
    with pytest.raises(ShapeError):
        reprogram(np.zeros((1, 4, 8)), np.zeros((3, 8)), rep)  # wrong bank
