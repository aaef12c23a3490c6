"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them inline)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from physkit import numcore as nc
from physkit.aggregator import aggregate, init_aggregator, project_level
from physkit.attention import cross_attention, init_attention, self_attention
from physkit.cli import main
from physkit.cues import signal_stats
from physkit.pipeline import TrainConfig, train
from physkit.reprogram import derive_prototypes, init_probe, init_reprogrammer, init_vocab, reprogram
from physkit.signals import estimate_hr, gen_clip, load_waveform, metrics, save_waveform
from physkit.stationarize import init_smoother, smooth, stationarity_report
from physkit.wavelet import DB4, HAAR, dwt, idwt


@contextmanager
def criterion(cid: str, desc: str):
    try:
        yield
    except BaseException:
        print(f"[{cid}] {desc}: FAIL")
        raise
    print(f"[{cid}] {desc}: PASS")


def test_criterion_1_stationarity_suite():
    with criterion("C1", "dual-domain smoother stationarity"):
        t0 = time.perf_counter()
        x = np.random.default_rng(42).standard_normal(8192)
        smoother = init_smoother(nc.ParamStore(), alpha=0.8, level=3, basis=HAAR, blend_override=0.0)
        z, _ = smooth(x, smoother)
        rep = stationarity_report(z.data, max_lag=8, alpha=0.8)
        assert abs(rep.mean) < 0.05
        assert abs(rep.variance - 2.0 / 3.0) <= 0.1 * (2.0 / 3.0)
        assert abs(rep.autocorr[0] - 0.2) < 0.05
        assert rep.half_window_disagreement < 0.05
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_wavelet_perfect_reconstruction():
    with criterion("C2", "wavelet perfect reconstruction"):
        t0 = time.perf_counter()
        for basis in (HAAR, DB4):
            for n in (8, 128, 1024):
                for level in (1, 2, 3):
                    for seed in range(20):
                        x = np.random.default_rng(seed).standard_normal(n)
                        back = idwt(dwt(x, basis, level), basis)
                        assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_gradient_correctness(capsys):
    with criterion("C3", "finite-difference gradient audit"):
        t0 = time.perf_counter()
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for module in ("dds", "aggregator", "tpg", "cue", "pipeline"):
            line = [l for l in out.splitlines() if l.startswith(module + ":")][0]
            assert float(line.split("max_rel_err=")[1].split()[0]) < 1e-4, line
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_structural_identities():
    with criterion("C4", "exact structural identities"):
        rng = np.random.default_rng(0)
        # zero outer gate leaves the deepest level untouched
        store = nc.ParamStore()
        agg = init_aggregator(store, ((3, 3), (2, 2)), 16, 8, 8, 2, seed=0)
        pyr = [rng.standard_normal((2, 16, h, w)) for h, w in ((3, 3), (2, 2))]
        fused = aggregate(pyr, agg)
        deep = project_level(pyr[-1], agg, level=1)
        assert np.array_equal(fused.data, deep.data)

        # pinned blend weights reduce to the pure paths
        x = rng.standard_normal(128)
        z0, tr0 = smooth(x, init_smoother(nc.ParamStore(), alpha=0.8, level=3, basis=HAAR, blend_override=0.0))
        assert np.array_equal(z0.data, tr0.z_time)
        z1, tr1 = smooth(x, init_smoother(nc.ParamStore(), alpha=0.8, level=3, basis=HAAR, blend_override=1.0))
        assert np.array_equal(z1.data, tr1.z_fre)

        # self-attention is literally cross-attention with itself
        store = nc.ParamStore()
        attn = init_attention(store, "attn", 8, 2, rng)
        tokens = rng.standard_normal((2, 5, 8))
        assert np.array_equal(self_attention(tokens, attn).data, cross_attention(tokens, tokens, attn).data)

        # softmax rows are stochastic to 1e-12
        s = nc.softmax_rows(rng.standard_normal((6, 9)) * 20.0)
        assert np.max(np.abs(s.data.sum(axis=-1) - 1.0)) < 1e-12

        # the frozen vocabulary never accumulates gradient
        store = nc.ParamStore()
        vocab = init_vocab(store, 64, 8, seed=0)
        probe = init_probe(store, 64, 8, seed=0)
        rep = init_reprogrammer(store, 8, 2, 8, lengths=(4,), seed=0)
        with nc.Tape():
            out = reprogram(rng.standard_normal((1, 4, 8)), derive_prototypes(vocab, probe), rep)
            nc.backward(nc.mean_all(nc.mul(out, out)), store)
        assert np.array_equal(vocab.grad, np.zeros_like(vocab.value))


def test_criterion_5_statistical_cue_oracle():
    with criterion("C5", "statistical cue equals brute-force oracle"):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(10, 40))
            x = rng.standard_normal(n)
            s = signal_stats(x)

            xs = [float(v) for v in x]
            assert s.minimum == min(xs) and s.maximum == max(xs)
            ordered = sorted(xs)
            med = ordered[n // 2] if n % 2 else 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
            assert s.median == med
            trend = sum(xs[i] - xs[i - 1] for i in range(1, n))
            assert abs(s.trend - trend) < 1e-12
            assert s.direction == (trend > 0) - (trend < 0)

            mean = sum(xs) / n
            c = [v - mean for v in xs]
            denom = sum(v * v for v in c)
            rs = [
                sum(c[i] * c[i + lag] for i in range(n - lag)) / denom
                for lag in range(1, n // 2 + 1)
            ]
            ranked = [i + 1 for i in sorted(range(len(rs)), key=lambda i: (-abs(rs[i]), i))][:5]
            for got, want in zip(s.top_lags, ranked):
                assert got == want or abs(abs(rs[got - 1]) - abs(rs[want - 1])) < 1e-9


def test_criterion_6_toy_end_to_end_training():
    with criterion("C6", "end-to-end training halves loss and tracks HR"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        train_clips = [
            gen_clip(float(rng.uniform(45, 150)), fs=30.0, n_samples=128, snr_db=10.0, seed=10_000 + i)
            for i in range(64)
        ]
        held_out = [
            gen_clip(float(rng.uniform(45, 150)), fs=30.0, n_samples=128, snr_db=math.inf, seed=20_000 + i)
            for i in range(16)
        ]
        cfg = TrainConfig(lr=1e-4, weight_decay=5e-5, batch_size=4, steps=200, seed=0)
        _, log = train(train_clips, cfg, eval_clips=held_out)
        assert log.final_running_loss <= 0.5 * log.initial_running_loss, (
            log.initial_running_loss,
            log.final_running_loss,
        )
        assert log.hr_metrics.mae <= 3.0, log.hr_metrics
        assert time.perf_counter() - t0 <= 600.0


def test_criterion_7_hr_estimator_sanity():
    with criterion("C7", "spectral HR estimator and metrics sanity"):
        for hr in (50.0, 72.0, 90.0, 120.0, 150.0):
            clip = gen_clip(hr, fs=30.0, n_samples=512, snr_db=math.inf, seed=int(hr))
            est = estimate_hr(clip.bvp, clip.fs)
            assert abs(est.bpm - hr) <= 60.0 * est.resolution_hz, (hr, est)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            rep = metrics(rng.uniform(45, 150, n), rng.uniform(45, 150, n))
            assert rep.rmse >= rep.mae
        aligned = metrics([55.0, 90.0, 140.0], [55.0, 90.0, 140.0])
        assert aligned.pearson_r == pytest.approx(1.0) and aligned.mae == 0.0


def test_criterion_8_cli_determinism(tmp_path):
    with criterion("C8", "CLI reruns are byte-identical"):
        # synth
        for d in ("s1", "s2"):
            assert main(["synth", "--out", str(tmp_path / d), "--n-clips", "6", "--seed", "11"]) == 0
        names = ["manifest.jsonl"] + [f"clip_{i:03d}.{k}.csv" for i in range(6) for k in ("bvp", "xenc")]
        for name in names:
            assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()
        # dds
        wave = tmp_path / "wave.csv"
        save_waveform(wave, np.random.default_rng(5).standard_normal(512), fs=30.0)
        for d in ("z1.csv", "z2.csv"):
            assert main(["dds", "--in", str(wave), "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "z1.csv").read_bytes() == (tmp_path / "z2.csv").read_bytes()
        # train (short run, identical config + seed)
        manifest = str(tmp_path / "s1" / "manifest.jsonl")
        for d in ("t1", "t2"):
            assert main(["train", "--data", manifest, "--out", str(tmp_path / d), "--steps", "2", "--seed", "3"]) == 0
        for name in ("checkpoint.txt", "loss_curve.txt"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
        # stats record
        for d in ("r1.txt", "r2.txt"):
            assert main(["stats", "--in", str(wave), "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
