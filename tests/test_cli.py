import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from physkit.cli import _MODEL_KEYS, main
from physkit.pipeline import ModelConfig
from physkit.signals import load_waveform, save_waveform
from physkit.stationarize import standardize


def _noise_file(tmp_path, n=8192, seed=0, name="noise.csv"):
    x = np.random.default_rng(seed).standard_normal(n)
    path = tmp_path / name
    save_waveform(path, x, fs=30.0)
    return path, x


def test_synth_is_byte_deterministic(tmp_path):
    for d in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / d), "--n-clips", "5", "--seed", "4"]) == 0
    for name in ["manifest.jsonl", "clip_000.bvp.csv", "clip_004.xenc.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_rejects_empty_request(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "d"), "--n-clips", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_dds_alpha_one_beta_zero_is_standardize(tmp_path):
    path, x = _noise_file(tmp_path, n=256, seed=1)
    out = tmp_path / "z.csv"
    assert main(["dds", "--in", str(path), "--out", str(out), "--alpha", "1.0", "--beta", "0"]) == 0
    z, _ = load_waveform(out)
    expected, _, _ = standardize(x)
    assert np.array_equal(z, expected)


def test_dds_reports_smoothed_noise_variance(tmp_path, capsys):
    path, _ = _noise_file(tmp_path, n=8192, seed=2)
    assert main(["dds", "--in", str(path), "--alpha", "0.8", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    variance = float([l for l in out.splitlines() if l.startswith("variance=")][0].split("=")[1])
    assert 0.6 <= variance <= 0.733
    assert "theoretical_variance=0.666667" in out


def test_dds_flags_constant_input(tmp_path, capsys):
    path = tmp_path / "const.csv"
    save_waveform(path, np.full(256, 3.0), fs=30.0)
    assert main(["dds", "--in", str(path), "--beta", "0"]) == 0
    assert "degenerate=yes" in capsys.readouterr().out


def test_dds_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("fs=30\nnot-a-number\n")
    assert main(["dds", "--in", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_config_precedence_flags_beat_file_beat_defaults(tmp_path, capsys):
    path, _ = _noise_file(tmp_path, n=1024, seed=3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5}))

    def theo(argv):
        main(argv)
        out = capsys.readouterr().out
        return float([l for l in out.splitlines() if l.startswith("theoretical")][0].split("=")[1])

    base = ["dds", "--in", str(path), "--beta", "0"]
    assert theo(base) == pytest.approx(0.8 / 1.2, abs=1e-6)  # default alpha
    assert theo(base + ["--config", str(cfg)]) == pytest.approx(0.5 / 1.5, abs=1e-6)
    assert theo(base + ["--config", str(cfg), "--alpha", "0.9"]) == pytest.approx(0.9 / 1.1, abs=1e-6)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path, _ = _noise_file(tmp_path, n=256, seed=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alhpa": 0.5}))
    assert main(["dds", "--in", str(path), "--config", str(cfg)]) == 1
    assert "alhpa" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, named",
    [
        ({"alpha": "abc"}, ["'alpha'", "'abc'"]),
        ({"alpha": None}, ["'alpha'", "None"]),
        ({"level": 2.0}, ["'level'", "2.0"]),
        ({"max_lag": True}, ["'max_lag'", "True"]),
        ({"beta": "0.5"}, ["'beta'", "'0.5'"]),
        ({"basis": 4}, ["'basis'", "4"]),
        (5, ["JSON object", "5"]),
        ({"alpha": 1, "beta": None, "level": 2}, None),  # an int fits a float key; beta takes null
    ],
)
def test_config_values_must_have_their_default_type(tmp_path, capsys, config, named):
    path, _ = _noise_file(tmp_path, n=256, seed=5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["dds", "--in", str(path), "--config", str(cfg)])
    err = capsys.readouterr().err
    if named is None:
        assert code == 0 and err == ""
        return
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert all(text in err for text in named)


def test_every_model_setting_is_a_config_key():
    fields = {field for field, _ in _MODEL_KEYS.values()}
    assert fields | {"level_shapes"} == set(asdict(ModelConfig()))


def test_gradcheck_passes_on_fresh_init(capsys):
    assert main(["gradcheck", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    for module in ("dds", "aggregator", "tpg", "cue", "pipeline"):
        line = [l for l in out.splitlines() if l.startswith(module + ":")][0]
        assert line.endswith("ok")
        assert float(line.split("max_rel_err=")[1].split()[0]) < 1e-4


def test_hr_command_recovers_clean_tone(tmp_path, capsys):
    t = np.arange(512) / 30.0
    path = tmp_path / "tone.csv"
    save_waveform(path, np.sin(2 * np.pi * 1.2 * t), fs=30.0)
    assert main(["hr", str(path)]) == 0
    out = capsys.readouterr().out
    bpm = float(out.split(":")[1].split("bpm")[0])
    assert abs(bpm - 72.0) <= 60.0 * (30.0 / 1024.0)


def test_eval_identical_manifests_give_zero_mae(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "d"), "--n-clips", "4", "--seed", "6"]) == 0
    capsys.readouterr()
    manifest = str(tmp_path / "d" / "manifest.jsonl")
    assert main(["eval", "--pred", manifest, "--gt", manifest]) == 0
    out = capsys.readouterr().out
    assert "mae_bpm=0.0000" in out and "pearson_r=1.0000" in out


def test_eval_threshold_exit_code(tmp_path, capsys):
    pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
    pred.write_text("70\n80\n")
    gt.write_text("60\n90\n")
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--max-mae", "5"]) == 2
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--max-mae", "15"]) == 0


def test_eval_requires_a_mode(capsys):
    assert main(["eval"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stats_command_writes_record(tmp_path, capsys):
    t = np.arange(128) / 30.0
    path = tmp_path / "wave.csv"
    save_waveform(path, np.sin(2 * np.pi * 1.0 * t), fs=30.0)
    record = tmp_path / "stats.txt"
    assert main(["stats", "--in", str(path), "--out", str(record)]) == 0
    text = record.read_text()
    for key in ("min=", "max=", "median=", "trend=", "direction=", "top_lags="):
        assert key in text
    assert capsys.readouterr().out.strip() == text.strip()


def test_train_and_eval_roundtrip(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "6", "--seed", "8"]) == 0
    run = tmp_path / "run"
    assert (
        main(["train", "--data", str(data / "manifest.jsonl"), "--out", str(run), "--steps", "3"])
        == 0
    )
    out = capsys.readouterr().out
    assert "final_running_loss=" in out
    curve = (run / "loss_curve.txt").read_text().splitlines()
    assert len(curve) == 3 and curve[0].startswith("1 ")
    assert (
        main(
            [
                "eval",
                "--ckpt",
                str(run / "checkpoint.txt"),
                "--data",
                str(data / "manifest.jsonl"),
            ]
        )
        == 0
    )
    assert "mae_bpm=" in capsys.readouterr().out


def test_eval_takes_the_model_from_the_checkpoint(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "6", "--seed", "8"]) == 0
    manifest = str(data / "manifest.jsonl")
    run = tmp_path / "run"
    argv = ["train", "--data", manifest, "--out", str(run), "--steps", "3"]
    assert main(argv + ["--alpha", "0.3", "--level", "2", "--protos", "32"]) == 0
    trained = capsys.readouterr().out.splitlines()[-3:]
    assert trained[0].startswith("mae_bpm=")
    ckpt = str(run / "checkpoint.txt")
    assert main(["eval", "--ckpt", ckpt, "--data", manifest]) == 0
    assert capsys.readouterr().out.splitlines() == trained

    agrees, conflicts = tmp_path / "agrees.json", tmp_path / "conflicts.json"
    agrees.write_text(json.dumps({"alpha": 0.3, "protos": 32, "seed": 5}))
    conflicts.write_text(json.dumps({"alpha": 0.3, "level": 3}))
    assert main(["eval", "--ckpt", ckpt, "--data", manifest, "--config", str(agrees)]) == 0
    assert capsys.readouterr().out.splitlines() == trained
    assert main(["eval", "--ckpt", ckpt, "--data", manifest, "--config", str(conflicts)]) == 1
    err = capsys.readouterr().err
    assert "level=3" in err and "alpha" not in err


def test_train_is_byte_deterministic(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "5", "--seed", "10"]) == 0
    for d in ("r1", "r2"):
        assert (
            main(
                ["train", "--data", str(data / "manifest.jsonl"), "--out", str(tmp_path / d), "--steps", "2"]
            )
            == 0
        )
    assert (
        (tmp_path / "r1" / "checkpoint.txt").read_bytes()
        == (tmp_path / "r2" / "checkpoint.txt").read_bytes()
    )
    assert (
        (tmp_path / "r1" / "loss_curve.txt").read_bytes()
        == (tmp_path / "r2" / "loss_curve.txt").read_bytes()
    )


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main(["hr", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err
