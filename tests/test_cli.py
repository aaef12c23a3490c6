import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from physkit import numcore as nc
from physkit import pipeline
from physkit.cli import _load_clips, main
from physkit.errors import NumericError
from physkit.numcore import ParamStore
from physkit.pipeline import ModelConfig, Pipeline, TrainConfig, build_pipeline, load_pipeline, train
from physkit.signals import estimate_hr, gen_clip, load_waveform, save_clip, save_waveform, write_manifest
from physkit.stationarize import standardize


def _noise_file(tmp_path, n=8192, seed=0, name="noise.csv"):
    x = np.random.default_rng(seed).standard_normal(n)
    path = tmp_path / name
    save_waveform(path, x, fs=30.0)
    return path, x


def test_synth_is_byte_deterministic(tmp_path):
    for d in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / d), "--n-clips", "5", "--seed", "4"]) == 0
    for name in ["manifest.jsonl", "clip_000.bvp.csv", "clip_004.xenc.csv", "clip_000.pyramid"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_rejects_empty_request(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "d"), "--n-clips", "0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--fs=nan", "--fs=inf", "--snr=nan", "--snr=-inf"])
def test_synth_refuses_non_finite_settings(tmp_path, capsys, flag):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--n-clips", "2", flag]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not (out / "manifest.jsonl").exists()


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


def test_args_file_sets_flags_and_a_later_flag_overrides_it(tmp_path, capsys):
    path, _ = _noise_file(tmp_path, n=1024, seed=3)
    args_file = tmp_path / "dds.args"
    args_file.write_text("--alpha=0.5\n")

    def theo(argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        return float([l for l in out.splitlines() if l.startswith("theoretical")][0].split("=")[1])

    base = ["dds", "--in", str(path), "--beta", "0"]
    assert theo(base) == pytest.approx(0.8 / 1.2, abs=1e-6)  # ModelConfig's alpha
    assert theo(base + [f"@{args_file}"]) == pytest.approx(0.5 / 1.5, abs=1e-6)
    assert theo(base + [f"@{args_file}", "--alpha", "0.9"]) == pytest.approx(0.9 / 1.1, abs=1e-6)


@pytest.mark.parametrize(
    "line, named",
    [
        ("--alhpa=0.5", "unrecognized arguments: --alhpa=0.5"),
        ("--config=cfg.json", "unrecognized arguments: --config=cfg.json"),
        ("--alpha=abc", "argument --alpha: invalid float value: 'abc'"),
        ("--level=2.0", "argument --level: invalid int value: '2.0'"),
        ("--basis=sym4", "argument --basis: invalid choice: 'sym4'"),
    ],
    ids=["unknown-flag", "config-flag", "bad-float", "bad-int", "bad-choice"],
)
def test_bad_line_in_args_file_is_a_usage_error(tmp_path, capsys, line, named):
    path, _ = _noise_file(tmp_path, n=256, seed=4)
    args_file = tmp_path / "dds.args"
    args_file.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["dds", "--in", str(path), f"@{args_file}"])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("level", ["-1", "0"])
def test_dds_refuses_a_level_below_one(tmp_path, capsys, level):
    path, _ = _noise_file(tmp_path, n=256, seed=6)
    out = tmp_path / "z.csv"
    assert main(["dds", "--in", str(path), "--out", str(out), "--level", level]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and f"got {level}" in err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["nan", "2", "-0.5"])
def test_dds_refuses_a_blend_outside_unit_interval(tmp_path, capsys, beta):
    path, _ = _noise_file(tmp_path, n=256, seed=7)
    out = tmp_path / "z.csv"
    assert main(["dds", "--in", str(path), "--out", str(out), "--beta", beta]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "blend" in err
    assert not out.exists()


NEW_TRAIN_FLAGS = ["--dim", "--heads", "--vocab", "--chunk", "--patch-len", "--patch-stride", "--lm-layers"]


@pytest.mark.parametrize("command", ["synth", "dds", "train", "predict", "eval", "gradcheck", "hr", "stats"])
def test_help_renders_for_every_command(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: physkit {command}")
    if command == "train":
        assert all(flag in out for flag in NEW_TRAIN_FLAGS)


def test_train_flags_set_every_config_field(tmp_path, capsys, monkeypatch):
    # field -> (flag, a value other than its default)
    settings = {
        "dim": ("--dim", 32), "heads": ("--heads", 2), "vocab_size": ("--vocab", 256),
        "n_prototypes": ("--protos", 16), "prompt_len": ("--prompt-len", 8),
        "target_len": ("--l-target", 16), "chunk_len": ("--chunk", 160),
        "patch_len": ("--patch-len", 8), "patch_stride": ("--patch-stride", 4),
        "alpha": ("--alpha", 0.5), "wavelet": ("--basis", "db4"), "level": ("--level", 2),
        "lm_layers": ("--lm-layers", 1),
        "lr": ("--lr", 1e-3), "weight_decay": ("--wd", 1e-4), "batch_size": ("--batch", 2),
        "steps": ("--steps", 1), "seed": ("--seed", 7),
    }
    model_fields, train_fields = set(asdict(ModelConfig())), set(asdict(TrainConfig()))
    assert set(settings) == model_fields | train_fields
    for field, (_, value) in settings.items():
        default = getattr(ModelConfig() if field in model_fields else TrainConfig(), field)
        assert value != default, field

    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "4", "--seed", "2", "--chunk", "160"]) == 0
    seen = []

    def recording_train(clips, tcfg, **kw):
        seen.append(tcfg)
        return train(clips, tcfg, **kw)

    monkeypatch.setattr("physkit.cli.train", recording_train)
    run = tmp_path / "run"
    argv = ["train", "--data", str(data / "manifest.jsonl"), "--out", str(run)]
    argv += [str(part) for flag, value in settings.values() for part in (flag, value)]
    assert main(argv) == 0

    header = ParamStore.read_config(run / "checkpoint.txt")
    expected = {f: v for f, (_, v) in settings.items() if f in model_fields}
    assert header == expected
    assert asdict(seen[0]) == {f: v for f, (_, v) in settings.items() if f in train_fields}


def test_gradcheck_passes_on_fresh_init(capsys):
    assert main(["gradcheck", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    for module in ("dds", "aggregator", "tpg", "cue", "pipeline"):
        line = [l for l in out.splitlines() if l.startswith(module + ":")][0]
        assert line.endswith("ok")
        assert float(line.split("max_rel_err=")[1].split()[0]) < 1e-4


def test_gradcheck_passes_at_seed_3(capsys):
    # central differences at step 1e-5 once failed this seed; the five-point
    # audit's worst here is the pipeline's 7.6e-7
    assert main(["gradcheck", "--seed", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_gradcheck_fails_on_a_one_percent_wrong_gradient(monkeypatch, capsys):
    gelu = nc.gelu

    def gelu_with_wrong_grad(t):
        out = gelu(t)
        if out.node is not None:
            right = out.node.grad_fn
            out.node.grad_fn = lambda g: tuple(1.01 * gi for gi in right(g))
        return out

    monkeypatch.setattr(nc, "gelu", gelu_with_wrong_grad)
    assert main(["gradcheck", "--seed", "3"]) == 2
    pipeline = [l for l in capsys.readouterr().out.splitlines() if l.startswith("pipeline:")]
    assert pipeline[0].endswith("FAIL")


def test_gradcheck_module_audits_fail_only_where_a_wrong_gradient_runs(monkeypatch, capsys):
    token_map = nc.token_map
    # weight rows whose token_map gets the wrong gradient -> each audit's status;
    # 7 rows is the tiny model's signal-token adapter
    cases = {
        None: {"dds": "ok", "aggregator": "FAIL", "tpg": "FAIL", "cue": "ok", "pipeline": "FAIL"},
        7: {"dds": "ok", "aggregator": "ok", "tpg": "FAIL", "cue": "ok", "pipeline": "FAIL"},
    }
    for rows, expected in cases.items():

        def token_map_with_wrong_grad(x, w, rows=rows):
            out = token_map(x, w)
            if out.node is not None and rows in (None, w.shape[0]):
                right = out.node.grad_fn
                out.node.grad_fn = lambda g: tuple(1.01 * gi for gi in right(g))
            return out

        monkeypatch.setattr(nc, "token_map", token_map_with_wrong_grad)
        assert main(["gradcheck", "--seed", "0"]) == 2
        status = {l.split(":")[0]: l.split()[-1] for l in capsys.readouterr().out.splitlines()}
        assert status == expected, rows


def test_hr_command_recovers_clean_tone(tmp_path, capsys):
    t = np.arange(512) / 30.0
    path = tmp_path / "tone.csv"
    save_waveform(path, np.sin(2 * np.pi * 1.2 * t), fs=30.0)
    assert main(["hr", str(path)]) == 0
    out = capsys.readouterr().out
    bpm = float(out.split(":")[1].split("bpm")[0])
    assert abs(bpm - 72.0) <= 60.0 * (30.0 / 1024.0)


@pytest.mark.parametrize("command", ["hr", "dds"])
def test_hr_and_dds_take_no_seed(tmp_path, capsys, command):
    path = tmp_path / "tone.csv"
    save_waveform(path, np.sin(2 * np.pi * 1.2 * np.arange(512) / 30.0), fs=30.0)
    argv = {"hr": ["hr", str(path)], "dds": ["dds", "--in", str(path)]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["0", "-30", "nan", "inf"])
def test_bad_sample_rate_is_one_error_line(tmp_path, capsys, rate):
    path = tmp_path / "wave.csv"
    path.write_text(f"fs={rate}\n" + "0.5\n" * 512)
    out = tmp_path / "z.csv"
    for argv in (["hr", str(path)], ["dds", "--in", str(path), "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: line 1:")
    assert not out.exists()


@pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
def test_non_finite_sample_is_one_error_line(tmp_path, capsys, sample):
    path = tmp_path / "wave.csv"
    path.write_text("fs=30\n" + "0.5\n" * 200 + f"{sample}\n")
    out = tmp_path / "z.csv"
    for argv in (
        ["stats", "--in", str(path)],
        ["dds", "--in", str(path), "--out", str(out)],
        ["hr", str(path)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: line 202:")
    assert not out.exists()


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


@pytest.mark.parametrize("bound", ["nan", "-1"])
def test_eval_refuses_a_max_mae_below_zero_or_nan(tmp_path, capsys, bound):
    pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
    pred.write_text("70\n80\n")
    gt.write_text("40\n110\n")
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--max-mae", bound]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert "--max-mae" in captured.err


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
def test_eval_refuses_a_non_finite_rate_naming_its_line(tmp_path, capsys, rate):
    pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
    pred.write_text(f"70\n{rate}\n")
    gt.write_text("70\n80\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--max-mae", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: {pred}: line 2:")


def test_eval_refuses_a_manifest_rate_that_is_not_finite(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "d"), "--n-clips", "2", "--seed", "6"]) == 0
    gt = tmp_path / "d" / "manifest.jsonl"
    first, second = gt.read_text().splitlines()
    pred = tmp_path / "pred.jsonl"
    pred.write_text(first + "\n" + json.dumps({**json.loads(second), "hr_bpm": float("nan")}) + "\n")
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--max-mae", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: {pred}: line 2:")


def test_eval_requires_a_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 2
    assert "the following arguments are required: --pred, --gt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--pred", "{gt}", "--gt", "{gt}", "--ckpt", "{ckpt}", "--data", "{gt}"],
        ["--pred", "{gt}", "--gt", "{gt}", "--ckpt", "{ckpt}"],
    ],
    ids=["both-modes", "pred-with-ckpt"],
)
def test_eval_takes_no_ckpt_or_data_flag(tmp_path, capsys, flags):
    # running a checkpoint is predict's job; eval scores rate lists only
    assert main(["synth", "--out", str(tmp_path / "d"), "--n-clips", "2"]) == 0
    gt, ckpt = tmp_path / "d" / "manifest.jsonl", tmp_path / "checkpoint.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval"] + [f.format(gt=gt, ckpt=ckpt) for f in flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --ckpt {ckpt}" in captured.err


def test_eval_refuses_rate_lists_of_different_lengths_naming_both_files(tmp_path, capsys):
    pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
    pred.write_text("70\n80\n90\n")
    gt.write_text("70\n80\n")
    assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1
    assert _one_error_line(capsys) == f"error: --pred {pred} holds 3 rates, --gt {gt} holds 2\n"


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
    pred = tmp_path / "pred"
    assert main(_predict(run / "checkpoint.txt", data / "manifest.jsonl", pred)) == 0
    assert capsys.readouterr().out == f"wrote 6 predictions to {pred}\n"
    assert main(["eval", "--pred", str(pred / "hr.txt"), "--gt", str(data / "manifest.jsonl")]) == 0
    assert "mae_bpm=" in capsys.readouterr().out


def test_train_saves_its_run_and_scores_nothing(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()

    def diverged(*_):
        raise NumericError("[lm] attention received non-finite values")

    monkeypatch.setattr(pipeline, "evaluate", diverged)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data / "manifest.jsonl"), "--out", str(run), "--steps", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0].split(":")[0] for line in out] == [
        "parameters", "initial_running_loss", "final_running_loss"
    ]
    assert len((run / "loss_curve.txt").read_text().splitlines()) == 2
    assert load_pipeline(run / "checkpoint.txt").store.n_values() == int(out[0].split()[1])


def test_train_takes_no_eval_data_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "out"), "--eval-data", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eval-data x" in capsys.readouterr().err


def test_eval_takes_the_model_from_the_checkpoint(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "6", "--seed", "8"]) == 0
    manifest = str(data / "manifest.jsonl")
    run = tmp_path / "run"
    argv = ["train", "--data", manifest, "--out", str(run), "--steps", "3"]
    assert main(argv + ["--alpha", "0.3", "--level", "2", "--protos", "32"]) == 0
    capsys.readouterr()
    ckpt, pred = str(run / "checkpoint.txt"), tmp_path / "pred"
    assert main(_predict(ckpt, manifest, pred)) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred / "hr.txt"), "--gt", manifest]) == 0
    (_, clips), tcfg = _load_clips(manifest), TrainConfig(steps=3)
    model = build_pipeline(ModelConfig(alpha=0.3, level=2, n_prototypes=32), seed=tcfg.seed)
    model, _ = train(clips, tcfg, model=model)
    assert capsys.readouterr().out.splitlines() == pipeline.evaluate(model, clips).lines()

    assert ParamStore.read_config(ckpt)["n_prototypes"] == 32

    # predict has no model flags: the checkpoint is the model's only source
    with pytest.raises(SystemExit) as exc:
        main(_predict(ckpt, manifest, pred) + ["--alpha", "0.3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha 0.3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--l-target", "0"], "target_len"),
        (["--protos", "0"], "n_prototypes"),
        (["--prompt-len", "0"], "prompt_len"),
        (["--lr", "nan"], "lr"),
    ],
)
def test_train_refuses_a_bad_config_before_training(tmp_path, capsys, flags, named):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "8", "--seed", "3"]) == 0
    capsys.readouterr()
    run = tmp_path / "run"
    argv = ["train", "--data", str(data / "manifest.jsonl"), "--out", str(run), "--steps", "1"]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and named in err
    assert not run.exists()


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


def _predict(ckpt, manifest, out) -> list[str]:
    return ["predict", "--ckpt", str(ckpt), "--data", str(manifest), "--out", str(out)]


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    return err


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
def test_a_negative_seed_is_one_error_line(tmp_path, capsys, command):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--out", str(out), "--n-clips", "2"],
        "train": ["train", "--data", str(data / "manifest.jsonl"), "--out", str(out), "--steps", "1"],
        "gradcheck": ["gradcheck"],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 1
    assert "seed must be in [0, 2**32), got -1" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["hr", "{ckpt}"], ["eval", "--pred", "{ckpt}", "--gt", "{ckpt}"], ["train", "--data", "{ckpt}", "--out", "{out}"]],
    ids=["load_waveform", "hr_list", "read_manifest"],
)
def test_a_checkpoint_given_as_text_input_is_one_error_line(tmp_path, capsys, argv):
    ckpt = tmp_path / "checkpoint.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    out = tmp_path / "out"
    assert main([a.format(ckpt=ckpt, out=out) for a in argv]) == 1
    assert f"{ckpt}: not UTF-8 text" in _one_error_line(capsys)
    assert not out.exists()


def test_eval_refuses_a_text_checkpoint_by_its_magic_line(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    # the text format before the .npy records: one line of decimal floats per parameter
    ckpt = tmp_path / "checkpoint.txt"
    config = build_pipeline(ModelConfig()).store.config
    ckpt.write_text(f"physkit-paramstore 2\n{json.dumps(config, sort_keys=True)}\nlm.head 1 1 2 0.0 0.0\n")
    assert main(_predict(ckpt, data / "manifest.jsonl", tmp_path / "out")) == 1
    assert "missing 'physkit-paramstore 3' header" in _one_error_line(capsys)


def test_eval_refuses_a_float64_checkpoint_as_one_error_line(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    # checkpoints saved before the model computed in float32 hold float64 records
    ckpt = tmp_path / "checkpoint.txt"
    store = build_pipeline(ModelConfig()).store
    with store.float64_image():
        store.save(ckpt)
    assert main(_predict(ckpt, data / "manifest.jsonl", tmp_path / "out")) == 1
    assert "checkpoint float64 (1024, 64) != live float32 (1024, 64) for 'vocab.embedding'" in _one_error_line(capsys)


def test_train_refuses_a_manifest_field_of_the_wrong_type(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    manifest = data / "manifest.jsonl"
    first, second = manifest.read_text().splitlines()
    manifest.write_text(json.dumps({**json.loads(first), "motion": "yes"}) + "\n" + second + "\n")
    out = tmp_path / "out"
    assert main(["train", "--data", str(manifest), "--out", str(out), "--steps", "1"]) == 1
    assert _one_error_line(capsys).startswith(f"error: {manifest}: line 1: bad manifest record: motion")
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("dim", "64"), ("dim", 64.0), ("alpha", "0.8"), ("lm_layers", True)],
)
def test_eval_refuses_a_checkpoint_header_field_of_the_wrong_type(tmp_path, capsys, field, value):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "checkpoint.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    magic, config, records = ckpt.read_bytes().split(b"\n", 2)
    config = json.dumps({**json.loads(config), field: value}, sort_keys=True).encode()
    ckpt.write_bytes(b"\n".join([magic, config, records]))
    assert main(_predict(ckpt, data / "manifest.jsonl", tmp_path / "out")) == 1
    assert f"line 2: header is not a model config: model config {field} must be" in _one_error_line(capsys)


def test_eval_refuses_a_checkpoint_whose_header_has_level_shapes(tmp_path, capsys):
    # a pyramid has the shapes of signals.LEVEL_SHAPES; no model config states them
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "checkpoint.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    magic, config, records = ckpt.read_bytes().split(b"\n", 2)
    config = json.dumps({**json.loads(config), "level_shapes": [[8, 8], [6, 6], [4, 4]]}, sort_keys=True)
    ckpt.write_bytes(b"\n".join([magic, config.encode(), records]))
    assert main(_predict(ckpt, data / "manifest.jsonl", tmp_path / "out")) == 1
    err = _one_error_line(capsys)
    assert "line 2: header is not a model config" in err and "level_shapes" in err


@pytest.mark.parametrize("out", ["afile", "afile/run"])
def test_train_refuses_an_out_that_is_a_file_before_loading_a_clip(tmp_path, capsys, monkeypatch, out):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    (tmp_path / "afile").write_text("kept\n")
    monkeypatch.setattr("physkit.cli.load_clip", lambda *a: pytest.fail("a clip was loaded"))
    monkeypatch.setattr("physkit.cli.load_pipeline", lambda *a: pytest.fail("a checkpoint was loaded"))
    monkeypatch.setattr(Pipeline, "forward", lambda *a: pytest.fail("forward ran"))
    manifest, ckpt = str(data / "manifest.jsonl"), str(tmp_path / "checkpoint.txt")
    for argv in (
        ["train", "--data", manifest, "--out", str(tmp_path / out), "--steps", "2"],
        _predict(ckpt, manifest, tmp_path / out),
    ):
        assert main(argv) == 1
        expected = f"error: --out {tmp_path / out}: {tmp_path / 'afile'} is not a directory\n"
        assert _one_error_line(capsys) == expected
        assert (tmp_path / "afile").read_text() == "kept\n"


def test_predict_writes_each_clip_waveform_and_the_rate_read_from_it(tmp_path, capsys):
    data, run, pred = tmp_path / "data", tmp_path / "run", tmp_path / "pred"
    assert main(["synth", "--out", str(data), "--n-clips", "3", "--seed", "2"]) == 0
    manifest = str(data / "manifest.jsonl")
    assert main(["train", "--data", manifest, "--out", str(run), "--steps", "2"]) == 0
    capsys.readouterr()
    assert main(_predict(run / "checkpoint.txt", manifest, pred)) == 0
    assert capsys.readouterr().out == f"wrote 3 predictions to {pred}\n"
    model = load_pipeline(run / "checkpoint.txt")
    _, clips = _load_clips(manifest)
    waves, rates = pipeline.predict_rates(model, clips)
    assert sorted(p.name for p in pred.iterdir()) == [f"clip_00{i}.pred.csv" for i in range(3)] + ["hr.txt"]
    assert (pred / "hr.txt").read_text() == "".join(f"{r!r}\n" for r in rates)
    for i, (wave, rate) in enumerate(zip(waves, rates)):
        written, fs = load_waveform(pred / f"clip_{i:03d}.pred.csv")
        assert fs == 30.0 and np.array_equal(written, wave)
        assert estimate_hr(written, fs).bpm == rate


def test_a_failing_forward_pass_in_predict_names_the_checkpoint(tmp_path, capsys):
    data, run, pred = tmp_path / "data", tmp_path / "run", tmp_path / "pred"
    assert main(["synth", "--out", str(data), "--n-clips", "4"]) == 0
    manifest = str(data / "manifest.jsonl")
    # one step at this rate saves finite weights whose forward pass overflows
    assert main(["train", "--data", manifest, "--out", str(run), "--steps", "1", "--lr", "1e6"]) == 0
    capsys.readouterr()
    ckpt = run / "checkpoint.txt"
    assert main(_predict(ckpt, manifest, pred)) == 1
    assert _one_error_line(capsys) == f"error: {ckpt}: [lm] attention received non-finite values\n"
    assert not pred.exists()


def test_train_loads_the_waveforms_synth_writes(tmp_path):
    data = tmp_path / "data"
    argv = ["synth", "--out", str(data), "--n-clips", "4", "--seed", "5", "--snr", "3", "--chunk", "160"]
    assert main(argv) == 0
    _, clips = _load_clips(data / "manifest.jsonl")
    assert len(clips) == 4
    for i, clip in enumerate(clips):
        for kind, wave in (("bvp", clip.bvp), ("xenc", clip.x_enc)):
            written, fs = load_waveform(data / f"clip_{i:03d}.{kind}.csv")
            assert fs == clip.fs and np.array_equal(written, wave)


@pytest.mark.parametrize(
    "line, sample_error, rate_error",
    [
        ("oops", "bad sample: 'oops'", "bad bpm value: 'oops'"),
        ("nan", "sample is not finite: 'nan'", "bpm value is not finite: 'nan'"),
    ],
)
def test_a_bad_number_line_is_named_by_line_and_quantity(tmp_path, capsys, line, sample_error, rate_error):
    wave, rates = tmp_path / "wave.csv", tmp_path / "rates.txt"
    # blank lines are skipped but still counted
    wave.write_text(f"fs=30\n0.5\n\n{line}\n")
    rates.write_text(f"70\n\n{line}\n")
    assert main(["hr", str(wave)]) == 1
    assert _one_error_line(capsys) == f"error: {wave}: line 4: {sample_error}\n"
    assert main(["eval", "--pred", str(rates), "--gt", str(rates)]) == 1
    assert _one_error_line(capsys) == f"error: {rates}: line 3: {rate_error}\n"


def _write_bad_csv(path) -> None:
    path.write_text("fs=30\n" + "0.5\n" * 3 + "oops\n")


def _write_bad_manifest(path) -> None:
    path.write_text(path.read_text().splitlines()[0] + "\n{not json\n")


def _write_bad_rates(path) -> None:
    path.write_text("70\nx\n")


def _write_bad_checkpoint(path) -> None:
    path.write_text("not a checkpoint\n")


@pytest.mark.parametrize(
    "reader, damage",
    [
        ("hr", _write_bad_csv),
        ("data", _write_bad_manifest),
        ("gt", _write_bad_rates),
        ("pyramid", lambda p: _write_levels(p, _levels(p)[:2])),
        ("ckpt", _write_bad_checkpoint),
    ],
    ids=["hr-csv", "data-manifest", "gt-bpm-list", "pyramid", "ckpt"],
)
def test_a_bad_file_is_named_once_in_the_error_line(tmp_path, capsys, reader, damage):
    data, held = tmp_path / "data", tmp_path / "held"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    assert main(["synth", "--out", str(held), "--n-clips", "2", "--seed", "1"]) == 0
    ckpt, rates = tmp_path / "checkpoint.txt", tmp_path / "rates.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    rates.write_text("70\n80\n")
    manifest, out = str(data / "manifest.jsonl"), str(tmp_path / "out")
    bad, argv = {
        "hr": (tmp_path / "bad.csv", ["hr", str(data / "clip_000.bvp.csv"), "{bad}"]),
        "data": (held / "manifest.jsonl", ["train", "--data", "{bad}", "--out", out]),
        "gt": (tmp_path / "gt.txt", ["eval", "--pred", str(rates), "--gt", "{bad}"]),
        "pyramid": (data / "clip_001.pyramid", _predict(ckpt, manifest, out)),
        "ckpt": (tmp_path / "bad.ckpt", _predict("{bad}", manifest, out)),
    }[reader]
    damage(bad)
    capsys.readouterr()
    assert main([a.format(bad=bad) for a in argv]) == 1
    assert _one_error_line(capsys).count(str(bad)) == 1


@pytest.mark.parametrize(
    "command, wave, error",
    [
        ("hr", np.sin(np.arange(100) / 3.0), "need at least 4 s of samples (120), got 100"),
        ("hr", np.zeros(256), "no finite in-band spectral peak"),
        ("dds", np.arange(5.0), "need at least 2**3 samples, got 5"),
        ("stats", np.arange(3.0), "signal_stats needs (T,) or (rows, T) with T >= 4, got (3,)"),
    ],
    ids=["hr-short", "hr-flat", "dds-tiny", "stats-three"],
)
def test_a_file_its_computation_refuses_is_named_in_the_error_line(tmp_path, capsys, command, wave, error):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    save_waveform(good, np.sin(2 * np.pi * 1.2 * np.arange(256) / 30.0), fs=30.0)
    save_waveform(bad, wave, fs=30.0)
    argv = {
        "hr": ["hr", str(good), str(bad)],
        "dds": ["dds", "--in", str(bad)],
        "stats": ["stats", "--in", str(bad)],
    }[command]
    assert main(argv) == 1
    assert _one_error_line(capsys) == f"error: {bad}: {error}\n"


@pytest.mark.parametrize("name, bad", [("lm.head_skip", np.nan), ("lm.layer0.attn.w_q", np.inf)])
def test_eval_refuses_a_non_finite_checkpoint_value_naming_file_and_parameter(tmp_path, capsys, name, bad):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "checkpoint.txt"
    store = build_pipeline(ModelConfig()).store
    store[name].value[0, 1] = bad
    store.save(ckpt)
    assert main(_predict(ckpt, data / "manifest.jsonl", tmp_path / "out")) == 1
    assert _one_error_line(capsys) == f"error: {ckpt}: checkpoint has non-finite values for {name!r}\n"


def test_a_failing_training_step_is_named_by_step_and_stage(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    capsys.readouterr()

    def diverge(store, **_):
        for p in store:
            if p.name.startswith("lm."):
                p.value[...] = np.nan

    monkeypatch.setattr(nc, "adam_step", diverge)
    out = tmp_path / "out"
    assert main(["train", "--data", str(data / "manifest.jsonl"), "--out", str(out), "--steps", "3"]) == 1
    assert _one_error_line(capsys) == "error: step 2: [lm] attention received non-finite values\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_manifest_of_mixed_clip_lengths_is_one_error_line_before_any_forward(
    tmp_path, capsys, monkeypatch, command
):
    for seed, chunk in ((1, "128"), (2, "160")):
        argv = ["synth", "--out", str(tmp_path / f"s{seed}"), "--n-clips", "2", "--seed", str(seed)]
        assert main(argv + ["--chunk", chunk]) == 0
    # a clip_id is a bare file stem, so s2's clips move beside s1's under new ids
    mixed = tmp_path / "s1" / "mixed.jsonl"
    rows = (tmp_path / "s1" / "manifest.jsonl").read_text().splitlines()
    for line in (tmp_path / "s2" / "manifest.jsonl").read_text().splitlines():
        row = json.loads(line)
        for f in (tmp_path / "s2").glob(f"{row['clip_id']}.*"):
            f.rename(tmp_path / "s1" / f.name.replace("clip_", "long_"))
        rows.append(json.dumps({**row, "clip_id": row["clip_id"].replace("clip_", "long_")}))
    mixed.write_text("\n".join(rows) + "\n")
    ckpt = tmp_path / "checkpoint.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", str(mixed), "--out", str(out)],
        "eval": _predict(ckpt, mixed, out),
    }[command]
    monkeypatch.setattr(Pipeline, "forward", lambda *a: pytest.fail("forward ran"))
    monkeypatch.setattr(nc, "adam_step", lambda *a, **k: pytest.fail("adam_step ran"))
    assert main(argv) == 1
    err = _one_error_line(capsys)
    assert "clip 2 (seed 2000006) has 160 samples, the model reads chunk_len=128" in err
    assert not out.exists()


def test_eval_refuses_clips_under_4_s_before_predicting(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    # 128 samples at 60 Hz are 2.1 s; estimate_hr reads at least 4 s
    assert main(["synth", "--out", str(data), "--n-clips", "2", "--fs", "60"]) == 0
    ckpt = tmp_path / "checkpoint.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "predict", lambda *a, **k: pytest.fail("predict ran"))
    out = tmp_path / "out"
    assert main(_predict(ckpt, data / "manifest.jsonl", out)) == 1
    assert _one_error_line(capsys) == f"error: {ckpt}: need at least 4 s of samples (240), got 128\n"
    assert not out.exists()


def test_eval_reads_a_manifest_whose_first_line_is_blank(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["synth", "--out", str(data), "--n-clips", "3", "--seed", "6"]) == 0
    manifest = data / "manifest.jsonl"
    manifest.write_text("\n" + manifest.read_text())
    capsys.readouterr()
    assert main(["eval", "--pred", str(manifest), "--gt", str(manifest)]) == 0
    assert "mae_bpm=0.0000" in capsys.readouterr().out


def test_samples_written_over_a_clip_file_reach_the_loaded_clip(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "2"]) == 0
    save_waveform(data / "clip_000.xenc.csv", np.zeros(128), fs=30.0)
    _, clips = _load_clips(data / "manifest.jsonl")
    assert not clips[0].x_enc.any() and clips[1].x_enc.any()


def test_clips_that_gen_clip_cannot_make_train_and_evaluate_from_their_files(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    drift = np.linspace(0.0, 3.0, 128)  # gen_clip adds no drift
    records = []
    for i in range(4):
        clip = gen_clip(60.0 + 15.0 * i, seed=40 + i)
        clip.x_enc = clip.x_enc + drift
        records.append(save_clip(data, f"drift_{i}", clip))
    manifest = str(data / "manifest.jsonl")
    write_manifest(manifest, records)
    _, clips = _load_clips(manifest)
    assert np.array_equal(clips[0].x_enc, gen_clip(60.0, seed=40).x_enc + drift)
    run, pred = tmp_path / "run", tmp_path / "pred"
    assert main(["train", "--data", manifest, "--out", str(run), "--steps", "1"]) == 0
    assert main(_predict(run / "checkpoint.txt", manifest, pred)) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(pred / "hr.txt"), "--gt", manifest]) == 0
    model, _ = train(clips, TrainConfig(steps=1))
    assert capsys.readouterr().out.splitlines() == pipeline.evaluate(model, clips).lines()


def _write_levels(path, levels) -> None:
    with open(path, "wb") as fh:
        for level in levels:
            np.lib.format.write_array(fh, level, allow_pickle=False)


def _levels(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        return [np.lib.format.read_array(fh) for _ in range(3)]


def _drop_last_sample(path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _change_rate(path) -> None:
    path.write_text("fs=25.0\n" + path.read_text().split("\n", 1)[1])


def _bad_line_5(path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4] + ["oops\n"] + lines[5:]))


def _nan_in_level_0(path) -> None:
    levels = _levels(path)
    levels[0][3, 2, 1] = np.nan
    _write_levels(path, levels)


def _append_another_pyramid(path) -> None:
    path.write_bytes(path.read_bytes() + path.with_name("clip_002.pyramid").read_bytes())


@pytest.mark.parametrize(
    "damaged, damage, message",
    [
        pytest.param("bvp.csv", Path.unlink, "No such file or directory", id="missing-bvp"),
        pytest.param("xenc.csv", Path.unlink, "No such file or directory", id="missing-xenc"),
        pytest.param("pyramid", Path.unlink, "No such file or directory", id="missing-pyramid"),
        pytest.param("xenc.csv", _drop_last_sample, ": 127 samples at fs=30.0, bvp 128 at fs=30.0", id="short-xenc"),
        pytest.param("xenc.csv", _change_rate, ": 128 samples at fs=25.0, bvp 128 at fs=30.0", id="xenc-rate"),
        pytest.param("bvp.csv", _bad_line_5, "clip_001.bvp.csv: line 5: bad sample: 'oops'", id="bad-sample-line"),
        pytest.param("pyramid", lambda p: _write_levels(p, _levels(p)[:2]), ": bad level 2: EOF", id="two-levels"),
        pytest.param(
            "pyramid",
            lambda p: _write_levels(p, [lv.reshape(128, -1) if i == 1 else lv for i, lv in enumerate(_levels(p))]),
            ": bad level 1: float32 (128, 36), not float32 (128, 6, 6)",
            id="flat-level",
        ),
        pytest.param(
            "pyramid",
            lambda p: _write_levels(p, [lv.astype(np.float64) for lv in _levels(p)]),
            ": bad level 0: float64 (128, 8, 8), not float32 (128, 8, 8)",
            id="float64-level",
        ),
        pytest.param("pyramid", _nan_in_level_0, ": bad level 0: non-finite values", id="nan-level"),
        pytest.param("pyramid", _append_another_pyramid, ": bytes after level 2, the last", id="trailing-bytes"),
    ],
)
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_bad_clip_file_is_one_error_line_naming_it_before_any_forward(
    tmp_path, capsys, monkeypatch, command, damaged, damage, message
):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n-clips", "3"]) == 0
    path = data / f"clip_001.{damaged}"
    damage(path)
    ckpt = tmp_path / "checkpoint.txt"
    build_pipeline(ModelConfig()).store.save(ckpt)
    capsys.readouterr()
    out = tmp_path / "out"
    manifest = str(data / "manifest.jsonl")
    argv = {
        "train": ["train", "--data", manifest, "--out", str(out)],
        "eval": _predict(ckpt, manifest, out),
    }[command]
    monkeypatch.setattr(Pipeline, "forward", lambda *a: pytest.fail("forward ran"))
    monkeypatch.setattr(nc, "adam_step", lambda *a, **k: pytest.fail("adam_step ran"))
    assert main(argv) == 1
    err = _one_error_line(capsys)
    assert str(path) in err and message in err
    assert not out.exists()
