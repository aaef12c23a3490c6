import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import physkit
from physkit.errors import ContractError, EstimationError, ParseError
from physkit.signals import (
    HR_BAND_HZ,
    ClipRecord,
    estimate_hr,
    gen_clip,
    load_clip,
    load_waveform,
    metrics,
    read_manifest,
    save_clip,
    save_waveform,
    welch_psd,
    write_manifest,
)


def test_noiseless_clip_has_exact_encoder_estimate():
    clip = gen_clip(72.0, snr_db=math.inf, seed=3)
    assert np.array_equal(clip.x_enc, clip.bvp)


def test_clip_generation_is_bit_deterministic():
    a = gen_clip(90.0, snr_db=5.0, seed=11)
    b = gen_clip(90.0, snr_db=5.0, seed=11)
    assert np.array_equal(a.bvp, b.bvp)
    assert np.array_equal(a.x_enc, b.x_enc)
    for fa, fb in zip(a.pyramid, b.pyramid):
        assert np.array_equal(fa, fb)
    assert a.scene == b.scene
    c = gen_clip(90.0, snr_db=5.0, seed=12)
    assert not np.array_equal(a.bvp, c.bvp)


def test_realized_snr_is_exact():
    clip = gen_clip(65.0, snr_db=10.0, seed=4, n_samples=512)
    phase_clip = gen_clip(65.0, snr_db=math.inf, seed=4, n_samples=512)
    noise = clip.bvp - phase_clip.bvp
    snr = 10.0 * math.log10(np.mean(phase_clip.bvp**2) / np.mean(noise**2))
    assert abs(snr - 10.0) < 1e-9  # noise is rescaled to the target power


def test_pyramid_levels_carry_signal():
    clip = gen_clip(72.0, snr_db=math.inf, seed=5)
    for feat in clip.pyramid:
        flat = feat.reshape(feat.shape[0], -1)
        corr = np.corrcoef(flat.T, clip.bvp)[-1, :-1]
        assert np.max(np.abs(corr)) > 0.5


def test_gen_clip_contract_errors():
    with pytest.raises(ContractError):
        gen_clip(30.0)
    with pytest.raises(ContractError):
        gen_clip(160.0)
    with pytest.raises(ContractError):
        gen_clip(72.0, n_samples=32)
    with pytest.raises(ContractError):
        gen_clip(150.0, fs=9.0)  # below Nyquist for the 2nd harmonic


def test_estimate_recovers_pure_tone():
    fs, n = 30.0, 512
    t = np.arange(n) / fs
    est = estimate_hr(np.sin(2 * np.pi * 1.2 * t), fs)
    assert est.resolution_hz == pytest.approx(30.0 / 1024.0)
    assert abs(est.bpm - 72.0) <= 60.0 * est.resolution_hz


def test_estimate_picks_dominant_of_two_tones():
    fs, n = 30.0, 512
    t = np.arange(n) / fs
    wave = 1.0 * np.sin(2 * np.pi * 1.0 * t) + 0.3 * np.sin(2 * np.pi * 2.0 * t)
    est = estimate_hr(wave, fs)
    assert abs(est.bpm - 60.0) <= 60.0 * est.resolution_hz


def test_estimate_rejects_dc_only_input():
    with pytest.raises(EstimationError):
        estimate_hr(np.full(512, 3.0), 30.0)


def test_estimate_rejects_short_input():
    with pytest.raises(ContractError):
        estimate_hr(np.zeros(100), 30.0)  # under 4 seconds


@pytest.mark.parametrize("fs", [0.0, -30.0, float("nan"), float("inf")])
def test_estimate_rejects_a_bad_sample_rate(fs):
    with pytest.raises(ContractError, match="sample rate"):
        estimate_hr(np.zeros(512), fs)


def test_estimate_is_scale_invariant():
    rng = np.random.default_rng(6)
    t = np.arange(512) / 30.0
    wave = np.sin(2 * np.pi * 1.5 * t) + 0.1 * rng.standard_normal(512)
    a = estimate_hr(wave, 30.0)
    b = estimate_hr(1e3 * wave, 30.0)
    assert a == b


@pytest.mark.parametrize(
    "n, fs",
    [
        (128, 30.0),  # one segment: nperseg is the whole clip
        (1000, 30.0),  # six segments of 256 and a 104-sample tail that fills none
        (600, 29.0),  # odd nperseg 247, three segments
    ],
)
def test_welch_psd_and_estimate_match_scipy_welch(n, fs):
    from scipy.signal import welch

    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 1.3 * t) + 0.5 * np.random.default_rng(n).standard_normal(n)
    x = x - x.mean()
    nperseg = int(min(n, round(256.0 * fs / 30.0)))
    nfft = 4 * nperseg
    want_f, want_psd = welch(x, fs, "hann", nperseg, nperseg // 2, nfft, detrend=False)
    freqs, psd = welch_psd(x, fs, nperseg, nfft)
    assert np.array_equal(freqs, want_f)
    assert np.allclose(psd, want_psd, rtol=1e-12, atol=0.0)
    band = (want_f >= HR_BAND_HZ[0]) & (want_f <= HR_BAND_HZ[1])
    assert estimate_hr(x, fs).bpm == 60.0 * float(want_f[band][np.argmax(want_psd[band])])


def test_importing_physkit_leaves_scipy_signal_unloaded():
    # scipy.signal takes most of a second to import and physkit has no use for it
    code = "import sys, physkit; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(physkit.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_clean_clips_recover_true_rate_within_one_bin():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        hr = float(rng.uniform(45.0, 150.0))
        clip = gen_clip(hr, n_samples=512, snr_db=math.inf, seed=int(rng.integers(1 << 30)))
        est = estimate_hr(clip.bvp, clip.fs)
        worst = max(worst, abs(est.bpm - hr))
        assert abs(est.bpm - hr) <= 60.0 * est.resolution_hz
    assert worst <= 60.0 * (30.0 / 1024.0)


def test_metrics_perfect_alignment():
    rep = metrics([60.0, 75.0, 90.0], [60.0, 75.0, 90.0])
    assert rep.mae == 0.0 and rep.rmse == 0.0 and rep.pearson_r == pytest.approx(1.0)


def test_metrics_single_point_has_undefined_pearson():
    rep = metrics([70.0], [72.0])
    assert rep.mae == 2.0 and rep.rmse == 2.0 and rep.pearson_r is None


def test_metrics_two_point_hand_values():
    # diffs are (-2, +2): MAE 2, RMSE 2; both lists increase so r = 1
    rep = metrics([60.0, 80.0], [62.0, 78.0])
    assert rep.mae == 2.0 and rep.rmse == 2.0
    assert rep.pearson_r == pytest.approx(1.0)


def test_rmse_dominates_mae_on_random_pairs():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 20))
        rep = metrics(rng.uniform(45, 150, n), rng.uniform(45, 150, n))
        assert rep.rmse >= rep.mae >= 0.0


def test_metrics_contract_errors():
    with pytest.raises(ContractError):
        metrics([1.0, 2.0], [1.0])
    with pytest.raises(ContractError):
        metrics([], [])


def test_waveform_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal(64)
    path = tmp_path / "wave.csv"
    save_waveform(path, x, fs=30.0)
    back, fs = load_waveform(path)
    assert fs == 30.0 and np.array_equal(back, x)


def test_waveform_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("fs=30\n1.0\noops\n")
    with pytest.raises(ParseError) as err:
        load_waveform(path)
    assert "line 3" in str(err.value)
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ParseError) as err:
        load_waveform(path)
    assert "line 1" in str(err.value)


def test_manifest_and_clip_files_roundtrip(tmp_path):
    clip = gen_clip(80.0, snr_db=10.0, seed=21)
    rec = save_clip(tmp_path, "clip_000", clip)
    assert vars(rec) == {"clip_id": "clip_000", "hr_bpm": 80.0, **vars(clip.scene), "seed": 21}
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, [rec])
    loaded = read_manifest(path)
    assert len(loaded) == 1 and loaded[0] == rec
    back = load_clip(tmp_path, loaded[0])
    assert np.array_equal(back.bvp, clip.bvp)
    assert np.array_equal(back.x_enc, clip.x_enc)
    for got, want in zip(back.pyramid, clip.pyramid, strict=True):
        assert got.dtype == np.float32 and np.array_equal(got, want)
    assert (back.hr_bpm, back.fs, back.scene, back.seed) == (80.0, 30.0, clip.scene, 21)


def _record(**fields) -> str:
    """A manifest line of one record, with fields changed or added."""
    rec = dict(clip_id="c", hr_bpm=72.0, lighting="dim", motion=False, skin_tone="type-2", seed=1)
    return json.dumps({**rec, **fields}) + "\n"


def test_manifest_row_without_scene_labels_is_refused(tmp_path):
    # the scene labels are read from the row; no other source holds them
    path = tmp_path / "manifest.jsonl"
    row = json.loads(_record())
    del row["lighting"]
    path.write_text(_record() + json.dumps(row) + "\n")
    with pytest.raises(ParseError, match="line 2: .*lighting"):
        read_manifest(path)


def test_manifest_with_level_shapes_is_refused(tmp_path):
    # every clip's pyramid has LEVEL_SHAPES, so a manifest states no shapes
    path = tmp_path / "manifest.jsonl"
    path.write_text(_record(level_shapes=[[8, 8], [6, 6], [4, 4]]))
    with pytest.raises(ParseError, match="line 1: .*level_shapes"):
        read_manifest(path)


def test_a_manifest_that_names_regeneration_fields_is_refused_on_line_1(tmp_path):
    # a row of the 8-field format, which named the files and gen_clip's arguments
    path = tmp_path / "manifest.jsonl"
    old = {"bvp_path": "c.bvp.csv", "fs": 30.0, "n_samples": 128, "snr_db": 10.0, "xenc_path": "c.xenc.csv"}
    path.write_text(json.dumps({"clip_id": "c", "hr_bpm": 72.0, "seed": 1, **old}, sort_keys=True) + "\n")
    with pytest.raises(ParseError, match="line 1: bad manifest record: .*unexpected keyword argument 'bvp_path'"):
        read_manifest(path)


def _one_record_manifest(tmp_path, **fields):
    path = tmp_path / "manifest.jsonl"
    path.write_text(_record(**fields))
    return path


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", False),
        ("hr_bpm", "72"),
        ("hr_bpm", float("nan")),
        ("clip_id", 3),
        ("lighting", None),
        ("motion", 0),
        ("motion", "true"),
        ("skin_tone", ["type-2"]),
    ],
)
def test_manifest_refuses_a_field_of_the_wrong_json_type(tmp_path, field, value):
    path = _one_record_manifest(tmp_path, **{field: value})
    with pytest.raises(ParseError, match=f"line 1: bad manifest record: {field} must be"):
        read_manifest(path)


@pytest.mark.parametrize(
    "field, value, kind",
    [("clip_id", 3, "a string"), ("hr_bpm", float("inf"), "a finite number"), ("seed", 1.5, "an integer")],
)
def test_clip_record_checks_its_own_fields(field, value, kind):
    row = dict(clip_id="c", hr_bpm=72.0, lighting="dim", motion=False, skin_tone="type-2", seed=1)
    with pytest.raises(ContractError) as err:
        ClipRecord(**{**row, field: value})
    assert str(err.value) == f"{field} must be {kind}, got {value!r}"


@pytest.mark.parametrize("field, value", [("lighting", "very dim"), ("skin_tone", "type-9")])
def test_manifest_refuses_a_scene_label_outside_the_vocabulary_on_its_line(tmp_path, field, value):
    # a caption of another label tokenizes to another length than its batch's
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(_record(**({field: value} if i == 3 else {})) for i in range(8)))
    with pytest.raises(ParseError, match=f"line 4: bad manifest record: {field} must be one of .*{value}"):
        read_manifest(path)


@pytest.mark.parametrize("line", ['"clip_000"', "[1, 2]", "7"])
def test_manifest_refuses_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "manifest.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ParseError, match="line 1: bad manifest record: not a JSON object"):
        read_manifest(path)


@pytest.mark.parametrize("clip_id", ["", ".", "..", "../x", "a/b", "/abs"])
def test_manifest_refuses_a_clip_id_that_is_not_a_bare_file_stem(tmp_path, clip_id):
    # a clip's files, and predict's output for it, are named <clip_id>.<kind> in one directory
    path = tmp_path / "manifest.jsonl"
    path.write_text(_record(clip_id="c") + _record(clip_id=clip_id))
    with pytest.raises(ParseError) as err:
        read_manifest(path)
    refusal = f"clip_id must be a bare file stem, got {clip_id!r}"
    assert str(err.value) == f"{path}: line 2: bad manifest record: {refusal}"


def test_manifest_refuses_a_clip_id_on_two_lines_naming_both(tmp_path):
    path = tmp_path / "manifest.jsonl"
    # the blank line 3 is skipped but still counted
    rows = [_record(clip_id="clip_000"), _record(clip_id="clip_001"), "\n", _record(clip_id="clip_000")]
    path.write_text("".join(rows))
    with pytest.raises(ParseError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}: clip_id 'clip_000' is on lines 1 and 4"


def test_manifest_reads_whole_numbers_as_rates(tmp_path):
    (rec,) = read_manifest(_one_record_manifest(tmp_path, hr_bpm=72))
    assert rec.hr_bpm == 72
