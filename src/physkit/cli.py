"""Batch command-line frontend.

Subcommands: synth, dds, train, eval, gradcheck, hr, stats. Every command
is deterministic given (config, seed): outputs carry no timestamps and all
randomness descends from one root seed split by fixed labels. Config
precedence is flags > config file > defaults. `eval --ckpt` takes the model
from the checkpoint, whose header carries the config it was trained with; a
config file that sets a model key to another value is refused. Exit codes:
0 success, 1 contract/parse/IO error, 2 threshold failure (gradcheck/eval).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import numcore as nc
from .aggregator import FeaturePyramid, aggregate, init_aggregator
from .cues import SceneMeta, compress, fuse_cues, init_compressor, init_fusion, signal_stats
from .errors import ContractError, ParseError, PhyskitError
from .pipeline import ModelConfig, TrainConfig, build_pipeline, load_pipeline, mse_loss, predict, train
from .reprogram import derive_prototypes, init_probe, init_reprogrammer, init_vocab, reprogram
from .signals import (
    ClipRecord,
    _rng,
    estimate_hr,
    gen_clip,
    load_waveform,
    metrics,
    read_manifest,
    save_waveform,
    write_manifest,
)
from .stationarize import init_smoother, smooth, stationarity_report
from .wavelet import get_basis

# config key -> (ModelConfig field, type); their defaults are ModelConfig's
_MODEL_KEYS = {
    "dim": ("dim", int), "heads": ("heads", int), "vocab": ("vocab_size", int),
    "protos": ("n_prototypes", int), "prompt_len": ("prompt_len", int),
    "l_target": ("target_len", int), "chunk": ("chunk_len", int),
    "patch_len": ("patch_len", int), "patch_stride": ("patch_stride", int),
    "alpha": ("alpha", float), "basis": ("wavelet", str), "level": ("level", int),
    "lm_layers": ("lm_layers", int),
}

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "beta": None,  # blend override; None leaves the learnable weight at 0.5
    "snr": 10.0,
    "n_clips": 64,
    "fs": 30.0,
    "steps": 200,
    "lr": 1e-4,
    "wd": 5e-5,
    "batch": 4,
    "max_lag": 8,
    **{key: getattr(ModelConfig(), field) for key, (field, _) in _MODEL_KEYS.items()},
}

GRADCHECK_TOL = 1e-4


def _config_file(args: argparse.Namespace) -> dict[str, object]:
    """The keys that the --config file sets, if one is given."""
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        loaded = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ParseError(f"config file must hold a JSON object, got {loaded!r}")
    unknown = set(loaded) - set(DEFAULTS)
    if unknown:
        raise ContractError(f"unknown config keys: {sorted(unknown)}")
    for key, value in loaded.items():
        if not _fits(value, DEFAULTS[key]):
            raise ParseError(f"config key {key!r} has the wrong type: {value!r}")
    return loaded


def _fits(value, default) -> bool:
    """Whether a config value has its default's type. A float key, and a key
    whose default is null (beta), takes any number; only the latter takes null."""
    if value is None:
        return default is None
    if isinstance(value, bool):
        return isinstance(default, bool)
    if default is None or isinstance(default, float):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """Merge defaults <- config file <- explicit flags."""
    loaded = _config_file(args)
    cfg = {**DEFAULTS, **loaded}
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if getattr(args, "seed", None) is None and "seed" not in loaded:
        env = os.environ.get("PHYSKIT_SEED")
        if env is not None:
            try:
                cfg["seed"] = int(env)
            except ValueError as exc:
                raise ContractError(f"PHYSKIT_SEED must be an integer, got {env!r}") from exc
    return cfg


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**{field: cast(cfg[key]) for key, (field, cast) in _MODEL_KEYS.items()})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg) -> int:
    n = int(cfg["n_clips"])
    if n < 1:
        raise ContractError(f"need at least one clip, got {n}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(cfg["seed"])
    hr_rng = _rng(seed, "synth-hr")
    records = []
    for i in range(n):
        hr = float(hr_rng.uniform(45.0, 150.0))
        clip_seed = (seed * 1_000_003 + i) % (1 << 31)
        clip = gen_clip(
            hr, fs=float(cfg["fs"]), n_samples=int(cfg["chunk"]),
            snr_db=float(cfg["snr"]), seed=clip_seed,
        )
        bvp_name, xenc_name = f"clip_{i:03d}.bvp.csv", f"clip_{i:03d}.xenc.csv"
        save_waveform(out_dir / bvp_name, clip.bvp, clip.fs)
        save_waveform(out_dir / xenc_name, clip.x_enc, clip.fs)
        records.append(
            ClipRecord(
                clip_id=f"clip_{i:03d}",
                bvp_path=bvp_name,
                xenc_path=xenc_name,
                hr_bpm=hr,
                fs=float(cfg["fs"]),
                n_samples=int(cfg["chunk"]),
                snr_db=float(cfg["snr"]),
                seed=clip_seed,
                lighting=clip.scene.lighting,
                motion=clip.scene.motion,
                skin_tone=clip.scene.skin_tone,
            )
        )
    write_manifest(out_dir / "manifest.jsonl", records)
    rates = [r.hr_bpm for r in records]
    print(f"wrote {n} clips to {out_dir}")
    print(f"hr range: {min(rates):.1f}..{max(rates):.1f} bpm, snr: {cfg['snr']} dB")
    return 0


def cmd_dds(args, cfg) -> int:
    x, fs = load_waveform(args.infile)
    store = nc.ParamStore()
    beta = cfg["beta"]
    smoother = init_smoother(
        store,
        alpha=float(cfg["alpha"]),
        level=int(cfg["level"]),
        basis=get_basis(str(cfg["basis"])),
        blend_override=None if beta is None else float(beta),
    )
    z, trace = smooth(x, smoother)
    if args.out:
        save_waveform(args.out, z.data, fs)
    max_lag = int(cfg["max_lag"])
    report = stationarity_report(z.data, max_lag=max_lag, alpha=float(cfg["alpha"]))
    print(f"blend={trace.blend:.4f} mu={trace.mu:.6f} sigma={trace.sigma:.6f}")
    for line in report.lines():
        print(line)
    return 0


def _load_clips(path) -> list:
    records = read_manifest(path)
    if not records:
        raise ContractError(f"manifest {path} has no records")
    return [r.to_clip() for r in records]


def cmd_train(args, cfg) -> int:
    clips = _load_clips(args.data)
    model = build_pipeline(_model_config(cfg), seed=int(cfg["seed"]))
    tcfg = TrainConfig(
        lr=float(cfg["lr"]),
        weight_decay=float(cfg["wd"]),
        batch_size=int(cfg["batch"]),
        steps=int(cfg["steps"]),
        seed=int(cfg["seed"]),
    )
    eval_clips = _load_clips(args.eval_data) if args.eval_data else clips
    model, log = train(clips, tcfg, model=model, eval_clips=eval_clips)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve = "\n".join(f"{s} {repr(l)}" for s, l in log.curve())
    (out_dir / "loss_curve.txt").write_text(curve + "\n")
    model.store.save(out_dir / "checkpoint.txt")
    print(f"parameters: {log.param_count}")
    print(f"initial_running_loss={log.initial_running_loss:.6f}")
    print(f"final_running_loss={log.final_running_loss:.6f}")
    for line in log.hr_metrics.lines():
        print(line)
    return 0


def _hr_list_from(path) -> list[float]:
    text = Path(path).read_text().splitlines()
    if text and text[0].lstrip().startswith("{"):
        return [r.hr_bpm for r in read_manifest(path)]
    rates = []
    for lineno, line in enumerate(text, start=1):
        if not line.strip():
            continue
        try:
            rates.append(float(line))
        except ValueError as exc:
            raise ParseError(f"bad bpm value: {line!r}", line=lineno) from exc
    if not rates:
        raise ContractError(f"{path} holds no heart rates")
    return rates


def cmd_eval(args, cfg) -> int:
    if args.pred and args.gt:
        rep = metrics(_hr_list_from(args.pred), _hr_list_from(args.gt))
    elif args.ckpt and args.data:
        model = load_pipeline(args.ckpt)
        loaded = _config_file(args)
        conflicts = [
            f"{key}={loaded[key]!r} (checkpoint: {getattr(model.cfg, field)!r})"
            for key, (field, cast) in _MODEL_KEYS.items()
            if key in loaded and cast(loaded[key]) != getattr(model.cfg, field)
        ]
        if conflicts:
            raise ContractError("config file disagrees with the checkpoint: " + ", ".join(conflicts))
        clips = _load_clips(args.data)
        preds = predict(model, clips)
        est = [estimate_hr(p, c.fs).bpm for p, c in zip(preds, clips)]
        rep = metrics(est, [c.hr_bpm for c in clips])
    else:
        raise ContractError("eval needs either --pred and --gt, or --ckpt and --data")
    for line in rep.lines():
        print(line)
    if args.out:
        Path(args.out).write_text("\n".join(rep.lines()) + "\n")
    if args.max_mae is not None and rep.mae > args.max_mae:
        print(f"FAIL mae {rep.mae:.4f} > {args.max_mae}", file=sys.stderr)
        return 2
    return 0


def _gradcheck_modules(seed: int) -> dict[str, float]:
    """Per-module finite-difference audits at a randomized (non-gated) point."""
    results: dict[str, float] = {}
    rng = _rng(seed, "gradcheck")

    store = nc.ParamStore()
    smoother = init_smoother(store)
    x = rng.standard_normal(64)

    def f_smoother():
        z, _ = smooth(x, smoother)
        return nc.mean_all(nc.mul(z, z))

    results["dds"] = nc.grad_check(f_smoother, store, eps=1e-5)

    store = nc.ParamStore()
    agg = init_aggregator(store, "va", ((3, 3), (2, 2)), 16, 8, 8, 2, _rng(seed, "gc-agg"))
    agg.gate_inner.value = rng.standard_normal(8) * 0.5
    agg.gate_outer.value = rng.standard_normal(8) * 0.5
    pyr = FeaturePyramid([rng.standard_normal((1, 16, h, w)) for h, w in ((3, 3), (2, 2))])

    def f_agg():
        out = aggregate(pyr, agg)
        return nc.mean_all(nc.mul(out, out))

    results["aggregator"] = nc.grad_check(
        f_agg, store, eps=1e-5, entries=nc.sample_param_entries(store, 60, _rng(seed, "gc-agg-e"))
    )

    store = nc.ParamStore()
    vocab = init_vocab(store, vocab_size=64, dim=8, seed=seed)
    probe = init_probe(store, 64, 8, _rng(seed, "gc-probe"))
    rep = init_reprogrammer(store, "reprog", 8, 2, 8, _rng(seed, "gc-rep"), lengths=(5,), seed=seed)
    x_tok = nc.Tensor(rng.standard_normal((1, 5, 8)))

    def f_rep():
        out = reprogram(x_tok, derive_prototypes(vocab, probe), rep)
        return nc.mean_all(nc.mul(out, out))

    results["tpg"] = nc.grad_check(
        f_rep, store, eps=1e-5, entries=nc.sample_param_entries(store, 60, _rng(seed, "gc-rep-e"))
    )

    store = nc.ParamStore()
    comps = [init_compressor(store, f"cue.{k}", 3, 8, _rng(seed, f"gc-{k}")) for k in ("t", "v", "s")]
    fusion = init_fusion(store, "cue.fuse", 3, 8)
    streams = [nc.Tensor(rng.standard_normal((1, n, 8))) for n in (2, 6, 4)]

    def f_cue():
        parts = [compress(s, c) for s, c in zip(streams, comps)]
        out = fuse_cues(*parts, fusion)
        return nc.mean_all(nc.mul(out, out))

    results["cue"] = nc.grad_check(
        f_cue, store, eps=1e-5, entries=nc.sample_param_entries(store, 60, _rng(seed, "gc-cue-e"))
    )

    tiny = ModelConfig(
        dim=8, heads=2, vocab_size=64, n_prototypes=8, prompt_len=4, target_len=8,
        chunk_len=32, patch_len=8, patch_stride=4, level_shapes=((3, 3), (2, 2)), lm_layers=1,
    )
    model = build_pipeline(tiny, seed=seed)
    # zero heads and gates would block gradient flow upstream and make the
    # audit vacuous; move to a generic point first
    model.head.value = rng.standard_normal(model.head.shape) * 0.2
    model.head_skip.value = rng.standard_normal(model.head_skip.shape) * 0.2
    model.aggregator.gate_inner.value = rng.standard_normal(tiny.dim) * 0.5
    model.aggregator.gate_outer.value = rng.standard_normal(tiny.dim) * 0.5
    pyr = FeaturePyramid([rng.standard_normal((1, 32, h, w)) for h, w in tiny.level_shapes])
    x_enc = rng.standard_normal((1, 32))
    scenes = [SceneMeta(lighting="bright", motion=False, skin_tone="type-2")]
    target = nc.Tensor(rng.standard_normal((1, 32)))

    def f_pipe():
        return mse_loss(model.forward(pyr, x_enc, scenes), target)

    results["pipeline"] = nc.grad_check(
        f_pipe, store=model.store, eps=1e-5,
        entries=nc.sample_param_entries(model.store, 50, _rng(seed, "gc-pipe-e")),
    )
    return results


def cmd_gradcheck(args, cfg) -> int:
    results = _gradcheck_modules(int(cfg["seed"]))
    failed = False
    for name, err in results.items():
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"{name}: max_rel_err={err:.3e} {status}")
        failed = failed or err >= GRADCHECK_TOL
    return 2 if failed else 0


def cmd_hr(args, cfg) -> int:
    for path in args.inputs:
        wave, fs = load_waveform(path)
        est = estimate_hr(wave, fs)
        print(f"{path}: {est.bpm:.2f} bpm (peak {est.freq_hz:.4f} Hz, bin {est.resolution_hz:.4f} Hz)")
    return 0


def cmd_stats(args, cfg) -> int:
    wave, _fs = load_waveform(args.infile)
    s = signal_stats(wave)
    lines = [
        f"min={repr(s.minimum)}",
        f"max={repr(s.maximum)}",
        f"median={repr(s.median)}",
        f"trend={repr(s.trend)}",
        f"direction={s.direction}",
        "top_lags=" + ",".join(str(l) for l in s.top_lags),
    ]
    for line in lines:
        print(line)
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, help="root seed (env PHYSKIT_SEED is the fallback)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="physkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic clip dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-clips", dest="n_clips", type=int)
    p.add_argument("--snr", type=float)
    p.add_argument("--fs", type=float)
    p.add_argument("--chunk", type=int)

    p = sub.add_parser("dds", help="stationarize a waveform and report statistics")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True, help="input waveform CSV")
    p.add_argument("--out", help="output waveform CSV")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float, help="pin the time/frequency blend weight")
    p.add_argument("--level", type=int)
    p.add_argument("--basis", choices=["haar", "db4"])
    p.add_argument("--max-lag", dest="max_lag", type=int)

    p = sub.add_parser("train", help="train the toy pipeline on a dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--eval-data", dest="eval_data", help="held-out manifest for metrics")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--wd", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--level", type=int)
    p.add_argument("--basis", choices=["haar", "db4"])
    p.add_argument("--l-target", dest="l_target", type=int)
    p.add_argument("--prompt-len", dest="prompt_len", type=int)
    p.add_argument("--protos", type=int)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    _add_common(p)
    p.add_argument("--pred", help="predicted rates (manifest or one bpm per line)")
    p.add_argument("--gt", help="reference rates (manifest or one bpm per line)")
    p.add_argument("--ckpt", help="checkpoint to run instead of --pred")
    p.add_argument("--data", help="dataset manifest for --ckpt mode")
    p.add_argument("--out", help="write the metrics record here")
    p.add_argument("--max-mae", dest="max_mae", type=float, help="exit 2 above this MAE")

    p = sub.add_parser("gradcheck", help="finite-difference audit of every module")
    _add_common(p)

    p = sub.add_parser("hr", help="estimate heart rate of waveform files")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="waveform CSV files")

    p = sub.add_parser("stats", help="statistical cue record for a waveform")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True, help="input waveform CSV")
    p.add_argument("--out", help="write the record here")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "dds": cmd_dds,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "hr": cmd_hr,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](args, cfg)
    except PhyskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
