"""Batch command-line frontend.

Subcommands: synth, dds, train, eval, gradcheck, hr, stats. Each setting is
one flag whose dest is its ModelConfig or TrainConfig field name and whose
default is that field's default. Flags may also be read from a file named as
@FILE, one argument per line (e.g. --alpha=0.5); a later argument overrides
an earlier one, so `train @base.txt --alpha 0.9` changes one value. Every
command is deterministic given its flags: outputs carry no timestamps, and
synth, train and gradcheck draw all randomness from one root seed (--seed)
split by fixed labels. No other command takes --seed, except dds, which
ignores it. `eval --ckpt` takes no model flags: the model comes from the
checkpoint. Its two text lines, a magic line and the trained config as JSON
keyed by train's flag dests, precede a name line and a float32 .npy record
per parameter.
Exit codes: 0 success, 1 contract/parse/IO error, 2 usage error (from
argparse) or threshold failure (gradcheck/eval).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import numcore as nc
from .aggregator import FeaturePyramid, aggregate, init_aggregator
from .cues import SceneMeta, compress, fuse_cues, init_compressor, init_fusion, signal_stats
from .errors import ContractError, ParseError, PhyskitError
from .pipeline import ModelConfig, TrainConfig, build_pipeline, load_pipeline, mse_loss, predict, train
from .reprogram import derive_prototypes, init_probe, init_reprogrammer, init_vocab, reprogram
from .signals import (
    HR_BAND_BPM,
    ClipRecord,
    estimate_hr,
    gen_clip,
    load_waveform,
    metrics,
    read_lines,
    read_manifest,
    save_waveform,
    write_manifest,
)
from .stationarize import init_smoother, smooth, stationarity_report
from .wavelet import get_basis

GRADCHECK_TOL = 1e-4


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    n = args.n_clips
    if n < 1:
        raise ContractError(f"need at least one clip, got {n}")
    seed = args.seed
    hr_rng = nc.rng(seed, "synth-hr")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(n):
        hr = float(hr_rng.uniform(*HR_BAND_BPM))
        clip_seed = (seed * 1_000_003 + i) % (1 << 31)
        clip = gen_clip(hr, fs=args.fs, n_samples=args.chunk_len, snr_db=args.snr, seed=clip_seed)
        bvp_name, xenc_name = f"clip_{i:03d}.bvp.csv", f"clip_{i:03d}.xenc.csv"
        save_waveform(out_dir / bvp_name, clip.bvp, clip.fs)
        save_waveform(out_dir / xenc_name, clip.x_enc, clip.fs)
        records.append(
            ClipRecord(
                clip_id=f"clip_{i:03d}",
                bvp_path=bvp_name,
                xenc_path=xenc_name,
                hr_bpm=hr,
                fs=args.fs,
                n_samples=args.chunk_len,
                snr_db=args.snr,
                seed=clip_seed,
            )
        )
    write_manifest(out_dir / "manifest.jsonl", records)
    rates = [r.hr_bpm for r in records]
    print(f"wrote {n} clips to {out_dir}")
    print(f"hr range: {min(rates):.1f}..{max(rates):.1f} bpm, snr: {args.snr} dB")
    return 0


def cmd_dds(args) -> int:
    x, fs = load_waveform(args.infile)
    smoother = init_smoother(
        nc.ParamStore(),
        alpha=args.alpha,
        level=args.level,
        basis=get_basis(args.wavelet),
        blend_override=args.beta,
    )
    z, trace = smooth(x, smoother)
    if args.out:
        save_waveform(args.out, z.data, fs)
    report = stationarity_report(z.data, max_lag=args.max_lag, alpha=args.alpha)
    print(f"blend={trace.blend:.4f} mu={trace.mu:.6f} sigma={trace.sigma:.6f}")
    for line in report.lines():
        print(line)
    return 0


def _load_clips(path) -> list:
    records = read_manifest(path)
    if not records:
        raise ContractError(f"manifest {path} has no records")
    return [r.to_clip() for r in records]


def _from_flags(cls, args):
    """The config dataclass that the parsed flags set; each field is a flag dest."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def cmd_train(args) -> int:
    clips = _load_clips(args.data)
    model = build_pipeline(_from_flags(ModelConfig, args), seed=args.seed)
    tcfg = _from_flags(TrainConfig, args)
    eval_clips = _load_clips(args.eval_data) if args.eval_data else clips
    model, log = train(clips, tcfg, model=model, eval_clips=eval_clips)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve = "\n".join(f"{s} {repr(l)}" for s, l in enumerate(log.losses, start=1))
    (out_dir / "loss_curve.txt").write_text(curve + "\n")
    model.store.save(out_dir / "checkpoint.txt")
    print(f"parameters: {model.store.n_values()}")
    print(f"initial_running_loss={log.initial_running_loss:.6f}")
    print(f"final_running_loss={log.final_running_loss:.6f}")
    for line in log.hr_metrics.lines():
        print(line)
    return 0


def _hr_list_from(path) -> list[float]:
    text = read_lines(path)
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
        if not math.isfinite(rates[-1]):
            raise ParseError(f"bpm value is not finite: {line!r}", line=lineno)
    if not rates:
        raise ContractError(f"{path} holds no heart rates")
    return rates


def cmd_eval(args) -> int:
    if args.max_mae is not None and not args.max_mae >= 0.0:
        raise ContractError(f"--max-mae must be >= 0, got {args.max_mae}")
    if args.pred and args.gt:
        rep = metrics(_hr_list_from(args.pred), _hr_list_from(args.gt))
    elif args.ckpt and args.data:
        model = load_pipeline(args.ckpt)
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
    rng = nc.rng(seed, "gradcheck")

    store = nc.ParamStore()
    smoother = init_smoother(store)
    x = rng.standard_normal(64)

    def f_smoother():
        z, _ = smooth(x, smoother)
        return nc.mean_all(nc.mul(z, z))

    results["dds"] = nc.grad_check(f_smoother, store)

    store = nc.ParamStore()
    agg = init_aggregator(store, "va", ((3, 3), (2, 2)), 16, 8, 8, 2, nc.rng(seed, "gc-agg"))
    agg.gate_inner.value = rng.standard_normal(8) * 0.5
    agg.gate_outer.value = rng.standard_normal(8) * 0.5
    pyr = FeaturePyramid([rng.standard_normal((1, 16, h, w)) for h, w in ((3, 3), (2, 2))])

    def f_agg():
        out = aggregate(pyr, agg)
        return nc.mean_all(nc.mul(out, out))

    results["aggregator"] = nc.grad_check(
        f_agg, store, entries=nc.sample_param_entries(store, 60, nc.rng(seed, "gc-agg-e"))
    )

    store = nc.ParamStore()
    vocab = init_vocab(store, vocab_size=64, dim=8, seed=seed)
    probe = init_probe(store, 64, 8, nc.rng(seed, "gc-probe"))
    rep = init_reprogrammer(store, "reprog", 8, 2, 8, nc.rng(seed, "gc-rep"), lengths=(5,), seed=seed)
    x_tok = nc.Tensor(rng.standard_normal((1, 5, 8)))

    def f_rep():
        out = reprogram(x_tok, derive_prototypes(vocab, probe), rep)
        return nc.mean_all(nc.mul(out, out))

    results["tpg"] = nc.grad_check(
        f_rep, store, entries=nc.sample_param_entries(store, 60, nc.rng(seed, "gc-rep-e"))
    )

    store = nc.ParamStore()
    comps = [init_compressor(store, f"cue.{k}", 3, 8, nc.rng(seed, f"gc-{k}")) for k in ("t", "v", "s")]
    fusion = init_fusion(store, "cue.fuse", 3, 8)
    streams = [nc.Tensor(rng.standard_normal((1, n, 8))) for n in (2, 6, 4)]

    def f_cue():
        parts = {kind: compress(s, c) for kind, s, c in zip(fusion, streams, comps)}
        out = fuse_cues(parts, fusion)
        return nc.mean_all(nc.mul(out, out))

    results["cue"] = nc.grad_check(
        f_cue, store, entries=nc.sample_param_entries(store, 60, nc.rng(seed, "gc-cue-e"))
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
        f_pipe, store=model.store,
        entries=nc.sample_param_entries(model.store, 50, nc.rng(seed, "gc-pipe-e")),
    )
    return results


def cmd_gradcheck(args) -> int:
    results = _gradcheck_modules(args.seed)
    failed = False
    for name, err in results.items():
        status = "ok" if err < GRADCHECK_TOL else "FAIL"
        print(f"{name}: max_rel_err={err:.3e} {status}")
        failed = failed or err >= GRADCHECK_TOL
    return 2 if failed else 0


def cmd_hr(args) -> int:
    for path in args.inputs:
        wave, fs = load_waveform(path)
        est = estimate_hr(wave, fs)
        print(f"{path}: {est.bpm:.2f} bpm (peak {est.freq_hz:.4f} Hz, bin {est.resolution_hz:.4f} Hz)")
    return 0


def cmd_stats(args) -> int:
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


def _command(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, which runs `run`."""
    p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.set_defaults(run=run)
    return p


def _add_smoother_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="EMA smoothing factor in (0, 1]")
    p.add_argument("--level", type=int, help="wavelet decomposition level")
    p.add_argument("--basis", dest="wavelet", choices=["haar", "db4"], help="wavelet basis")
    p.set_defaults(alpha=ModelConfig.alpha, level=ModelConfig.level, wavelet=ModelConfig.wavelet)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="physkit", description=__doc__, fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth", cmd_synth, "write a synthetic clip dataset")
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-clips", type=int, default=64, help="clips to write")
    p.add_argument("--snr", type=float, default=10.0, help="signal-to-noise ratio in dB")
    p.add_argument("--fs", type=float, default=30.0, help="sample rate in Hz")
    p.add_argument(
        "--chunk", dest="chunk_len", type=int, default=ModelConfig.chunk_len, help="samples per clip"
    )

    p = _command(sub, "dds", cmd_dds, "stationarize a waveform and report statistics")
    p.add_argument("--in", dest="infile", required=True, help="input waveform CSV")
    p.add_argument("--out", help="output waveform CSV")
    _add_smoother_flags(p)
    p.add_argument("--beta", type=float, help="pin the time/frequency blend weight in [0, 1]")
    p.add_argument("--max-lag", type=int, default=8, help="lags to report")
    p.add_argument("--seed", type=int, default=0, help="ignored: dds draws no random numbers")

    p = _command(sub, "train", cmd_train, "train the toy pipeline on a dataset")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--eval-data", help="held-out manifest for metrics")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int, help="optimizer steps")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--wd", dest="weight_decay", type=float, help="weight decay")
    p.add_argument("--batch", dest="batch_size", type=int, help="clips per step")
    _add_smoother_flags(p)
    p.add_argument("--dim", type=int, help="token width")
    p.add_argument("--heads", type=int, help="attention heads")
    p.add_argument("--vocab", dest="vocab_size", type=int, help="vocabulary size")
    p.add_argument("--protos", dest="n_prototypes", type=int, help="text prototypes")
    p.add_argument("--prompt-len", type=int, help="prompt tokens")
    p.add_argument("--l-target", dest="target_len", type=int, help="visual tokens")
    p.add_argument("--chunk", dest="chunk_len", type=int, help="samples per clip")
    p.add_argument("--patch-len", type=int, help="samples per signal patch")
    p.add_argument("--patch-stride", type=int, help="samples between patches")
    p.add_argument("--lm-layers", type=int, help="transformer layers")
    p.set_defaults(**asdict(ModelConfig()), **asdict(TrainConfig()))

    p = _command(sub, "eval", cmd_eval, "score predictions against ground truth")
    p.add_argument("--pred", help="predicted rates (manifest or one bpm per line)")
    p.add_argument("--gt", help="reference rates (manifest or one bpm per line)")
    p.add_argument("--ckpt", help="checkpoint to run instead of --pred")
    p.add_argument("--data", help="dataset manifest for --ckpt mode")
    p.add_argument("--out", help="write the metrics record here")
    p.add_argument("--max-mae", type=float, help="exit 2 above this MAE")

    p = _command(sub, "gradcheck", cmd_gradcheck, "finite-difference audit of every module")
    p.add_argument("--seed", type=int, default=0, help="root seed")

    p = _command(sub, "hr", cmd_hr, "estimate heart rate of waveform files")
    p.add_argument("inputs", nargs="+", help="waveform CSV files")

    p = _command(sub, "stats", cmd_stats, "statistical cue record for a waveform")
    p.add_argument("--in", dest="infile", required=True, help="input waveform CSV")
    p.add_argument("--out", help="write the record here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (PhyskitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
