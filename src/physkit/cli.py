"""Batch command-line frontend.

Subcommands: synth, dds, train, predict, eval, gradcheck, hr, stats. Each
setting is one flag whose dest is its ModelConfig or TrainConfig field name
and whose default is that field's default. Flags may also be read from a file
named as @FILE, one argument per line (e.g. --alpha=0.5); a later argument
overrides an earlier one, so `train @base.txt --alpha 0.9` changes one value.
Every command is deterministic given its flags: outputs carry no timestamps,
and synth, train and gradcheck draw all randomness from one root seed
(--seed) split by fixed labels. No other command takes --seed. synth writes
the files of each clip and a manifest; train and predict read the clips from
them. train trains and saves, and scores nothing. predict writes each clip's
predicted waveform and, in hr.txt, the rates ``pipeline.predict_rates`` reads
from them; eval scores such a list against the manifest. predict takes no
model flags: the model comes from the checkpoint. Its two text lines, a magic
line and the trained config as JSON keyed by train's flag dests, precede a
name line and a float32 .npy record per parameter.
Exit codes: 0 success, 1 contract/parse/IO error, 2 usage error (from
argparse) or threshold failure (gradcheck/eval).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import numcore as nc
from .aggregator import aggregate
from .cues import SceneMeta, compress, fuse_cues, signal_stats
from .errors import ContractError, PhyskitError, within
from .pipeline import ModelConfig, TrainConfig, build_pipeline, load_pipeline, mse_loss, predict_rates, train
from .reprogram import derive_prototypes, reprogram
from .signals import (
    HR_BAND_BPM,
    LEVEL_SHAPES,
    estimate_hr,
    gen_clip,
    load_clip,
    load_waveform,
    metrics,
    parse_numbers,
    read_lines,
    read_manifest,
    save_clip,
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
        clip = gen_clip(hr, args.fs, args.chunk_len, args.snr, seed=(seed * 1_000_003 + i) % (1 << 31))
        records.append(save_clip(out_dir, f"clip_{i:03d}", clip))
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
    with within(f"{args.infile}: "):
        z, trace = smooth(x, smoother)
        report = stationarity_report(z.data, max_lag=args.max_lag, alpha=args.alpha)
    if args.out:
        save_waveform(args.out, z.data, fs)
    print(f"blend={trace.blend:.4f} mu={trace.mu:.6f} sigma={trace.sigma:.6f}")
    for line in report.lines():
        print(line)
    return 0


def _load_clips(path) -> tuple[list, list]:
    """A manifest's records and their clips."""
    records = read_manifest(path)
    if not records:
        raise ContractError(f"manifest {path} has no records")
    return records, [load_clip(Path(path).parent, r) for r in records]


def _out_dir(out) -> Path:
    """The --out directory, refused before any input is read if it is or lies under a file."""
    out_dir = Path(out)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ContractError(f"--out {out_dir}: {existing} is not a directory")
    return out_dir


def _from_flags(cls, args):
    """The config dataclass that the parsed flags set; each field is a flag dest."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def cmd_train(args) -> int:
    out_dir = _out_dir(args.out)
    _, clips = _load_clips(args.data)
    model = build_pipeline(_from_flags(ModelConfig, args), seed=args.seed)
    tcfg = _from_flags(TrainConfig, args)
    model, log = train(clips, tcfg, model=model)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve = "\n".join(f"{s} {repr(l)}" for s, l in enumerate(log.losses, start=1))
    (out_dir / "loss_curve.txt").write_text(curve + "\n")
    model.store.save(out_dir / "checkpoint.txt")
    print(f"parameters: {model.store.n_values()}")
    print(f"initial_running_loss={log.initial_running_loss:.6f}")
    print(f"final_running_loss={log.final_running_loss:.6f}")
    return 0


def cmd_predict(args) -> int:
    out_dir = _out_dir(args.out)
    model = load_pipeline(args.ckpt)
    records, clips = _load_clips(args.data)
    with within(f"{args.ckpt}: "):
        waves, rates = predict_rates(model, clips)
    out_dir.mkdir(parents=True, exist_ok=True)
    for record, clip, wave in zip(records, clips, waves):
        save_waveform(out_dir / f"{record.clip_id}.pred.csv", wave, clip.fs)
    (out_dir / "hr.txt").write_text("".join(f"{repr(bpm)}\n" for bpm in rates))
    print(f"wrote {len(clips)} predictions to {out_dir}")
    return 0


def _hr_list_from(path) -> list[float]:
    """The rates of a manifest, or of a file of one bpm value per line."""
    with within(f"{path}: "):
        text = read_lines(path)
        if not next((line for line in text if line.strip()), "").lstrip().startswith("{"):
            rates = parse_numbers(text, 1, "bpm value")
            if not rates:
                raise ContractError("holds no heart rates")
            return rates
    return [r.hr_bpm for r in read_manifest(path)]


def cmd_eval(args) -> int:
    if args.max_mae is not None and not args.max_mae >= 0.0:
        raise ContractError(f"--max-mae must be >= 0, got {args.max_mae}")
    pred, gt = _hr_list_from(args.pred), _hr_list_from(args.gt)
    if len(pred) != len(gt):
        raise ContractError(f"--pred {args.pred} holds {len(pred)} rates, --gt {args.gt} holds {len(gt)}")
    rep = metrics(pred, gt)
    for line in rep.lines():
        print(line)
    if args.out:
        Path(args.out).write_text("\n".join(rep.lines()) + "\n")
    if args.max_mae is not None and rep.mae > args.max_mae:
        print(f"FAIL mae {rep.mae:.4f} > {args.max_mae}", file=sys.stderr)
        return 2
    return 0


def _gradcheck_modules(seed: int) -> dict[str, float]:
    """Finite-difference audits of a tiny model's modules, then of the whole
    model, at a randomized point where no zero head or gate blocks the
    gradient. Audit <name> perturbs trainable entries only, those of
    ``model.params(name)`` for a module, drawn from ``nc.rng(seed,
    "gc-<name>-e")``. The ``tpg`` audit runs the reprogrammer at both of its
    token lengths, so each adapter gets a gradient."""
    rng = nc.rng(seed, "gradcheck")
    tiny = ModelConfig(
        dim=8, heads=2, vocab_size=64, n_prototypes=8, prompt_len=4, target_len=8,
        chunk_len=32, patch_len=8, patch_stride=4, lm_layers=1,
    )
    model = build_pipeline(tiny, seed=seed)
    model.head.value = rng.standard_normal(model.head.shape) * 0.2
    model.head_skip.value = rng.standard_normal(model.head_skip.shape) * 0.2
    model.aggregator.gate_inner.value = rng.standard_normal(tiny.dim) * 0.5
    model.aggregator.gate_outer.value = rng.standard_normal(tiny.dim) * 0.5
    pyr = [rng.standard_normal((1, tiny.chunk_len, h, w)) for h, w in LEVEL_SHAPES]
    x_enc = rng.standard_normal((1, tiny.chunk_len))
    scenes = [SceneMeta(lighting="bright", motion=False, skin_tone="type-2")]
    target = nc.Tensor(rng.standard_normal((1, tiny.chunk_len)))
    x_tok = nc.Tensor(rng.standard_normal((1, tiny.target_len, tiny.dim)))
    streams = [nc.Tensor(rng.standard_normal((1, n, tiny.dim))) for n in (2, 6, 4)]
    x_sig = nc.Tensor(rng.standard_normal((1, tiny.n_signal_tokens, tiny.dim)))

    def power(out) -> nc.Tensor:
        return nc.mean_all(nc.mul(out, out))

    def f_tpg():
        prototypes = derive_prototypes(model.vocab, model.probe)
        return nc.add(*(power(reprogram(x, prototypes, model.reprogrammer)) for x in (x_tok, x_sig)))

    def f_cue():
        parts = {kind: compress(s, model.compressors[kind]) for kind, s in zip(model.compressors, streams)}
        return power(fuse_cues(parts, model.fusion))

    audits = {
        "dds": lambda: power(smooth(x_enc[0], model.smoother)[0]),
        "aggregator": lambda: power(aggregate(pyr, model.aggregator)),
        "tpg": f_tpg,
        "cue": f_cue,
        "pipeline": lambda: mse_loss(model.forward(pyr, x_enc, scenes), target),
    }
    results: dict[str, float] = {}
    for name, f in audits.items():
        if name == "pipeline":
            params, n = model.store.trainable(), 50
        else:
            params, n = [p for p in model.params(name) if p.trainable], 60
        entries = nc.sample_param_entries(params, n, nc.rng(seed, f"gc-{name}-e"))
        results[name] = nc.grad_check(f, model.store, entries=entries)
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
        with within(f"{path}: "):
            est = estimate_hr(wave, fs)
        print(f"{path}: {est.bpm:.2f} bpm (peak {est.freq_hz:.4f} Hz, bin {est.resolution_hz:.4f} Hz)")
    return 0


def cmd_stats(args) -> int:
    wave, _fs = load_waveform(args.infile)
    with within(f"{args.infile}: "):
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

    p = _command(sub, "train", cmd_train, "train the toy pipeline on a dataset and save it")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--data", required=True, help="dataset manifest")
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

    p = _command(sub, "predict", cmd_predict, "run a checkpoint on a dataset and save its predictions")
    p.add_argument("--ckpt", required=True, help="checkpoint to run")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--out", required=True, help="output directory")

    p = _command(sub, "eval", cmd_eval, "score predicted rates against reference rates")
    p.add_argument("--pred", required=True, help="predicted rates (manifest or one bpm per line)")
    p.add_argument("--gt", required=True, help="reference rates (manifest or one bpm per line)")
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
