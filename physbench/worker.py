"""One workload in one fresh process; started by run.py, not by hand.

    worker.py --workload W --seed N --seconds S --trace 0|1 --spawned-at T [--setup-only]

T is the launcher's ``time.monotonic()`` just before it started this
process, so the reported set-up time runs from process start until the
first timed operation can begin: interpreter start, ``import physkit``,
making the inputs and building the model or loading the checkpoint.

Untraced, the worker runs whole rounds until ``--seconds`` of timed work
have passed. Traced, it alternates untraced and traced rounds until each
side has that much, so the difference in throughput is the tracing
overhead. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Phase:
    """Timed rounds of one kind, traced or not."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.timed_s = 0.0
        self.units = self.rounds = self.attempted = self.failed = 0

    @property
    def throughput(self) -> float:
        return self.units / self.timed_s

    def round(self, work) -> None:
        work.prepare()
        if self.tracer is None:
            self._timed(work)
        else:
            self.tracer.round = self.rounds
            with self.tracer.installed():
                self._timed(work)
        self.rounds += 1
        self.attempted += work.ops_per_round

    def _timed(self, work) -> None:
        t0 = time.perf_counter()
        try:
            self.units += work.run()
        except Exception:  # a failed round counts as failed operations; the run goes on
            self.failed += work.ops_per_round
            print(traceback.format_exc(), file=sys.stderr)
        self.timed_s += time.perf_counter() - t0


def measure(work, seconds: float, traced: bool) -> list[Phase]:
    """Whole rounds until each phase has `seconds` of timed work (at least one).

    Traced, one untimed warm-up round comes first and then untraced and
    traced rounds alternate, so that neither side gets the cold first round.
    """
    if not traced:
        plain = Phase()
        while plain.rounds == 0 or plain.timed_s < seconds:
            plain.round(work)
        return [plain]
    warm, plain, trace = Phase(), Phase(), Phase(tracing.Tracer())
    warm.round(work)
    while plain.rounds == 0 or min(plain.timed_s, trace.timed_s) < seconds:
        plain.round(work)
        trace.round(work)
    return [warm, plain, trace]


def layer_metrics(setup, phases: list[Phase], items_per_round: int) -> dict[str, float]:
    """Per-layer figures: set-up layers per call, the rest per work item
    (train step, inference clip or dds recording) of the traced phase."""
    _warm, plain, traced = phases
    run = traced.tracer
    items = traced.rounds * items_per_round

    def per_call(tracer, name):
        calls = tracer.calls.get(name, 0)
        return tracer.self_ms(name) / calls if calls else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    per_item = (
        "numcore.backward", "numcore.adam_step", "pipeline.forward", "numcore.matmul",
        "numcore.gelu", "numcore.softmax", "attention.lm_self_attention",
        "attention.lm_feed_forward", "reprogram.reprogram", "reprogram.derive_prototypes",
        "aggregator.aggregate", "stationarize.smooth_batch", "cues.signal_stats",
        "cues.tokenize", "cues.compress", "signals.estimate_hr", "stationarize.smooth",
        "stationarize.ema_smooth", "stationarize.report", "wavelet.dwt", "wavelet.idwt",
    )
    out = {f"{span}_ms": run.self_ms(span) / items for span in per_item}
    out.update({
        "pipeline.build_ms": per_call(setup, "pipeline.build"),
        "signals.gen_clip_ms": per_call(setup, "signals.gen_clip"),
        "numcore.ckpt_load_ms": per_call(setup, "numcore.ckpt_load"),
        "numcore.ckpt_save_ms": per_call(run, "numcore.ckpt_save"),
        "numcore.matmul_calls": run.calls.get("numcore.matmul", 0) / items,
        "stationarize.ema_smooth_calls": run.calls.get("stationarize.ema_smooth", 0) / items,
        "numcore.tape_nodes": mean(run.tape_nodes),
        "numcore.live_tapes": mean(run.live_tapes),
        "numcore.gc_pause_ms": 1e3 * run.gc_pause_s / items,
        "numcore.gc_full_collections": run.gc_full / traced.rounds,
        "trace.overhead_pct": 100.0 * (plain.throughput - traced.throughput) / plain.throughput,
        "trace.skipped_boundaries": float(len(set(setup.skipped) | set(run.skipped))),
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--ckpt", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import physkit

    if Path(physkit.__file__).resolve().parent != ROOT / "src" / "physkit":
        raise SystemExit(f"imported physkit from {physkit.__file__}, not from this checkout")
    import workloads

    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        extra = {"train": (workdir,), "infer": (args.ckpt,), "dds": ()}[args.workload]
        setup_tracer = tracing.Tracer() if args.trace else None
        if setup_tracer is None:
            work = kind(args.seed, *extra)
        else:
            with setup_tracer.installed():
                work = kind(args.seed, *extra)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            phases = measure(work, args.seconds, bool(args.trace))
            plain = phases[-2] if args.trace else phases[0]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:
                run_tracer = phases[-1].tracer
                result["layers"] = layer_metrics(setup_tracer, phases, work.items_per_round)
                result["skipped"] = sorted(set(setup_tracer.skipped) | set(run_tracer.skipped))
                run_tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv")
            finished = all(p.failed < p.attempted for p in phases)
            failures = work.check() if finished else ["no round finished"]
            result.update(
                throughput_per_s=plain.throughput,
                timed_s=[p.timed_s for p in phases],
                rounds=[p.rounds for p in phases],
                attempted=sum(p.attempted for p in phases),
                failed=sum(p.failed for p in phases),
                check_failures=failures,
                correct=not failures,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
