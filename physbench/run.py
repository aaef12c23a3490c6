"""physkit benchmark: one workload per invocation, each in fresh processes.

    python3 physbench/run.py --workload train|infer|dds --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/physkit``. BLAS and
OpenMP threads are pinned to 1 and the environment is recorded. With
``--trace 0`` the last line of stdout carries the end-to-end metrics
(``throughput_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
carries the per-layer metrics, the tracing overhead and the names of any
boundary that could not be traced. Both print how many operations were
attempted and failed, and whether every output check passed. Results and
spans are written under ``physbench/out/``.

Set-up time is the median of ``SETUP_SAMPLES`` fresh processes (the timed
one included). The ``infer`` checkpoint is trained once per source tree,
untimed, with ``physkit synth`` and ``physkit train``, and cached under
``physbench/.cache/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CACHE = HERE / ".cache"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}") from exc
    if done.returncode != 0:
        raise BenchError(f"exit {done.returncode}: {' '.join(cmd)}\n{done.stderr[-4000:]}")
    return done


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def ensure_checkpoint() -> Path:
    """The infer checkpoint for this source tree, trained once and untimed:

        physkit synth --out DATA --n-clips 64 --seed 0
        physkit train --data DATA/manifest.jsonl --out DIR
    """
    final = CACHE / f"ckpt-{source_digest()}"
    ckpt = final / "checkpoint.txt"
    if ckpt.is_file():
        return ckpt
    CACHE.mkdir(parents=True, exist_ok=True)
    for stale in CACHE.iterdir():  # other source trees' checkpoints, interrupted runs
        shutil.rmtree(stale, ignore_errors=True)
    tmp = CACHE / f"tmp-{os.getpid()}"
    py = [sys.executable, "-m", "physkit"]
    _run(py + ["synth", "--out", str(tmp / "data"), "--n-clips", "64", "--seed", "0"])
    _run(py + ["train", "--data", str(tmp / "data" / "manifest.jsonl"), "--out", str(tmp)])
    shutil.rmtree(tmp / "data")
    tmp.rename(final)
    return ckpt


def _importtime() -> tuple[float, float]:
    """(import physkit, the scipy part of it) in ms, from ``-X importtime``."""
    err = _run([sys.executable, "-X", "importtime", "-c", "import physkit"]).stderr
    rows = []
    for line in err.splitlines():
        # "import time: <self us> | <cumulative us> | <indented module name>"
        if not line.startswith("import time:"):
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = next(c for d, n, c in rows if n == "physkit")
    # the log is post-order: walk it backwards so ancestors come first
    scipy_us, stack = 0, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy_us += cumulative
        stack.append((depth, name))
    return total / 1e3, scipy_us / 1e3


def _worker(args, setup_only: bool, ckpt: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if ckpt is not None:
        cmd += ["--ckpt", str(ckpt)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    done = _run(cmd)
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(), "cpus": os.cpu_count(), **PINNED}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="physkit benchmark")
    ap.add_argument("--workload", required=True, choices=("train", "infer", "dds"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "physkit" / "__init__.py").is_file():
        print(f"error: no physkit sources under {SRC}", file=sys.stderr)
        return 2
    # every process started from here on inherits the pinned threads
    os.environ.update(PINNED)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        # compile the bytecode once, so no timed import pays for it
        _run([sys.executable, "-c", "import physkit"])
        ckpt = ensure_checkpoint() if args.workload == "infer" else None
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment()}
        if args.trace:
            imports = [_importtime() for _ in range(IMPORT_SAMPLES)]
            res = _worker(args, False, ckpt)
            metrics = dict(res["layers"])
            metrics["physkit.import_ms"] = statistics.median(t for t, _ in imports)
            metrics["physkit.import_scipy_ms"] = statistics.median(s for _, s in imports)
            units = {name: ("count" if name.endswith(("_calls", "_nodes", "_tapes", "_collections",
                                                      "_boundaries")) else
                            "%" if name.endswith("_pct") else "ms") for name in metrics}
            for name in res["skipped"]:
                print(f"trace: skipped boundary {name}: the function no longer exists")
        else:
            setups = [_worker(args, True, ckpt)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            res = _worker(args, False, ckpt)
            setups.append(res["setup_s"])
            metrics = {"throughput_per_s": res["throughput_per_s"],
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": res["peak_rss_mb"]}
            units = {"throughput_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
            record["setup_samples_s"] = setups
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in res["check_failures"]:
        print(f"check failed: {failure}")
    summary = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    record.update(rounds=res["rounds"], timed_s=res["timed_s"], check_failures=res["check_failures"],
                  **summary)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {summary['attempted']}, failed = {summary['failed']}, correct = {summary['correct']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
