"""The benchmark's tracer (physbench/spans.py) finds every physkit name it
wraps, so renaming a traced function fails here instead of silently dropping
its per-layer span from the benchmark."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "physbench"))

import spans  # noqa: E402


def test_the_benchmark_tracer_skips_no_boundary():
    tracer = spans.Tracer()
    with tracer.installed():
        assert tracer.skipped == []
