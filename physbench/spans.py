"""Spans at physkit's layer boundaries, recorded from outside the package.

A boundary is a public function together with the module that calls it:
the tracer replaces the name that the calling module holds (for example
``physkit.pipeline.smooth_batch``) by a wrapper, and puts the original back
when it is uninstalled. A boundary whose function no longer exists is
skipped and named in ``Tracer.skipped``; nothing under ``src/`` changes.

Each wrapper records one span (id, parent, name, start, end) into flat
arrays, so tracing allocates no objects that outlive a call and does not
shift the garbage collector's thresholds. A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
import weakref
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute path in that module, span name). The module is the
# caller: physkit.pipeline calls smooth_batch, so its copy of the name is the
# one replaced. physkit.signals and physkit.stationarize are also the
# modules through which the benchmark itself calls those layers.
BOUNDARIES = (
    ("physkit.signals", "gen_clip", "signals.gen_clip"),
    ("physkit.pipeline", "build_pipeline", "pipeline.build"),
    ("physkit.numcore", "ParamStore.load_into", "numcore.ckpt_load"),
    ("physkit.numcore", "ParamStore.save", "numcore.ckpt_save"),
    ("physkit.numcore", "backward", "numcore.backward"),
    ("physkit.numcore", "adam_step", "numcore.adam_step"),
    ("physkit.numcore", "matmul", "numcore.matmul"),
    ("physkit.numcore", "gelu", "numcore.gelu"),
    ("physkit.numcore", "softmax_rows", "numcore.softmax"),
    ("physkit.pipeline", "Pipeline.forward", "pipeline.forward"),
    ("physkit.pipeline", "self_attention", "attention.lm_self_attention"),
    ("physkit.pipeline", "feed_forward", "attention.lm_feed_forward"),
    ("physkit.pipeline", "reprogram", "reprogram.reprogram"),
    ("physkit.pipeline", "derive_prototypes", "reprogram.derive_prototypes"),
    ("physkit.pipeline", "aggregate", "aggregator.aggregate"),
    ("physkit.pipeline", "smooth_batch", "stationarize.smooth_batch"),
    ("physkit.pipeline", "signal_stats", "cues.signal_stats"),
    ("physkit.pipeline", "tokenize", "cues.tokenize"),
    ("physkit.pipeline", "compress", "cues.compress"),
    ("physkit.pipeline", "estimate_hr", "signals.estimate_hr"),
    ("physkit.signals", "estimate_hr", "signals.estimate_hr"),
    ("physkit.stationarize", "smooth", "stationarize.smooth"),
    ("physkit.stationarize", "ema_smooth", "stationarize.ema_smooth"),
    ("physkit.stationarize", "stationarity_report", "stationarize.report"),
    ("physkit.stationarize", "dwt", "wavelet.dwt"),
    ("physkit.stationarize", "idwt", "wavelet.idwt"),
)

# counters hooked at the tape's end and the optimizer step, not spans
TAPE_EXIT = ("physkit.numcore", "Tape.__exit__")
STEP_END = "numcore.adam_step"


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.names: list[str] = sorted({name for _, _, name in boundaries})
        self._code = {name: i for i, name in enumerate(self.names)}
        self.skipped: list[str] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        # spans, one entry per finished call
        self.span_id, self.span_parent = array("q"), array("q")
        self.span_code, self.span_round = array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.round = 0
        self.tape_nodes: list[int] = []
        self.live_tapes: list[int] = []
        self.gc_pause_s = 0.0
        self.gc_full = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._finished_tapes: list[weakref.ref] = []
        self._gc_t0 = 0.0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace every boundary by its wrapper for the duration of the block."""
        self.skipped = []
        for module, path, name in self.boundaries:
            found = _resolve(module, path)
            if found is None:
                self.skipped.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self._patch(owner, attr, self._wrap(fn, name))
        found = _resolve(*TAPE_EXIT)
        if found is None:
            self.skipped.append(".".join(TAPE_EXIT))
        else:
            self._patch(found[0], found[1], self._tape_exit(found[2]))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches = []

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        code = self._code[name]
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter
        count_live = name == STEP_END

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self_s[name] += dt - frame[1]
                calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][1] += dt
                    parent = stack[-1][0]
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_code.append(code)
                self.span_round.append(self.round)
                self.span_start.append(t0)
                self.span_end.append(t1)
                if count_live:
                    self._count_live_tapes()

        return traced

    def _tape_exit(self, fn):
        @functools.wraps(fn)
        def exit_and_count(tape, *exc):
            result = fn(tape, *exc)
            self.tape_nodes.append(len(tape))
            self._finished_tapes.append(weakref.ref(tape))
            return result

        return exit_and_count

    def _count_live_tapes(self) -> None:
        """Finished tapes that nothing has freed yet, at the end of a step."""
        self._finished_tapes = [r for r in self._finished_tapes if r() is not None]
        self.live_tapes.append(len(self._finished_tapes))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_t0
        if info.get("generation") == 2:
            self.gc_full += 1

    # -- output -------------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return 1e3 * self.self_s.get(name, 0.0)

    def write_spans(self, path) -> None:
        """One CSV row per span; times in microseconds from the first span."""
        origin = min(self.span_start) if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,round,name,start_us,end_us\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]},{self.span_parent[i]},{self.span_round[i]},"
                    f"{self.names[self.span_code[i]]},"
                    f"{1e6 * (self.span_start[i] - origin):.1f},"
                    f"{1e6 * (self.span_end[i] - origin):.1f}\n"
                )
