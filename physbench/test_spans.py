"""The tracer wraps a boundary only while installed, attributes self time
to the innermost span, and names a boundary it cannot find instead of
failing. Run with ``python3 -m pytest physbench``."""

import sys
import time
import types

import spans


def _fake_module():
    mod = types.ModuleType("fake_layer")

    def inner(x):
        time.sleep(0.02)
        return x + 1

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_excludes_child_spans_and_originals_come_back(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    originals = (mod.inner, mod.outer)
    tracer = spans.Tracer((("fake_layer", "inner", "inner"), ("fake_layer", "outer", "outer")))
    with tracer.installed():
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == originals
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert 15 < tracer.self_ms("inner") < 200
    assert 5 < tracer.self_ms("outer") < tracer.self_ms("inner")
    # the inner span's parent is the outer span
    by_name = {tracer.names[c]: i for i, c in enumerate(tracer.span_code)}
    assert tracer.span_parent[by_name["inner"]] == tracer.span_id[by_name["outer"]]
    assert tracer.span_parent[by_name["outer"]] == -1


def test_missing_boundary_is_named_not_fatal(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = spans.Tracer((
        ("fake_layer", "outer", "outer"),
        ("fake_layer", "removed_function", "gone"),
        ("fake_layer", "NoSuchClass.method", "gone.method"),
        ("no_such_module_anywhere", "f", "elsewhere"),
    ))
    with tracer.installed():
        mod.outer(1)
    assert tracer.calls["outer"] == 1
    assert "fake_layer.removed_function" in tracer.skipped
    assert "fake_layer.NoSuchClass.method" in tracer.skipped
    assert "no_such_module_anywhere.f" in tracer.skipped
