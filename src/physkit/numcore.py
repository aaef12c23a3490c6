"""Dense tensors, a reverse-mode tape, and the optimizer used by every
learnable module in the package.

The engine is deliberately small: explicit begin/end tape recording, and
broadcasting restricted to scalar and trailing-dimension cases so that every
backward rule stays auditable. Data is float32 or float64. Each op computes
in NumPy's promoted dtype of its inputs, where a Python float constant is
weak, so a float32 graph stays float32 forward and backward. A
``ParamStore`` names the dtype its parameters are built in, float64 unless
told otherwise.

Multi-head attention is one op, ``attention``, and one tape node: its
projections are 2-D GEMMs on (batch * tokens, width) rows, and it forms the
scores transposed, K Q^T, so that the softmax reduces over axis -2. numpy
reduces a stack of rows along the fast axis about three times faster than
over short last-axis rows (0.2 against 0.6 ms for a max over a
(8, 4, 144, 144) float32 array). The softmax's scale is folded into the Q
projection and its normalisation is deferred to the (batch * tokens, width)
output, so the forward makes four passes over the scores: max, shift, exp
and sum. It checks finiteness once, on its output, which any non-finite
input or overflow on the way reaches. Its backward is written out by hand,
as is that of ``token_map``, the one-node linear map of a token axis.

GELU's normal CDF is (1 + tanh(x R(x^2))) / 2, R a degree-6 polynomial in
x^2, evaluated in float32 for float32 data, and the standard library's
``math.erf`` per element for float64 data, so physkit needs only numpy and
the standard library.
"""

from __future__ import annotations

import ctypes
import json
import math
import numbers
import os
from contextlib import contextmanager
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractError, NumericError, ParseError, ShapeError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ERF64 = np.frompyfunc(math.erf, 1, 1)


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _as_float(x) -> Array:
    """x as an array: float32 or float64 data as given, anything else as float64."""
    x = np.asarray(x)
    return x if x.dtype in _FLOATS else x.astype(np.float64)


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _steady_heap() -> None:
    """Keep multi-MB temporaries on the heap and the freed heap in the process.

    A forward pass allocates and frees attention and FFN temporaries of a few
    MB each. With glibc's defaults these are served by mmap, or trimmed from
    the top of the heap once freed, so each pass faults the same pages back
    in. With the mmap threshold at 32 MB and the trim threshold at 256 MB, a
    900-clip, batch-8 ``predict`` loop after a one-batch warm-up takes about
    215 minor page faults (``ru_minflt``, glibc 2.36) against about 2,060
    without this call. In 10 s physbench pairs, medians, leaving the call out
    raised ``train`` peak RSS from 68.68 to 70.23 MB, higher in 5 of 5 pairs,
    and moved ``infer`` from 362.8 to 341.8 clips/s, the call ahead in 4 of 6
    pairs; ``dds`` stayed inside noise. Both must be set: any mallopt call
    switches off glibc's dynamic mmap threshold, and setting the trim
    threshold alone made the loop take 634k faults at 0.6x the speed. The
    settings hold for the whole process; without mallopt (not glibc) nothing
    changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_steady_heap()


def _fenv_calls():
    """C's (fegetenv, fesetenv) where fenv_t is known to be eight 32-bit
    words ending in the SSE control word MXCSR (x86-64 Linux); else None."""
    try:
        libc = ctypes.CDLL(None)
        known = (os.uname().sysname, os.uname().machine) == ("Linux", "x86_64")
        return (libc.fegetenv, libc.fesetenv) if known else None
    except (AttributeError, OSError, TypeError):
        return None


_FENV_CALLS = _fenv_calls()
# MXCSR bit 15 flushes subnormal results to zero, bit 6 reads subnormal inputs as zero
_MXCSR_FTZ_DAZ = 0x8040


@contextmanager
def subnormals_flushed():
    """Within the block, float arithmetic on this thread reads and rounds
    subnormal numbers (below 1.2e-38 in float32) as zero; on leaving it the
    floating-point environment is put back. Outside x86-64 Linux, and on
    other threads, nothing changes.

    A float32 model that trains for a while grows attention weights and
    gradients below float32's smallest normal number, and a matmul that reads
    them runs several times slower: in a default 200-step run the attention
    backward matmul went from 0.35 to 3.9 ms and the train step from 40 to
    64 ms. With them flushed the step time stays flat.
    """
    if _FENV_CALLS is None:
        yield
        return
    get, put = _FENV_CALLS
    saved = (ctypes.c_uint32 * 8)()
    get(saved)
    flushed = (ctypes.c_uint32 * 8)(*saved)
    flushed[7] |= _MXCSR_FTZ_DAZ
    put(flushed)
    try:
        yield
    finally:
        put(saved)


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _key_word(key: int | str) -> int:
    if isinstance(key, str):
        return reduce(lambda h, ch: (h * 131 + ch) & 0xFFFFFFFF, key.encode("utf-8"), 0)
    if is_int(key) and key >= 0:
        return int(key)
    raise ContractError(f"rng key must be a non-negative integer or a string, got {key!r}")


def rng(seed: int, *keys: int | str) -> np.random.Generator:
    """The random stream of a root seed, an integer in [0, 2**32), split by
    fixed keys: a non-negative integer key (numpy's too) is used as its int
    value, a string key is hashed to 32 bits."""
    if not is_int(seed):
        raise ContractError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 32:
        raise ContractError(f"seed must be in [0, 2**32), got {seed}")
    words = [int(seed)] + [_key_word(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(words))


# ---------------------------------------------------------------------------
# tape machinery
# ---------------------------------------------------------------------------


class TapeNode:
    """One recorded operation, or a parameter's leaf (no parents, no grad_fn,
    never on a tape); backward state lives in the grad_fn closure."""

    __slots__ = ("op", "parents", "grad_fn")

    def __init__(self, op, parents=(), grad_fn=None):
        self.op = op
        self.parents = parents
        self.grad_fn = grad_fn


class Tape:
    """Recording scope. Nodes are appended in execution order, so the node
    list is already topologically sorted for the reverse sweep."""

    def __init__(self):
        self._nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape begin/end pairs are not nested correctly")
        return False

    def __len__(self) -> int:
        return len(self._nodes)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """Row-major float32 or float64 value (anything else becomes float64),
    optionally attached to a tape node."""

    __slots__ = ("data", "node")

    def __init__(self, data, node: TapeNode | None = None):
        self.data = _as_float(data)
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _not_scalar(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "" if self.node is None else f", op={self.node.op!r}"
        return f"Tensor(shape={self.shape}{tag})"


def _not_scalar(t: Tensor):
    raise ContractError(f"expected a scalar tensor, got shape {t.shape}")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out: Array, op: str, inputs: Sequence[Tensor], grad_fn) -> Tensor:
    """Wrap an op result. An op is recorded on the active tape only when an
    input has a node, i.e. when it can reach a parameter; outside a tape
    nothing is recorded."""
    tape = _active_tape()
    if tape is None:
        return Tensor(out)
    parents = tuple(t.node for t in inputs)
    if all(p is None for p in parents):
        return Tensor(out)
    node = TapeNode(op, parents, grad_fn)
    tape._nodes.append(node)
    return Tensor(out, node)


# ---------------------------------------------------------------------------
# broadcasting helpers (scalar + trailing-dimension cases only)
# ---------------------------------------------------------------------------


def _check_elementwise(sa: tuple[int, ...], sb: tuple[int, ...], op: str) -> None:
    if sa == sb or sa == () or sb == ():
        return
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if len(small) < len(big) and big[len(big) - len(small):] == small:
        return
    raise ShapeError(f"{op}: shapes {sa} and {sb} are not scalar/trailing broadcastable")


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# differentiable operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a.shape, b.shape, "add")
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _emit(out, "add", (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a.shape, b.shape, "sub")
    out = a.data - b.data
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _emit(out, "sub", (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a.shape, b.shape, "mul")
    ad, bd = a.data, b.data
    out = ad * bd
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g * bd, sa), _unbroadcast(g * ad, sb)

    return _emit(out, "mul", (a, b), grad_fn)


def scale(a, c: float) -> Tensor:
    """Multiply by a plain python constant (never differentiated)."""
    a = as_tensor(a)
    c = float(c)

    def grad_fn(g):
        return (c * g,)

    return _emit(c * a.data, "scale", (a,), grad_fn)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    try:
        out = np.matmul(ad, bd)
    except ValueError as exc:  # leading batch dims incompatible
        raise ShapeError(f"matmul batch dimensions differ: {a.shape} vs {b.shape}") from exc
    sa, sb = a.shape, b.shape
    # an operand without a node is a constant: backward would drop its gradient
    need_a, need_b = a.node is not None, b.node is not None

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), sa) if need_a else None
        gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), sb) if need_b else None
        return ga, gb

    return _emit(out, "matmul", (a, b), grad_fn)


def token_map(x, w) -> Tensor:
    """(B, T, D) tokens x mapped along T by a (T, N) weight w to (B, N, D):
    out[b, n] = sum over t of w[t, n] x[b, t]. A constant gets no gradient."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"token_map needs (B, T, D) and (T, N) operands, got {x.shape} and {w.shape}")
    xd, wd, need_x, need_w = x.data, w.data, x.node is not None, w.node is not None

    def grad_fn(g):
        gx = np.matmul(wd, g) if need_x else None
        gw = np.tensordot(xd, g, ((0, 2), (0, 2))) if need_w else None
        return gx, gw

    return _emit(np.matmul(wd.T, xd), "token_map", (x, w), grad_fn)


def softmax_rows(t) -> Tensor:
    """Numerically stabilized softmax over the last axis."""
    t = as_tensor(t)
    if t.ndim < 1:
        raise ShapeError(f"softmax_rows needs >=1-d input, got shape {t.shape}")
    if not np.all(np.isfinite(t.data)):
        raise NumericError("softmax_rows received non-finite values")
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return _emit(out, "softmax_rows", (t,), grad_fn)


def _heads(x2: Array, w: Array, bsz: int, heads: int) -> Array:
    """The projection x2 @ w of (B*L, D) rows as a (B, heads, L, D/heads) view."""
    y = x2 @ w
    return y.reshape(bsz, -1, heads, y.shape[-1] // heads).transpose(0, 2, 1, 3)


def _merged(a: Array, b: Array) -> Array:
    """np.matmul(a, b) of per-head stacks (B, H, L, .) @ (B, H, ., E), written
    straight into (B*L, H*E) rows: head h of a token fills columns h*E:(h+1)*E."""
    bsz, heads, n, _ = a.shape
    e = b.shape[-1]
    rows = np.empty((bsz, n, heads, e), dtype=np.result_type(a, b))
    np.matmul(a, b, out=rows.transpose(0, 2, 1, 3))
    return rows.reshape(bsz * n, heads * e)


def _exp_scores_t(q: Array, k: Array) -> tuple[Array, Array]:
    """exp(K Q^T - its column max) per head and its column sums: (B, H, Lk, Lq)
    and (B, H, 1, Lq) from q (B, H, Lq, E), already scaled, and k (B, H, Lk,
    E). Shift and exp run in place on the one K Q^T buffer. A score that is
    NaN or overflows to +inf makes its column's sum NaN; nothing is checked
    here."""
    et = np.matmul(k, q.swapaxes(-1, -2))
    et -= et.max(axis=-2, keepdims=True)
    np.exp(et, out=et)
    return et, et.sum(axis=-2, keepdims=True)


def _normalized_t(et: Array, sums: Array) -> Array:
    """The attention weights P^T from ``_exp_scores_t``'s output: et divided
    by its column sums in place, so each column sums to 1."""
    return np.divide(et, sums, out=et)


def attention(q_in, kv_in, w_q, w_k, w_v, w_o, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention, recorded as one tape node.

    q_in is (B, Lq, D) and kv_in (B, Lk, D); the four weights are (D, D) and
    heads divides D. Each head h attends with Q, K, V = q_in w_q, kv_in w_k,
    kv_in w_v restricted to its D/heads columns; the heads' outputs, side by
    side, are projected by w_o. Projections are 2-D GEMMs on (B*L, D) rows.

    The softmax's 1/sqrt(D/heads) is folded into w_q, and its normalisation
    is deferred: the unnormalised weights mix V and the (B*Lq, D) mix is
    divided by their column sums, so no pass over the (B, H, Lk, Lq) weights
    scales or normalises them. The backward normalises them once, in place.
    Finiteness is checked once, on the output: a non-finite input, or a
    projection, score or mix that overflows, reaches it as inf or NaN and
    raises NumericError, with no floating-point warning first. The backward
    is written out: each weight gradient is one 2-D GEMM, the softmax
    backward runs in place, and an input without a node gets no gradient.
    """
    q_in, kv_in, w_q, w_k, w_v, w_o = (as_tensor(t) for t in (q_in, kv_in, w_q, w_k, w_v, w_o))
    bsz, _, d = q_in.shape if q_in.ndim == 3 else (0, 0, 0)  # any other rank fails below
    if (
        q_in.ndim != 3 or kv_in.ndim != 3 or kv_in.shape[::2] != (bsz, d) or kv_in.shape[1] < 1
        or any(w.shape != (d, d) for w in (w_q, w_k, w_v, w_o)) or not 1 <= heads <= d or d % heads
    ):
        raise ShapeError(
            f"attention needs (B, Lq, D) and (B, Lk, D) inputs with Lk >= 1, (D, D) weights and "
            f"heads dividing D; got {q_in.shape}, {kv_in.shape}, {w_q.shape}, {heads} heads"
        )
    xq, xkv = q_in.data.reshape(-1, d), kv_in.data.reshape(-1, d)
    scale = 1.0 / math.sqrt(d // heads)
    # a non-finite input, or a projection, score or mix that overflows,
    # reaches the output as inf or NaN: one check there, no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        q = _heads(xq, w_q.data * scale, bsz, heads)
        k, v = (_heads(xkv, w.data, bsz, heads) for w in (w_k, w_v))
        et, sums = _exp_scores_t(q, k)
        mixed = _merged(et.swapaxes(-1, -2), v)
        per_head = mixed.reshape(bsz, -1, heads, d // heads)  # a view of mixed
        per_head /= sums.reshape(bsz, heads, -1, 1).swapaxes(1, 2)
        out = (mixed @ w_o.data).reshape(q_in.shape)
    if not np.isfinite(out).all():
        raise NumericError("attention received non-finite values")
    need_q, need_kv, *need_w = (t.node is not None for t in (q_in, kv_in, w_q, w_k, w_v, w_o))

    def grad_fn(g):
        nonlocal sums
        if sums is not None:  # the weights P^T, normalised in place on the first call
            _normalized_t(et, sums)
            sums = None
        pt = et
        g = g.reshape(-1, d)
        g_heads = (g @ w_o.data.T).reshape(bsz, -1, heads, d // heads).transpose(0, 2, 1, 3)
        g_v = _merged(pt, g_heads)
        # softmax backward on dL/dP^T, in place: P^T * (g - sum of g P^T over axis -2)
        g_s = np.matmul(v, g_heads.swapaxes(-1, -2))
        g_s -= np.einsum("...ji,...ji->...i", g_s, pt)[..., None, :]
        g_s *= pt
        g_q, g_k = _merged(g_s.swapaxes(-1, -2), k), _merged(g_s, q)
        g_q *= scale
        g_q_in = (g_q @ w_q.data.T).reshape(q_in.shape) if need_q else None
        g_kv_in = (g_k @ w_k.data.T + g_v @ w_v.data.T).reshape(kv_in.shape) if need_kv else None
        rows = zip((xq, xkv, xkv, mixed), (g_q, g_k, g_v, g), need_w)
        return (g_q_in, g_kv_in, *(x.T @ gy if need else None for x, gy, need in rows))

    return _emit(out, "attention", (q_in, kv_in, w_q, w_k, w_v, w_o), grad_fn)


def sigmoid(t) -> Tensor:
    t = as_tensor(t)
    out = 1.0 / (1.0 + np.exp(-t.data))

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _emit(out, "sigmoid", (t,), grad_fn)


# Phi(x) ~ (1 + tanh(x R(x^2))) / 2 with R of degree 6 in x^2, coefficients
# from the highest power down: a sech^2-weighted fit of atanh(erf(x / sqrt 2)) / x
# on [0, 4]. At the clamp, x R(x^2) is about 257, so Phi is exactly 0 and 1
# in float32 beyond it.
_PHI_R = tuple(np.float32(c) for c in (
    1.7197759462698114e-09, -1.3126181120846379e-07, 3.9549800405698455e-06,
    -5.5264517288715814e-05, -3.267292923042656e-05, 0.03633314012487924,
    0.7978849315781761,
))
_PHI_CLAMP = np.float32(8.0)


def _horner(w: Array, coefs: Sequence, out: Array) -> Array:
    """The polynomial with these coefficients (highest power first) at w,
    written into out; needs at least two coefficients."""
    np.multiply(w, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= w
        out += c
    return out


def _normal_cdf(x: Array, out: Array | None = None) -> Array:
    """The standard normal CDF, (1 + erf(x / sqrt 2)) / 2, in x's dtype,
    written into out (a new array when out is None).

    float64 calls ``math.erf`` per element, within 1 ulp of the exact erf;
    only the audit and the tests take that path. float32 evaluates the tanh
    form (1 + tanh(x R(x^2))) / 2 in float32 on x clamped to +-_PHI_CLAMP:
    18 elementwise passes. On a dense grid over [-10, 10] it is within
    9.6e-8 of the exact CDF, against 6e-8 for scipy's erf in float32, and
    it is non-decreasing there. NaN stays NaN.
    """
    out = np.empty_like(x) if out is None else out
    if x.dtype != np.float32:
        np.multiply(x, _INV_SQRT2, out=out)
        _ERF64(out, out=out, casting="unsafe")  # object results back to float64
        out += 1.0
        out *= 0.5
        return out
    y = np.clip(x, -_PHI_CLAMP, _PHI_CLAMP)
    _horner(np.multiply(y, y), _PHI_R, out)
    out *= y
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


_GELU_BLOCK = 1 << 16
# Phi is exactly 0 below -9, and phi exactly 0 beyond +-39, in float32 and
# float64: clamping x there changes no result and keeps inf * 0 out of both passes
_GELU_FLOOR, _PHI_TAIL = -9.0, 39.0


def gelu(t) -> Tensor:
    """GELU, x * Phi(x) with Phi the standard normal CDF. float32 computes
    Phi in a tanh form within 9.6e-8 of the exact Phi (not GELU's cubic tanh
    approximation, which is off by up to 1.8e-4); float64 with ``math.erf``.
    The backward is Phi(x) + x phi(x) with the exact Gaussian density phi.

    Forward and backward run over _GELU_BLOCK-element slices of the flat
    input: only Phi, the output and the input gradient are full-size arrays.
    Every result is elementwise, so it does not depend on the blocking.
    GELU is 0 at -inf and inf at inf, with gradients 0 and 1 there."""
    t = as_tensor(t)
    shape, x = t.shape, t.data.reshape(-1)
    cdf, out = np.empty_like(x), np.empty_like(x)
    blocks = [slice(lo, lo + _GELU_BLOCK) for lo in range(0, x.size, _GELU_BLOCK)]
    for s in blocks:
        np.maximum(x[s], _GELU_FLOOR, out=out[s])
        out[s] *= _normal_cdf(x[s], out=cdf[s])

    def grad_fn(g):
        g = g.reshape(-1)
        gx = np.empty(x.shape, np.result_type(g, x))
        for s in blocks:
            xs = np.clip(x[s], -_PHI_TAIL, _PHI_TAIL)
            d = np.multiply(xs, -0.5)
            d *= xs
            np.exp(d, out=d)
            d *= _INV_SQRT2PI  # phi(x)
            d *= xs
            d += cdf[s]
            np.multiply(g[s], d, out=gx[s])
        return (gx.reshape(shape),)

    return _emit(out.reshape(shape), "gelu", (t,), grad_fn)


def sum_all(t) -> Tensor:
    t = as_tensor(t)
    shape = t.shape

    def grad_fn(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit(np.asarray(t.data.sum()), "sum_all", (t,), grad_fn)


def mean_all(t) -> Tensor:
    t = as_tensor(t)
    shape = t.shape
    n = t.size

    def grad_fn(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _emit(np.asarray(t.data.mean()), "mean_all", (t,), grad_fn)


def _axis(axis: int, ndim: int, op: str) -> int:
    """axis as an index in [0, ndim); one outside [-ndim, ndim) is refused."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} is out of range for a {ndim}-d input")
    return axis % ndim


def mean_over(t, axis: int) -> Tensor:
    t = as_tensor(t)
    axis = _axis(axis, t.ndim, "mean_over")
    n = t.shape[axis]

    def grad_fn(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _emit(t.data.mean(axis=axis), "mean_over", (t,), grad_fn)


def reshape(t, shape: Sequence[int]) -> Tensor:
    t = as_tensor(t)
    old = t.shape
    shape = tuple(int(s) for s in shape)

    try:
        out = t.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot reshape {old} into {shape}") from exc

    def grad_fn(g):
        return (g.reshape(old),)

    return _emit(out, "reshape", (t,), grad_fn)


def concat(parts: Sequence, axis: int) -> Tensor:
    ts = [as_tensor(p) for p in parts]
    if not ts:
        raise ContractError("concat needs at least one operand")
    axis = _axis(axis, ts[0].ndim, "concat")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:  # ranks differ, or sizes off the axis
        shapes = ", ".join(str(t.shape) for t in ts)
        raise ShapeError(f"concat on axis {axis}: shapes {shapes} do not fit") from exc
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        slicer = [slice(None)] * g.ndim
        pieces = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            slicer[axis] = slice(int(lo), int(hi))
            pieces.append(g[tuple(slicer)])
        return tuple(pieces)

    return _emit(out, "concat", ts, grad_fn)


def patches_1d(t, patch_len: int, stride: int) -> Tensor:
    """Slice a batch of sequences (B, T) into overlapping windows (B, n, P)."""
    t = as_tensor(t)
    if t.ndim != 2:
        raise ShapeError(f"patches_1d expects (batch, time), got {t.shape}")
    bsz, n_time = t.shape
    if not (1 <= stride <= patch_len <= n_time):
        raise ContractError(
            f"need 1 <= stride <= patch_len <= T, got stride={stride}, "
            f"patch_len={patch_len}, T={n_time}"
        )
    n_tok = (n_time - patch_len) // stride + 1
    idx = stride * np.arange(n_tok)[:, None] + np.arange(patch_len)[None, :]
    out = t.data[:, idx]

    def grad_fn(g):
        gt = np.zeros((bsz, n_time), dtype=g.dtype)
        np.add.at(gt, (np.arange(bsz)[:, None, None], idx[None, :, :]), g)
        return (gt,)

    return _emit(out, "patches_1d", (t,), grad_fn)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class Parameter:
    """Named trainable value with a gradient buffer and Adam moments.

    The value is float32 or float64 as given (anything else becomes float64),
    and keeps that dtype and shape: a value assigned later is cast to the
    dtype, and one of another shape is refused.
    """

    __slots__ = ("name", "_value", "grad", "trainable", "m", "v", "node")

    def __init__(self, name: str, value, trainable: bool = True):
        self.name = name
        self._value = _as_float(value).copy()
        self.grad = np.zeros_like(self._value)
        self.trainable = bool(trainable)
        self.m: Array | None = None
        self.v: Array | None = None
        self.node = TapeNode("param:" + name)

    @property
    def value(self) -> Array:
        return self._value

    @value.setter
    def value(self, value) -> None:
        # a copy: adam_step writes into the value, never into the caller's array
        value = np.array(value, dtype=self._value.dtype)
        if value.shape != self._value.shape:
            raise ShapeError(f"parameter {self.name!r} is {self._value.shape}, got a value of shape {value.shape}")
        self._value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self._value.shape

    def use(self) -> Tensor:
        """The current value, attached to this parameter's one leaf node if it
        is trainable; a frozen parameter's value is a constant, as data is.
        The leaf is never put on a tape; ops that read it are recorded."""
        return Tensor(self._value, self.node if self.trainable else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.trainable else ", frozen"
        return f"Parameter({self.name!r}, shape={self.shape}{flag})"


class ParamStore:
    """Insertion-ordered collection of uniquely named parameters, the dtype
    they are built in, and the config of the model that owns them (empty for
    a bare store)."""

    def __init__(self, config: dict | None = None, dtype=np.float64):
        self._params: dict[str, Parameter] = {}
        self.dtype = np.dtype(dtype)
        # JSON round trip: compares equal to the config read back from a file
        self.config: dict = json.loads(json.dumps(config or {}))

    def add(self, name: str, value, trainable: bool = True) -> Parameter:
        if not name or any(c.isspace() for c in name):
            raise ContractError(f"invalid parameter name {name!r}")
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        p = Parameter(name, np.asarray(value, dtype=self.dtype), trainable)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def trainable(self) -> list[Parameter]:
        return [p for p in self._params.values() if p.trainable]

    def n_values(self) -> int:
        return sum(p.value.size for p in self._params.values())

    @contextmanager
    def float64_image(self):
        """Within the block every parameter holds a float64 copy of its value;
        on leaving it, even on an error, each gets back its own value and grad."""
        saved = [(p, p.value, p.grad) for p in self._params.values()]
        for p in self._params.values():
            p._value = p.value.astype(np.float64)  # the one change of a parameter's dtype
        try:
            yield self
        finally:
            for p, value, grad in saved:
                p._value, p.grad = value, grad

    # -- checkpoint: two text lines, then a name line and an .npy record per parameter

    MAGIC = "physkit-paramstore 3"

    def save(self, path) -> None:
        """Line 1 is MAGIC, line 2 the config as JSON with sorted keys, then
        per parameter its name on one line followed by the value as a numpy
        ``.npy`` record. Names hold no whitespace, so a newline ends each."""
        with open(path, "wb") as fh:
            fh.write(f"{self.MAGIC}\n{json.dumps(self.config, sort_keys=True)}\n".encode())
            for p in self._params.values():
                fh.write(p.name.encode() + b"\n")
                np.lib.format.write_array(fh, p.value, allow_pickle=False)

    def load_into(self, path) -> None:
        """Overwrite every parameter in place. The checkpoint must carry this
        store's config, name each parameter once, and match its shapes and
        dtypes; a checkpoint that fails a check leaves every value unchanged."""
        records = {}
        with open(path, "rb") as fh:
            config = self._read_header(fh)
            for number, line in enumerate(iter(fh.readline, b""), start=1):
                name = line.rstrip(b"\n").decode(errors="replace")
                if name in records:
                    raise ParseError(f"record {number} names parameter {name!r} a second time")
                try:
                    records[name] = np.lib.format.read_array(fh, allow_pickle=False)
                except ValueError as exc:  # numpy's EOF and format errors among them
                    raise ParseError(f"bad parameter record {number} ({name!r}): {exc}") from exc
        live = self.config
        differing = sorted(k for k in config.keys() | live.keys() if config.get(k) != live.get(k))
        if differing:
            pairs = ", ".join(f"{k} is {config.get(k)!r} there, {live.get(k)!r} here" for k in differing)
            raise ContractError(f"checkpoint was saved under a different model config: {pairs}")
        for name, value in records.items():
            if name not in self._params:
                raise ContractError(f"checkpoint has unknown parameter {name!r}")
            p = self._params[name]
            if (value.shape, value.dtype) != (p.value.shape, p.value.dtype):
                raise ShapeError(
                    f"checkpoint {value.dtype} {value.shape} != live {p.value.dtype} "
                    f"{p.value.shape} for {name!r}"
                )
        missing = [n for n in self._params if n not in records]
        if missing:
            raise ContractError(f"checkpoint is missing parameters: {missing[:5]}")
        for name, value in records.items():
            self._params[name].value = value

    @classmethod
    def read_config(cls, path) -> dict:
        """The config in a checkpoint's header; the values are not read."""
        with open(path, "rb") as fh:
            return cls._read_header(fh)

    @classmethod
    def _read_header(cls, fh) -> dict:
        if fh.readline().rstrip(b"\n") != cls.MAGIC.encode():
            raise ParseError(f"missing {cls.MAGIC!r} header", line=1)
        try:
            config = json.loads(fh.readline())
        except ValueError:
            config = None
        if not isinstance(config, dict):
            raise ParseError("header config is not a JSON object", line=2)
        return config


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------


def backward(loss: Tensor, store: ParamStore) -> ParamStore:
    """Set the grad buffer of every trainable parameter in the store to
    d(loss)/d(param), or to zeros where the loss does not reach it.

    The sweep walks the op nodes of the active tape, so backward runs inside
    the same ``with Tape()`` that recorded the loss; a parameter used directly
    as the loss gets gradient 1. Only the store's parameters are written: a
    trainable parameter outside it keeps its grad buffer, even if the loss
    reaches it. Two buffers may share memory, so replace a buffer rather
    than write into it.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = _active_tape()
    if tape is None:
        raise ContractError("backward must run inside the `with Tape()` that recorded the loss")
    node = loss.node
    if node is not None and node.grad_fn is not None and node not in tape._nodes:
        raise ContractError("the loss was not recorded on the active tape")

    adjoint: dict[TapeNode, Array] = {} if node is None else {node: np.ones_like(loss.data)}
    for n in reversed(tape._nodes):
        g = adjoint.pop(n, None)
        if g is None:
            continue
        for parent, pg in zip(n.parents, n.grad_fn(g)):
            if parent is None or pg is None:
                continue
            acc = adjoint.get(parent)
            adjoint[parent] = pg if acc is None else acc + pg
    for p in store.trainable():
        g = adjoint.get(p.node)
        p.grad = np.zeros_like(p.value) if g is None else g
    return store


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def adam_step(store: ParamStore, lr: float, wd: float, t: int) -> ParamStore:
    """One Adam update with decoupled weight decay; t is 1-based.

    m, v and the value are updated in place, with two scratch buffers per
    parameter. Each step is the rounding of
    ``value - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * value``
    in that order, so the result is bit-for-bit that formula's."""
    if t < 1:
        raise ContractError(f"adam step index must be >= 1, got {t}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr, wd = float(lr), float(wd)
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p in store.trainable():
        if p.m is None:
            p.m = np.zeros_like(p.value)
            p.v = np.zeros_like(p.value)
        g, m, v, value = p.grad, p.m, p.v, p.value
        step, denom = np.empty_like(value), np.empty_like(value)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=step)
        v *= beta2
        np.multiply(g, g, out=step)
        step *= 1.0 - beta2
        v += step
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, bc1, out=step)
        step *= lr
        step /= denom
        decay = np.multiply(value, lr * wd, out=denom)
        value -= step
        value -= decay
    return store


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def sample_param_entries(
    params: Sequence[Parameter], n: int, rng: np.random.Generator
) -> list[tuple[str, int]]:
    """Distinct (name, flat index) entries spread across the given parameters:
    n // len(params) of each (at least one, at most all), then, while fewer
    than n, entries not yet picked, drawn from all of them. No entry comes
    twice, so parameters holding fewer than n entries in all give each once."""
    if not params:
        return []
    per = max(1, n // len(params))
    picked = [
        np.sort(rng.choice(p.value.size, size=min(per, p.value.size), replace=False)) for p in params
    ]
    entries = [(p.name, int(i)) for p, idx in zip(params, picked) for i in idx]
    if len(entries) < n:
        # the rest, numbered across all parameters in order
        starts = np.cumsum([0] + [p.value.size for p in params])
        taken = np.concatenate([start + idx for start, idx in zip(starts, picked)])
        rest = np.setdiff1d(np.arange(starts[-1]), taken)
        for flat in np.sort(rng.choice(rest, size=min(n - len(entries), rest.size), replace=False)):
            k = int(np.searchsorted(starts, flat, side="right")) - 1
            entries.append((params[k].name, int(flat - starts[k])))
    return entries


def grad_check(
    f: Callable[[], Tensor],
    store: ParamStore,
    eps: float = 1e-3,
    entries: Iterable[tuple[str, int]] | None = None,
) -> float:
    """Worst relative disagreement between tape gradients and five-point
    finite differences of the scalar map f over the store's parameters.

    The audit runs on the store's float64 image (``ParamStore.float64_image``),
    so a float32 model is checked at double precision; afterwards the store
    holds its own values and grads again.

    The five-point stencil is the Richardson extrapolation of the central
    differences at steps eps and 2 eps. Its truncation error is O(eps**4), so
    it can take a step of 1e-3, where the round-off in f weighs 100x less
    than at the 1e-5 step a central difference needs. f must be deterministic; it is
    evaluated twice up front and a bitwise mismatch raises. Relative error
    uses a 1e-6 floor so entries whose true gradient is zero compare against
    finite-difference noise sanely.
    """
    with store.float64_image():
        v1 = float(as_tensor(f()).item())
        v2 = float(as_tensor(f()).item())
        if v1 != v2 or not math.isfinite(v1):
            raise ContractError("grad_check requires a deterministic, finite scalar map")

        with Tape():
            out = as_tensor(f())
            backward(out, store)
        analytic = {p.name: p.grad.copy() for p in store.trainable()}

        if entries is None:
            entries = [
                (p.name, i) for p in store.trainable() for i in range(p.value.size)
            ]

        worst = 0.0
        for name, idx in entries:
            p = store[name]
            flat = p.value.reshape(-1)
            saved = flat[idx]

            def f_at(step: float) -> float:
                flat[idx] = saved + step
                return float(as_tensor(f()).item())

            near = f_at(eps) - f_at(-eps)
            far = f_at(2.0 * eps) - f_at(-2.0 * eps)
            flat[idx] = saved
            numeric = (8.0 * near - far) / (12.0 * eps)
            a = analytic[name].reshape(-1)[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
        return worst
