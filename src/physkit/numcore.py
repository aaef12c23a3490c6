"""Dense tensors, a reverse-mode tape, and the optimizer used by every
learnable module in the package.

The engine is deliberately small: double precision only, explicit
begin/end tape recording, and broadcasting restricted to scalar and
trailing-dimension cases so that every backward rule stays auditable.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ParseError, ShapeError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# tape machinery
# ---------------------------------------------------------------------------


class TapeNode:
    """One recorded operation; backward state lives in the grad_fn closure."""

    __slots__ = ("op", "parents", "grad_fn", "param")

    def __init__(self, op, parents=(), grad_fn=None, param=None):
        self.op = op
        self.parents = parents
        self.grad_fn = grad_fn
        self.param = param


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
    """Row-major float64 value, optionally attached to a tape node."""

    __slots__ = ("data", "node")

    def __init__(self, data, node: TapeNode | None = None):
        self.data = _as_f64(data)
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

    def __float__(self) -> float:
        return self.item()

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "" if self.node is None else f", op={self.node.op!r}"
        return f"Tensor(shape={self.shape}{tag})"


def _not_scalar(t: Tensor):
    raise ContractError(f"expected a scalar tensor, got shape {t.shape}")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out: Array, op: str, inputs: Sequence[Tensor], grad_fn) -> Tensor:
    """Wrap an op result, recording a node only when it can reach a leaf."""
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


def neg(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return (-g,)

    return _emit(-a.data, "neg", (a,), grad_fn)


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

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), sa)
        gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), sb)
        return ga, gb

    return _emit(out, "matmul", (a, b), grad_fn)


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


def sigmoid(t) -> Tensor:
    t = as_tensor(t)
    out = 1.0 / (1.0 + np.exp(-t.data))

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _emit(out, "sigmoid", (t,), grad_fn)


def gelu(t) -> Tensor:
    """Exact (erf-based) GELU."""
    t = as_tensor(t)
    x = t.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def grad_fn(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _emit(out, "gelu", (t,), grad_fn)


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


def mean_over(t, axis: int) -> Tensor:
    t = as_tensor(t)
    axis = axis % t.ndim
    n = t.shape[axis]

    def grad_fn(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _emit(t.data.mean(axis=axis), "mean_over", (t,), grad_fn)


def reshape(t, shape: Sequence[int]) -> Tensor:
    t = as_tensor(t)
    old = t.shape
    shape = tuple(int(s) for s in shape)

    def grad_fn(g):
        return (g.reshape(old),)

    return _emit(t.data.reshape(shape), "reshape", (t,), grad_fn)


def transpose(t, axes: Sequence[int]) -> Tensor:
    t = as_tensor(t)
    axes = tuple(int(a) for a in axes)
    inv = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inv),)

    return _emit(t.data.transpose(axes), "transpose", (t,), grad_fn)


def concat(parts: Sequence, axis: int) -> Tensor:
    ts = [as_tensor(p) for p in parts]
    if not ts:
        raise ContractError("concat needs at least one operand")
    axis = axis % ts[0].ndim
    sizes = [t.shape[axis] for t in ts]
    out = np.concatenate([t.data for t in ts], axis=axis)
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
        gt = np.zeros((bsz, n_time))
        np.add.at(gt, (np.arange(bsz)[:, None, None], idx[None, :, :]), g)
        return (gt,)

    return _emit(out, "patches_1d", (t,), grad_fn)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class Parameter:
    """Named trainable value with a gradient buffer and Adam moments."""

    __slots__ = ("name", "value", "grad", "trainable", "m", "v")

    def __init__(self, name: str, value, trainable: bool = True):
        self.name = name
        self.value = _as_f64(value).copy()
        self.grad = np.zeros_like(self.value)
        self.trainable = bool(trainable)
        self.m: Array | None = None
        self.v: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def use(self) -> Tensor:
        """Read the current value, registering a leaf on the active tape."""
        tape = _active_tape()
        if tape is None:
            return Tensor(self.value)
        node = TapeNode("param:" + self.name, (), None, param=self)
        tape._nodes.append(node)
        return Tensor(self.value, node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.trainable else ", frozen"
        return f"Parameter({self.name!r}, shape={self.shape}{flag})"


class ParamStore:
    """Insertion-ordered collection of uniquely named parameters, and the
    config of the model that owns them (empty for a bare store)."""

    def __init__(self, config: dict | None = None):
        self._params: dict[str, Parameter] = {}
        # JSON round trip: compares equal to the config read back from a file
        self.config: dict = json.loads(json.dumps(config or {}))

    def add(self, name: str, value, trainable: bool = True) -> Parameter:
        if not name or any(c.isspace() for c in name):
            raise ContractError(f"invalid parameter name {name!r}")
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        p = Parameter(name, value, trainable)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def trainable(self) -> list[Parameter]:
        return [p for p in self._params.values() if p.trainable]

    def n_values(self) -> int:
        return sum(p.value.size for p in self._params.values())

    # -- flat text serialization -------------------------------------------

    MAGIC = "physkit-paramstore 2"

    def save(self, path) -> None:
        """Line 1 is MAGIC, line 2 the config as JSON with sorted keys, then
        one line per parameter: name, trainable flag, ndim, dims, values."""
        lines = [self.MAGIC, json.dumps(self.config, sort_keys=True)]
        for p in self._params.values():
            dims = " ".join(str(d) for d in p.value.shape)
            vals = " ".join(repr(float(v)) for v in p.value.reshape(-1))
            flag = "1" if p.trainable else "0"
            lines.append(f"{p.name} {flag} {p.value.ndim} {dims} {vals}".rstrip())
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "ParamStore":
        config, records = cls._parse(path)
        store = cls(config)
        for name, trainable, value in records:
            store.add(name, value, trainable)
        return store

    def load_into(self, path) -> None:
        """Overwrite every parameter in place. The checkpoint must carry this
        store's config, and its names and shapes must match."""
        config, records = self._parse(path)
        live = self.config
        differing = sorted(k for k in config.keys() | live.keys() if config.get(k) != live.get(k))
        if differing:
            pairs = ", ".join(f"{k} is {config.get(k)!r} there, {live.get(k)!r} here" for k in differing)
            raise ContractError(f"checkpoint was saved under a different model config: {pairs}")
        for name, _trainable, value in records:
            if name not in self._params:
                raise ContractError(f"checkpoint has unknown parameter {name!r}")
            p = self._params[name]
            if value.shape != p.value.shape:
                raise ShapeError(
                    f"checkpoint shape {value.shape} != live shape {p.value.shape} "
                    f"for {name!r}"
                )
            p.value = value
        seen = {name for name, _, _ in records}
        missing = [n for n in self._params if n not in seen]
        if missing:
            raise ContractError(f"checkpoint is missing parameters: {missing[:5]}")

    @classmethod
    def read_config(cls, path) -> dict:
        """The config in a checkpoint's header; the values are not read."""
        with open(path) as fh:
            magic, header = fh.readline().rstrip("\n"), fh.readline()
        if magic != cls.MAGIC:
            raise ParseError(f"missing {cls.MAGIC!r} header", line=1)
        try:
            config = json.loads(header)
        except json.JSONDecodeError:
            config = None
        if not isinstance(config, dict):
            raise ParseError("header config is not a JSON object", line=2)
        return config

    @classmethod
    def _parse(cls, path) -> tuple[dict, list[tuple[str, bool, Array]]]:
        config = cls.read_config(path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        records = []
        for lineno, line in enumerate(lines[2:], start=3):
            if not line.strip():
                continue
            fields = line.split()
            try:
                name, flag, ndim = fields[0], fields[1], int(fields[2])
                dims = tuple(int(d) for d in fields[3 : 3 + ndim])
                vals = np.array([float(v) for v in fields[3 + ndim :]])
                records.append((name, flag == "1", vals.reshape(dims)))
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad parameter record: {exc}", line=lineno) from exc
        return config, records


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------


def backward(loss: Tensor, store: ParamStore) -> ParamStore:
    """Populate grad buffers with d(loss)/d(param) for trainable parameters.

    The sweep walks the active tape, so backward runs inside the same
    ``with Tape()`` block that recorded the loss. Grads of every trainable
    parameter in the store are reset first, so the buffers always hold
    exactly this loss's gradient.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = _active_tape()
    if tape is None:
        raise ContractError("backward must run inside the `with Tape()` that recorded the loss")
    for p in store.trainable():
        p.grad = np.zeros_like(p.value)
    node = loss.node
    if node is None:
        return store
    if node not in tape._nodes:
        raise ContractError("the loss was not recorded on the active tape")
    touched = {n.param for n in tape._nodes if n.param is not None}
    for p in touched:
        if p.trainable and p.name not in store._params:
            p.grad = np.zeros_like(p.value)

    adjoint: dict[TapeNode, Array] = {node: np.ones_like(loss.data)}
    for n in reversed(tape._nodes):
        g = adjoint.pop(n, None)
        if g is None:
            continue
        if n.param is not None:
            if n.param.trainable:
                n.param.grad = n.param.grad + g
            continue
        for parent, pg in zip(n.parents, n.grad_fn(g)):
            if parent is None or pg is None:
                continue
            acc = adjoint.get(parent)
            adjoint[parent] = pg if acc is None else acc + pg
    return store


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def adam_step(
    store: ParamStore,
    lr: float,
    wd: float,
    t: int,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamStore:
    """One Adam update with decoupled weight decay; t is 1-based."""
    if t < 1:
        raise ContractError(f"adam step index must be >= 1, got {t}")
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p in store.trainable():
        if p.m is None:
            p.m = np.zeros_like(p.value)
            p.v = np.zeros_like(p.value)
        g = p.grad
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * (g * g)
        m_hat = p.m / bc1
        v_hat = p.v / bc2
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * p.value
    return store


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def sample_param_entries(
    store: ParamStore, n: int, rng: np.random.Generator
) -> list[tuple[str, int]]:
    """Pick ~n scalar entries spread across all trainable parameters."""
    params = store.trainable()
    if not params:
        return []
    entries: list[tuple[str, int]] = []
    per = max(1, n // len(params))
    for p in params:
        k = min(per, p.value.size)
        for i in sorted(rng.choice(p.value.size, size=k, replace=False).tolist()):
            entries.append((p.name, int(i)))
    while len(entries) < n:
        p = params[int(rng.integers(len(params)))]
        entries.append((p.name, int(rng.integers(p.value.size))))
    return entries


def grad_check(
    f: Callable[[], Tensor],
    store: ParamStore,
    eps: float = 1e-5,
    entries: Iterable[tuple[str, int]] | None = None,
) -> float:
    """Worst relative disagreement between tape gradients and central
    finite differences of the scalar map f over the store's parameters.

    f must be deterministic; it is evaluated twice up front and a bitwise
    mismatch raises. Relative error uses a 1e-6 floor so entries whose true
    gradient is zero compare against finite-difference noise sanely.
    """
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
        flat[idx] = saved + eps
        fp = float(as_tensor(f()).item())
        flat[idx] = saved - eps
        fm = float(as_tensor(f()).item())
        flat[idx] = saved
        numeric = (fp - fm) / (2.0 * eps)
        a = analytic[name].reshape(-1)[idx]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        worst = max(worst, rel)
    return worst
