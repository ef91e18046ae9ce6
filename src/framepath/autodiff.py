"""Minimal reverse-mode automatic differentiation on a Wengert tape.

Everything is float64 numpy.  Each primitive computes its value eagerly,
verifies the result is finite, and (when recording is enabled and some
input wants a gradient) appends a record to the thread-local tape.
``backward`` replays the tape in reverse, accumulating vector-Jacobian
products into ``Tensor.grad``, and clears the tape afterwards: a second
backward needs a fresh forward pass.

Gradients are never mutated in place; accumulation always rebinds
``t.grad = t.grad + g`` so aliased arrays stay safe.

Hot paths are single records with hand-written backwards: ``lstm_sequence``,
``sum_row_groups``, and the CRF ops in ``crf`` built on ``_record``.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "needs_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        # needs_grad marks tensors on a path from a parameter: gradients
        # are only accumulated where it is set.
        self.needs_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor({self.name or 'anon'}, shape={self.data.shape}{flag})"


def tensor(data, name: str = "") -> Tensor:
    """Constant tensor: participates in math, never receives a gradient."""
    return Tensor(data, requires_grad=False, name=name)


def param(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


class _Tape:
    __slots__ = ("records", "enabled")

    def __init__(self):
        # records: (output tensor, vjp callable taking the output gradient)
        self.records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self.enabled = True


_state = threading.local()


def _stack() -> list[_Tape]:
    if not hasattr(_state, "stack"):
        _state.stack = [_Tape()]
    return _state.stack


def _tape() -> _Tape:
    return _stack()[-1]


@contextmanager
def no_grad():
    """Disable tape recording; forward values still compute normally."""
    t = _tape()
    prev = t.enabled
    t.enabled = False
    try:
        yield
    finally:
        t.enabled = prev


@contextmanager
def fresh_tape():
    """Run on an isolated tape, discarding it (and its records) on exit."""
    _stack().append(_Tape())
    try:
        yield
    finally:
        _stack().pop()


def tape_length() -> int:
    return len(_tape().records)


def _check(arr: np.ndarray, op: str) -> np.ndarray:
    # A finite sum proves every entry finite; an overflowed one does not.
    if math.isfinite(arr.sum()) or np.all(np.isfinite(arr)):
        return arr
    raise FloatingPointError(f"non-finite value produced by {op}")


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.needs_grad:
        t.grad = g if t.grad is None else t.grad + g


def _record(out: Tensor, inputs: Sequence[Tensor], vjp) -> Tensor:
    t = _tape()
    if t.enabled and any(i.needs_grad for i in inputs):
        out.needs_grad = True
        t.records.append((out, vjp))
    return out


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(tensor) into .grad along the recorded tape."""
    if root.data.ndim != 0:
        raise ValueError(f"backward needs a scalar, got shape {root.data.shape}")
    t = _tape()
    root.grad = np.ones_like(root.data)
    for out, vjp in reversed(t.records):
        if out.grad is not None:
            vjp(out.grad)
    t.records.clear()


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitives: linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_check(a.data @ b.data, "matmul"))

    def vjp(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _record(out, (a, b), vjp)


def matvec(a: Tensor, x: Tensor) -> Tensor:
    out = Tensor(_check(a.data @ x.data, "matvec"))

    def vjp(g):
        _acc(a, np.outer(g, x.data))
        _acc(x, a.data.T @ g)

    return _record(out, (a, x), vjp)


def vecmat(x: Tensor, a: Tensor) -> Tensor:
    out = Tensor(_check(x.data @ a.data, "vecmat"))

    def vjp(g):
        _acc(x, a.data @ g)
        _acc(a, np.outer(x.data, g))

    return _record(out, (x, a), vjp)


def dot(x: Tensor, y: Tensor) -> Tensor:
    out = Tensor(_check(np.dot(x.data, y.data), "dot"))

    def vjp(g):
        _acc(x, g * y.data)
        _acc(y, g * x.data)

    return _record(out, (x, y), vjp)


# ---------------------------------------------------------------------------
# primitives: pointwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(_check(a.data + b.data, "add"))

    def vjp(g):
        _acc(a, g)
        _acc(b, g)

    return _record(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(_check(a.data - b.data, "sub"))

    def vjp(g):
        _acc(a, g)
        _acc(b, -g)

    return _record(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(_check(a.data * b.data, "mul"))

    def vjp(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return _record(out, (a, b), vjp)


def mul_scalar(a: Tensor, s: float) -> Tensor:
    out = Tensor(_check(a.data * s, "mul_scalar"))

    def vjp(g):
        _acc(a, g * s)

    return _record(out, (a,), vjp)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """(n, k) + (k,) broadcast over rows."""
    out = Tensor(_check(m.data + v.data[None, :], "add_rowvec"))

    def vjp(g):
        _acc(m, g)
        _acc(v, g.sum(axis=0))

    return _record(out, (m, v), vjp)


# ---------------------------------------------------------------------------
# primitives: shape and indexing

def concat(parts: Sequence[Tensor]) -> Tensor:
    out = Tensor(_check(np.concatenate([p.data for p in parts]), "concat"))
    sizes = [p.data.shape[0] for p in parts]

    def vjp(g):
        off = 0
        for p, size in zip(parts, sizes):
            _acc(p, g[off:off + size])
            off += size

    return _record(out, parts, vjp)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    out = Tensor(_check(np.concatenate([p.data for p in parts], axis=1),
                        "concat_cols"))
    widths = [p.data.shape[1] for p in parts]

    def vjp(g):
        off = 0
        for p, w in zip(parts, widths):
            _acc(p, g[:, off:off + w])
            off += w

    return _record(out, parts, vjp)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    out = Tensor(_check(np.stack([r.data for r in rows]), "stack_rows"))

    def vjp(g):
        for i, r in enumerate(rows):
            _acc(r, g[i])

    return _record(out, rows, vjp)


def stack_cols(cols: Sequence[Tensor]) -> Tensor:
    out = Tensor(_check(np.stack([c.data for c in cols], axis=1), "stack_cols"))

    def vjp(g):
        for i, c in enumerate(cols):
            _acc(c, g[:, i])

    return _record(out, cols, vjp)


def row(m: Tensor, i: int) -> Tensor:
    out = Tensor(m.data[i])

    def vjp(g):
        if m.needs_grad:
            full = np.zeros_like(m.data)
            full[i] = g
            _acc(m, full)

    return _record(out, (m,), vjp)


def row_select(m: Tensor, idx: Sequence[int]) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(m.data[idx])

    def vjp(g):
        if m.needs_grad:
            full = np.zeros_like(m.data)
            np.add.at(full, idx, g)
            _acc(m, full)

    return _record(out, (m,), vjp)


def sum_rows(m: Tensor) -> Tensor:
    """Column-wise sum of a matrix: (n, k) -> (k,)."""
    out = Tensor(_check(m.data.sum(axis=0), "sum_rows"))

    def vjp(g):
        _acc(m, np.broadcast_to(g, m.data.shape).copy())

    return _record(out, (m,), vjp)


def sum_row_groups(m: Tensor, groups: Sequence[Sequence[int]]) -> Tensor:
    """Row k sums m's rows listed in groups[k], in list order, exactly as
    ``m.data[group].sum(axis=0)`` does: padding cells index an appended
    zero row, and adding 0.0 changes no sum.  An empty group gives zeros."""
    n, dim = m.data.shape
    idx = np.full((len(groups), max(map(len, groups), default=0)), n,
                  dtype=np.intp)
    for k, group in enumerate(groups):
        idx[k, :len(group)] = group
    padded = np.concatenate([m.data, np.zeros((1, dim))])
    out = Tensor(_check(padded[idx].sum(axis=1), "sum_row_groups"))

    def vjp(g):
        if m.needs_grad:
            full = np.zeros_like(padded)
            np.add.at(full, idx, g[:, None, :])
            _acc(m, full[:n])

    return _record(out, (m,), vjp)


def vec_select(x: Tensor, idx: Sequence[int]) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[idx])

    def vjp(g):
        if x.needs_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, idx, g)
            _acc(x, full)

    return _record(out, (x,), vjp)


def slice_vec(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[start:stop].copy())

    def vjp(g):
        if x.needs_grad:
            full = np.zeros_like(x.data)
            full[start:stop] = g
            _acc(x, full)

    return _record(out, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(_check(x.data.sum(), "sum_all"))

    def vjp(g):
        _acc(x, np.full_like(x.data, float(g)))

    return _record(out, (x,), vjp)


# ---------------------------------------------------------------------------
# primitives: nonlinearities and normalization

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def vjp(g):
        _acc(x, g * (x.data > 0.0))

    return _record(out, (x,), vjp)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    out = Tensor(np.where(x.data > 0.0, x.data, slope * x.data))

    def vjp(g):
        _acc(x, g * np.where(x.data > 0.0, 1.0, slope))

    return _record(out, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def vjp(g):
        _acc(x, g * (1.0 - y * y))

    return _record(out, (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(_check(y, "sigmoid"))

    def vjp(g):
        _acc(x, g * y * (1.0 - y))

    return _record(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    Accepts a vector or a matrix (each row normalized independently).
    """
    data = x.data
    mu = data.mean(axis=-1, keepdims=True)
    var = data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (data - mu) * inv
    out = Tensor(_check(xhat * gain.data + bias.data, "layer_norm"))
    k = data.shape[-1]

    def vjp(g):
        _acc(gain, (g * xhat).sum(axis=0) if data.ndim == 2 else g * xhat)
        _acc(bias, g.sum(axis=0) if data.ndim == 2 else g)
        gd = g * gain.data
        term = gd - gd.mean(axis=-1, keepdims=True) \
            - xhat * (gd * xhat).sum(axis=-1, keepdims=True) / k
        _acc(x, inv * term)

    return _record(out, (x, gain, bias), vjp)


def log_softmax(x: Tensor) -> Tensor:
    m = x.data.max()
    shifted = x.data - m
    lse = m + np.log(np.exp(shifted).sum())
    out = Tensor(_check(x.data - lse, "log_softmax"))

    def vjp(g):
        _acc(x, g - np.exp(out.data) * g.sum())

    return _record(out, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries are scaled by 1/(1-rate)."""
    if rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask)

    def vjp(g):
        _acc(x, g * mask)

    return _record(out, (x,), vjp)


# ---------------------------------------------------------------------------
# fused recurrence

def lstm_sequence(xw: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Full LSTM pass over precomputed input projections, as one tape op.

    xw is (n, 4H) holding x_t @ Wx for every step; wh is (H, 4H); b is
    (4H,) with gate order [input, forget, cell, output].  Initial hidden
    and cell states are zero.  Returns the (n, H) hidden-state sequence.

    Running the whole recurrence as a single primitive (with the
    backward-through-time product written out by hand) keeps the tape a
    few records per layer instead of a dozen per token, which is what
    makes training runs affordable in pure Python.  Only step-dependent
    work stays in the loops: the backward pass forms all gate-derivative
    factors up front and the wh and b gradients as products afterwards.
    """
    n, four_h = xw.data.shape
    h = four_h // 4
    if wh.data.shape != (h, four_h):
        raise ValueError(f"wh shape {wh.data.shape} does not match ({h}, {four_h})")
    hs = np.zeros((n, h))
    cs = np.zeros((n, h))
    gates = np.zeros((n, four_h))  # post-activation [i, f, g, o]
    h_prev = c_prev = np.zeros(h)
    for t in range(n):
        raw = xw.data[t] + h_prev @ wh.data + b.data
        act = 1.0 / (1.0 + np.exp(-raw))
        act[2 * h:3 * h] = np.tanh(raw[2 * h:3 * h])
        c_prev = act[h:2 * h] * c_prev + act[:h] * act[2 * h:3 * h]
        h_prev = act[3 * h:] * np.tanh(c_prev)
        gates[t], cs[t], hs[t] = act, c_prev, h_prev
    out = Tensor(_check(hs, "lstm_sequence"))

    def vjp(grad_h):
        i, f, g, o = np.split(gates, 4, axis=1)
        tc = np.tanh(cs)
        c_before = np.vstack([np.zeros(h), cs[:-1]])
        h_before = np.vstack([np.zeros(h), hs[:-1]])
        # d raw = [dc, dc, dc, dh] * coef, step by step.
        coef = np.concatenate([g * i * (1.0 - i),
                               c_before * f * (1.0 - f),
                               i * (1.0 - g * g),
                               tc * o * (1.0 - o)], axis=1)
        dc_from_dh = o * (1.0 - tc * tc)
        draws = np.empty_like(xw.data)
        dh = dc = np.zeros(h)
        for t in range(n - 1, -1, -1):
            dh = dh + grad_h[t]
            dc = dc + dh * dc_from_dh[t]
            draw = np.concatenate([dc, dc, dc, dh]) * coef[t]
            draws[t] = draw
            dh = wh.data @ draw
            dc = dc * f[t]
        _acc(xw, draws)
        _acc(wh, h_before.T @ draws)
        _acc(b, draws.sum(axis=0))

    return _record(out, (xw, wh, b), vjp)


# ---------------------------------------------------------------------------
# numeric gradient verification

class GradCheckFailure(AssertionError):
    pass


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5, max_checks: int | None = None):
    """Compare tape gradients of f() against central finite differences.

    f must rebuild its graph on each call and be deterministic: it is
    evaluated twice up front and the values must agree bit for bit.
    Relative error is |a - n| / max(1e-8, |a| + |n|).  Returns
    (max relative error, report rows of (name, index, analytic, numeric,
    relative error) sorted worst first).

    With max_checks set, only every k-th value is probed (k chosen so at
    most max_checks values are touched across all params); the full
    analytic backward pass still runs.
    """
    zero_grads(params)
    with fresh_tape():
        out = f()
        val = float(out.data)
        backward(out)
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                 for p in params]
    zero_grads(params)

    def eval_only() -> float:
        with fresh_tape(), no_grad():
            return float(f().data)

    if eval_only() != val:
        raise GradCheckFailure(
            "function is not deterministic: repeated evaluation changed"
        )

    total = sum(p.data.size for p in params)
    stride = 1
    if max_checks is not None and total > max_checks:
        stride = -(-total // max_checks)

    report = []
    offset = 0
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        start = (-offset) % stride
        offset += flat.size
        for k in range(start, flat.size, stride):
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = eval_only()
            flat[k] = orig - eps
            f_minus = eval_only()
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = gflat[k]
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            idx = np.unravel_index(k, p.data.shape) if p.data.ndim else ()
            report.append((p.name or "param", idx, analytic, numeric, rel))
    report.sort(key=lambda r: r[4], reverse=True)
    max_rel = report[0][4] if report else 0.0
    return max_rel, report
