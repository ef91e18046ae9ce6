"""Minimal reverse-mode automatic differentiation on a Wengert tape.

Everything is float64 numpy.  Each primitive computes its value eagerly,
verifies the result is finite, and (when recording is enabled and some
input wants a gradient) appends a record to the thread-local tape.
``backward`` replays the tape in reverse, accumulating vector-Jacobian
products into ``Tensor.grad``, and clears the tape afterwards: a second
backward needs a fresh forward pass.

Gradients are never mutated in place; accumulation always rebinds
``t.grad = t.grad + g`` so aliased arrays stay safe.

Hot paths are single records with hand-written backwards, each over a
whole batch: ``lstm_sequence``, ``sum_row_groups`` (path, target and
span sums), ``bilinear_rows`` (argument scores), and the packed CRF ops
in ``crf`` built on ``_record``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate
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


def dot(x: Tensor, y: Tensor) -> Tensor:
    out = Tensor(_check(np.dot(x.data, y.data), "dot"))

    def vjp(g):
        _acc(x, g * y.data)
        _acc(y, g * x.data)

    return _record(out, (x, y), vjp)


def bilinear_rows(x: Tensor, us: Sequence[Tensor], y: Tensor,
                  x_rows: Sequence[int], y_rows: Sequence[int]) -> Tensor:
    """out[r, k] = x[x_rows[r]] @ us[k] @ y[y_rows[r]], as one tape op:
    x goes through each map once, w[:, k] = x @ us[k], and each output
    row dots a gathered row of w with a gathered row of y."""
    w = np.stack([x.data @ m.data for m in us], axis=1)  # (m, k, q)
    yr = y.data[y_rows]
    out = Tensor(_check(np.einsum("rkq,rq->rk", w[x_rows], yr),
                        "bilinear_rows"))

    def vjp(g):
        gw = np.zeros_like(w)
        np.add.at(gw, x_rows, g[:, :, None] * yr[:, None, :])
        _acc(x, sum(gw[:, k] @ m.data.T for k, m in enumerate(us)))
        for k, m in enumerate(us):
            _acc(m, x.data.T @ gw[:, k])
        if y.needs_grad:
            gy = np.zeros_like(y.data)
            np.add.at(gy, y_rows, np.einsum("rk,rkq->rq", g, w[x_rows]))
            _acc(y, gy)

    return _record(out, (x, y, *us), vjp)


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


def row_select(m: Tensor, idx: Sequence[int]) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(m.data[idx])

    def vjp(g):
        if m.needs_grad:
            full = np.zeros_like(m.data)
            np.add.at(full, idx, g)
            _acc(m, full)

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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of a matrix, then scale and shift."""
    data = x.data
    mu = data.mean(axis=1, keepdims=True)
    var = data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (data - mu) * inv
    out = Tensor(_check(xhat * gain.data + bias.data, "layer_norm"))
    k = data.shape[1]

    def vjp(g):
        _acc(gain, (g * xhat).sum(axis=0))
        _acc(bias, g.sum(axis=0))
        gd = g * gain.data
        term = gd - gd.mean(axis=1, keepdims=True) \
            - xhat * (gd * xhat).sum(axis=1, keepdims=True) / k
        _acc(x, inv * term)

    return _record(out, (x, gain, bias), vjp)


def log_softmax(x: Tensor) -> Tensor:
    """Over the last axis: a vector, or each row of a matrix."""
    m = x.data.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x.data - m).sum(axis=-1, keepdims=True))
    out = Tensor(_check(x.data - lse, "log_softmax"))

    def vjp(g):
        _acc(x, g - np.exp(out.data) * g.sum(axis=-1, keepdims=True))

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
# packed sequences: the fused recurrence and the CRF run on this layout

class Packed:
    """Sequences of the given lengths (None: one) back to back in n rows,
    laid out in a zero-padded time-major block (step, sequence, ...),
    longest first, so those still running at step t are the prefix
    [:running[t]].  With reverse, each runs right to left in the block."""

    def __init__(self, n: int, lengths: Sequence[int] | None,
                 reverse: bool = False):
        self.lengths = [n] if lengths is None else list(lengths)
        if sum(self.lengths) != n:
            raise ValueError(f"lengths {self.lengths} do not pack {n} rows")
        if not self.lengths or min(self.lengths) < 1:
            raise ValueError("empty sequence")
        first = list(accumulate(self.lengths[:-1], initial=0))
        self.order = sorted(range(len(self.lengths)),
                            key=lambda j: -self.lengths[j])  # column -> seq
        self.seqs = [(first[j], self.lengths[j]) for j in self.order]
        self.steps = self.seqs[0][1]
        ascending = sorted(self.lengths)
        self.running = [len(ascending) - bisect_right(ascending, t)
                        for t in range(self.steps + 1)]
        self.last = ([m - 1 for _, m in self.seqs], range(len(self.seqs)))
        self._flip = slice(None, None, -1 if reverse else None)

    def to_block(self, rows: np.ndarray) -> np.ndarray:
        block = np.zeros((self.steps, len(self.seqs)) + rows.shape[1:])
        for j, (lo, m) in enumerate(self.seqs):
            block[:m, j] = rows[lo:lo + m][self._flip]
        return block

    def from_block(self, block: np.ndarray) -> np.ndarray:
        rows = np.empty((sum(self.lengths),) + block.shape[2:])
        for j, (lo, m) in enumerate(self.seqs):
            rows[lo:lo + m] = block[:m, j][self._flip]
        return rows


def lstm_sequence(xw: Tensor, wh: Tensor, b: Tensor,
                  lengths: Sequence[int] | None = None,
                  reverse: bool = False) -> Tensor:
    """LSTM passes over packed sequences, as one tape op.

    xw is (n, 4H) holding x_t @ Wx for every step of sequences of the
    given lengths (None: one), back to back; wh is (H, 4H); b is (4H,)
    with gate order [input, forget, cell, output].  Each sequence starts
    from zero states and, with reverse, runs right to left.  Returns the
    (n, H) hidden states in xw's row order.

    The sequences run as a Packed block, so a step is one (k, H) @ wh
    product over the k still running.  The hand-written backward pass
    forms all gate-derivative factors up front and keeps only the dh/dc
    recurrence in its loop.
    """
    n, four_h = xw.data.shape
    h = four_h // 4
    if wh.data.shape != (h, four_h):
        raise ValueError(f"wh shape {wh.data.shape} does not match ({h}, {four_h})")
    packed = Packed(n, lengths, reverse)
    xs = packed.to_block(xw.data)
    hs = np.zeros(xs.shape[:-1] + (h,))
    # Post-activation gates [i, f, g, o] and cells, kept for a backward.
    keep = _tape().enabled and any(t.needs_grad for t in (xw, wh, b))
    gates, cs = ((np.zeros_like(xs), np.zeros_like(hs)) if keep
                 else (None, None))
    h_prev = c_prev = np.zeros(hs.shape[1:])
    k = len(packed.seqs)
    for t in range(packed.steps):
        if packed.running[t] < k:  # only the k longest still run
            k = packed.running[t]
            h_prev, c_prev = h_prev[:k], c_prev[:k]
        raw = xs[t, :k] + h_prev @ wh.data + b.data
        act = 1.0 / (1.0 + np.exp(-raw))
        g = act[:, 2 * h:3 * h] = np.tanh(raw[:, 2 * h:3 * h])
        c_prev = act[:, h:2 * h] * c_prev + act[:, :h] * g
        h_prev = act[:, 3 * h:] * np.tanh(c_prev)
        hs[t, :k] = h_prev
        if keep:
            gates[t, :k], cs[t, :k] = act, c_prev
    out = Tensor(_check(packed.from_block(hs), "lstm_sequence"))

    def vjp(grad_h):
        i, f, g, o = np.split(gates, 4, axis=-1)
        tc = np.tanh(cs)
        c_before = np.concatenate([np.zeros_like(cs[:1]), cs[:-1]])
        h_before = np.concatenate([np.zeros_like(hs[:1]), hs[:-1]])
        # d raw = [dc, dc, dc, dh] * coef, step by step.  Padding cells
        # have all-zero gates, so their coef, and hence draw, is zero.
        coef = np.concatenate([g * i * (1.0 - i),
                               c_before * f * (1.0 - f),
                               i * (1.0 - g * g),
                               tc * o * (1.0 - o)], axis=-1)
        dc_from_dh = o * (1.0 - tc * tc)
        grad_block = packed.to_block(grad_h)
        wh_t = wh.data.T
        draws = np.empty_like(xs)
        dh = dc = np.zeros(hs.shape[1:])
        for t in range(packed.steps - 1, -1, -1):
            dh = dh + grad_block[t]
            dc = dc + dh * dc_from_dh[t]
            draw = np.concatenate([dc, dc, dc, dh], axis=-1) * coef[t]
            draws[t] = draw
            dh = draw @ wh_t
            dc = dc * f[t]
        _acc(xw, packed.from_block(draws))
        _acc(wh, h_before.reshape(-1, h).T @ draws.reshape(-1, four_h))
        _acc(b, draws.reshape(-1, four_h).sum(axis=0))

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
