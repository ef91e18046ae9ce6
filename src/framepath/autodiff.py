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
whole batch: ``bilstm_layer`` over a ``Packed`` layout, ``sum_row_groups``
(graph-convolution, path, target and span sums), ``bilinear_rows``
(argument scores), and the packed CRF ops in ``crf``.  Their backward
scatters go through ``scatter_rows``, one ``np.bincount``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "needs_grad", "name")

    def __init__(self, data, needs_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        # needs_grad marks parameters and tensors on a path from one:
        # gradients are only accumulated where it is set.
        self.needs_grad = needs_grad
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", needs_grad" if self.needs_grad else ""
        return f"Tensor({self.name or 'anon'}, shape={self.data.shape}{flag})"


def tensor(data, name: str = "") -> Tensor:
    """Constant tensor: participates in math, never receives a gradient."""
    return Tensor(data, name=name)


def param(data, name: str = "") -> Tensor:
    return Tensor(data, needs_grad=True, name=name)


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
    if t.enabled:
        for i in inputs:  # any() over a generator costs more, per op
            if i.needs_grad:
                out.needs_grad = True
                t.records.append((out, vjp))
                break
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
                  x_rows: Sequence[int]) -> Tensor:
    """out[r, k] = x[x_rows[r]] @ us[k] @ y[r], as one tape op: x goes
    through each map once, w[:, k] = x @ us[k], and each output row dots
    a gathered row of w with its row of y."""
    x_rows = np.asarray(x_rows, dtype=np.intp)
    w = np.stack([x.data @ m.data for m in us], axis=1)  # (m, k, q)
    out = Tensor(_check(np.einsum("rkq,rq->rk", w[x_rows], y.data),
                        "bilinear_rows"))

    def vjp(g):
        gw = scatter_rows(x_rows, (g[:, :, None] * y.data[:, None, :]).reshape(
            len(g), -1), len(w)).reshape(w.shape)
        _acc(x, sum(gw[:, k] @ m.data.T for k, m in enumerate(us)))
        for k, m in enumerate(us):
            _acc(m, x.data.T @ gw[:, k])
        if y.needs_grad:
            _acc(y, np.einsum("rk,rkq->rq", g, w[x_rows]))

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

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(_check(np.concatenate([p.data for p in parts], axis=axis),
                        "concat"))

    def vjp(g):
        ends = np.cumsum([p.data.shape[axis] for p in parts[:-1]])
        for p, piece in zip(parts, np.split(g, ends, axis=axis)):
            _acc(p, piece)

    return _record(out, parts, vjp)


def row_select(m: Tensor, idx: Sequence[int]) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(m.data[idx])

    def vjp(g):
        if m.needs_grad:
            _acc(m, scatter_rows(idx, g, len(m.data)))

    return _record(out, (m,), vjp)


def scatter_rows(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, dim) zeros with values[i] added onto row rows[i], in i order:
    ``np.add.at``'s sums bit for bit, from one ``np.bincount`` over
    (row, column) keys, which adds its weights in input order."""
    dim = values.shape[1]
    keys = rows[:, None] * dim + np.arange(dim)
    return np.bincount(keys.ravel(), values.ravel(),
                       minlength=n * dim).reshape(n, dim)


def pad_groups(groups: Sequence[Sequence[int]]) -> np.ndarray:
    """groups as one (len(groups), longest) index, -1 past each group's
    end: the form sum_row_groups sums over."""
    idx = np.full((len(groups), max(map(len, groups), default=0)), -1,
                  dtype=np.intp)
    for k, group in enumerate(groups):
        idx[k, :len(group)] = group
    return idx


def sum_row_groups(m: Tensor, groups: Sequence[Sequence[int]] | np.ndarray,
                   ) -> Tensor:
    """Row k sums m's rows listed in groups[k], in list order, exactly as
    ``m.data[group].sum(axis=0)`` does.  groups may come padded already
    (pad_groups); a pad cell (-1) indexes an appended zero row, and adding
    0.0 changes no sum.  An empty group gives zeros."""
    idx = groups if isinstance(groups, np.ndarray) else pad_groups(groups)
    padded = np.concatenate([m.data, np.zeros((1, m.data.shape[1]))])
    out = Tensor(_check(padded[idx].sum(axis=1), "sum_row_groups"))

    def vjp(g):
        if m.needs_grad:
            k, j = np.nonzero(idx >= 0)  # pad cells take no gradient
            _acc(m, scatter_rows(idx[k, j], g[k], len(m.data)))

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
    """Normalize each row of a matrix, then scale and shift.  The mean
    and variance are the reductions and divisions np.mean and np.var run,
    without their Python wrappers, so every bit matches theirs."""
    data = x.data
    k = data.shape[1]
    d = data - np.add.reduce(data, axis=1, keepdims=True) / k
    var = np.add.reduce(d * d, axis=1, keepdims=True) / k
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv
    out = Tensor(_check(xhat * gain.data + bias.data, "layer_norm"))

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

def chain_lengths(n: int, lengths: Sequence[int] | None) -> list[int]:
    """lengths (None: one sequence) as a list, checked to pack n rows."""
    lengths = [n] if lengths is None else list(lengths)
    if sum(lengths) != n:
        raise ValueError(f"lengths {lengths} do not pack {n} rows")
    if not lengths or min(lengths) < 1:
        raise ValueError("empty sequence")
    return lengths


class Packed:
    """Sequences of the given lengths (None: one) back to back in n rows,
    laid out in a zero-padded time-major block (step, sequence, ...),
    longest first, so those still running at step t are the prefix
    [:running[t]].  Row r sits in cell (step[r], col[r])."""

    def __init__(self, n: int, lengths: Sequence[int] | None):
        self.lengths = chain_lengths(n, lengths)
        self.order = sorted(range(len(self.lengths)),
                            key=lambda j: -self.lengths[j])  # column -> seq
        self.steps = self.lengths[self.order[0]]
        ascending = sorted(self.lengths)
        self.running = [len(ascending) - bisect_right(ascending, t)
                        for t in range(self.steps + 1)]
        self.last = ([self.lengths[j] - 1 for j in self.order],
                     range(len(self.order)))
        sizes = np.array(self.lengths)
        col = np.empty(len(sizes), dtype=np.intp)
        col[self.order] = np.arange(len(sizes))
        self.col = col.repeat(sizes)
        self.step = np.arange(n) - (sizes.cumsum() - sizes).repeat(sizes)

    @cached_property
    def mirrored(self) -> tuple[np.ndarray, tuple]:
        """Each row's step in both directions, the second running its
        sequence mirrored, as (n, 2) steps; and the cells (direction,
        step, col) that index a two-direction block in row order."""
        steps = np.array([self.step, np.array(self.lengths).repeat(
            self.lengths) - 1 - self.step]).T
        return steps, (np.arange(2), steps, self.col[:, None])

    def to_block(self, rows: np.ndarray) -> np.ndarray:
        block = np.zeros((self.steps, len(self.order)) + rows.shape[1:])
        block[self.step, self.col] = rows
        return block

    def from_block(self, block: np.ndarray) -> np.ndarray:
        return block[self.step, self.col]


def bilstm_layer(fwd: tuple[Tensor, Tensor, Tensor],
                 bwd: tuple[Tensor, Tensor, Tensor], packed: Packed) -> Tensor:
    """One bidirectional LSTM layer over packed sequences, as one tape op.

    fwd and bwd are each one direction's (xw, wh, b): xw is (n, 4H)
    holding x_t @ Wx for every step of the sequences packed lays out
    (one Packed, shared by the layers of a stack); wh is (H, 4H); b is
    (4H,) with gate order [input, forget, cell, output].  Each sequence
    starts from zero states; fwd runs it left to right and bwd right to
    left.  Returns the (n, 2H) states [forward | backward] in xw's rows.

    Both directions share one Packed layout and one (direction, step,
    sequence, ...) block, bwd's rows flipped in the gather, so a step is
    one stacked (2, k, H) @ (2, H, 4H) product over the k sequences still
    running.  The hand-written backward pass forms all gate-derivative
    factors up front and keeps only the dh/dc recurrence of both
    directions in its loop, one (2, K, 4H) @ (2, 4H, H) product a step.
    """
    n, four_h = fwd[0].data.shape
    h = four_h // 4
    for xw, wh, _ in (fwd, bwd):
        if xw.data.shape != (n, four_h) or wh.data.shape != (h, four_h):
            raise ValueError(f"xw shape {xw.data.shape} and wh shape "
                             f"{wh.data.shape} do not match ({n}, {four_h}) "
                             f"and ({h}, {four_h})")
    if len(packed.step) != n:
        raise ValueError(f"lengths {packed.lengths} do not pack {n} rows")
    steps, cells = packed.mirrored  # bwd runs each sequence mirrored
    k = len(packed.order)
    xs = np.zeros((2, packed.steps, k, four_h))
    xs[0, steps[:, 0], packed.col] = fwd[0].data
    xs[1, steps[:, 1], packed.col] = bwd[0].data
    wh = np.array([fwd[1].data, bwd[1].data])
    b = np.array([fwd[2].data, bwd[2].data])[:, None]
    hs = np.zeros(xs.shape[:-1] + (h,))
    # Post-activation gates [i, f, g, o] and cells, kept for a backward.
    keep = _tape().enabled and any(t.needs_grad for t in fwd + bwd)
    gates, cs = ((np.zeros_like(xs), np.zeros_like(hs)) if keep
                 else (None, None))
    h_prev = c_prev = np.zeros((2, k, h))
    for t in range(packed.steps):
        if packed.running[t] < k:  # only the k longest still run
            k = packed.running[t]
            h_prev, c_prev = h_prev[:, :k], c_prev[:, :k]
        raw = xs[:, t, :k] + h_prev @ wh + b
        act = 1.0 / (1.0 + np.exp(-raw))
        g = act[..., 2 * h:3 * h] = np.tanh(raw[..., 2 * h:3 * h])
        c_prev = act[..., h:2 * h] * c_prev + act[..., :h] * g
        h_prev = act[..., 3 * h:] * np.tanh(c_prev)
        hs[:, t, :k] = h_prev
        if keep:
            gates[:, t, :k], cs[:, t, :k] = act, c_prev
    out = Tensor(_check(hs[cells].reshape(n, 2 * h), "bilstm_layer"))

    def vjp(grad_h):
        i, f, g, o = np.split(gates, 4, axis=-1)
        tc = np.tanh(cs)
        c_before = np.concatenate([np.zeros_like(cs[:, :1]), cs[:, :-1]], 1)
        h_before = np.concatenate([np.zeros_like(hs[:, :1]), hs[:, :-1]], 1)
        # d raw = [dc, dc, dc, dh] * coef, step by step.  Padding cells
        # have all-zero gates, so their coef, and hence draw, is zero.
        coef = np.concatenate([g * i * (1.0 - i),
                               c_before * f * (1.0 - f),
                               i * (1.0 - g * g),
                               tc * o * (1.0 - o)], axis=-1)
        dc_from_dh = o * (1.0 - tc * tc)
        grad_block = np.zeros_like(hs)
        grad_block[cells] = grad_h.reshape(n, 2, h)
        wh_t = wh.transpose(0, 2, 1)
        draws = np.empty_like(xs)
        dh = dc = np.zeros((2,) + hs.shape[2:])
        for t in range(packed.steps - 1, -1, -1):
            dh = dh + grad_block[:, t]
            dc = dc + dh * dc_from_dh[:, t]
            draw = np.multiply(np.concatenate([dc, dc, dc, dh], axis=-1),
                               coef[:, t], out=draws[:, t])
            dh = draw @ wh_t
            dc = dc * f[:, t]
        flat = draws.reshape(2, -1, four_h)
        d_wh = h_before.reshape(2, -1, h).transpose(0, 2, 1) @ flat
        d_b = flat.sum(axis=1)
        for d, (xw, wh_d, b_d) in enumerate((fwd, bwd)):
            _acc(xw, draws[d, steps[:, d], packed.col])
            _acc(wh_d, d_wh[d])
            _acc(b_d, d_b[d])

    return _record(out, fwd + bwd, vjp)


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
