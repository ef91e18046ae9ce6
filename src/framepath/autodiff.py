"""Minimal reverse-mode automatic differentiation on a Wengert tape.

Everything is float64 numpy.  Each primitive computes its value eagerly,
verifies the result is finite, and (when recording is enabled and some
input wants a gradient) appends a record to the thread-local tape.
``backward`` drains the tape in reverse, accumulating vector-Jacobian
products into ``Tensor.grad``.  It pops each record before running its
vjp, so the closure and the forward arrays it holds are freed once
consumed, and drops each recorded output's gradient once passed on: only
leaves (parameters) keep ``.grad``, and a second backward needs a fresh
forward pass.

Gradients are never mutated in place; accumulation always rebinds
``t.grad = t.grad + g`` so aliased arrays stay safe.

Hot paths are single records with hand-written backwards, each over a
whole batch: ``affine`` (every linear map), ``bilstm_layer`` (a layer's
input projections and recurrence, both directions at once) over a
``Packed`` layout, ``sum_row_groups`` (graph-convolution, path, target
and span sums), ``bilinear_rows`` (argument scores), ``add_sq_norms``
(every L2 penalty of the objective), and the packed CRF ops in ``crf``.
Their backward scatters go through ``scatter_rows``, one ``np.bincount``.
``bilstm_layer`` reads each of wx, wh and b as one (2, ...) array over
both directions: the arrays a ``BiLstm`` layer keeps, which its
direction tensors view, or else stacked copies.  Every sequence starts
from zero states, so the first step adds no h @ wh and no f * c.

A ``Packed`` layout holds integer indices only, so it is a shared,
immutable value: ``packed(n, lengths)`` builds one per distinct lengths
and keeps the 64 most recently used: a BiLSTM and the CRF that scores
or decodes its rows share one, as do one-sentence ``parse`` calls; a
chunked ``parse_many`` seldom repeats lengths outside a chunk.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_right
from contextlib import contextmanager
from functools import cached_property, lru_cache
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
    try:
        return _state.stack
    except AttributeError:  # this thread's first op
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
    # np.add.reduce is arr.sum() without numpy's Python wrapper.
    if (math.isfinite(np.add.reduce(arr, axis=None))
            or np.all(np.isfinite(arr))):
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
    """Accumulate d(root)/d(leaf) into each leaf's .grad, draining the tape
    as it goes: each record is dropped before its vjp runs and each
    recorded output's gradient once it is passed on, so the forward arrays
    and intermediate gradients live no longer than reverse mode needs."""
    if root.data.ndim != 0:
        raise ValueError(f"backward needs a scalar, got shape {root.data.shape}")
    records = _tape().records
    root.grad = np.ones_like(root.data)
    while records:
        out, vjp = records.pop()
        g, out.grad = out.grad, None
        if g is not None:
            vjp(g)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitives: linear algebra

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b[None, :], as one op that keeps no pre-bias product."""
    out = Tensor(_check(x.data @ w.data + b.data[None, :], "affine"))

    def vjp(g):
        _acc(b, g.sum(axis=0))
        _acc(x, g @ w.data.T)
        _acc(w, x.data.T @ g)

    return _record(out, (x, w, b), vjp)


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


def add_sq_norms(x: Tensor, terms: Sequence[tuple[Tensor, float]]) -> Tensor:
    """x + c * sum(t * t) for each (t, c) of terms in order, as one op:
    bit for bit each term's mul, sum_all, product with c and add."""
    total = x.data
    for t, c in terms:
        total = total + (t.data * t.data).sum() * c
    out = Tensor(_check(total, "add_sq_norms"))

    def vjp(g):
        _acc(x, g)
        for t, c in reversed(terms):  # the order separate ops run backward
            gt = float(g * c) * t.data
            _acc(t, gt)
            _acc(t, gt)

    return _record(out, (x, *(t for t, _ in terms)), vjp)


# ---------------------------------------------------------------------------
# primitives: shape and indexing

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(_check(np.concatenate([p.data for p in parts], axis=axis),
                        "concat"))

    def vjp(g):
        lead = (slice(None),) * (axis % g.ndim)
        lo = 0
        for p in parts:
            hi = lo + p.data.shape[axis]
            _acc(p, g[lead + (slice(lo, hi),)])
            lo = hi

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


def log_softmax(x: Tensor, allowed: np.ndarray | bool = True) -> Tensor:
    """Over the last axis: a vector, or each row of a matrix (which may
    be empty, as a model without frames scores no frame), normalized over
    the entries the boolean mask allowed keeps; the rest hold 0.0 and
    pass back no gradient."""
    z = np.where(allowed, x.data, -np.inf)
    m = z.max(axis=-1, keepdims=True, initial=-np.inf)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    out = Tensor(_check(np.where(allowed, z - lse, 0.0), "log_softmax"))

    def vjp(g):
        g = np.where(allowed, g, 0.0)
        _acc(x, g - np.exp(z - lse) * g.sum(axis=-1, keepdims=True))

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

def packed(n: int, lengths: Sequence[int] | None) -> Packed:
    """The Packed layout of n rows in sequences of the given lengths
    (None: one sequence, the same layout as [n]).  Equal lengths, as a
    list, tuple or integer array, give the same shared layout, built once
    while it stays among the 64 most recently used; invalid lengths raise
    ValueError and are not kept."""
    return _layouts(n, (n,) if lengths is None
                    else tuple(map(operator.index, lengths)))


# The bound: one-sentence parse calls over 1,172 held-out sentences use
# 16 layouts (5,671 hits, no misses, once warm), and a training batch
# shares a few between each backbone and its CRFs; 64 holds both with
# room (0.57 MB full on train-long).  parse_many's 256-cell chunks
# seldom repeat lengths: 94 hits, all within a chunk, and 141 misses.
@lru_cache(maxsize=64)
def _layouts(n: int, lengths: tuple[int, ...]) -> Packed:
    return Packed(n, lengths)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Packed:
    """Sequences of the given lengths back to back in n rows, laid out in
    a zero-padded time-major block (step, sequence, ...), longest first,
    so those still running at step t are the prefix [:running[t]].  Row
    r sits in cell (step[r], col[r]); order maps a column to its
    sequence.  Built only by packed(), whose callers share it, so it is
    immutable: tuples and read-only integer arrays."""

    def __init__(self, n: int, lengths: tuple[int, ...]):
        if sum(lengths) != n:
            raise ValueError(f"lengths {list(lengths)} do not pack {n} rows")
        if not lengths or min(lengths) < 1:
            raise ValueError("empty sequence")
        self.lengths = lengths
        sizes = np.array(lengths)
        order = np.argsort(-sizes, kind="stable")
        self.order = _frozen(order)
        self.steps = lengths[order[0]]
        ascending = sorted(lengths)
        self.running = tuple(len(ascending) - bisect_right(ascending, t)
                             for t in range(self.steps + 1))
        # each column's last cell (step, col)
        self.last = (_frozen(sizes[order] - 1),
                     _frozen(np.arange(len(order))))
        col = np.empty(len(sizes), dtype=np.intp)
        col[order] = np.arange(len(sizes))
        self.col = _frozen(col.repeat(sizes))
        self.step = _frozen(np.arange(n) - (sizes.cumsum() - sizes).repeat(
            sizes))

    @cached_property
    def chain(self) -> np.ndarray:
        """Each row's sequence."""
        return _frozen(np.arange(len(self.lengths)).repeat(self.lengths))

    @cached_property
    def mirrored(self) -> tuple[np.ndarray, tuple]:
        """Each row's step in both directions, the second running its
        sequence mirrored, as (n, 2) steps; and the cells (direction,
        step, col) that index a two-direction block in row order."""
        steps = _frozen(np.array([self.step, np.repeat(
            self.lengths, self.lengths) - 1 - self.step]).T)
        return steps, (_frozen(np.arange(2)), steps, self.col[:, None])

    @cached_property
    def by_direction(self) -> tuple:
        """mirrored's cells in direction order: they index a (2, n)
        block whose [d] holds direction d's cells in row order."""
        steps, (d, _, col) = self.mirrored
        return d[:, None], steps.T, col.T

    def to_block(self, rows: np.ndarray) -> np.ndarray:
        block = np.zeros((self.steps, len(self.order)) + rows.shape[1:])
        block[self.step, self.col] = rows
        return block

    def from_block(self, block: np.ndarray) -> np.ndarray:
        return block[self.step, self.col]


def bilstm_layer(x: Tensor, fwd: tuple[Tensor, Tensor, Tensor],
                 bwd: tuple[Tensor, Tensor, Tensor], packed: Packed,
                 stacked: tuple[np.ndarray, ...] | None = None) -> Tensor:
    """One bidirectional LSTM layer over packed sequences, as one tape op.

    x is (n, in) holding the rows of the sequences packed lays out (one
    Packed, shared by the layers of a stack).  fwd and bwd are each one
    direction's (wx, wh, b): wx is (in, 4H), wh is (H, 4H), b is (4H,),
    with gate order [input, forget, cell, output].  Each sequence starts
    from zero states; fwd runs it left to right and bwd right to left.
    Returns the (n, 2H) states [forward | backward] in x's rows.

    stacked, when given, holds the values of fwd's and bwd's wx, wh and
    b as three (2, ...) arrays, fwd's at [0], as a BiLstm layer keeps
    them; without it the op stacks copies.  One x @ wx product over both
    directions goes into one (direction, step, sequence, ...) block,
    bwd's rows flipped, and is not kept, so a step is one stacked
    (2, k, H) @ (2, H, 4H) product over the k sequences still running.
    The first step starts from zero states, so it adds no h @ wh and no
    f * c term.  The hand-written backward forms all gate-derivative
    factors up front and keeps only the dh/dc recurrence of both
    directions in its loop, one (2, K, 4H) @ (2, 4H, H) product a step.
    """
    n, in_dim = x.data.shape
    four_h = fwd[1].data.shape[1]
    h = four_h // 4
    for wx, wh, _ in (fwd, bwd):
        if wx.data.shape != (in_dim, four_h) or wh.data.shape != (h, four_h):
            raise ValueError(f"wx shape {wx.data.shape} and wh shape "
                             f"{wh.data.shape} do not match ({in_dim}, "
                             f"{four_h}) and ({h}, {four_h})")
    if len(packed.step) != n:
        raise ValueError(f"lengths {list(packed.lengths)} do not pack {n} "
                         "rows")
    wx, wh, b = stacked or (np.array([p.data, q.data])
                            for p, q in zip(fwd, bwd))
    b = b[:, None]
    _, cells = packed.mirrored  # bwd runs each sequence mirrored
    by_direction = packed.by_direction
    k = len(packed.order)
    xs = np.zeros((2, packed.steps, k, four_h))
    xs[by_direction] = _check(x.data @ wx, "bilstm_layer")
    hs = np.zeros(xs.shape[:-1] + (h,))
    # Post-activation gates [i, f, g, o] and cells, kept for a backward.
    keep = _tape().enabled and any(t.needs_grad for t in (x, *fwd, *bwd))
    gates, cs = ((np.zeros_like(xs), np.zeros_like(hs)) if keep
                 else (None, None))
    for t in range(packed.steps):
        if packed.running[t] < k:  # only the k longest still run
            k = packed.running[t]
            h_prev, c_prev = h_prev[:, :k], c_prev[:, :k]
        if t:
            raw = xs[:, t, :k] + h_prev @ wh
            raw += b
        else:  # zero states: no 0 @ wh here, no f * 0 below
            raw = xs[:, 0] + b
        act = np.negative(raw)  # act = 1 / (1 + exp(-raw)), in place
        np.exp(act, out=act)
        act += 1.0
        np.divide(1.0, act, out=act)
        g = np.tanh(raw[..., 2 * h:3 * h], out=act[..., 2 * h:3 * h])
        c_prev = (act[..., h:2 * h] * c_prev + act[..., :h] * g if t
                  else act[..., :h] * g)
        h_prev = act[..., 3 * h:] * np.tanh(c_prev)
        hs[:, t, :k] = h_prev
        if keep:
            gates[:, t, :k], cs[:, t, :k] = act, c_prev
    out = Tensor(_check(hs[cells].reshape(n, 2 * h), "bilstm_layer"))

    def vjp(grad_h):
        i, f, g, o = (gates[..., j * h:(j + 1) * h] for j in range(4))
        tc = np.tanh(cs)
        c_before = np.concatenate([np.zeros_like(cs[:, :1]), cs[:, :-1]], 1)
        h_before = np.concatenate([np.zeros_like(hs[:, :1]), hs[:, :-1]], 1)
        # d raw = [dc, dc, dc, dh] * coef, step by step, each step's draw
        # written over its coef.  Padding cells have all-zero gates, so
        # their coef, and hence draw, is zero.
        draws = np.concatenate([g * i * (1.0 - i),
                                c_before * f * (1.0 - f),
                                i * (1.0 - g * g),
                                tc * o * (1.0 - o)], axis=-1)
        dc_from_dh = o * (1.0 - tc * tc)
        grad_block = np.zeros_like(hs)
        grad_block[cells] = grad_h.reshape(n, 2, h)
        wh_t = wh.transpose(0, 2, 1)
        dh = dc = np.zeros((2,) + hs.shape[2:])
        for t in range(packed.steps - 1, -1, -1):
            dh = dh + grad_block[:, t]
            dc = dc + dh * dc_from_dh[:, t]
            draw = np.multiply(np.concatenate([dc, dc, dc, dh], axis=-1),
                               draws[:, t], out=draws[:, t])
            dh = draw @ wh_t
            dc = dc * f[:, t]
        flat = draws.reshape(2, -1, four_h)
        d_wh = h_before.reshape(2, -1, h).transpose(0, 2, 1) @ flat
        d_b = flat.sum(axis=1)
        for d, (_, wh_d, b_d) in enumerate((fwd, bwd)):
            _acc(wh_d, d_wh[d])
            _acc(b_d, d_b[d])
        dxw = draws[by_direction]
        d_x = dxw @ wx.transpose(0, 2, 1)
        d_wx = x.data.T @ dxw
        # bwd's parts first: the order their bits rest on
        for d, wx_d in ((1, bwd[0]), (0, fwd[0])):
            _acc(x, d_x[d])
            _acc(wx_d, d_wx[d])

    return _record(out, (x, *fwd, *bwd), vjp)


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
