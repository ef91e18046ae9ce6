"""Minimal reverse-mode automatic differentiation on a Wengert tape.

Everything is float64 numpy.  Each primitive computes its value eagerly,
verifies the result is finite, and (when recording is enabled and some
input wants a gradient) appends a record to the thread-local tape.
``backward`` drains the tape in reverse, accumulating vector-Jacobian
products into ``Tensor.grad``.

A tensor's gradient lives in its ``Slot``, apart from its value.  A
record holds the output's slot and its vjp; a vjp holds the slots of
the inputs it accumulates into and only the arrays it reads (``affine``
keeps x and w, ``tanh`` its output, ``add`` no value at all).  So a
forward value lives only while the caller or a vjp that reads it holds
it.  ``backward`` pops each record before running its vjp, so the
closure and the arrays it holds are freed once consumed, and drops each
recorded slot's gradient once passed on: only leaves (parameters) keep
``.grad``, and a second backward needs a fresh forward pass.

Gradients are never mutated in place; accumulation always rebinds
``slot.grad = slot.grad + g`` so aliased arrays stay safe.

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
from zero states, so the first step adds no h @ wh and no f * c.  Its
closure holds x, the stacked weights, its own output rows, and the
gates and cells of the recurrence; not the states, which the backward
reads back from the output rows.  The backward writes its
gate-derivative factors over the gates.

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


class Slot:
    """Where a tensor's gradient accumulates, apart from its value: the
    tape and each vjp hold slots, not tensors."""
    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    __slots__ = ("data", "slot", "name")

    def __init__(self, data, needs_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        # A slot marks parameters and tensors on a path from one:
        # gradients are only accumulated where there is one.
        self.slot = Slot() if needs_grad else None
        self.name = name

    @property
    def needs_grad(self) -> bool:
        return self.slot is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.slot is not None:
            self.slot.grad = g
        elif g is not None:
            raise ValueError(f"{self!r} takes no gradient")

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
        # records: (output slot, vjp callable taking the output gradient)
        self.records: list[tuple[Slot, Callable[[np.ndarray], None]]] = []
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


def _acc(s: Slot | None, g: np.ndarray) -> None:
    if s is not None:
        s.grad = g if s.grad is None else s.grad + g


def _record(out: Tensor, inputs: Sequence[Tensor], vjp) -> Tensor:
    t = _tape()
    if t.enabled:
        for i in inputs:  # any() over a generator costs more, per op
            if i.slot is not None:
                out.slot = Slot()
                t.records.append((out.slot, vjp))
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
    if root.slot is not None:  # a constant root only drains the tape
        root.slot.grad = np.ones_like(root.data)
    while records:
        slot, vjp = records.pop()
        g, slot.grad = slot.grad, None
        if g is not None:
            vjp(g)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitives: linear algebra

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b[None, :], as one op that keeps no pre-bias product."""
    xd, wd, sx, sw, sb = x.data, w.data, x.slot, w.slot, b.slot
    out = Tensor(_check(xd @ wd + b.data[None, :], "affine"))

    def vjp(g):
        _acc(sb, g.sum(axis=0))
        _acc(sx, g @ wd.T)
        _acc(sw, xd.T @ g)

    return _record(out, (x, w, b), vjp)


def dot(x: Tensor, y: Tensor) -> Tensor:
    xd, yd, sx, sy = x.data, y.data, x.slot, y.slot
    out = Tensor(_check(np.dot(xd, yd), "dot"))

    def vjp(g):
        _acc(sx, g * yd)
        _acc(sy, g * xd)

    return _record(out, (x, y), vjp)


def bilinear_rows(x: Tensor, us: Sequence[Tensor], y: Tensor,
                  x_rows: Sequence[int]) -> Tensor:
    """out[r, k] = x[x_rows[r]] @ us[k] @ y[r], as one tape op: x goes
    through each map once, w[:, k] = x @ us[k], and each output row dots
    a gathered row of w with its row of y."""
    x_rows = np.asarray(x_rows, dtype=np.intp)
    xd, yd, sx, sy = x.data, y.data, x.slot, y.slot
    maps = [(m.data, m.slot) for m in us]
    w = np.stack([xd @ m for m, _ in maps], axis=1)  # (m, k, q)
    out = Tensor(_check(np.einsum("rkq,rq->rk", w[x_rows], yd),
                        "bilinear_rows"))

    def vjp(g):
        d_x = 0  # the labels' products added in order, as sum() adds
        for k, (m, sm) in enumerate(maps):  # one label's (m, q) at a time
            gw = scatter_rows(x_rows, g[:, k, None] * yd, len(w))
            d_x = d_x + gw @ m.T
            _acc(sm, xd.T @ gw)
        _acc(sx, d_x)
        if sy is not None:
            _acc(sy, np.einsum("rk,rkq->rq", g, w[x_rows]))

    return _record(out, (x, y, *us), vjp)


# ---------------------------------------------------------------------------
# primitives: pointwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(_check(a.data + b.data, "add"))
    sa, sb = a.slot, b.slot

    def vjp(g):
        _acc(sa, g)
        _acc(sb, g)

    return _record(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(_check(a.data - b.data, "sub"))
    sa, sb = a.slot, b.slot

    def vjp(g):
        _acc(sa, g)
        _acc(sb, -g)

    return _record(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    a_data, b_data, sa, sb = a.data, b.data, a.slot, b.slot
    out = Tensor(_check(a_data * b_data, "mul"))

    def vjp(g):
        _acc(sa, g * b_data)
        _acc(sb, g * a_data)

    return _record(out, (a, b), vjp)


def add_sq_norms(x: Tensor, terms: Sequence[tuple[Tensor, float]]) -> Tensor:
    """x + c * sum(t * t) for each (t, c) of terms in order, as one op:
    bit for bit each term's mul, sum_all, product with c and add."""
    kept = [(t.data, t.slot, c) for t, c in terms]
    total = x.data
    for t, _, c in kept:
        total = total + (t * t).sum() * c
    out = Tensor(_check(total, "add_sq_norms"))
    sx = x.slot

    def vjp(g):
        _acc(sx, g)
        for t, st, c in reversed(kept):  # the order separate ops run backward
            gt = float(g * c) * t
            _acc(st, gt)
            _acc(st, gt)

    return _record(out, (x, *(t for t, _ in terms)), vjp)


# ---------------------------------------------------------------------------
# primitives: shape and indexing

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(_check(np.concatenate([p.data for p in parts], axis=axis),
                        "concat"))
    kept = [(p.slot, p.data.shape[axis]) for p in parts]  # no values

    def vjp(g):
        lead = (slice(None),) * (axis % g.ndim)
        lo = 0
        for s, width in kept:
            hi = lo + width
            _acc(s, g[lead + (slice(lo, hi),)])
            lo = hi

    return _record(out, parts, vjp)


def row_select(m: Tensor, idx: Sequence[int]) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(m.data[idx])
    sm, n = m.slot, len(m.data)

    def vjp(g):
        if sm is not None:
            _acc(sm, scatter_rows(idx, g, n))

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
    sm, n = m.slot, len(m.data)

    def vjp(g):
        if sm is not None:
            k, j = np.nonzero(idx >= 0)  # pad cells take no gradient
            _acc(sm, scatter_rows(idx[k, j], g[k], n))

    return _record(out, (m,), vjp)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(_check(x.data.sum(), "sum_all"))
    sx, shape = x.slot, x.data.shape

    def vjp(g):
        _acc(sx, np.full(shape, float(g)))

    return _record(out, (x,), vjp)


# ---------------------------------------------------------------------------
# primitives: nonlinearities and normalization

def relu(x: Tensor) -> Tensor:
    xd, sx = x.data, x.slot
    out = Tensor(np.maximum(xd, 0.0))

    def vjp(g):
        _acc(sx, g * (xd > 0.0))

    return _record(out, (x,), vjp)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    xd, sx = x.data, x.slot
    out = Tensor(np.where(xd > 0.0, xd, slope * xd))

    def vjp(g):
        _acc(sx, g * np.where(xd > 0.0, 1.0, slope))

    return _record(out, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    sx = x.slot

    def vjp(g):
        _acc(sx, g * (1.0 - y * y))

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
    gn, sx, sg, sb = gain.data, x.slot, gain.slot, bias.slot
    out = Tensor(_check(xhat * gn + bias.data, "layer_norm"))

    def vjp(g):
        _acc(sg, (g * xhat).sum(axis=0))
        _acc(sb, g.sum(axis=0))
        gd = g * gn
        term = gd - gd.mean(axis=1, keepdims=True) \
            - xhat * (gd * xhat).sum(axis=1, keepdims=True) / k
        _acc(sx, inv * term)

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
    sx = x.slot

    def vjp(g):
        g = np.where(allowed, g, 0.0)
        _acc(sx, g - np.exp(z - lse) * g.sum(axis=-1, keepdims=True))

    return _record(out, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries are scaled by 1/(1-rate)."""
    if rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask)
    sx = x.slot

    def vjp(g):
        _acc(sx, g * mask)

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
    f * c term.  For its backward the op keeps x, the stacked weights,
    its output rows, and the gates and cells; not the states: those it
    reads back from the output rows.  The hand-written backward writes
    all gate-derivative factors over the gates up front and keeps only
    the dh/dc recurrence of both directions in its loop, one
    (2, K, 4H) @ (2, 4H, H) product a step.
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
    xd, rows, sx = x.data, out.data, x.slot
    slots = [[t.slot for t in ws] for ws in (fwd, bwd)]  # [d][wx, wh, b]

    def vjp(grad_h):
        nonlocal cs
        shape = cs.shape  # (2, step, sequence, H)
        i, f, g, o = (gates[..., j * h:(j + 1) * h] for j in range(4))
        c_before = np.concatenate([np.zeros_like(cs[:, :1]), cs[:, :-1]], 1)
        tc, cs = np.tanh(cs, out=cs), None  # the cells are read no more
        # d raw = [dc, dc, dc, dh] * coef.  Each coef is written over a
        # gate slot once no other factor reads that gate, so the gates
        # become the coefs, and each step's draw is written over its
        # coefs.  Padding cells have all-zero gates, so their coef, and
        # hence draw, is zero.
        dc_from_dh = o * (1.0 - tc * tc)
        np.multiply(tc, o, out=tc)
        np.multiply(tc, 1.0 - o, out=o)  # tc * o * (1 - o)
        del tc
        f_kept = f.copy()  # for the loop's dc * f
        c_before *= f
        np.multiply(c_before, 1.0 - f, out=f)  # c_before * f * (1 - f)
        del c_before
        gi = g * i
        np.multiply(i, 1.0 - g * g, out=g)  # i * (1 - g * g)
        np.multiply(gi, 1.0 - i, out=i)  # g * i * (1 - i)
        del gi
        grad_block = np.zeros(shape)
        grad_block[cells] = grad_h.reshape(n, 2, h)
        wh_t = wh.transpose(0, 2, 1)
        dh = dc = np.zeros((2,) + shape[2:])
        for t in range(packed.steps - 1, -1, -1):
            dh = dh + grad_block[:, t]
            dc = dc + dh * dc_from_dh[:, t]
            draw = np.multiply(np.concatenate([dc, dc, dc, dh], axis=-1),
                               gates[:, t], out=gates[:, t])
            dh = draw @ wh_t
            dc = dc * f_kept[:, t]
        del f_kept, dc_from_dh, grad_block
        # Each step's input states, zero at the first: the output rows
        # scattered one step on, into a block one step longer.
        h_before = np.zeros((2, packed.steps + 1) + shape[2:])
        h_before[cells[0], cells[1] + 1, cells[2]] = rows.reshape(n, 2, h)
        flat = gates.reshape(2, -1, four_h)
        d_wh = h_before[:, :-1].reshape(2, -1, h).transpose(0, 2, 1) @ flat
        d_b = flat.sum(axis=1)
        del h_before
        for d, (_, s_wh, s_b) in enumerate(slots):
            _acc(s_wh, d_wh[d])
            _acc(s_b, d_b[d])
        # one direction at a time, bwd's first: the order their bits rest on
        _, step, col = by_direction
        for d in (1, 0):
            dxw = gates[d, step[d], col[0]]
            _acc(sx, dxw @ wx[d].T)
            _acc(slots[d][0], xd.T @ dxw)

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
