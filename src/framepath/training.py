"""Adam with decoupled weight decay, plateau scheduling, early stopping,
and the mini-batch training driver.

The optimizer updates with bias-corrected moments first and applies the
decay term separately (never through the moments), so decay-exempt
parameters (biases, layer norms, embeddings) see plain Adam.  Squared-
norm penalties on CRF transition matrices and bilinear maps enter the
objective (so the logged total loss) as one add_sq_norms op, not the
per-task losses.

On glibc, train() keeps the heap its steps free for the length of the
run, so freeing one step's tape no longer hands the top of the heap
back to the kernel only for the next forward pass to fault it in again
page by page.  When the run ends, or raises, it puts glibc's malloc
settings back and returns the free memory with malloc_trim(0).
"""

from __future__ import annotations

import csv
import ctypes
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .corpus import CorpusError, Sentence
from .evaluation import dev_metric
from .layers import ParamEntry
from .model import TASK_LOSSES, FrameParser, Prepared, sum_parts


class TrainingError(RuntimeError):
    pass


# glibc's mallopt parameters (malloc.h) and the values train() holds for
# its run, in bytes: a top pad of about 3x a train-long step's tape, so a
# free does not shrink the heap, and glibc's largest mmap threshold, so
# large arrays come from that heap and not from fresh mmaps.  glibc's
# default for both is 128 KiB.
M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3
KEPT_HEAP = {M_TOP_PAD: 64 << 20, M_MMAP_THRESHOLD: 32 << 20}
GLIBC_DEFAULT = 128 << 10


def _malloc_calls():
    """The C library's (mallopt, malloc_trim), or None where ctypes finds
    no such pair (macOS, musl, Windows)."""
    try:
        libc = ctypes.CDLL(None)  # the C library the process runs on
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, AttributeError, TypeError):  # Windows: TypeError
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    malloc_trim.argtypes = [ctypes.c_size_t]
    mallopt.restype = malloc_trim.restype = ctypes.c_int
    return mallopt, malloc_trim


@contextmanager
def _heap_kept():
    """Keep the heap the body frees; then restore glibc's defaults (its
    dynamic mmap threshold stays off) and trim what is free."""
    calls = _malloc_calls()
    if calls is None:
        yield
        return
    mallopt, malloc_trim = calls
    for param, value in KEPT_HEAP.items():
        mallopt(param, value)
    try:
        yield
    finally:
        for param in KEPT_HEAP:
            mallopt(param, GLIBC_DEFAULT)
        malloc_trim(0)


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, entries: Sequence[tuple[str, ParamEntry]]):
    """One update over (path, entry) pairs; every entry must carry a grad.

    The textbook update: the moments in place, m = b1*m + (1-b1)*g and
    v = b2*v + ((1-b2)*g)*g, then theta -= lr*(m/(1-b1**t)) /
    (sqrt(v/(1-b2**t)) + eps), then theta -= (lr*wd)*theta if it decays."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    decay = state.lr * state.weight_decay
    for path, entry in entries:
        g = entry.tensor.grad
        if g is None:
            raise TrainingError(f"parameter {path!r} has no gradient")
        theta = entry.tensor.data
        if path not in state.m:
            state.m[path] = np.zeros_like(theta)
            state.v[path] = np.zeros_like(theta)
        m, v = state.m[path], state.v[path]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += ((1.0 - b2) * g) * g
        theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        if entry.decay and state.weight_decay > 0.0:
            theta -= decay * theta


def clip_global_norm(tensors: Sequence[Tensor], max_norm: float) -> float:
    """Scale all grads by max_norm/norm when the joint norm exceeds it;
    returns the pre-clip norm."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for t in tensors:
            if t.grad is not None:
                t.grad *= scale
    return norm


class PlateauScheduler:
    """Halve (by `factor`) after every `patience` consecutive epochs
    without an absolute improvement above `threshold`; `stall` counts
    those epochs, for early stopping."""

    def __init__(self, lr: float, patience: int, factor: float,
                 threshold: float):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.threshold = threshold
        self.best = -np.inf
        self.stall = 0

    def step(self, metric: float) -> float:
        if metric > self.best + self.threshold:
            self.best = metric
            self.stall = 0
        else:
            self.stall += 1
            if self.stall % self.patience == 0:
                self.lr *= self.factor
        return self.lr


@dataclass
class TrainResult:
    best_metric: float
    best_epoch: int
    epochs_run: int
    log_rows: list[dict]


LOG_FIELDS = ("epoch", "loss_ti", "loss_fi", "loss_srl", "loss",
              "dev_metric", "lr")


def write_metric_log(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in LOG_FIELDS})


def _objective(model: FrameParser, preps: list[Prepared], task: str,
               penalties) -> tuple[Tensor, dict[str, float]]:
    """The batch's loss and its log record: each part as loss_<part>,
    then the total, penalties included, as loss."""
    parts = model.batch_losses(preps, train=True, parts=TASK_LOSSES[task])
    loss = ad.add_sq_norms(sum_parts(parts), penalties)
    return loss, {**{f"loss_{name}": float(t.data)
                     for name, t in parts.items()}, "loss": float(loss.data)}


def _prepared(model: FrameParser, sentences: Sequence[Sentence],
              which: str) -> list[Prepared]:
    """model.prepare of each sentence; the CorpusError of one it cannot
    encode names it by its index, as "dev sentence 10: ..."."""
    preps = []
    for k, sent in enumerate(sentences):
        try:
            preps.append(model.prepare(sent))
        except CorpusError as e:
            raise CorpusError(f"{which} sentence {k}: {e}") from e
    return preps


@np.errstate(over="ignore", invalid="ignore")  # failures raise TrainingError
@_heap_kept()
def train(model: FrameParser, train_sentences: Sequence[Sentence],
          dev_sentences: Sequence[Sentence],
          log_path: str | None = None) -> TrainResult:
    """Mini-batch training per the model's config; the model is left
    holding the parameters of its best dev epoch.  A training or dev
    sentence the model's vocabulary cannot encode raises CorpusError
    naming it before the first batch, so the parameters are untouched."""
    if not train_sentences:
        raise TrainingError("empty training corpus")
    if not dev_sentences:
        raise TrainingError("empty dev corpus")
    cfg: Config = model.config
    task = cfg.task
    preps = _prepared(model, train_sentences, "training")
    _prepared(model, dev_sentences, "dev")  # fails now, not after epoch 1
    entries = model.trainable_entries(task)
    tensors = [e.tensor for _, e in entries]
    penalties = model.penalty_terms(task)
    state = AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                      eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    sched = PlateauScheduler(cfg.lr, cfg.scheduler_patience,
                             cfg.scheduler_factor, cfg.scheduler_threshold)
    best_metric = -np.inf
    best_epoch = 0
    best_params: list[np.ndarray] = []
    rows: list[dict] = []
    order = np.arange(len(preps))

    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        model.shuffle_rng.shuffle(order)
        records: list[dict[str, float]] = []  # one per batch
        for lo in range(0, len(order), cfg.batch_size):
            batch = [preps[i] for i in order[lo:lo + cfg.batch_size]]
            try:
                with ad.fresh_tape():
                    loss, record = _objective(model, batch, task, penalties)
                    ad.backward(loss)
            except FloatingPointError as e:
                idx = [int(i) for i in order[lo:lo + cfg.batch_size]]
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch of sentences "
                    f"{idx}, lr {state.lr}: {e}") from e
            for _, entry in entries:
                if entry.tensor.grad is None:
                    entry.tensor.grad = np.zeros_like(entry.tensor.data)
            clip_global_norm(tensors, cfg.grad_clip)
            adam_step(state, entries)
            ad.zero_grads(tensors)
            records.append(record)

        try:
            metric = dev_metric(model, dev_sentences, task)
        except FloatingPointError as e:
            raise TrainingError(f"non-finite dev metric at epoch {epoch}, "
                                f"lr {state.lr}: {e}") from e
        # plain float adds in batch order (sum() may compensate)
        means = {key: reduce(operator.add, [r[key] for r in records], 0.0)
                 / len(records) for key in records[0]}
        rows.append({"epoch": epoch, **means, "dev_metric": metric,
                     "lr": state.lr})

        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_params = [t.data.copy() for t in tensors]
        state.lr = sched.step(metric)
        if cfg.stop_metric is not None and metric >= cfg.stop_metric:
            break
        if sched.stall >= cfg.early_stop_patience:
            break

    for t, best in zip(tensors, best_params):
        np.copyto(t.data, best)
    if log_path is not None:
        write_metric_log(log_path, rows)
    return TrainResult(best_metric=float(best_metric), best_epoch=best_epoch,
                       epochs_run=epoch, log_rows=rows)
