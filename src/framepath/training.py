"""Adam with decoupled weight decay, plateau scheduling, early stopping,
and the mini-batch training driver.

The optimizer updates with bias-corrected moments first and applies the
decay term separately (never through the moments), so decay-exempt
parameters (biases, layer norms, embeddings) see plain Adam.  Squared-
norm penalties on CRF transition matrices and bilinear maps enter the
objective itself, not the reported task losses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .corpus import Sentence
from .evaluation import dev_metric
from .layers import ParamEntry
from .model import TASK_LOSSES, FrameParser, Prepared


class TrainingError(RuntimeError):
    pass


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
    """One update over (path, entry) pairs; every entry must carry a grad."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for path, entry in entries:
        g = entry.tensor.grad
        if g is None:
            raise TrainingError(f"parameter {path!r} has no gradient")
        m = state.m.get(path)
        if m is None:
            m = state.m[path] = np.zeros_like(entry.tensor.data)
            state.v[path] = np.zeros_like(entry.tensor.data)
        v = state.v[path]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta = entry.tensor.data
        theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if entry.decay and state.weight_decay > 0.0:
            theta -= state.lr * state.weight_decay * theta


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
    """Halve (by `factor`) after `patience` consecutive epochs without an
    absolute improvement above `threshold`."""

    def __init__(self, lr: float, patience: int, factor: float,
                 threshold: float):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.threshold = threshold
        self.best = -np.inf
        self.bad_epochs = 0

    def step(self, metric: float) -> float:
        if metric > self.best + self.threshold:
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.factor
                self.bad_epochs = 0
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
    parts = model.batch_losses(preps, train=True, parts=TASK_LOSSES[task])
    loss = reduce(ad.add, parts.values())
    for tensor, coeff in penalties:
        loss = ad.add(loss, ad.mul_scalar(ad.sum_all(ad.mul(tensor, tensor)),
                                          coeff))
    return loss, {name: float(t.data) for name, t in parts.items()}


def train(model: FrameParser, train_sentences: Sequence[Sentence],
          dev_sentences: Sequence[Sentence],
          log_path: str | None = None) -> TrainResult:
    """Mini-batch training per the model's config; the model is left
    holding the parameters of its best dev epoch."""
    if not train_sentences:
        raise TrainingError("empty training corpus")
    cfg: Config = model.config
    task = cfg.task
    preps = [model.prepare(s) for s in train_sentences]
    entries = model.trainable_entries(task)
    tensors = [e.tensor for _, e in entries]
    penalties = model.penalty_terms(task)
    state = AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                      eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    sched = PlateauScheduler(cfg.lr, cfg.scheduler_patience,
                             cfg.scheduler_factor, cfg.scheduler_threshold)
    best_metric = -np.inf
    best_epoch = 0
    best_state: dict | None = None
    stall = 0
    rows: list[dict] = []
    order = np.arange(len(preps))

    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        model.shuffle_rng.shuffle(order)
        sums: dict[str, float] = {}
        total_sum = 0.0
        n_batches = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [preps[i] for i in order[lo:lo + cfg.batch_size]]
            try:
                with ad.fresh_tape():
                    loss, part_vals = _objective(model, batch, task,
                                                 penalties)
                    value = float(loss.data)
                    if not np.isfinite(value):
                        raise FloatingPointError(f"loss = {value}")
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
            for name, val in part_vals.items():
                sums[name] = sums.get(name, 0.0) + val
            total_sum += value
            n_batches += 1

        metric = dev_metric(model, dev_sentences, task)
        row = {"epoch": epoch, "loss": total_sum / n_batches,
               "dev_metric": metric, "lr": state.lr}
        for name, s in sums.items():
            row[f"loss_{name}"] = s / n_batches
        rows.append(row)

        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_state = model.store.state()
        if metric > sched.best + cfg.scheduler_threshold:
            stall = 0
        else:
            stall += 1
        state.lr = sched.step(metric)
        if cfg.stop_metric is not None and metric >= cfg.stop_metric:
            break
        if stall >= cfg.early_stop_patience:
            break

    if best_state is not None:
        model.store.load_state(best_state)
    if log_path is not None:
        write_metric_log(log_path, rows)
    return TrainResult(best_metric=float(best_metric), best_epoch=best_epoch,
                       epochs_run=epoch, log_rows=rows)
