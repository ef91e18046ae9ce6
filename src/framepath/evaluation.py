"""Exact-match metrics and the evaluation drivers that produce them.

Targets match on their full index set, role fillers on the whole
(label, start, end) tuple within their own annotation.  No partial
credit anywhere: a correct span with the wrong role is both a false
positive and a miss.
"""

from __future__ import annotations

from typing import Sequence

from . import autodiff as ad
from .corpus import Sentence
from .model import TASK_LOSSES, FrameParser


def _prf(matched: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    p = matched / n_pred if n_pred else 0.0
    r = matched / n_gold if n_gold else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
    return p, r, f1


def _tally(gold: Sequence[Sequence], pred: Sequence[Sequence]):
    matched = n_pred = n_gold = 0
    for g, p in zip(gold, pred, strict=True):  # unequal lengths raise
        gset, pset = set(g), set(p)
        matched += len(gset & pset)
        n_gold += len(gset)
        n_pred += len(pset)
    return matched, n_pred, n_gold


def fi_accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    correct = sum(g == p for g, p in zip(gold, pred, strict=True))
    return correct / len(gold) if gold else 1.0


# ---------------------------------------------------------------------------
# drivers

def _span_report(task: str, gold: Sequence, pred: Sequence) -> dict:
    """P/R/F1 and counts over per-sentence (targets) or per-annotation
    (labeled role spans) item sets; an empty side scores 0, an entirely
    empty corpus scores 1 on all three."""
    matched, n_pred, n_gold = _tally(gold, pred)
    p, r, f1 = _prf(matched, n_pred, n_gold)
    return {"task": task, "precision": p, "recall": r, "f1": f1,
            "counts": {"gold": n_gold, "pred": n_pred, "matched": matched}}


def _reports(model: FrameParser, sentences: Sequence[Sentence],
             tasks: Sequence[str]) -> list[dict]:
    """The reports of tasks, in order, from one pass over the sentences
    (the annotated ones only, unless ti is asked for), in the chunks
    parse_many runs: per chunk, one encode, the ti decoding, and one sum
    of the gold target rows that frame and role prediction share."""
    ti, fi, srl = ("ti" in tasks, "fi" in tasks, "srl" in tasks)
    found, anns, frames, roles = [], [], [], []  # roles: (spans, labels)
    with ad.fresh_tape(), ad.no_grad():
        for encs in model.encode_chunks(sentences if ti else [
                sent for sent in sentences if sent.annotations]):
            found += model.ti_predict(encs) if ti else []
            items = [(e, a) for e in encs for a in e.prep.sentence.annotations]
            if not (items and (fi or srl)):
                continue
            owner, chunk = zip(*items)
            targets, lus = [a.target for a in chunk], [a.lu for a in chunk]
            rows = model.encoded_target_rows(owner, targets)
            frames += model.fi_predict(owner, targets, lus, rows) if fi else []
            roles += zip(*model.srl_predict(owner, targets, lus, [
                a.frame for a in chunk], t=rows)) if srl else []
            anns += chunk
    out = {}
    if ti:
        out["ti"] = _span_report("ti", [
            [tuple(sorted(a.target)) for a in sent.annotations]
            for sent in sentences], [list(map(tuple, ts)) for ts in found])
    if fi:
        gold = [a.frame for a in anns]
        out["fi"] = {"task": "fi", "accuracy": fi_accuracy(gold, frames),
                     "counts": {"total": len(gold), "correct": sum(
                         g == p for g, p in zip(gold, frames))}}
    if srl:
        out["srl"] = _span_report("srl", [
            [(label, s, e) for (s, e), label in a.elements] for a in anns],
            [[(label, s, e) for (s, e), label in zip(*pred)]
             for pred in roles])
    return [out[task] for task in tasks]


def evaluate_srl(model: FrameParser, sentences: Sequence[Sentence]) -> dict:
    """Labeled-span P/R/F1 with gold targets and gold frames."""
    return _reports(model, sentences, ["srl"])[0]


def evaluate(model: FrameParser, sentences: Sequence[Sentence],
             task: str) -> list[dict]:
    """Reports of the task's parts (all three for joint), from one pass."""
    return _reports(model, sentences, TASK_LOSSES[task])


# task -> {report: key}, the report values whose mean is its dev metric
DEV_METRICS = {"ti": {"ti": "f1"}, "fi": {"fi": "accuracy"},
               "srl": {"srl": "f1"}, "joint": {"fi": "accuracy", "srl": "f1"}}


def dev_metric(model: FrameParser, sentences: Sequence[Sentence],
               task: str) -> float:
    """The scalar the scheduler and early stopping watch (higher = better)."""
    if task not in DEV_METRICS:
        raise ValueError(f"unknown task {task!r}")
    keys = DEV_METRICS[task]
    return sum(report[keys[report["task"]]] for report in _reports(
        model, sentences, list(keys))) / len(keys)
