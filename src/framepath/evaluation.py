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
from .model import FrameParser


def _prf(matched: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    p = matched / n_pred if n_pred else 0.0
    r = matched / n_gold if n_gold else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0
    return p, r, f1


def _tally(gold: Sequence[Sequence], pred: Sequence[Sequence]):
    if len(gold) != len(pred):
        raise ValueError(
            f"gold and pred lengths differ: {len(gold)} vs {len(pred)}")
    matched = n_pred = n_gold = 0
    for g, p in zip(gold, pred):
        gset, pset = set(g), set(p)
        matched += len(gset & pset)
        n_gold += len(gset)
        n_pred += len(pset)
    return matched, n_pred, n_gold


def fi_accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    if len(gold) != len(pred):
        raise ValueError(
            f"gold and pred lengths differ: {len(gold)} vs {len(pred)}")
    if not gold:
        return 1.0
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


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


def evaluate_ti(model: FrameParser, sentences: Sequence[Sentence]) -> dict:
    with ad.fresh_tape(), ad.no_grad():
        pred = [[tuple(t) for t in targets]
                for encs in model.encode_chunks(sentences)
                for targets in model.ti_predict(encs)]
    gold = [[tuple(sorted(a.target)) for a in sent.annotations]
            for sent in sentences]
    return _span_report("ti", gold, pred)


def _gold_items(model: FrameParser, sentences: Sequence[Sentence]):
    """Every gold annotation and its sentence's encoding, as two lists,
    from one encode per annotated sentence."""
    encs = [model.encode(model.prepare(sent, with_gold=False))
            for sent in sentences if sent.annotations]
    return [enc for enc in encs for _ in enc.prep.sentence.annotations], [
        ann for enc in encs for ann in enc.prep.sentence.annotations]


def evaluate_fi(model: FrameParser, sentences: Sequence[Sentence]) -> dict:
    """Frame accuracy over gold targets and gold lexical units."""
    with ad.fresh_tape(), ad.no_grad():
        encs, anns = _gold_items(model, sentences)
        pred = model.fi_predict(encs, [a.target for a in anns],
                                [a.lu for a in anns])
    gold = [a.frame for a in anns]
    return {"task": "fi", "accuracy": fi_accuracy(gold, pred),
            "counts": {"total": len(gold),
                       "correct": sum(g == p for g, p in zip(gold, pred))}}


def evaluate_srl(model: FrameParser, sentences: Sequence[Sentence]) -> dict:
    """Labeled-span P/R/F1 with gold targets and gold frames."""
    with ad.fresh_tape(), ad.no_grad():
        encs, anns = _gold_items(model, sentences)
        spans, labels = model.srl_predict(
            encs, [a.target for a in anns], [a.lu for a in anns],
            [a.frame for a in anns])
    gold = [[(label, s, e) for (s, e), label in a.elements] for a in anns]
    pred = [[(label, s, e) for (s, e), label in zip(sp, lab)]
            for sp, lab in zip(spans, labels)]
    return _span_report("srl", gold, pred)


EVALUATORS = {"ti": evaluate_ti, "fi": evaluate_fi, "srl": evaluate_srl}


def evaluate(model: FrameParser, sentences: Sequence[Sentence],
             task: str) -> list[dict]:
    """Reports for one task, or all three for joint."""
    if task == "joint":
        return [EVALUATORS[t](model, sentences) for t in ("ti", "fi", "srl")]
    return [EVALUATORS[task](model, sentences)]


# task -> the (evaluator, report key) pairs whose mean is its dev metric
DEV_METRICS = {"ti": [(evaluate_ti, "f1")], "fi": [(evaluate_fi, "accuracy")],
               "srl": [(evaluate_srl, "f1")],
               "joint": [(evaluate_fi, "accuracy"), (evaluate_srl, "f1")]}


def dev_metric(model: FrameParser, sentences: Sequence[Sentence],
               task: str) -> float:
    """The scalar the scheduler and early stopping watch (higher = better)."""
    if task not in DEV_METRICS:
        raise ValueError(f"unknown task {task!r}")
    parts = DEV_METRICS[task]
    return sum(evaluator(model, sentences)[key]
               for evaluator, key in parts) / len(parts)
