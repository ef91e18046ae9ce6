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


def span_prf(gold: Sequence[Sequence], pred: Sequence[Sequence]):
    """P/R/F1 over per-sentence (targets) or per-annotation (labeled
    role spans) item sets; empty sides score 0, an entirely empty corpus
    scores 1 on all three."""
    return _prf(*_tally(gold, pred))


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
    matched, n_pred, n_gold = _tally(gold, pred)
    p, r, f1 = _prf(matched, n_pred, n_gold)
    return {"task": task, "precision": p, "recall": r, "f1": f1,
            "counts": {"gold": n_gold, "pred": n_pred, "matched": matched}}


def evaluate_ti(model: FrameParser, sentences: Sequence[Sentence]) -> dict:
    gold, pred = [], []
    with ad.fresh_tape(), ad.no_grad():
        for sent in sentences:
            prep = model.prepare(sent, with_gold=False)
            enc = model.encode(prep)
            gold.append([tuple(sorted(a.target)) for a in sent.annotations])
            pred.append([tuple(t) for t in model.ti_predict(enc)])
    return _span_report("ti", gold, pred)


def evaluate_fi(model: FrameParser, sentences: Sequence[Sentence]) -> dict:
    """Frame accuracy over gold targets and gold lexical units."""
    gold, pred = [], []
    with ad.fresh_tape(), ad.no_grad():
        for sent in sentences:
            if not sent.annotations:
                continue
            enc = model.encode(model.prepare(sent, with_gold=False))
            gold.extend(ann.frame for ann in sent.annotations)
            pred.extend(model.fi_predict(
                enc, [ann.target for ann in sent.annotations],
                [ann.lu for ann in sent.annotations]))
    acc = fi_accuracy(gold, pred)
    return {"task": "fi", "accuracy": acc,
            "counts": {"total": len(gold),
                       "correct": sum(g == p for g, p in zip(gold, pred))}}


def evaluate_srl(model: FrameParser, sentences: Sequence[Sentence]) -> dict:
    """Labeled-span P/R/F1 with gold targets and gold frames."""
    gold, pred = [], []
    with ad.fresh_tape(), ad.no_grad():
        encs = [model.encode(model.prepare(sent, with_gold=False))
                for sent in sentences if sent.annotations]
        model.encode_targets([(enc, min(ann.target)) for enc in encs
                              for ann in enc.prep.sentence.annotations])
        for enc in encs:
            anns = enc.prep.sentence.annotations
            gold.extend([(label, s, e) for (s, e), label in ann.elements]
                        for ann in anns)
            items = ([ann.target for ann in anns], [ann.lu for ann in anns],
                     [ann.frame for ann in anns])
            spans = model.ai_predict(enc, *items)
            labels = model.ac_predict(enc, *items, spans)
            pred.extend([(label, s, e) for (s, e), label in zip(sp, lab)]
                        for sp, lab in zip(spans, labels))
    return _span_report("srl", gold, pred)


EVALUATORS = {"ti": evaluate_ti, "fi": evaluate_fi, "srl": evaluate_srl}


def evaluate(model: FrameParser, sentences: Sequence[Sentence],
             task: str) -> list[dict]:
    """Reports for one task, or all three for joint."""
    if task == "joint":
        return [EVALUATORS[t](model, sentences) for t in ("ti", "fi", "srl")]
    return [EVALUATORS[task](model, sentences)]


def dev_metric(model: FrameParser, sentences: Sequence[Sentence],
               task: str) -> float:
    """The scalar the scheduler and early stopping watch (higher = better)."""
    if task == "ti":
        return evaluate_ti(model, sentences)["f1"]
    if task == "fi":
        return evaluate_fi(model, sentences)["accuracy"]
    if task == "srl":
        return evaluate_srl(model, sentences)["f1"]
    if task == "joint":
        return 0.5 * (evaluate_fi(model, sentences)["accuracy"]
                      + evaluate_srl(model, sentences)["f1"])
    raise ValueError(f"unknown task {task!r}")
