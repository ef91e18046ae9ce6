"""Spans around framepath's public callables, recorded from outside the
package.

A Tracer swaps module and class attributes for timing wrappers while it
is active and puts the originals back when it leaves.  A function that
another framepath module imported by name (``model.path_sum_features``,
``training.dev_metric``) is swapped in every module that holds it, so
the call sites inside the package see the wrapper too.  Spans stay in
memory until ``write`` is called.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from framepath import autodiff, evaluation, gcn, synth, training
from framepath.crf import LinearChainCrf
from framepath.layers import BiLstm
from framepath.model import FrameParser


def _bilstm_name(lstm: BiLstm) -> str:
    # The backbones differ only by their parameter paths (enc.a / enc.b).
    first = lstm.layers[0][0].wx.name
    return ("layers.bilstm_a" if first.startswith("enc.a.")
            else "layers.bilstm_b")


def _tokens(args) -> int:
    return sum(len(p.sentence) for p in args[1])


def _targets(result) -> tuple[int, int]:
    annotations, dropped = result
    return len(annotations) + dropped, dropped


# (owner, attribute, span name or name function, extra-at-entry,
#  extra-from-result).  Owners that are modules are searched for in
#  every loaded framepath module; owners that are classes are patched
#  on the class itself.
TARGETS = [
    (autodiff, "backward", "autodiff.backward",
     lambda args: autodiff.tape_length(), None),
    (BiLstm, "__call__", _bilstm_name, None, None),
    (LinearChainCrf, "log_partition", "crf.log_partition", None, None),
    (LinearChainCrf, "gold_score", "crf.gold_score", None, None),
    (LinearChainCrf, "viterbi", "crf.viterbi", None, None),
    (gcn.TreeGcn, "__call__", "gcn.tree_gcn", None, None),
    (gcn, "path_sum_features", "gcn.path_sum", None, None),
    (FrameParser, "prepare", "model.prepare", None, None),
    (FrameParser, "encode", "model.encode", None, None),
    (FrameParser, "batch_losses", "model.batch_losses", _tokens, None),
    (FrameParser, "ti_predict", "model.ti_predict", None, None),
    (FrameParser, "fi_predict", "model.fi_predict", None, None),
    (FrameParser, "ai_predict", "model.ai_predict", None, None),
    (FrameParser, "ac_predict", "model.ac_predict", None, None),
    (FrameParser, "parse", "model.parse", None, _targets),
    (FrameParser, "save", "model.save", None, None),
    (FrameParser, "load", "model.load", None, None),
    (training, "adam_step", "training.adam_step", None, None),
    (training, "clip_global_norm", "training.clip", None, None),
    (evaluation, "dev_metric", "evaluation.dev_metric",
     lambda args: len(args[1]), None),
    (synth, "generate", "synth.generate", None, None),
]


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def swap(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


def framepath_modules():
    return [m for key, m in sorted(sys.modules.items())
            if key == "framepath" or key.startswith("framepath.")]


class Tracer:
    """Records spans (name, parent, start, end, phase, extra) while
    active; ``phase`` tags which part of a run a span belongs to."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._phase = ""
        self.phase_counts: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_entry, on_result):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args[0])
            extra = on_entry(args) if on_entry is not None else None
            span = [label, stack[-1] if stack else -1, clock(), 0.0,
                    self._phase, extra]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_result is not None:
                span[5] = on_result(result)
            return result

        return wrapper

    def _install(self, patches: Patches) -> None:
        modules = framepath_modules()
        for owner, attr, name, on_entry, on_result in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patches.swap(owner, attr, classmethod(
                        self._wrap(raw.__func__, name, on_entry, on_result)))
                else:
                    patches.swap(owner, attr,
                                 self._wrap(raw, name, on_entry, on_result))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, on_entry, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.swap(module, key, wrapper)

    @contextmanager
    def active(self, phase: str):
        """Trace everything called inside the block as one `phase`."""
        self._phase = phase
        self.phase_counts[phase] += 1
        patches = Patches()
        try:
            self._install(patches)
            yield self
        finally:
            patches.restore()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[3] - s[2]
        return out

    def per_phase(self, name: str, values: list[float]) -> float:
        """Sum of `values` over the spans called `name`, one phase
        occurrence's worth: each phase's total over its count."""
        totals: dict[str, float] = defaultdict(float)
        for span, value in zip(self.spans, values):
            if span[0] == name:
                totals[span[4]] += value
        return sum(t / self.phase_counts[p] for p, t in totals.items())

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, parent, start, end, phase, extra) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "phase": phase, "extra": extra}) + "\n")


# Per-layer metrics: self time of one span name, in seconds per phase
# occurrence (one set-up, one timed unit and the output checks).
SELF_TIME_METRICS = {
    "autodiff.backward_s": "autodiff.backward",
    "layers.bilstm_a_s": "layers.bilstm_a",
    "layers.bilstm_b_s": "layers.bilstm_b",
    "crf.log_partition_s": "crf.log_partition",
    "crf.gold_score_s": "crf.gold_score",
    "crf.viterbi_s": "crf.viterbi",
    "gcn.tree_gcn_s": "gcn.tree_gcn",
    "gcn.path_sum_s": "gcn.path_sum",
    "model.encode_s": "model.encode",
    "model.batch_losses_s": "model.batch_losses",
    "model.ti_predict_s": "model.ti_predict",
    "model.fi_predict_s": "model.fi_predict",
    "model.ai_predict_s": "model.ai_predict",
    "model.ac_predict_s": "model.ac_predict",
    "model.prepare_s": "model.prepare",
    "model.save_s": "model.save",
    "model.load_s": "model.load",
    "training.adam_step_s": "training.adam_step",
    "training.clip_s": "training.clip",
    "synth.generate_s": "synth.generate",
}
CALL_METRICS = {
    "layers.bilstm_b_calls": "layers.bilstm_b",
    "gcn.path_sum_calls": "gcn.path_sum",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, which needs
    untraced runs to compare against."""
    spans = tracer.spans
    own = tracer.self_times()
    out = {metric: tracer.per_phase(name, own)
           for metric, name in SELF_TIME_METRICS.items()}
    out["evaluation.dev_metric_s"] = tracer.per_phase(
        "evaluation.dev_metric", [s[3] - s[2] for s in spans])
    ones = [1.0] * len(spans)
    out.update((metric, tracer.per_phase(name, ones))
               for metric, name in CALL_METRICS.items())

    records = tokens = batch_tokens = 0
    dev_encodes = dev_sentences = 0
    predicted = dropped = 0
    for i, (name, _, _, _, _, extra) in enumerate(spans):
        if name == "model.batch_losses":
            batch_tokens = extra
        elif name == "autodiff.backward":
            records += extra
            tokens += batch_tokens
        elif name == "evaluation.dev_metric":
            dev_sentences += extra
        elif name == "model.encode":
            dev_encodes += tracer.has_ancestor(i, "evaluation.dev_metric")
        elif name == "model.parse" and extra is not None:
            predicted += extra[0]
            dropped += extra[1]
    out["autodiff.tape_records_per_token"] = _ratio(records, tokens)
    out["evaluation.encodes_per_dev_sentence"] = _ratio(dev_encodes,
                                                        dev_sentences)
    out["model.dropped_target_ratio"] = _ratio(dropped, predicted)
    return out

