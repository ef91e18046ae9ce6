"""The benchmark's three workloads and the output checks each one runs.

All three are closed loops with a single caller: the next training run
or sentence starts only after the previous one has finished.

  train-joint  joint training, desk preset, on generate(seed, 80) split
               60 train / 20 dev; the ROADMAP baseline set-up.
  train-long   the same, but every sentence joins three generated ones as
               (S s1 (CC and) s2 (CC and) s3).
  parse        FrameParser.parse one held-out sentence at a time, as
               `framepath predict` does, with a model trained, saved and
               reloaded during set-up.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from framepath import synth
from framepath.config import Config
from framepath.corpus import (CorpusError, FrameAnnotation, Sentence,
                              build_vocab, load_corpus, save_corpus)
from framepath.model import FrameParser
from framepath.syntax import parse_bracketed, serialize
from framepath.training import train

from calibrate import REFERENCE_S, Calibration
from tracer import Patches, Tracer

EPOCHS = 5
CORPUS_SIZE = 80
TRAIN_SIZE = 60
# A median needs more than one training run.
MIN_TRAIN_RUNS = 2
# Timed set-ups before the training runs (each run sets up again).
TRAIN_SETUPS = 5
# The parse model is the ROADMAP baseline one (corpus seed 101, model
# seed 0), so every parse run decodes with the same parameters and only
# the held-out sentences follow --seed.
PARSE_TRAIN_SEED = 101
# Enough sentences that one pass leaves ten samples beyond p99 even
# after the sentences that fail.
HELDOUT_SIZE = 1200
PARSE_SETUPS = 3
# Best joint dev metric after EPOCHS epochs, and pipeline F1 on the
# held-out corpus, below which a run is wrong rather than slow: about
# four points under the lowest value seen (train-joint seeds 1-80:
# 0.9085; train-long seeds 1-20: 0.958; parse seeds 1-40: 0.9199).
DEV_METRIC_FLOOR = 0.87
PARSE_F1_FLOOR = 0.88
# Calibration samples: after every set-up, and every this many parsed
# sentences (training takes one before every step and after the last).
SETUP_SAMPLES = 9
CALIBRATE_EVERY = 10
# FrameParser.parse rejects a sentence with a part of speech or
# constituent label that its training corpus never showed, since the
# model has no embedding for it.  A rejection of such a sentence is the
# expected outcome, counted apart from failures.  Today it is a bare
# KeyError; ROADMAP item 5 asks for CorpusError.
REJECTED_AS = (KeyError, CorpusError)


@dataclass
class Outcome:
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    # expected rejections of input the model cannot encode
    rejections: Counter = field(default_factory=Counter)
    # the first message seen for each exception type
    examples: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, error: Exception) -> None:
        self._count(self.failures, error)

    def reject(self, error: Exception) -> None:
        self._count(self.rejections, error)

    def _count(self, counter: Counter, error: Exception) -> None:
        kind = type(error).__name__
        counter[kind] += 1
        self.examples.setdefault(kind, str(error))


def config() -> Config:
    return Config(task="joint", max_epochs=EPOCHS, batch_size=8)


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def compose_long(parts: Sequence[Sentence]) -> Sentence:
    """One sentence (S s1 (CC and) s2 ...) with every target and element
    span shifted onto the same words it covered in its source."""
    pieces: list[str] = []
    tokens: list[str] = []
    pos: list[str] = []
    annotations: list[FrameAnnotation] = []
    for k, sent in enumerate(parts):
        if k:
            pieces.append("(CC and)")
            tokens.append("and")
            pos.append("CC")
        off = len(tokens)
        pieces.append(serialize(sent.tree))
        tokens.extend(sent.tokens)
        pos.extend(sent.pos)
        for ann in sent.annotations:
            annotations.append(FrameAnnotation(
                target=[t + off for t in ann.target], lu=ann.lu,
                frame=ann.frame,
                elements=[((s + off, e + off), label)
                          for (s, e), label in ann.elements]))
    tree = parse_bracketed("(S " + " ".join(pieces) + ")")
    if tree.tokens() != tokens:
        raise ValueError("composed tree does not spell the joined tokens")
    return Sentence(tokens=tokens, pos=pos, tree=tree,
                    annotations=annotations)


def training_corpus(seed: int, long: bool):
    if not long:
        return synth.generate(seed, CORPUS_SIZE)
    raw, ontology = synth.generate(seed, 3 * CORPUS_SIZE)
    joined = [compose_long(raw[i:i + 3]) for i in range(0, len(raw), 3)]
    return joined, ontology


def new_model(sentences, ontology) -> FrameParser:
    return FrameParser(config(), build_vocab(sentences, ontology), ontology)


def unseen_tags(vocab, sent: Sentence) -> set[str]:
    """The parts of speech and constituent labels of sent that vocab
    lacks."""
    pos, labels = set(vocab.pos), set(vocab.labels)
    return ({tag for tag in sent.pos if tag not in pos}
            | {node.label for node in sent.tree.nodes
               if node.label not in labels})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100.0 * len(ranked)) - 1)]


def _phase(tracer: Tracer | None, name: str):
    return tracer.active(name) if tracer is not None else nullcontext()


def _timed_loop(seconds: float, min_units: int, unit) -> None:
    start = time.perf_counter()
    i = 0
    while i < min_units or time.perf_counter() - start < seconds:
        unit(i)
        i += 1


# A traced run alternates untraced and traced units, untraced first so
# that no traced unit runs in a cold process, and runs at least two of
# each.  (A separate warm-up unit would push a traced train-long run,
# ~27 s per unit on a 2-core machine, too close to the three minutes a
# run may take.)
TRACED_MIN_UNITS = 4


def _traced(tracer: Tracer | None, i: int) -> bool:
    return tracer is not None and i % 2 == 1


def _overhead(walls: dict[bool, list[float]]) -> float:
    return statistics.median(walls[True]) / statistics.median(walls[False])


# ---------------------------------------------------------------------------
# output checks

def _items(annotations: Sequence[FrameAnnotation]) -> set[tuple]:
    out: set[tuple] = set()
    for ann in annotations:
        target = tuple(sorted(ann.target))
        out.add(("frame", target, ann.frame))
        out.update(("role", target, ann.frame, label, s, e)
                   for (s, e), label in ann.elements)
    return out


def pipeline_f1(gold: Sequence[Sentence], predictions) -> float:
    """Micro F1 over (target, frame) and (target, frame, role, span)
    items; a sentence that failed to parse predicts nothing."""
    matched = n_pred = n_gold = 0
    for sent, anns in zip(gold, predictions):
        g, p = _items(sent.annotations), _items(anns or [])
        matched += len(g & p)
        n_gold += len(g)
        n_pred += len(p)
    if not matched:
        return 0.0
    precision, recall = matched / n_pred, matched / n_gold
    return 2.0 * precision * recall / (precision + recall)


def check_predictions(sentences: Sequence[Sentence], predictions, ontology,
                      path: Path) -> list[str]:
    """Spans in range, and the predictions reload as a corpus under the
    ontology (known lexical units, licensed frames and roles)."""
    problems = []
    written = []
    for i, (sent, anns) in enumerate(zip(sentences, predictions)):
        if anns is None:
            continue
        n = len(sent)
        for ann in anns:
            spans = [(t, t) for t in ann.target] + [s for s, _ in ann.elements]
            if not ann.target or any(not 0 <= s <= e < n for s, e in spans):
                problems.append(f"sentence {i}: index out of range in {ann}")
        written.append(Sentence(tokens=sent.tokens, pos=sent.pos,
                                tree=sent.tree, annotations=anns))
    save_corpus(written, str(path))
    try:
        reloaded = load_corpus(str(path), ontology=ontology)
    except CorpusError as e:
        problems.append(f"predictions do not reload: {e}")
    else:
        if len(reloaded) != len(written):
            problems.append(f"{len(written)} predictions written, "
                            f"{len(reloaded)} reloaded")
    finally:
        path.unlink()
    return problems


def _check_training(results) -> list[str]:
    problems = []
    for result in results:
        losses = [row["loss"] for row in result.log_rows]
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"non-finite epoch loss in {losses}")
    if len({repr(r.log_rows) for r in results}) > 1:
        problems.append("repeated training runs disagree")
    return problems


def _check_model(model: FrameParser, dev: Sequence[Sentence],
                 workdir: Path) -> list[str]:
    """Save/load round trip, then the reloaded model's parses of dev."""
    path = workdir / "model.json"
    model.save(str(path))
    loaded = FrameParser.load(str(path))
    path.unlink()
    problems = [f"{name} changed in the checkpoint round trip"
                for name, entry in model.store.entries()
                if not np.array_equal(entry.tensor.data,
                                      loaded.store[name].data)]
    predictions = [loaded.parse(sent)[0] for sent in dev]
    return problems + check_predictions(dev, predictions, loaded.ontology,
                                        workdir / "dev-predictions.jsonl")


# ---------------------------------------------------------------------------
# workloads

class StepClock:
    """Times training steps, one FrameParser.batch_losses entry to the
    next (the last step ends when the block does), and takes one
    calibration sample before each step and one after the last, outside
    the steps.  A step that ends an epoch includes that epoch's dev
    evaluation."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.steps: list[float] = []
        # samples[k:k + 2] bracket steps[k]
        self.samples: list[float] = []
        self.excluded = 0.0
        self._start: float | None = None

    def _close_step(self) -> None:
        if self._start is not None:
            self.steps.append(time.perf_counter() - self._start)
            self._start = None
        sample = self.calibration.sample()
        self.samples.append(sample)
        self.excluded += sample

    def scaled_steps(self) -> list[float]:
        """Each step scaled by the mean of the two kernel samples that
        bracket it."""
        return [step * REFERENCE_S * 2.0 / (before + after)
                for step, before, after in zip(
                    self.steps, self.samples, self.samples[1:])]

    @contextmanager
    def active(self):
        batch_losses = FrameParser.__dict__["batch_losses"]

        def timed_batch_losses(*args, **kwargs):
            self._close_step()
            self._start = time.perf_counter()
            return batch_losses(*args, **kwargs)

        patches = Patches()
        try:
            patches.swap(FrameParser, "batch_losses", timed_batch_losses)
            yield self
            self._close_step()
        finally:
            patches.restore()


def _setup_scale(calibration: Calibration, since: int) -> float:
    """Mean scale over the samples taken during a set-up and
    SETUP_SAMPLES more taken right after it."""
    for _ in range(SETUP_SAMPLES):
        calibration.sample()
    return calibration.scale(since, mean=True)


def _wall_info(out: Outcome, raw: dict[str, float], scales: list[float]):
    out.info["machine_speed"] = statistics.median(scales)
    out.info.update((f"wall_{k}", v) for k, v in raw.items())


def run_training(seed: int, seconds: float, long: bool,
                 tracer: Tracer | None, workdir: Path) -> Outcome:
    """Repeated identical train() calls: each one builds its corpus and
    a fresh model (set-up), then trains for EPOCHS epochs (timed)."""
    out = Outcome()
    calibration = Calibration()
    setups, rates, steps, scales = [], [], [], []
    raw = {"sent_per_s": [], "latency_ms_p50": [], "setup_s": []}
    walls: dict[bool, list[float]] = {True: [], False: []}
    runs = []

    for _ in range(TRAIN_SETUPS if tracer is None else 0):
        since = len(calibration.samples)
        t0 = time.perf_counter()
        new_model(*training_corpus(seed, long))
        setup = time.perf_counter() - t0
        setups.append(setup * _setup_scale(calibration, since))
        raw["setup_s"].append(setup)

    def unit(i: int) -> None:
        traced = _traced(tracer, i)
        with _phase(tracer if traced else None, "setup"):
            sentences, ontology = training_corpus(seed, long)
            model = new_model(sentences, ontology)
        clock = StepClock(calibration)
        since = len(calibration.samples)
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with _phase(tracer if traced else None, "unit"), clock.active():
                result = train(model, sentences[:TRAIN_SIZE],
                               sentences[TRAIN_SIZE:])
        except Exception as e:  # a failed run is counted, not fatal
            out.fail(e)
            return
        wall = time.perf_counter() - t0 - clock.excluded
        scale = calibration.scale(since, mean=True)
        walls[traced].append(wall * scale)
        runs.append((result, model, sentences[TRAIN_SIZE:]))
        if traced:
            return
        scales.append(scale)
        trained = result.epochs_run * TRAIN_SIZE
        rates.append(trained / (wall * scale))
        steps.extend(clock.scaled_steps())
        raw["sent_per_s"].append(trained / wall)
        raw["latency_ms_p50"].extend(1000.0 * step for step in clock.steps)

    _timed_loop(seconds, MIN_TRAIN_RUNS if tracer is None
                else TRACED_MIN_UNITS, unit)
    if not runs:
        out.problems.append("no training run finished")
        return out
    if not steps:
        out.problems.append("no training step was timed: "
                            "FrameParser.batch_losses was never called")
        return out

    results = [r for r, _, _ in runs]
    out.problems += _check_training(results)
    best = statistics.median(r.best_metric for r in results)
    if best < DEV_METRIC_FLOOR:
        out.problems.append(f"dev metric {best} below {DEV_METRIC_FLOOR}")
    _, model, dev = runs[-1]
    with _phase(tracer, "check"):
        out.problems += _check_model(model, dev, workdir)

    last = results[-1].log_rows[-1]
    out.info = {
        "training_runs": len(results),
        "steps": len(steps),
        "final_epoch_loss": repr(last["loss"]),
        "best_dev_metric": repr(results[-1].best_metric),
        "tokens_per_sentence": sum(len(s) for s in dev) / len(dev),
    }
    if tracer is not None:
        out.metrics = {"trace.overhead_ratio": _overhead(walls)}
        return out
    out.info["step_ms_p90"] = 1000.0 * percentile(steps, 90)
    _wall_info(out, {k: statistics.median(v) for k, v in raw.items()}, scales)
    out.metrics = {
        "sent_per_s": statistics.median(rates),
        "latency_ms_p50": 1000.0 * statistics.median(steps),
        "quality": best,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return out


def _parse_setup(k: int, seed: int, workdir: Path, clock: StepClock):
    sentences, ontology = synth.generate(PARSE_TRAIN_SEED, CORPUS_SIZE)
    # The vocab covers the training sentences only, as `framepath train`
    # builds it from its --corpus.
    model = new_model(sentences[:TRAIN_SIZE], ontology)
    with clock.active():
        result = train(model, sentences[:TRAIN_SIZE], sentences[TRAIN_SIZE:])
    path = workdir / f"parse-model-{k}.json"
    model.save(str(path))
    loaded = FrameParser.load(str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    heldout, _ = synth.generate(derived_seed(seed, 1), HELDOUT_SIZE)
    return loaded, heldout, result, digest


def run_parse(seed: int, seconds: float, tracer: Tracer | None,
              workdir: Path) -> Outcome:
    """Set-up trains, saves and reloads the model; the timed part parses
    the held-out corpus one sentence at a time, pass after pass."""
    out = Outcome()
    calibration = Calibration()
    setups, digests, results = [], [], []
    raw = {"sent_per_s": [], "latency_ms_p50": [], "setup_s": []}
    for k in range(1 if tracer is not None else PARSE_SETUPS):
        # Set-up trains, so it is calibrated after every step as well.
        clock = StepClock(calibration)
        since = len(calibration.samples)
        with _phase(tracer, "setup"):
            t0 = time.perf_counter()
            model, heldout, result, digest = _parse_setup(k, seed, workdir,
                                                          clock)
            setup = time.perf_counter() - t0 - clock.excluded
        setups.append(setup * _setup_scale(calibration, since))
        raw["setup_s"].append(setup)
        digests.append(digest)
        results.append(result)

    # A sentence with an unseen tag may be rejected; any other exception,
    # or a rejection of a sentence the model can encode, is a failure.
    rejectable = [bool(unseen_tags(model.vocab, sent)) for sent in heldout]
    passes: list[list] = []
    rates, latencies, scales = [], [], []
    walls: dict[bool, list[float]] = {True: [], False: []}

    def unit(i: int) -> None:
        traced = _traced(tracer, i)
        predictions, times = [], []
        excluded = 0.0
        since = len(calibration.samples)
        t0 = time.perf_counter()
        with _phase(tracer if traced else None, "unit"):
            for j, sent in enumerate(heldout):
                if j % CALIBRATE_EVERY == 0:
                    excluded += calibration.sample()
                out.attempted += 1
                s0 = time.perf_counter()
                try:
                    annotations, _ = model.parse(sent)
                except Exception as e:  # counted per sentence, not fatal
                    if rejectable[j] and isinstance(e, REJECTED_AS):
                        out.reject(e)
                    else:
                        out.fail(e)
                    predictions.append(None)
                    continue
                times.append(time.perf_counter() - s0)
                predictions.append(annotations)
        wall = time.perf_counter() - t0 - excluded
        scale = calibration.scale(since, mean=True)
        walls[traced].append(wall * scale)
        passes.append(predictions)
        if traced:
            return
        scales.append(scale)
        rates.append(len(times) / (wall * scale))
        latencies.extend(t * calibration.scale(since) for t in times)
        raw["sent_per_s"].append(len(times) / wall)
        raw["latency_ms_p50"].extend(1000.0 * t for t in times)

    _timed_loop(seconds, 1 if tracer is None else TRACED_MIN_UNITS, unit)

    out.problems += _check_training(results)
    if len(set(digests)) > 1:
        out.problems.append("repeated set-ups saved different checkpoints")
    if any(p != passes[0] for p in passes[1:]):
        out.problems.append("passes over the same corpus disagree")
    quality = pipeline_f1(heldout, passes[0])
    if quality < PARSE_F1_FLOOR:
        out.problems.append(f"pipeline F1 {quality} below {PARSE_F1_FLOOR}")
    with _phase(tracer, "check"):
        out.problems += check_predictions(heldout, passes[0], model.ontology,
                                          workdir / "predictions.jsonl")

    out.info = {
        "passes": len(passes),
        "heldout_with_unseen_tags": sum(rejectable),
        "setup_final_epoch_loss": repr(results[-1].log_rows[-1]["loss"]),
        "tokens_per_sentence": sum(len(s) for s in heldout) / len(heldout),
    }
    if tracer is not None:
        out.metrics = {"trace.overhead_ratio": _overhead(walls)}
        return out
    out.info.update({
        "parsed": len(latencies),
        "latency_ms_p90": 1000.0 * percentile(latencies, 90),
        "latency_ms_p99": 1000.0 * percentile(latencies, 99),
    })
    _wall_info(out, {k: statistics.median(v) for k, v in raw.items()}, scales)
    out.metrics = {
        "sent_per_s": statistics.median(rates),
        "latency_ms_p50": 1000.0 * statistics.median(latencies),
        "quality": quality,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return out


def run(workload: str, seed: int, seconds: float, tracer: Tracer | None,
        workdir: Path) -> Outcome:
    os.makedirs(workdir, exist_ok=True)
    if workload == "parse":
        return run_parse(seed, seconds, tracer, workdir)
    return run_training(seed, seconds, workload == "train-long", tracer,
                        workdir)
