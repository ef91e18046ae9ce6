import ctypes
import math
import os
import platform
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from framepath import autodiff as ad
from framepath import training
from framepath.layers import ParamEntry
from framepath.training import (
    AdamState,
    PlateauScheduler,
    TrainingError,
    adam_step,
    clip_global_norm,
    train,
    write_metric_log,
)

from framepath.config import Config
from framepath.corpus import CorpusError, build_vocab
from framepath.model import TASK_LOSSES, FrameParser
from framepath.synth import generate

from helpers import assert_grads_ok
from test_model import make_model, make_sentence, sentence

PENALIZED = ["ti.crf.trans", "srl.ai.u0", "srl.ai.u1", "srl.ai.u2",
             "srl.ai.crf.trans", "srl.ac.crf.trans"]


def entry_of(values, decay=True, name="p"):
    t = ad.param(np.asarray(values, dtype=float), name=name)
    return t, (name, ParamEntry(tensor=t, decay=decay, l2=0.0))


class TestAdamStep:
    def test_zero_grad_zero_decay_no_change(self):
        t, entry = entry_of([1.0, -2.0, 3.0])
        t.grad = np.zeros(3)
        adam_step(AdamState(lr=0.1), [entry])
        assert np.array_equal(t.data, [1.0, -2.0, 3.0])

    def test_first_step_analytic(self):
        # bias-corrected m_hat/sqrt(v_hat) = g/|g| on step 1, so the step
        # is lr in the direction of -sign(g), up to eps
        t, entry = entry_of([0.0])
        t.grad = np.array([1.0])
        adam_step(AdamState(lr=0.1), [entry])
        assert abs(t.data[0] + 0.1) < 1e-6

    def test_descent_on_quadratic(self):
        t, entry = entry_of([1.0])
        state = AdamState(lr=0.05)
        values = [float(t.data[0] ** 2)]
        for _ in range(5):
            t.grad = 2.0 * t.data
            adam_step(state, [entry])
            values.append(float(t.data[0] ** 2))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_missing_grad_rejected(self):
        t, entry = entry_of([1.0])
        with pytest.raises(TrainingError, match="no gradient"):
            adam_step(AdamState(lr=0.1), [entry])

    def test_zero_decay_matches_plain_adam(self):
        rng = np.random.default_rng(0)
        theta0 = rng.normal(size=6)
        grads = [rng.normal(size=6) for _ in range(4)]

        t, entry = entry_of(theta0.copy())
        state = AdamState(lr=0.01, weight_decay=0.0)
        for g in grads:
            t.grad = g.copy()
            adam_step(state, [entry])

        # hand-rolled reference Adam
        theta, m, v = theta0.copy(), np.zeros(6), np.zeros(6)
        for step, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            theta -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(t.data, theta, atol=1e-15)

    @pytest.mark.parametrize("lr, weight_decay", [(0.01, 0.0), (0.1, 3.0)])
    def test_matches_textbook_expression_bit_for_bit(self, lr, weight_decay):
        # Weights small next to the steps, and a large decay, so a last
        # bit that any reordering moves is not rounded away in theta.
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,)}  # b is decay-exempt
        theta0 = {p: 1e-3 * rng.normal(size=shape)
                  for p, shape in shapes.items()}
        grads = [{p: rng.normal(size=shape) for p, shape in shapes.items()}
                 for _ in range(5)]
        live = {p: entry_of(theta0[p].copy(), decay=p == "w", name=p)
                for p in shapes}
        state = AdamState(lr=lr, weight_decay=weight_decay)
        for g in grads:
            for p, (t, _) in live.items():
                t.grad = g[p].copy()
            adam_step(state, [entry for _, entry in live.values()])

        b1, b2, eps = 0.9, 0.999, 1e-8
        for p in shapes:
            theta, m, v = theta0[p].copy(), 0.0, 0.0
            for step, g in enumerate(grads, start=1):
                m = b1 * m + (1.0 - b1) * g[p]
                v = b2 * v + (1.0 - b2) * g[p] * g[p]
                m_hat = m / (1.0 - b1 ** step)
                v_hat = v / (1.0 - b2 ** step)
                theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
                if p == "w" and weight_decay > 0.0:
                    theta = theta - lr * weight_decay * theta
            assert np.array_equal(live[p][0].data, theta), p

    def test_decay_shrinks_only_decay_entries(self):
        a, ea = entry_of([10.0], decay=True, name="a")
        b, eb = entry_of([10.0], decay=False, name="b")
        a.grad = np.zeros(1)
        b.grad = np.zeros(1)
        adam_step(AdamState(lr=0.1, weight_decay=0.5), [ea, eb])
        assert a.data[0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0)
        assert b.data[0] == 10.0


class TestClip:
    def test_below_threshold_untouched(self):
        t = ad.param(np.zeros(3))
        t.grad = np.array([1.0, 2.0, 2.0])
        norm = clip_global_norm([t], 10.0)
        assert norm == pytest.approx(3.0)
        assert np.array_equal(t.grad, [1.0, 2.0, 2.0])

    def test_scales_to_max_norm_preserving_direction(self):
        rng = np.random.default_rng(1)
        ts = [ad.param(np.zeros(4)) for _ in range(3)]
        before = []
        for t in ts:
            t.grad = rng.normal(size=4) * 100.0
            before.append(t.grad.copy())
        clip_global_norm(ts, 10.0)
        after_norm = math.sqrt(sum(float((t.grad ** 2).sum()) for t in ts))
        assert after_norm == pytest.approx(10.0)
        for t, b in zip(ts, before):
            ratio = t.grad / b
            assert np.allclose(ratio, ratio[0])
            assert ratio[0] > 0

    def test_none_grads_skipped(self):
        t = ad.param(np.zeros(2))
        assert clip_global_norm([t], 1.0) == 0.0


class TestPlateauScheduler:
    def test_improving_metric_keeps_lr(self):
        s = PlateauScheduler(1.0, patience=5, factor=0.5, threshold=1e-4)
        for m in np.linspace(0.1, 0.9, 12):
            assert s.step(float(m)) == 1.0

    def test_flat_metric_exactly_one_halving(self):
        s = PlateauScheduler(1.0, patience=5, factor=0.5, threshold=1e-4)
        lrs = [s.step(0.5) for _ in range(6)]
        assert lrs == [1.0] * 5 + [0.5]

    def test_sub_threshold_gain_counts_as_stall(self):
        s = PlateauScheduler(1.0, patience=2, factor=0.5, threshold=1e-4)
        s.step(0.5)
        s.step(0.5 + 5e-5)
        assert s.step(0.5 + 9e-5) == 0.5

    def test_oscillation_hand_simulation(self):
        # metrics: .3 improves, .2 stall, .31 improves (resets), .30 stall,
        # .30 stall, .32 improves, then 3 stalls with patience 3 → halve
        s = PlateauScheduler(1.0, patience=3, factor=0.5, threshold=1e-4)
        seq = [0.3, 0.2, 0.31, 0.30, 0.30, 0.32, 0.31, 0.31, 0.31]
        lrs = [s.step(m) for m in seq]
        assert lrs == [1.0] * 8 + [0.5]
        # counter was reset by the halving; two more stalls stay at 0.5
        assert s.step(0.1) == 0.5
        assert s.step(0.1) == 0.5
        assert s.step(0.1) == 0.25
        # the stall count did not reset: six epochs since .32
        assert s.stall == 6


class TestPenalizedObjective:
    def test_one_record_for_every_penalty(self):
        # The fixed joint batch of test_model's tape-size test: its 66
        # loss records and one add_sq_norms (90 with four ops a term).
        sentences, ontology = generate(101, 80)
        model = FrameParser(Config(), build_vocab(sentences[:60], ontology),
                            ontology)
        preps = [model.prepare(s) for s in sentences[:8]]
        penalties = model.penalty_terms("joint")
        assert [t.name for t, _ in penalties] == PENALIZED
        with ad.fresh_tape():
            training._objective(model, preps, "joint", penalties)
            assert ad.tape_length() == 67

    def test_gradients_with_nonzero_penalties(self):
        model, sent = make_model(task="joint", l2_crf=0.3, l2_bilinear=0.2)
        params = [model.store[p] for p in PENALIZED]
        noise = np.random.default_rng(5)
        for p in params:  # the transition tables start at zero
            p.data += noise.normal(0.0, 0.5, p.data.shape)
        preps = [model.prepare(sent)]
        penalties = model.penalty_terms("joint")
        assert [c for _, c in penalties] == [0.3, 0.2, 0.2, 0.2, 0.3, 0.3]
        assert_grads_ok(
            lambda: training._objective(model, preps, "joint", penalties)[0],
            params)

    def test_logged_loss_is_parts_plus_penalties(self):
        model, sent = make_model(task="joint", max_epochs=1, l2_crf=0.3,
                                 l2_bilinear=0.2)
        with ad.fresh_tape(), ad.no_grad():
            parts = model.batch_losses([model.prepare(sent)], True,
                                       TASK_LOSSES["joint"])
        penalty = [c * (t.data * t.data).sum()
                   for t, c in model.penalty_terms("joint")]
        row = train(model, [sent], [sent]).log_rows[0]
        assert sum(penalty) > 0.0
        assert [row[f"loss_{k}"] for k in parts] == [
            float(t.data) for t in parts.values()]
        total = row["loss_ti"] + row["loss_fi"] + row["loss_srl"]
        for term in penalty:
            total = total + term
        assert row["loss"] == total


class TestTrainLoop:
    def test_lr_zero_constant_metric_trace(self):
        model, sent = make_model(lr=0.0, max_epochs=4, task="ti")
        result = train(model, [sent], [sent])
        metrics = {row["dev_metric"] for row in result.log_rows}
        assert len(metrics) == 1
        assert result.epochs_run == 4

    def test_loss_decreases_on_tiny_corpus(self):
        model, sent = make_model(max_epochs=12, task="ti", batch_size=2)
        result = train(model, [sent], [sent])
        losses = [row["loss"] for row in result.log_rows]
        assert losses[-1] < losses[0]

    def test_fixed_seed_identical_logs(self, tmp_path):
        logs = []
        for run in range(2):
            model, sent = make_model(max_epochs=5, task="joint", dropout=0.1)
            path = str(tmp_path / f"log{run}.csv")
            train(model, [sent, make_sentence()], [sent], log_path=path)
            with open(path) as fh:
                logs.append(fh.read())
        assert logs[0] == logs[1]

    def test_stop_metric_early_exit(self):
        model, sent = make_model(max_epochs=50, task="fi", stop_metric=0.0)
        result = train(model, [sent], [sent])
        assert result.epochs_run == 1

    def test_early_stop_patience(self):
        model, sent = make_model(lr=0.0, max_epochs=500, task="ti",
                                 early_stop_patience=3)
        result = train(model, [sent], [sent])
        # epoch 1 sets the baseline; 3 stalled epochs then stop
        assert result.epochs_run == 4

    def test_scheduler_halvings_and_early_stop(self, monkeypatch):
        # Stalls count from the last improvement across halvings: with
        # patience 2 the rate halves after epochs 4, 7 and 9, and five
        # epochs without improvement stop the run after epoch 10.
        metrics = [0.1, 0.2, 0.2, 0.2, 0.3] + [0.3] * 20
        monkeypatch.setattr(training, "dev_metric",
                            lambda model, dev, task: metrics.pop(0))
        model, sent = make_model(lr=0.01, max_epochs=30, task="ti",
                                 scheduler_patience=2, early_stop_patience=5)
        result = train(model, [sent], [sent])
        assert result.epochs_run == 10
        assert [row["lr"] for row in result.log_rows] == [
            0.01] * 4 + [0.005] * 3 + [0.0025] * 2 + [0.00125]

    def test_best_state_restored(self):
        model, sent = make_model(max_epochs=6, task="ti")
        result = train(model, [sent], [sent])
        best = result.log_rows[result.best_epoch - 1]["dev_metric"]
        assert best == result.best_metric
        assert all(row["dev_metric"] <= best for row in result.log_rows)
        from framepath.evaluation import dev_metric as dm
        assert dm(model, [sent], "ti") == pytest.approx(best)

    @pytest.mark.parametrize("task", ["joint", "ti"])
    def test_parameters_end_at_their_best_epoch_values(self, monkeypatch,
                                                       task):
        # A scripted dev metric peaks at epoch 2 of 4, and train() is run
        # twice on one model, so a snapshot that aliased the live arrays,
        # or one kept from the first call, would show.  Parameters the
        # task does not train keep their initial bits.
        seen = []

        def scripted(model, dev, task):
            seen.append({p: e.tensor.data.copy()
                         for p, e in model.store.entries()})
            return [0.1, 0.5, 0.3, 0.2][(len(seen) - 1) % 4]

        monkeypatch.setattr(training, "dev_metric", scripted)
        model, sent = make_model(max_epochs=4, task=task)
        initial = {p: e.tensor.data.copy() for p, e in model.store.entries()}
        untrained = set(initial) - {p for p, _ in model.trainable_entries()}
        assert bool(untrained) == (task == "ti")
        for call in range(2):
            result = train(model, [sent, make_sentence()], [sent])
            assert result.best_epoch == 2
            best, last = seen[4 * call + 1], seen[4 * call + 3]
            for path, entry in model.store.entries():
                assert np.array_equal(entry.tensor.data, best[path]), path
                if path in untrained:
                    assert np.array_equal(entry.tensor.data,
                                          initial[path]), path
            assert any(not np.array_equal(best[p], last[p]) for p in best)

    def test_empty_corpus_rejected(self):
        model, _ = make_model()
        with pytest.raises(TrainingError, match="empty"):
            train(model, [], [])

    def test_empty_dev_corpus_rejected(self):
        # An empty dev corpus would score 1 on every epoch, so early
        # stopping and best-epoch selection would watch a constant.
        model, sent = make_model()
        before = {p: e.tensor.data.copy() for p, e in model.store.entries()}
        with pytest.raises(TrainingError, match="^empty dev corpus$"):
            train(model, [sent], [])
        for path, entry in model.store.entries():
            assert np.array_equal(entry.tensor.data, before[path]), path

    @pytest.mark.parametrize("n_train,where", [
        (9, "non-finite loss at epoch 1, batch of sentences"),
        (1, "non-finite dev metric at epoch 1, lr 1e+300"),
    ], ids=["loss", "dev-metric"])
    def test_overflow_is_a_training_error_without_warnings(self, n_train,
                                                           where):
        # A step of lr 1e300 overflows the parameters.  With nine
        # sentences the second batch's loss is the first thing it reaches;
        # with one, the first epoch's dev metric is.
        model, sent = make_model(lr=1e300, batch_size=8, task="joint")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingError, match=re.escape(where)):
                train(model, [sent] * n_train, [sent])
        assert caught == []

    @pytest.mark.parametrize("which, unseen", [
        ("training", "part of speech 'RB'"),
        ("training", "constituent label 'FRAG'"),
        ("dev", "part of speech 'RB'"),
        ("dev", "constituent label 'FRAG'")])
    def test_unencodable_sentence_fails_before_the_first_batch(
            self, monkeypatch, which, unseen):
        # The vocabulary is built from make_sentence() alone, so an RB
        # tag or a FRAG constituent cannot be encoded.  Whichever corpus
        # holds it, train() names it before any batch or dev pass runs.
        model, sent = make_model(task="joint")
        odd = sentence("(S (NP (DT the) (NN dog)) (VP (VBD ran) (RB away)))"
                       if "RB" in unseen else
                       "(S (NP (DT the) (NN dog)) (FRAG (VBD ran)))")
        calls = []
        losses = model.batch_losses

        def counted(*args, **kwargs):
            calls.append("batch")
            return losses(*args, **kwargs)

        monkeypatch.setattr(model, "batch_losses", counted)
        monkeypatch.setattr(training, "dev_metric",
                            lambda *a: calls.append("dev") or 0.0)
        before = {p: e.tensor.data.copy() for p, e in model.store.entries()}
        corpora = ([sent, sent, odd], [sent]) if which == "training" else (
            [sent, sent, sent], [sent, odd])
        index = 2 if which == "training" else 1
        with pytest.raises(CorpusError, match=re.escape(
                f"{which} sentence {index}: {unseen} not in training "
                "vocabulary")):
            train(model, *corpora)
        assert calls == []
        for path, entry in model.store.entries():
            assert np.array_equal(entry.tensor.data, before[path]), path

    def test_log_file_layout(self, tmp_path):
        path = str(tmp_path / "log.csv")
        write_metric_log(path, [
            {"epoch": 1, "loss_ti": 2.0, "loss": 2.0, "dev_metric": 0.5,
             "lr": 1e-3}])
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,loss_ti,loss_fi,loss_srl,loss,dev_metric,lr"
        assert lines[1].startswith("1,2.0,,,2.0,0.5,")


# glibc's mallopt parameters (malloc.h): M_TOP_PAD and M_MMAP_THRESHOLD,
# set for the run, then set back to glibc's defaults before the trim
KEPT_HEAP = [("mallopt", -2, 64 << 20), ("mallopt", -3, 32 << 20)]
RESTORED = [("mallopt", -2, 128 << 10), ("mallopt", -3, 128 << 10),
            ("malloc_trim", 0)]


def fake_libc(calls: list):
    """A C library whose mallopt and malloc_trim append to calls."""
    def mallopt(param, value):
        calls.append(("mallopt", param, value))
        return 1

    def malloc_trim(pad):
        calls.append(("malloc_trim", pad))
        return 1

    return types.SimpleNamespace(mallopt=mallopt, malloc_trim=malloc_trim)


def count_batches(monkeypatch, calls: list) -> None:
    objective = training._objective

    def counted(*args):
        calls.append("batch")
        return objective(*args)

    monkeypatch.setattr(training, "_objective", counted)


def trained(model, sentences):
    result = train(model, sentences, sentences[:1])
    return result, {p: e.tensor.data.copy() for p, e in model.store.entries()}


# Trains twice, on a fresh model each time, on 36 sentences of three
# synthetic ones joined (~23 tokens, ~3.3 targets), and prints the minor
# page faults of the second call.
FAULT_PROBE = """
import resource
from framepath import synth
from framepath.config import Config
from framepath.corpus import CorpusError, build_vocab
from framepath.model import FrameParser
from framepath.training import train
from test_evaluation import joined
raw, onto = synth.generate(7, 3 * 36)
sents = [joined(raw[i:i + 3]) for i in range(0, len(raw), 3)]
for call in range(2):
    model = FrameParser(Config(task="joint", max_epochs=5, batch_size=8),
                        build_vocab(sents, onto), onto)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, sents[:32], sents[32:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapPolicy:
    def test_heap_kept_for_the_run_then_trimmed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake_libc(calls))
        count_batches(monkeypatch, calls)
        model, sent = make_model(max_epochs=3, task="joint", batch_size=1)
        train(model, [sent, make_sentence()], [sent])
        assert calls == [*KEPT_HEAP, *["batch"] * 6, *RESTORED]

    def test_heap_trimmed_when_training_fails(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake_libc(calls))
        count_batches(monkeypatch, calls)
        model, sent = make_model(lr=1e300, batch_size=8, task="joint")
        with pytest.raises(TrainingError, match="non-finite loss"):
            train(model, [sent] * 9, [sent])
        assert calls == [*KEPT_HEAP, "batch", "batch", *RESTORED]

    @pytest.mark.parametrize("error", [OSError, AttributeError, TypeError],
                             ids=["no-library", "no-symbols", "windows"])
    def test_without_the_calls_training_runs_as_before(self, monkeypatch,
                                                       error):
        model, sent = make_model(max_epochs=3, task="joint")
        kept = trained(model, [sent, make_sentence()])
        asked = []

        def missing(name):
            asked.append(name)
            if error is AttributeError:
                return object()  # a library without mallopt
            raise error("no C library")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        model, sent = make_model(max_epochs=3, task="joint")
        result, params = trained(model, [sent, make_sentence()])
        assert asked == [None]
        assert result == kept[0]
        assert params.keys() == kept[1].keys()
        for path, data in params.items():
            assert np.array_equal(data, kept[1][path]), path

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's mallopt")
    def test_second_run_does_not_fault_its_tape_in_every_step(self):
        # With the policy the call faults its working set in once, about
        # 5,400 times.  Without it each step faults its freed tape back
        # in: 17,000-54,000 times, by where the heap's live blocks fall
        # (some rare layouts pin the heap's top and fault far less).
        src = os.path.dirname(os.path.dirname(training.__file__))
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join(filter(None, [src, here,
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path))
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 10_000
