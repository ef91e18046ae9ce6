"""The benchmark's own tests:

    python3 -m pytest -q perfbench

They check the long-sentence composer, that tracing and the training
step clock leave framepath as they found it, and that a run prints
exactly the metrics BENCHMARK.json declares.  The last two run the benchmark itself for a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from framepath import synth  # noqa: E402
from framepath.config import Config  # noqa: E402
from framepath.corpus import build_vocab  # noqa: E402
from framepath.model import FrameParser  # noqa: E402
from framepath.training import train  # noqa: E402

import tracer as tracing  # noqa: E402
from calibrate import Calibration  # noqa: E402
from workloads import (REJECTED_AS, StepClock, compose_long,  # noqa: E402
                       unseen_tags)


def _words(sent, indices):
    return [sent.tokens[i] for i in indices]


def test_compose_long_keeps_spans_on_their_words():
    raw, _ = synth.generate(3, 30)
    for i in range(0, len(raw), 3):
        parts = raw[i:i + 3]
        long = compose_long(parts)
        assert len(long) == sum(len(p) for p in parts) + 2
        assert long.tree.tokens() == long.tokens
        assert [long.tree.nodes[k].label
                for k in long.tree.preterminal_order] == long.pos
        sources = [(p, a) for p in parts for a in p.annotations]
        assert len(sources) == len(long.annotations)
        for (src, old), new in zip(sources, long.annotations):
            assert (new.lu, new.frame) == (old.lu, old.frame)
            assert _words(long, new.target) == _words(src, old.target)
            assert len(new.elements) == len(old.elements)
            for ((s, e), label), ((s0, e0), label0) in zip(new.elements,
                                                          old.elements):
                assert label == label0
                assert (_words(long, range(s, e + 1))
                        == _words(src, range(s0, e0 + 1)))


def _bindings():
    """Every attribute the tracer swaps, with the object it holds now."""
    out = {}
    for owner, attr, _, _, _ in tracing.TARGETS:
        if isinstance(owner, type):
            out[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for module in tracing.framepath_modules():
            for key, value in vars(module).items():
                if value is original:
                    out[(module, key)] = value
    return out


def test_tracer_restores_originals_and_measures_a_run():
    before = _bindings()
    # functions imported by name into other modules are swapped there too
    assert any(owner.__name__ == "framepath.model" and attr ==
               "path_sum_features" for owner, attr in before)
    assert any(owner.__name__ == "framepath.training" and attr ==
               "dev_metric" for owner, attr in before)

    sentences, ontology = synth.generate(0, 8)
    model = FrameParser(Config(max_epochs=1), build_vocab(sentences, ontology),
                        ontology)
    tracer = tracing.Tracer()
    with tracer.active("unit"):
        assert all(getattr(owner, attr) is not value
                   for (owner, attr), value in before.items())
        train(model, sentences[:6], sentences[6:])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {s[0] for s in tracer.spans}
    assert {"autodiff.backward", "layers.bilstm_a", "layers.bilstm_b",
            "crf.log_partition", "evaluation.dev_metric"} <= names
    own = tracer.self_times()
    for span, t in zip(tracer.spans, own):
        assert -1e-6 <= t <= span[3] - span[2] + 1e-9
    metrics = tracing.layer_metrics(tracer)
    assert metrics["evaluation.encodes_per_dev_sentence"] == 2.0
    assert metrics["autodiff.tape_records_per_token"] > 1.0


def test_step_clock_brackets_steps_and_restores_batch_losses():
    original = FrameParser.__dict__["batch_losses"]
    clock = StepClock(Calibration())
    with clock.active():
        pass
    # no step ran, yet the block still leaves a calibration sample
    assert clock.steps == [] and len(clock.samples) == 1

    sentences, ontology = synth.generate(0, 8)
    model = FrameParser(Config(max_epochs=2, batch_size=4),
                        build_vocab(sentences, ontology), ontology)
    clock = StepClock(Calibration())
    with clock.active():
        train(model, sentences[:6], sentences[6:])
    assert FrameParser.__dict__["batch_losses"] is original
    assert len(clock.steps) == 4  # two epochs of two batches
    assert len(clock.samples) == len(clock.steps) + 1
    assert all(t > 0 for t in clock.scaled_steps())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False)
    return proc.returncode, proc.stdout.splitlines()


def test_printed_metrics_are_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload, trace, key in [("train-joint", "0", "end_to_end"),
                                 ("train-joint", "1", "per_layer"),
                                 ("parse", "0", "end_to_end")]:
        code, lines = _run("--workload", workload, "--seed", "5",
                           "--seconds", "0", "--trace", trace)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _run("--workload", "parse", "--seed", "1", "--seconds",
                       "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_parse_rejects_only_sentences_with_unseen_tags():
    sentences, ontology = synth.generate(101, 60)
    model = FrameParser(Config(), build_vocab(sentences, ontology), ontology)
    heldout, _ = synth.generate(7, 200)
    rejected = 0
    for sent in heldout:
        try:
            model.parse(sent)
        except REJECTED_AS:
            assert unseen_tags(model.vocab, sent)
            rejected += 1
    # the training corpus has no adverb, so some held-out sentences fail
    assert rejected == sum(bool(unseen_tags(model.vocab, s))
                           for s in heldout) > 0
