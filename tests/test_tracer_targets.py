"""The benchmark's tracer swaps attributes of framepath by name.  A
refactor that deletes or renames a traced entry point breaks the
benchmark; this test catches it in the test suite.  perfbench/tracer.py
is read as source and executed in a fresh namespace, so nothing under
perfbench/ is imported as a package or written."""

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

from framepath import gcn, model, synth
from framepath.config import Config
from framepath.corpus import build_vocab
from framepath.model import FrameParser
from framepath.training import train

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for owner, attr, *_ in targets:
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), \
                f"{owner.__name__}.{attr}"


def test_every_perfbench_import_resolves():
    # The benchmark's modules import framepath names at their top; a
    # deleted or renamed name would break every workload before it runs.
    imported = 0
    for path in sorted(TRACER.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "framepath"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert (hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}")), \
                    f"{path.name}: from {node.module} import {alias.name}"
                imported += 1
    assert imported


def _imported(module: str, name: str):
    """What `from module import name` binds."""
    found = getattr(importlib.import_module(module), name, None)
    return found if found is not None else importlib.import_module(
        f"{module}.{name}")


def test_every_perfbench_call_binds_to_its_signature():
    # A framepath name the benchmark calls, or an attribute of one (a
    # module function, a classmethod), must still take the arguments it
    # is given: dropping build_vocab's second argument, say, would break
    # every workload while the import test above still passed.
    checked = 0
    for path in sorted(TRACER.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.asname or alias.name: _imported(node.module, alias.name)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module
                 and node.module.split(".")[0] == "framepath"
                 for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, where = node.func, f"{path.name}:{node.lineno}"
            if isinstance(func, ast.Name) and func.id in names:
                callee = names[func.id]
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and func.value.id in names):
                callee = getattr(names[func.value.id], func.attr, None)
                assert callee is not None, f"{where}: {ast.unparse(func)}"
            else:
                continue
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue  # the argument count is not known statically
            try:
                inspect.signature(callee).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as e:
                pytest.fail(f"{where}: {ast.unparse(node)}: {e}")
            checked += 1
    assert checked


def test_model_binds_path_sum_features_by_name():
    # The tracer swaps the name in every module holding it; called any
    # other way, the per-layer syntax metrics would silently read 0.
    assert model.path_sum_features is gcn.path_sum_features


@pytest.fixture(scope="module")
def traced_training() -> dict:
    tracing = load_tracer()
    sentences, ontology = synth.generate(0, 8)
    parser = FrameParser(Config(max_epochs=1),
                         build_vocab(sentences, ontology), ontology)
    tracer = tracing.Tracer()
    with tracer.active("unit"):
        train(parser, sentences[:6], sentences[6:])
    return {"spans": {span[0] for span in tracer.spans},
            "metrics": tracing.layer_metrics(tracer)}


def test_training_records_gcn_and_path_sum_spans(traced_training):
    assert {"gcn.tree_gcn", "gcn.path_sum"} <= traced_training["spans"]


def test_training_records_both_backbone_spans(traced_training):
    # The tracer tells backbone A from B by the name of the first layer's
    # forward input map; if that layout moved, every span would read B.
    assert {"layers.bilstm_a", "layers.bilstm_b"} <= traced_training["spans"]


def test_training_records_optimizer_and_decoder_spans(traced_training):
    # The benchmark's training.adam_step_s, training.clip_s and
    # crf.viterbi_s read these spans; a training loop or an evaluator
    # that reached the same work under other names would zero them.
    assert {"training.adam_step", "training.clip",
            "crf.viterbi"} <= traced_training["spans"]


def test_joint_dev_metric_encodes_each_dev_chunk_once(traced_training):
    # The tracer counts FrameParser.encode calls under dev_metric per dev
    # sentence: the joint metric's frame and role scoring share one
    # encode per chunk, and both dev sentences fit in one chunk.
    metrics = traced_training["metrics"]
    assert metrics["evaluation.encodes_per_dev_sentence"] == 0.5


def test_parse_records_its_per_layer_spans():
    # The parse workload's per-layer metrics read these spans; a
    # prediction path that reached the same work under other names would
    # zero them, as happened to model.ai_predict and model.ac_predict.
    tracing = load_tracer()
    sentences, ontology = synth.generate(0, 8)
    parser = FrameParser(Config(), build_vocab(sentences, ontology), ontology)
    parser.ti_emit.b.data[:] = [0.0, 50.0, 0.0, 0.0]  # every token a B
    tracer = tracing.Tracer()
    with tracer.active("unit"):
        parsed = [parser.parse(sent)[0] for sent in sentences[:3]]
    assert any(parsed)  # some target is kept, so role labeling runs
    assert {"model.encode", "model.ti_predict", "model.fi_predict",
            "layers.bilstm_b", "crf.viterbi"} <= {
        span[0] for span in tracer.spans}


def test_parse_many_records_its_per_layer_spans(monkeypatch):
    # predict and evaluation run the chunked pass, not parse; it must
    # reach the same traced entry points, once per chunk for encode.
    # The five sentences run 5, 5, 6, 8 and 4 tokens: at 32 cells the
    # first four make one chunk and the last another.
    monkeypatch.setattr(model, "CELLS", 32)
    tracing = load_tracer()
    sentences, ontology = synth.generate(0, 8)
    parser = FrameParser(Config(), build_vocab(sentences, ontology), ontology)
    parser.ti_emit.b.data[:] = [0.0, 50.0, 0.0, 0.0]  # every token a B
    tracer = tracing.Tracer()
    with tracer.active("unit"):
        parsed = parser.parse_many(sentences[:5])
    assert any(anns for anns, _ in parsed)
    names = [span[0] for span in tracer.spans]
    assert {"model.encode", "model.ti_predict", "model.fi_predict",
            "layers.bilstm_b", "crf.viterbi"} <= set(names)
    assert names.count("model.encode") == 2
