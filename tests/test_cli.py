import base64
import copy
import hashlib
import json
import random
import re
import string
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from framepath.cli import main
from framepath.config import Config
from framepath.corpus import (Ontology, build_vocab, load_corpus, load_ontology,
                              save_corpus)
from framepath.layers import ParamStore
from framepath.model import FrameParser
from framepath.synth import generate
from framepath.syntax import parse_bracketed, serialize

from helpers import WRONG_VALUES, json_slots


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated corpus plus a quickly trained TI checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus.jsonl")
    onto = str(root / "onto.json")
    ckpt = str(root / "model.json")
    log = str(root / "log.csv")
    assert main(["synth", "--seed", "5", "-n", "24",
                 "--corpus", corpus, "--ontology", onto]) == 0
    assert main(["train", "--corpus", corpus, "--ontology", onto,
                 "--checkpoint", ckpt, "--log", log, "--task", "ti",
                 "--max-epochs", "12", "--stop-metric", "1.0"]) == 0
    return {"root": root, "corpus": corpus, "onto": onto, "ckpt": ckpt,
            "log": log}


def test_synth_deterministic(tmp_path):
    hashes = []
    for run in range(2):
        c = tmp_path / f"c{run}.jsonl"
        o = tmp_path / f"o{run}.json"
        assert main(["synth", "--seed", "7", "-n", "15",
                     "--corpus", str(c), "--ontology", str(o)]) == 0
        hashes.append(hashlib.sha256(c.read_bytes()
                                     + o.read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def test_train_writes_checkpoint_and_log(workspace):
    assert json.load(open(workspace["ckpt"]))["config"]["task"] == "ti"
    header = open(workspace["log"]).readline().strip()
    assert header == "epoch,loss_ti,loss_fi,loss_srl,loss,dev_metric,lr"


def test_eval_report(workspace, capsys):
    assert main(["eval", "--checkpoint", workspace["ckpt"],
                 "--corpus", workspace["corpus"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["task"] == "ti"
    assert 0.0 <= report[0]["f1"] <= 1.0


def test_eval_gold_targets_reports_accuracy_only(workspace, capsys):
    assert main(["eval", "--checkpoint", workspace["ckpt"],
                 "--corpus", workspace["corpus"], "--task", "fi"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report) == 1
    assert report[0]["task"] == "fi"
    assert "accuracy" in report[0]
    assert "f1" not in report[0]


def test_eval_gold_frames_reports_srl(workspace, capsys):
    assert main(["eval", "--checkpoint", workspace["ckpt"],
                 "--corpus", workspace["corpus"], "--task", "srl"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["task"] == "srl"


def test_eval_report_file_matches_stdout(workspace, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", workspace["ckpt"],
                 "--corpus", workspace["corpus"],
                 "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert json.loads(out.read_text()) == json.loads(printed)


def test_predict_jsonl(workspace, tmp_path):
    out = tmp_path / "pred.jsonl"
    assert main(["predict", "--checkpoint", workspace["ckpt"],
                 "--corpus", workspace["corpus"], "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 24
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"tokens", "pos", "tree", "annotations"}
    # Predictions are corpus-format: they reload under the same ontology.
    reloaded = load_corpus(str(out), ontology=load_ontology(workspace["onto"]))
    assert len(reloaded) == 24


def test_5000_level_tree_predicts_and_evaluates(workspace, tmp_path, capsys):
    # A corpus sentence under 5,000 more S levels: no stack limit stops
    # reading, encoding, parsing or writing it.
    record = json.loads(open(workspace["corpus"]).readline())
    record["tree"] = "(S " * 5000 + record["tree"] + ")" * 5000
    deep, out = tmp_path / "deep.jsonl", tmp_path / "pred.jsonl"
    deep.write_text(json.dumps(record) + "\n")
    assert main(["predict", "--checkpoint", workspace["ckpt"],
                 "--corpus", str(deep), "--out", str(out)]) == 0
    assert main(["eval", "--checkpoint", workspace["ckpt"],
                 "--corpus", str(deep)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["task"] == "ti"
    [sent] = load_corpus(str(out), ontology=load_ontology(workspace["onto"]))
    assert json.loads(out.read_text())["tree"] == record["tree"]
    assert serialize(sent.tree) == record["tree"]
    assert parse_bracketed(serialize(sent.tree)).nodes == sent.tree.nodes
    assert len(sent.tree) > 5000


def test_train_with_empty_dev_corpus_exits_2(workspace, tmp_path, capsys):
    empty, ckpt = tmp_path / "empty.jsonl", tmp_path / "model.json"
    empty.write_text("")
    assert main(["train", "--corpus", workspace["corpus"], "--ontology",
                 workspace["onto"], "--dev", str(empty), "--checkpoint",
                 str(ckpt)]) == 2
    assert capsys.readouterr() == ("", "error: empty dev corpus\n")
    assert not ckpt.exists()


@pytest.mark.parametrize("task", ["ti", "fi", "srl", "joint"])
def test_eval_of_an_empty_corpus_exits_2(workspace, tmp_path, capsys, task):
    # no sentence to score is an input error, not a perfect score
    empty, report = tmp_path / "empty.jsonl", tmp_path / "report.json"
    empty.write_text("")
    assert main(["eval", "--checkpoint", workspace["ckpt"], "--corpus",
                 str(empty), "--task", task, "--report", str(report)]) == 2
    assert capsys.readouterr() == ("", f"error: {empty}: empty corpus\n")
    assert not report.exists()


@pytest.mark.parametrize("n_sentences,message", [
    (24, "non-finite loss at epoch 1, batch of sentences "),
    (4, "non-finite dev metric at epoch 1, lr 1e+300: "),
], ids=["loss", "dev-metric"])
def test_overflowing_training_prints_only_the_error_line(
        workspace, tmp_path, capsys, n_sentences, message):
    # lr 1e300 overflows the first Adam step; with four sentences (one
    # batch) the dev metric is the first pass to meet the overflow.
    corpus, ckpt = tmp_path / "corpus.jsonl", tmp_path / "model.json"
    lines = open(workspace["corpus"]).readlines()[:n_sentences]
    corpus.write_text("".join(lines))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--corpus", str(corpus), "--ontology",
                     workspace["onto"], "--checkpoint", str(ckpt),
                     "--lr", "1e300", "--max-epochs", "2"]) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1 and err.endswith(
        "non-finite value produced by affine\n")
    assert not ckpt.exists()


def test_missing_file_exits_2(workspace):
    assert main(["eval", "--checkpoint", "/does/not/exist.json",
                 "--corpus", workspace["corpus"]]) == 2


def test_unknown_config_key_exits_1(workspace, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"learning_rate": 0.1}')
    code = main(["train", "--corpus", workspace["corpus"],
                 "--ontology", workspace["onto"],
                 "--checkpoint", str(tmp_path / "x.json"),
                 "--config", str(bad)])
    assert code == 1


def test_usage_error_exits_1(capsys):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, reason", [
    (["train", "--corpus", "c.jsonl", "--batch-size", "abc"],
     "framepath train: error: argument --batch-size: invalid int value: "
     "'abc'"),
    # argparse reads -1e-4 as an option, not a negative number
    (["gradcheck", "--tolerance", "-1e-4"],
     "framepath gradcheck: error: argument --tolerance: expected one "
     "argument"),
], ids=["batch-size-not-int", "tolerance-read-as-option"])
def test_usage_error_prints_the_reason_after_the_usage(capsys, argv, reason):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: framepath {argv[0]}")
    assert err.endswith(reason + "\n")


def test_malformed_corpus_exits_2(workspace, tmp_path):
    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"tokens": ["a"], "pos": ["DT"]}\n')
    assert main(["eval", "--checkpoint", workspace["ckpt"],
                 "--corpus", str(broken)]) == 2


def test_null_elements_exit_2_naming_the_line(workspace, tmp_path, capsys):
    record = json.loads(open(workspace["corpus"]).readline())
    record["annotations"][0]["elements"] = None
    broken = tmp_path / "broken.jsonl"
    broken.write_text(json.dumps(record) + "\n")
    assert main(["train", "--corpus", str(broken), "--ontology",
                 workspace["onto"], "--checkpoint",
                 str(tmp_path / "model.json")]) == 2
    err = capsys.readouterr().err
    assert f"{broken}:1, annotation 0: field 'elements'" in err


def with_unseen_pos(line: str) -> str:
    """The corpus line with its first POS tag (and preterminal) set to XX."""
    record = json.loads(line)
    record["pos"][0] = "XX"
    old = record["tree"].split()[2]          # "(NNP" or similar
    record["tree"] = record["tree"].replace(old, "(XX", 1)
    return json.dumps(record)


def test_unseen_pos_tag_exits_2_naming_the_line(workspace, tmp_path,
                                                capsys):
    lines = open(workspace["corpus"]).read().splitlines()
    unseen = tmp_path / "unseen.jsonl"
    # A blank line first: the reported line is the file's, not the index.
    unseen.write_text("\n".join(["", lines[0], with_unseen_pos(lines[1])])
                      + "\n")
    for command in ("predict", "eval"):
        assert main([command, "--checkpoint", workspace["ckpt"],
                     "--corpus", str(unseen)]) == 2
        err = capsys.readouterr().err
        assert f"{unseen}:3:" in err and "'XX'" in err


def test_train_dev_with_unseen_pos_tag_exits_2_before_training(
        workspace, tmp_path, capsys):
    lines = open(workspace["corpus"]).read().splitlines()
    dev = tmp_path / "dev.jsonl"
    dev.write_text("\n".join([lines[0], with_unseen_pos(lines[1])]) + "\n")
    ckpt = tmp_path / "model.json"
    assert main(["train", "--corpus", workspace["corpus"], "--ontology",
                 workspace["onto"], "--dev", str(dev), "--checkpoint",
                 str(ckpt), "--log", str(tmp_path / "log.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{dev}:2: part of speech 'XX' not in training vocabulary" in err
    assert not ckpt.exists() and not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("targets, message", [
    ("duplicate", "overlapping targets at indices"),
    ([[0, 2], [1, 3]], "interleaved discontinuous targets"),
], ids=["duplicate", "interleaved"])
def test_untaggable_targets_exit_2_naming_the_line(workspace, tmp_path,
                                                   capsys, targets, message):
    record = next(r for r in map(json.loads, open(workspace["corpus"]))
                  if len(r["tokens"]) >= 4 and r["annotations"])
    ann = record["annotations"][0]
    record["annotations"] = ([ann, ann] if targets == "duplicate" else
                             [dict(ann, target=t, elements=[])
                              for t in targets])
    corpus = tmp_path / "targets.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    assert main(["train", "--corpus", str(corpus), "--ontology",
                 workspace["onto"], "--checkpoint",
                 str(tmp_path / "model.json")]) == 2
    assert f"{corpus}:1: {message}" in capsys.readouterr().err


def _set_first_param_shape(doc):
    doc["params"][next(iter(doc["params"]))]["shape"] = [1, 1]


def _set(entry, value):
    return lambda doc: doc.update({entry: value})


NOT_OBJECTS = {f"{entry}-{kind}-not-object": (entry, _set(entry, value))
               for entry in ("config", "vocab", "ontology", "params")
               for kind, value in (("list", [1]), ("string", "x"),
                                   ("null", None))}


@pytest.mark.parametrize("entry, corrupt", [
    ("params", lambda doc: doc.update(params={})),
    ("params", _set_first_param_shape),
    ("vocab", lambda doc: doc.update(vocab={})),
    ("vocab", lambda doc: doc.update(vocab=3)),
    ("vocab", lambda doc: doc["vocab"].update(
        pos=list(range(len(doc["vocab"]["pos"]))))),
    ("vocab", lambda doc: doc["vocab"].update(labels="NPSV")),
    ("vocab", lambda doc: doc["vocab"]["tokens"].append(["x"])),
    ("vocab", lambda doc: doc["vocab"].update(tokens=[])),
    ("params", lambda doc: doc.update(params=[1])),
    ("params", lambda doc: doc.update(params="x")),
    ("ontology", lambda doc: doc.update(ontology={"lu_to_frames": {}})),
    ("config", lambda doc: doc["config"].update(lstm_hidden=0)),
    (None, None),  # not JSON at all
    *NOT_OBJECTS.values(),
    ("ontology", lambda doc: doc["ontology"].pop("frame_to_elements")),
    ("ontology", lambda doc: doc["ontology"].update(extra={})),
    ("vocab", lambda doc: doc["vocab"].pop("tokens")),
], ids=["empty-params", "wrong-shape", "empty-vocab", "vocab-not-object",
        "pos-ids-not-strings", "labels-a-string", "list-in-tokens",
        "no-tokens", "params-a-list", "params-a-string",
        "ontology-without-roles", "invalid-config", "not-json",
        *NOT_OBJECTS, "ontology-missing-key", "ontology-extra-key",
        "vocab-without-tokens"])
def test_malformed_checkpoint_exits_2_naming_the_file(
        workspace, tmp_path, capsys, entry, corrupt):
    ckpt = tmp_path / "bad.json"
    if corrupt is None:
        ckpt.write_text("this is not json\n")
    else:
        doc = json.load(open(workspace["ckpt"]))
        corrupt(doc)
        ckpt.write_text(json.dumps(doc))
    want = (f"{ckpt}: bad checkpoint {entry}:" if entry
            else f"{ckpt}: invalid JSON")
    for command in ("eval", "predict"):
        assert main([command, "--checkpoint", str(ckpt),
                     "--corpus", workspace["corpus"]]) == 2
        err = capsys.readouterr().err
        assert want in err
        for internal in ("attribute", "argument", "indices",
                         "sequence element", "object is not"):
            assert internal not in err  # names no Python internals


def test_six_table_vocab_checkpoint_gives_the_same_output(workspace,
                                                          tmp_path, capsys):
    """Checkpoints once held the ontology's frame, role and lexical-unit
    tables in their vocab too; those are not read, so the model is the
    one the same checkpoint saved again holds."""
    doc = json.load(open(workspace["ckpt"]))
    onto = Ontology.from_dict(doc["ontology"])
    doc["vocab"].update(frames=onto.frames, fes=onto.fes, lus=onto.lus)
    older, again = tmp_path / "older.json", tmp_path / "again.json"
    older.write_text(json.dumps(doc))
    FrameParser.load(str(older)).save(str(again))
    assert sorted(json.load(open(again))["vocab"]) == ["labels", "pos",
                                                       "tokens"]
    outputs = []
    for ckpt in (older, again):
        pred = tmp_path / f"{ckpt.stem}.jsonl"
        assert main(["predict", "--checkpoint", str(ckpt), "--corpus",
                     workspace["corpus"], "--out", str(pred)]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus",
                     workspace["corpus"], "--task", "joint"]) == 0
        outputs.append((pred.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


def _unpack(values: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(values), "<f8").copy()


def _pack(values: np.ndarray) -> str:
    return base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


def _as_number_lists(doc):
    """doc with every parameter's values spelled as a JSON number list,
    the way checkpoints were written before the base64 encoding."""
    for rec in doc["params"].values():
        rec["values"] = _unpack(rec["values"]).tolist()
    return doc


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_checkpoint_value_exits_2_naming_the_entry(
        workspace, tmp_path, capsys, value):
    # Spelled in a number list (JSON's NaN, Infinity, -Infinity), and
    # packed in the base64 bytes.
    lists = _as_number_lists(json.load(open(workspace["ckpt"])))
    lists["params"]["enc.a.ln.gain"]["values"][3] = value
    packed = json.load(open(workspace["ckpt"]))
    packed["params"]["enc.a.ln.gain"]["values"] = _pack(
        np.array(lists["params"]["enc.a.ln.gain"]["values"]))
    ckpt = tmp_path / "bad.json"
    for doc in (lists, packed):
        ckpt.write_text(json.dumps(doc))
        for command in ("eval", "predict"):
            assert main([command, "--checkpoint", str(ckpt),
                         "--corpus", workspace["corpus"]]) == 2
            assert (f"{ckpt}: bad checkpoint params: enc.a.ln.gain: "
                    "non-finite" in capsys.readouterr().err)


@pytest.mark.parametrize("command,path,op", [
    ("eval", "ti.emit.w", "affine"), ("predict", "ti.emit.w", "affine"),
    ("eval", "enc.a.lstm.l0.fwd.wx", "bilstm_layer"),
    ("predict", "enc.a.lstm.l0.fwd.wx", "bilstm_layer")],
    ids=["eval", "predict", "eval-lstm-wx", "predict-lstm-wx"])
def test_overflowing_checkpoint_exits_2_naming_the_file(
        workspace, tmp_path, capsys, command, path, op):
    # Every value is finite, so the checkpoint loads, but the first
    # forward pass overflows, in a linear map or in an input projection
    # folded into a BiLSTM layer: no numpy warning precedes the error
    # line, which names the op, and no output file is left behind.
    doc = json.load(open(workspace["ckpt"]))
    rec = doc["params"][path]
    rec["values"] = _pack(np.full(_unpack(rec["values"]).size, 1e308))
    ckpt = tmp_path / "huge.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--checkpoint", str(ckpt),
                     "--corpus", workspace["corpus"],
                     {"eval": "--report", "predict": "--out"}[command],
                     str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()
    err = capsys.readouterr().err
    assert (f"error: {ckpt}: parameters overflow: non-finite value "
            f"produced by {op}\n") in err
    assert "Traceback" not in err


def test_checkpoint_of_number_lists_evaluates_and_predicts_the_same(
        workspace, tmp_path, capsys):
    # Checkpoints written before the base64 encoding still load, to the
    # same bits.
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps(
        _as_number_lists(json.load(open(workspace["ckpt"])))))
    outputs = []
    for ckpt in (workspace["ckpt"], str(lists)):
        out = tmp_path / "pred.jsonl"
        assert main(["predict", "--checkpoint", ckpt,
                     "--corpus", workspace["corpus"], "--out", str(out)]) == 0
        assert main(["eval", "--checkpoint", ckpt,
                     "--corpus", workspace["corpus"], "--task", "joint"]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_incomplete_checkpoint_exits_2(workspace, tmp_path, capsys):
    doc = json.load(open(workspace["ckpt"]))
    for drop in (None, "config", "params"):
        ckpt = tmp_path / "partial.json"
        partial = {} if drop is None else {k: v for k, v in doc.items()
                                           if k != drop}
        ckpt.write_text(json.dumps(partial))
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", workspace["corpus"]]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: checkpoint has no '{drop or 'config'}' entry" in err


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """An untrained joint checkpoint with every dimension 4, and a
    one-sentence corpus."""
    root = tmp_path_factory.mktemp("tiny")
    sentences, ontology = generate(3, 1)
    config = Config(**dict.fromkeys(
        [f.name for f in fields(Config) if f.name.endswith("_dim")]
        + ["fi_hidden1", "fi_hidden2", "lstm_hidden"], 4))
    ckpt, corpus = root / "model.json", root / "corpus.jsonl"
    FrameParser(config, build_vocab(sentences, ontology), ontology).save(
        str(ckpt))
    save_corpus(sentences, str(corpus))
    shapes = [rec["shape"] for rec in json.loads(ckpt.read_text())["params"]
              .values()]
    return {"text": ckpt.read_text(), "corpus": str(corpus),
            "count": len(shapes), "size": max(map(np.prod, shapes))}


def _predict(tiny, doc, tmp_path):
    ckpt = tmp_path / "mutated.json"
    ckpt.write_text(json.dumps(doc))  # writes NaN, Infinity, -Infinity
    return ckpt, main(["predict", "--checkpoint", str(ckpt), "--corpus",
                       tiny["corpus"], "--out", str(tmp_path / "out.jsonl")])


B64 = string.ascii_letters + string.digits + "+/"

# Edits of a base64 values string v at position i.
PACKED_MUTATIONS = {
    "truncated": lambda v, i, rng: v[:i],
    "padding dropped": lambda v, i, rng: v.rstrip("="),
    "non-alphabet character": lambda v, i, rng: (
        v[:i] + rng.choice("!-_=. \n*é") + v[i:]),
    "character flipped": lambda v, i, rng: (
        v[:i] + rng.choice(B64.replace(v[i], "")) + v[i + 1:]),
}


def test_mutated_checkpoints_exit_0_or_2(tiny, tmp_path, capsys):
    # Seeded fuzz: one or two values of the checkpoint's config, vocab,
    # ontology or params swapped for a value of the wrong type or range,
    # or deleted; then one parameter's base64 values string edited.
    # predict succeeds or exits 2, and raises nothing.
    rng = random.Random(13)
    wrong = WRONG_VALUES + [float("nan"), float("inf"), float("-inf")]
    codes = Counter()
    for _ in range(300):
        doc = json.loads(tiny["text"])
        for _ in range(rng.randint(1, 2)):
            entry = rng.choice(["config", "vocab", "ontology", "params"])
            owner, key = rng.choice(list(json_slots(doc[entry])))
            if isinstance(owner, dict) and rng.random() < 0.15:
                del owner[key]
            else:
                owner[key] = copy.deepcopy(rng.choice(wrong))
        codes["slot", _predict(tiny, doc, tmp_path)[1]] += 1
        capsys.readouterr()
    for name, mutate in PACKED_MUTATIONS.items():
        for _ in range(40):
            doc = json.loads(tiny["text"])
            path = rng.choice(sorted(doc["params"]))
            values = doc["params"][path]["values"]
            doc["params"][path]["values"] = mutate(
                values, rng.randrange(len(values)), rng)
            ckpt, code = _predict(tiny, doc, tmp_path)
            codes[name, code] += 1
            err = capsys.readouterr().err
            if code == 2:  # a rejected edit names its parameter
                assert f"{ckpt}: bad checkpoint params: {path}: " in err, \
                    (name, path)
    assert {code for *_, code in codes} == {0, 2}, codes


# A parameter's shape spelled with something other than non-negative
# JSON integers.
SHAPE_MUTATIONS = {
    "float": lambda shape: [float(shape[0])] + shape[1:],
    "true": lambda shape: [True] + shape,  # a leading dimension of 1
    "negative": lambda shape: [-1] + shape[1:],
    "string": lambda shape: [str(shape[0])] + shape[1:],
    "nested": lambda shape: [shape],
}


@pytest.mark.parametrize("mutate", SHAPE_MUTATIONS.values(),
                         ids=SHAPE_MUTATIONS)
def test_checkpoint_shape_of_non_integers_exits_2_naming_the_parameter(
        tiny, tmp_path, capsys, mutate):
    for path in json.loads(tiny["text"])["params"]:
        doc = json.loads(tiny["text"])
        doc["params"][path]["shape"] = mutate(doc["params"][path]["shape"])
        ckpt, code = _predict(tiny, doc, tmp_path)
        assert code == 2, path
        assert (f"{ckpt}: bad checkpoint params: {path}: shape "
                in capsys.readouterr().err), path


# Integer config fields that shape no parameter.
UNSHAPED = {"batch_size", "max_epochs", "scheduler_patience",
            "early_stop_patience", "seed"}


@pytest.mark.parametrize("name", [f.name for f in fields(Config)
                                  if f.type == "int"])
def test_huge_config_value_is_rejected_before_drawing(
        tiny, tmp_path, capsys, monkeypatch, name):
    # A layer count or dimension of 10**6 is rejected, naming the file
    # and the entry, before the model draws a parameter the checkpoint
    # does not hold, or one bigger than any it holds.
    add = ParamStore.add
    drawn = []

    def checked_add(store, path, values, **kwargs):
        drawn.append(path)
        assert np.size(values) <= tiny["size"], path
        assert len(drawn) <= tiny["count"], path
        return add(store, path, values, **kwargs)

    monkeypatch.setattr(ParamStore, "add", checked_add)
    doc = json.loads(tiny["text"])
    doc["config"][name] = 10**6
    ckpt, code = _predict(tiny, doc, tmp_path)
    if name in UNSHAPED:
        assert code == 0
    else:
        assert code == 2
        assert f"{ckpt}: bad checkpoint " in capsys.readouterr().err


def test_gradcheck_exits_0():
    assert main(["gradcheck", "--max-checks", "40"]) == 0


def test_gradcheck_refuses_training_options(capsys):
    # gradcheck checks every task with dropout 0 and trains nothing, so
    # a training option would be read and then ignored.
    assert main(["gradcheck", "--lr", "1"]) == 1
    assert "unrecognized arguments: --lr 1" in capsys.readouterr().err


def test_no_gcn_flag_drops_gcn_params(workspace, tmp_path):
    ckpt = tmp_path / "nogcn.json"
    assert main(["train", "--corpus", workspace["corpus"],
                 "--ontology", workspace["onto"],
                 "--checkpoint", str(ckpt), "--task", "ti",
                 "--max-epochs", "1", "--no-gcn"]) == 0
    params = json.load(open(ckpt))["params"]
    assert not any(p.startswith("gcn.") for p in params)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("role", ["corpus", "ontology", "config",
                                  "checkpoint"])
def test_unreadable_input_exits_with_its_code(workspace, tmp_path, capsys,
                                              role, kind):
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe")
    train = ["train", "--corpus", workspace["corpus"],
             "--checkpoint", str(tmp_path / "model.json")]
    argv = {
        "corpus": ["eval", "--checkpoint", workspace["ckpt"],
                   "--corpus", str(bad)],
        "ontology": train + ["--ontology", str(bad)],
        "config": train + ["--ontology", workspace["onto"],
                           "--config", str(bad)],
        "checkpoint": ["predict", "--checkpoint", str(bad),
                       "--corpus", workspace["corpus"]],
    }[role]
    # a config that does not decode is a configuration (usage) error
    want = 1 if (role, kind) == ("config", "not-utf8") else 2
    assert main(argv) == want
    err = capsys.readouterr().err
    assert (f"{bad}:1:" if (role, kind) == ("corpus", "not-utf8")
            else str(bad)) in err
    assert "Traceback" not in err


def never_train(*args, **kwargs):
    raise AssertionError("training started")


def test_checkpoint_path_that_is_a_directory_exits_2(workspace, tmp_path,
                                                    capsys, monkeypatch):
    monkeypatch.setattr("framepath.cli.train", never_train)
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["train", "--corpus", workspace["corpus"],
                 "--ontology", workspace["onto"], "--checkpoint",
                 str(target), "--task", "ti", "--max-epochs", "1"]) == 2
    out, err = capsys.readouterr()
    assert str(target) in err
    assert "best dev metric" not in out  # refused before any epoch ran
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("flag,name", [
    ("--log", "taken"),
    ("--checkpoint", "missing/dir/model.json"),
], ids=["log-directory", "checkpoint-missing-parent"])
def test_unusable_output_path_exits_2_before_training(
        workspace, tmp_path, capsys, monkeypatch, flag, name):
    monkeypatch.setattr("framepath.cli.train", never_train)
    (tmp_path / "taken").mkdir()
    path = str(tmp_path / name)
    outputs = {"--checkpoint": str(tmp_path / "model.json"), flag: path}
    argv = ["train", "--corpus", workspace["corpus"], "--ontology",
            workspace["onto"], "--task", "ti", "--max-epochs", "1"]
    for key, value in outputs.items():
        argv += [key, value]
    assert main(argv) == 2
    assert path in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", "-1", "--corpus", "c.jsonl", "--ontology", "o.json"],
    ["gradcheck", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
], ids=["synth-seed", "gradcheck-seed", "train-seed", "train-lr-nan",
        "train-lr-inf"])
def test_negative_seed_and_non_finite_float_exit_1(workspace, tmp_path,
                                                  capsys, argv):
    if argv[0] == "train":
        argv = argv + ["--corpus", workspace["corpus"],
                       "--ontology", workspace["onto"],
                       "--checkpoint", str(tmp_path / "model.json")]
    else:
        argv = [str(tmp_path / a) if a.endswith((".json", ".jsonl")) else a
                for a in argv]
    assert main(argv) == 1
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("retired, value, code", [
    ("gcn_mean_aggregation", False, 0),
    ("gcn_mean_aggregation", True, 2),
    ("path_include_endpoints", False, 2),
    ("constrain_training", False, 2),
])
def test_checkpoint_with_retired_key(workspace, tmp_path, capsys, retired,
                                     value, code):
    doc = json.load(open(workspace["ckpt"]))
    doc["config"].update(gcn_mean_aggregation=False,
                         path_include_endpoints=True,
                         constrain_training=True)
    doc["config"][retired] = value
    ckpt = tmp_path / "old.json"
    ckpt.write_text(json.dumps(doc))
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--corpus", workspace["corpus"]]) == code
    err = capsys.readouterr().err
    if code:
        assert f"{ckpt}: bad checkpoint config: {retired}" in err



@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc.update(lu_to_frames=[]),
     "lu_to_frames must map names to lists of strings"),
    (lambda doc: doc["frame_to_elements"].update(Motion="xy"),
     "frame_to_elements must map names to lists of strings"),
    (lambda doc: doc["frame_to_elements"].update(Motion=["Mover", 3]),
     "frame_to_elements must map names to lists of strings"),
    (lambda doc: doc["lu_to_frames"].update({"go.v": ["Nope"]}),
     "lexical unit 'go.v' references unknown frame 'Nope'"),
    (lambda doc: doc["frame_to_elements"].update(Motion=[]),
     "frame 'Motion' licenses no roles"),
], ids=["map-not-object", "string-for-list", "non-string-role",
        "unknown-frame", "frame-without-roles"])
def test_malformed_ontology_exits_2_naming_the_file(
        workspace, tmp_path, capsys, monkeypatch, mutate, message):
    monkeypatch.setattr("framepath.cli.train", never_train)
    doc = json.load(open(workspace["onto"]))
    mutate(doc)
    onto = tmp_path / "onto.json"
    onto.write_text(json.dumps(doc))
    assert main(["train", "--corpus", workspace["corpus"], "--ontology",
                 str(onto), "--checkpoint", str(tmp_path / "model.json"),
                 "--task", "ti", "--max-epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"error: {onto}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--max-checks", "0"],
    ["--max-checks", "-5"],
    ["--tolerance", "nan"],
    ["--tolerance", "inf"],
    ["--tolerance", "0"],
    ["--tolerance", "-0.0001"],
], ids=["max-checks-0", "max-checks-negative", "tolerance-nan",
        "tolerance-inf", "tolerance-0", "tolerance-negative"])
def test_gradcheck_bad_limits_exit_1(capsys, flags):
    assert main(["gradcheck"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == ""  # refused before any check ran
    assert "--max-checks" in err


def test_gradcheck_exit_code_follows_printed_status(capsys):
    # Nothing is below the smallest positive float but an exact zero,
    # so some task fails; the exit code must say so.
    assert main(["gradcheck", "--max-checks", "5",
                 "--tolerance", "5e-324"]) == 3
    statuses = re.findall(r"\[(ok|FAIL)\]", capsys.readouterr().out)
    assert len(statuses) == 4 and "FAIL" in statuses


@pytest.fixture(scope="module")
def lexicon(tmp_path_factory):
    """A one-epoch joint config with every dimension 4, a four-sentence
    synth corpus with and without its annotations, and its ontology."""
    root = tmp_path_factory.mktemp("lexicon")
    sentences, ontology = generate(3, 4)
    config = root / "config.json"
    config.write_text(json.dumps(dict.fromkeys(
        [f.name for f in fields(Config) if f.name.endswith("_dim")]
        + ["fi_hidden1", "fi_hidden2", "lstm_hidden"], 4)
        | {"task": "joint", "max_epochs": 1}))
    corpus, bare = root / "corpus.jsonl", root / "bare.jsonl"
    save_corpus(sentences, str(corpus))
    for sent in sentences:
        sent.annotations = []
    save_corpus(sentences, str(bare))
    return {"config": str(config), "corpora": [str(corpus), str(bare)],
            "ontology": ontology.to_dict()}


def _train_predict_eval(lexicon, doc, corpus, tmp_path,
                        tasks=("joint",)) -> list[int]:
    """Exit codes of train on doc as the ontology, then (if it trained)
    predict and eval of each task on the same corpus."""
    onto, ckpt = tmp_path / "onto.json", tmp_path / "model.json"
    onto.write_text(json.dumps(doc))
    ckpt.unlink(missing_ok=True)
    codes = [main(["train", "--corpus", corpus, "--ontology", str(onto),
                   "--checkpoint", str(ckpt), "--config", lexicon["config"]])]
    if codes[0] == 0:
        codes.append(main(["predict", "--checkpoint", str(ckpt), "--corpus",
                           corpus, "--out", str(tmp_path / "out.jsonl")]))
        codes += [main(["eval", "--checkpoint", str(ckpt), "--corpus", corpus,
                        "--task", task]) for task in tasks]
    return codes


@pytest.mark.parametrize("frames", [True, False],
                         ids=["frames-kept", "no-frames"])
def test_empty_lexicon_trains_and_predicts_no_targets(lexicon, tmp_path,
                                                      capsys, frames):
    doc = {"lu_to_frames": {}, "frame_to_elements":
           lexicon["ontology"]["frame_to_elements"] if frames else {}}
    codes = _train_predict_eval(lexicon, doc, lexicon["corpora"][1], tmp_path,
                                tasks=("ti", "fi", "srl", "joint"))
    assert codes == [0] * 6
    predicted = load_corpus(str(tmp_path / "out.jsonl"))
    assert len(predicted) == 4
    assert not any(sent.annotations for sent in predicted)
    assert "unknown lexical units" in capsys.readouterr().err


def _drop_frame(doc, rng):
    frame = rng.choice(sorted(doc["frame_to_elements"]))
    del doc["frame_to_elements"][frame]
    if rng.random() < 0.5:  # also from every lexical unit, or leave dangling
        for lu, frames in list(doc["lu_to_frames"].items()):
            if frame in frames:
                frames.remove(frame)
                if not frames and rng.random() < 0.5:
                    del doc["lu_to_frames"][lu]


def _truncate_roles(doc, rng):
    roles = doc["frame_to_elements"][rng.choice(sorted(
        doc["frame_to_elements"]))]
    del roles[rng.randrange(len(roles)):]


def _extra_frame(doc, rng):
    doc["frame_to_elements"]["Extra"] = ["Extra_role"] + rng.sample(
        sorted({r for roles in doc["frame_to_elements"].values()
                for r in roles}), 1)
    if rng.random() < 0.5:
        doc["lu_to_frames"][rng.choice(sorted(doc["lu_to_frames"]))].append(
            "Extra")


# Edits that keep the ontology's JSON types: each leaves either a
# smaller, a larger or an inconsistent lexicon.
ONTOLOGY_EDITS = {
    "lexical units emptied": lambda doc, rng: doc["lu_to_frames"].clear(),
    "frames emptied": lambda doc, rng: doc["frame_to_elements"].clear(),
    "both emptied": lambda doc, rng: (doc["lu_to_frames"].clear(),
                                      doc["frame_to_elements"].clear()),
    "lexical unit dropped": lambda doc, rng: doc["lu_to_frames"].pop(
        rng.choice(sorted(doc["lu_to_frames"]))),
    "frame dropped": _drop_frame,
    "role list truncated": _truncate_roles,
    "extra frame": _extra_frame,
}


def test_mutated_ontologies_exit_0_or_2(lexicon, tmp_path, capsys):
    # Seeded fuzz: a slot of the ontology swapped for a value of the
    # wrong type or range, or one edit that keeps its types, each on the
    # annotated and the annotation-free corpus.  train, then predict
    # and eval of what it saved, succeed or exit 2, and raise nothing.
    rng = random.Random(16)
    codes = Counter()
    for case in range(60):
        doc = copy.deepcopy(lexicon["ontology"])
        if case % 2:
            name = "slot"
            owner, key = rng.choice(list(json_slots(doc)))
            owner[key] = copy.deepcopy(rng.choice(WRONG_VALUES))
        else:
            name = rng.choice(sorted(ONTOLOGY_EDITS))
            ONTOLOGY_EDITS[name](doc, rng)
        for corpus in lexicon["corpora"]:
            run = _train_predict_eval(lexicon, doc, corpus, tmp_path)
            assert set(run) <= {0, 2}, (name, doc, corpus, run)
            codes[name, tuple(run)] += 1
            capsys.readouterr()
    assert {run for _, run in codes} >= {(2,), (0, 0, 0)}, codes
