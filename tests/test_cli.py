import hashlib
import json

import pytest

from framepath.cli import main
from framepath.corpus import load_corpus, load_ontology


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


@pytest.mark.parametrize("entry, corrupt", [
    ("params", lambda doc: doc.update(params={})),
    ("params", _set_first_param_shape),
    ("vocab", lambda doc: doc.update(vocab={})),
    ("vocab", lambda doc: doc.update(vocab=3)),
    ("ontology", lambda doc: doc.update(ontology={"lu_to_frames": {}})),
    ("config", lambda doc: doc["config"].update(lstm_hidden=0)),
    (None, None),  # not JSON at all
], ids=["empty-params", "wrong-shape", "empty-vocab", "vocab-not-object",
        "ontology-without-roles", "invalid-config", "not-json"])
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
        assert want in capsys.readouterr().err


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


def test_gradcheck_exits_0():
    assert main(["gradcheck", "--task", "joint", "--max-checks", "40"]) == 0


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


def test_checkpoint_path_that_is_a_directory_exits_2(workspace, tmp_path,
                                                    capsys):
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["train", "--corpus", workspace["corpus"],
                 "--ontology", workspace["onto"], "--checkpoint",
                 str(target), "--task", "ti", "--max-epochs", "1"]) == 2
    assert str(target) in capsys.readouterr().err
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

