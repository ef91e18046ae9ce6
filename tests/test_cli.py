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
                 "--corpus", workspace["corpus"], "--gold-targets"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report) == 1
    assert report[0]["task"] == "fi"
    assert "accuracy" in report[0]
    assert "f1" not in report[0]


def test_eval_gold_frames_reports_srl(workspace, capsys):
    assert main(["eval", "--checkpoint", workspace["ckpt"],
                 "--corpus", workspace["corpus"], "--gold-frames"]) == 0
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


def test_unseen_pos_tag_exits_2_naming_the_line(workspace, tmp_path,
                                                capsys):
    lines = open(workspace["corpus"]).read().splitlines()
    record = json.loads(lines[1])
    record["pos"][0] = "XX"
    old = record["tree"].split()[2]          # "(NNP" or similar
    record["tree"] = record["tree"].replace(old, "(XX", 1)
    unseen = tmp_path / "unseen.jsonl"
    # A blank line first: the reported line is the file's, not the index.
    unseen.write_text("\n".join(["", lines[0], json.dumps(record)]) + "\n")
    for command in ("predict", "eval"):
        assert main([command, "--checkpoint", workspace["ckpt"],
                     "--corpus", str(unseen)]) == 2
        err = capsys.readouterr().err
        assert f"{unseen}:3:" in err and "'XX'" in err


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
