import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from framepath.config import Config, ConfigError, config_from_dict, load_config

# Former fields that older configs and checkpoints still carry, at the
# only value the model implements.
RETIRED = {"gcn_mean_aggregation": False, "path_include_endpoints": True,
           "constrain_training": True}


def test_desk_defaults_valid():
    Config().validate()


def test_full_preset_valid():
    cfg = config_from_dict({"preset": "full"})
    assert cfg.token_dim == 768
    assert 2 * cfg.lstm_hidden == cfg.token_dim + cfg.pos_dim


def test_residual_rule_enforced():
    with pytest.raises(ConfigError, match="lstm_hidden"):
        Config(lstm_hidden=33).validate()


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"learning_rate": 1e-3})


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        config_from_dict({"preset": "huge"})


def test_override_beats_preset():
    cfg = config_from_dict({"preset": "full", "dropout": 0.0})
    assert cfg.dropout == 0.0
    assert cfg.lr == 2e-5


@pytest.mark.parametrize("bad", [
    {"task": "parse"},
    {"dropout": 1.0},
    {"dropout": -0.1},
    {"lr": -1.0},
    {"batch_size": 0},
    {"scheduler_factor": 0.0},
    {"beta1": 1.0},
    {"weight_decay": -1.0},
    {"seed": -1},
    {"lr": float("nan")},
    {"lr": float("inf")},
    {"grad_clip": float("inf")},
    {"stop_metric": float("nan")},
    {"batch_size": float("inf")},
])
def test_invalid_values_rejected(bad):
    with pytest.raises(ConfigError):
        config_from_dict(bad)


def test_load_config_file_and_overrides(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"seed": 5, "task": "ti"}))
    cfg = load_config(str(p), overrides={"task": "fi"})
    assert cfg.seed == 5
    assert cfg.task == "fi"


def test_load_config_rejects_non_object(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(p))


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(p))


def test_round_trip_through_dict():
    cfg = Config(seed=9, task="srl", use_gcn=False)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_retired_keys_accepted_at_their_old_value(tmp_path):
    old = {**Config(seed=3, task="srl").to_dict(), **RETIRED}
    assert config_from_dict(old) == Config(seed=3, task="srl")
    p = tmp_path / "old.json"
    p.write_text(json.dumps(old))
    assert load_config(str(p)) == Config(seed=3, task="srl")


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_retired_key_rejected_at_another_value(key, tmp_path):
    for value in (not RETIRED[key], int(RETIRED[key]), None):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({key: value})
    p = tmp_path / "c.json"
    p.write_text(json.dumps({key: not RETIRED[key]}))
    with pytest.raises(ConfigError, match=key):
        load_config(str(p))


def test_configuration_doc_lists_every_field_once():
    doc = Path(__file__).resolve().parents[1] / "docs" / "configuration.md"
    names = []
    for line in doc.read_text().splitlines():
        if line.startswith("| `"):  # a table row naming fields
            names += re.findall(r"`(\w+)`", line.split("|")[1])
    assert sorted(names) == sorted(f.name for f in fields(Config))
