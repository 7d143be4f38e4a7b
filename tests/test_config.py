from dataclasses import fields

import pytest

from holdscan.classifier import FeatureSpec, TrainConfig
from holdscan.compliance import AuditConfig
from holdscan.config import RunConfig, load_run_config, with_overrides

# A non-default value of the declared type for every RunConfig field.
SAMPLES = {
    "seed": 7,
    "folds": 5,
    "test_fold": 2,
    "split_mode": "call_grouped",
    "epochs": 3,
    "batch_size": 8,
    "learning_rate": 0.25,
    "weight_decay": 0.5,
    "class_weights": (0.05, 1.0, 2.0),
    "hash_dim": 4096,
    "char_ngram_min": 1,
    "char_ngram_max": 5,
    "word_unigrams": False,
    "lowercase": False,
    "max_tokens": 64,
    "pre_window_ms": 1000,
    "post_window_ms": 2000,
    "grace_ms": 500,
    "threshold": 0.375,
    "calls": 50,
}


def test_every_field_has_a_sample():
    assert set(SAMPLES) == {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_config_file_round_trip(name, tmp_path):
    value = SAMPLES[name]
    assert value != getattr(RunConfig(), name)
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {text}\n")
    loaded = getattr(load_run_config(path), name)
    assert loaded == value
    assert type(loaded) is type(value)
    if isinstance(value, tuple):
        assert all(type(x) is float for x in loaded)


@pytest.mark.parametrize("text", ["yes", "1", "TRUE"])
def test_bool_spellings(text, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"lowercase = {text}\nword_unigrams = no\n")
    cfg = load_run_config(path)
    assert cfg.lowercase is True and cfg.word_unigrams is False


@pytest.mark.parametrize("line", ["lowercase = maybe", "class_weights = 1,2", "folds = 2.5"])
def test_bad_values_raise_value_error(line, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError):
        load_run_config(path)


def test_class_weights_flag_string_is_parsed():
    cfg = with_overrides(RunConfig(), class_weights="0.1,1,1", seed=None)
    assert cfg.class_weights == (0.1, 1.0, 1.0)
    assert cfg.seed is None


def test_defaults_match_the_configs_they_build():
    assert RunConfig().feature_spec() == FeatureSpec()
    assert RunConfig().audit_config() == AuditConfig()
    for seed in (0, 7):
        assert RunConfig(seed=seed).train_config() == TrainConfig(seed=seed)
