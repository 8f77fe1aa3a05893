"""The one typed config reader: its rules, round trips of every config
dataclass, and every site that reads a config record."""

import json
import re
from dataclasses import asdict

import pytest

from slmforge.asr import BLANK_SYMBOL, CtcModel, FinetuneConfig, Vocab
from slmforge.cli import main
from slmforge.config import config_fields, read_config
from slmforge.curate import PipelineConfig
from slmforge.errors import ConfigError
from slmforge.nn import checkpoint_bytes, load_checkpoint, read_checkpoint, save_checkpoint
from slmforge.pretrain import PretrainConfig, SpeechEncoder, SpeechEncoderConfig
from slmforge.slm import (
    CausalLM,
    CausalLMConfig,
    FusionModel,
    FusionTrainConfig,
    chat_vocab,
)

CONFIGS = [
    SpeechEncoderConfig(),
    SpeechEncoderConfig(input_dim=8, dim=16, n_heads=4),
    PretrainConfig(),
    PretrainConfig(epochs=4, refresh_schedule=(1, 3), mask_prob=0.5, span_len=2,
                   max_steps=9),
    FinetuneConfig(),
    FinetuneConfig(steps=5, lr=0.5, batch_size=3),
    CausalLMConfig(vocab_size=12),
    FusionTrainConfig(),
    FusionTrainConfig(aligner_hidden=16),
    PipelineConfig(),
    PipelineConfig(separator="external:cat", sample_rate=8000),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: type(cfg).__name__)
def test_every_config_round_trips_through_its_written_json(cfg):
    assert read_config(type(cfg), json.loads(json.dumps(asdict(cfg)))) == cfg


def test_fitting_values_are_stored_as_given_and_absent_fields_default():
    # an int in a float field is kept as an int; null fits an Optional field
    got = config_fields(PretrainConfig, {"lr": 1, "max_steps": None, "k": 8})
    assert got == {"lr": 1, "max_steps": None, "k": 8}
    assert type(got["lr"]) is int
    assert read_config(PretrainConfig, {"k": 8}) == PretrainConfig(k=8)


@pytest.mark.parametrize("cls, obj, message", [
    (FinetuneConfig, {"steps": True}, "'steps' must be integer, got true (FinetuneConfig.steps)"),
    (FinetuneConfig, {"lr": "0.1"}, "'lr' must be number, got \"0.1\" (FinetuneConfig.lr)"),
    (FinetuneConfig, {"steps": None}, "'steps' must be integer, got null"),
    (FusionTrainConfig, {"aligner_hidden": 8.0}, "must be integer or null, got 8.0"),
    (PretrainConfig, {"refresh_schedule": 3}, "must be array or null, got 3"),
    (PretrainConfig, {"span_len": "2"}, "(PretrainConfig.span_len)"),
    (SpeechEncoderConfig, {"n_heads": "2"}, "must be integer, got \"2\""),
    (SpeechEncoderConfig, {"dim": 8, "foo": 1, "bar": 2},
     "unknown key(s) 'bar', 'foo' for SpeechEncoderConfig"),
    (SpeechEncoderConfig, [1, 2], "SpeechEncoderConfig must be a JSON object, got [1, 2]"),
    (CausalLMConfig, {"dim": 8}, "missing field(s) vocab_size"),
    (PipelineConfig, {"separator": 1}, "must be string, got 1"),
])
def test_misfits_are_config_errors_naming_key_and_field(cls, obj, message):
    with pytest.raises(ConfigError) as info:
        read_config(cls, obj)
    assert message in str(info.value)


def test_routed_keys_name_the_key_given_and_the_field_set():
    with pytest.raises(ConfigError, match=r"'d_lm' must be integer, got \"8\" "
                                          r"\(CausalLMConfig.dim\)"):
        config_fields(CausalLMConfig, {"d_lm": "8"}, {"d_lm": "dim"})
    with pytest.raises(ConfigError, match="unknown key"):
        config_fields(CausalLMConfig, {"dim": 8}, {"d_lm": "dim"})


# ---------------------------------------------------------------------------
# Every reader site, through the CLI


def _checkpoint_site(save, meta_key):
    """Write a checkpoint whose ``meta_key`` entry is ``obj`` as JSON."""
    def build(tmp_path, obj):
        path = tmp_path / "model.ckpt"
        save(path)
        arrays, meta = read_checkpoint(path)
        meta[meta_key] = json.dumps(obj)
        path.write_bytes(checkpoint_bytes(arrays, meta))
        return path
    return build


def _save_encoder(path):
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(input_dim=4, dim=8, n_layers=1), 3),
                    path, {})


def _save_asr(path):
    encoder = SpeechEncoder(SpeechEncoderConfig(input_dim=4, dim=8, n_layers=1), 3)
    save_checkpoint(CtcModel(encoder, Vocab.from_texts(["ab"], (BLANK_SYMBOL,))), path, {})


def _save_fusion(path):
    tok = chat_vocab("ab")
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1))
    encoder = SpeechEncoder(SpeechEncoderConfig(input_dim=4, dim=6, n_layers=1), 3)
    save_checkpoint(FusionModel(encoder, lm, tok, aligner_hidden=4), path, {})


def _config_file(tmp_path, obj):
    path = tmp_path / "aligner.json"
    path.write_text(json.dumps(obj))
    return path


# site -> (write a file holding the record, argv reading that file, key naming
# the record, config class, a field of that class and its JSON key, and values
# of the wrong type for it: a string and a bool where an integer is due, or an
# integer and a bool where a string is due)
SITES = {
    "cli": (_config_file,
            lambda p: ["train-aligner", "--config", p, "--sft", "sft.jsonl",
                       "--manifest", "m.jsonl", "--encoder", "enc.ckpt", "--out", "f.ckpt"],
            "d_lm", "CausalLMConfig", "dim", "d_lm", ("8", True)),
    "encoder": (_checkpoint_site(_save_encoder, "encoder_cfg"),
                lambda p: ["finetune-asr", "--encoder", p, "--manifest", "m.jsonl",
                           "--out", "asr.ckpt"],
                "encoder_cfg", "SpeechEncoderConfig", "dim", "dim", ("8", True)),
    "asr": (_checkpoint_site(_save_asr, "encoder_cfg"),
            lambda p: ["transcribe", "--ckpt", p, "--wav", "in.wav"],
            "encoder_cfg", "SpeechEncoderConfig", "n_layers", "n_layers", ("1", False)),
    "fusion-lm": (_checkpoint_site(_save_fusion, "lm_cfg"),
                  lambda p: ["infer", "--fusion", p, "--encoder", "enc.ckpt",
                             "--wav", "in.wav", "--task", "transcribe"],
                  "lm_cfg", "CausalLMConfig", "vocab_size", "vocab_size", ("6", True)),
}

CASES = ["wrong-type", "bool", "unknown-key", "non-object"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_reader_site_exits_2_naming_file_key_and_field(
        tmp_path, capsys, monkeypatch, site, case):
    write, argv, key, cls, field, json_key, wrong = SITES[site]
    obj = {"wrong-type": {json_key: wrong[0]}, "bool": {json_key: wrong[1]},
           "unknown-key": {"foo": 1}, "non-object": [1, 2]}[case]
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, obj)
    assert main(argv(str(path))) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    if site != "cli":  # the checkpoint entry or header key holding the record
        assert f"bad value for {key!r}" in err
    if case in ("wrong-type", "bool"):
        assert f"{json_key!r} must be" in err and f"({cls}.{field})" in err
    elif site != "cli":
        assert cls in err
    if case == "unknown-key":
        assert "'foo'" in err



@pytest.mark.parametrize("save, entry, cls", [
    (_save_encoder, "encoder_cfg", SpeechEncoder),
    (_save_asr, "encoder_cfg", CtcModel),
    (_save_fusion, "encoder_cfg", FusionModel),
    (_save_fusion, "lm_cfg", FusionModel),
])
def test_a_model_config_whose_heads_do_not_divide_dim_names_file_and_entry(
        tmp_path, save, entry, cls):
    path = tmp_path / "model.ckpt"
    save(path)
    arrays, meta = read_checkpoint(path)
    meta[entry] = json.dumps({**json.loads(meta[entry]), "dim": 30, "n_heads": 4})
    path.write_bytes(checkpoint_bytes(arrays, meta))
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: bad value for {entry!r}: dim 30 is not divisible by n_heads 4")):
        load_checkpoint(path, cls)
