"""CLI surface: exit codes, subcommand wiring, reproducibility."""

import argparse
import json
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env

from slmforge.audio import write_wav
from slmforge.asr import CtcModel, Vocab
from slmforge.cli import CONFIG_KEYS, _config_fields, main
from slmforge.config import config_hash
from slmforge.curate import Manifest
from slmforge.nn import checkpoint_bytes, load_checkpoint, read_checkpoint, save_checkpoint
from slmforge.pretrain import PretrainConfig, SpeechEncoder, SpeechEncoderConfig
from slmforge.slm import (
    MODES, CausalLM, CausalLMConfig, CharTokenizer, FusionModel, SpeechAligner,
)
from slmforge.synth import concat_buffers, silence, sine

ALL_COMMANDS = (
    "curate", "pretrain", "finetune-asr", "transcribe", "build-sft",
    "train-aligner", "infer", "eval", "report",
)


def _speechy(path, freq=440.0, bursts=10):
    parts = [silence(0.5)]
    for _ in range(bursts):
        parts.extend([sine(freq, 0.3, amplitude=0.4), silence(0.08)])
    parts.append(silence(0.5))
    write_wav(path, concat_buffers(parts))


def test_help_lists_all_subcommands_exit_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "slmforge", "--help"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 0
    for command in ALL_COMMANDS:
        assert command in proc.stdout


def test_every_subcommand_has_help(capsys):
    # in process; test_help_lists_all_subcommands_exit_zero covers the entry point
    for command in ALL_COMMANDS:
        assert main([command, "--help"]) == 0, command
        assert "usage" in capsys.readouterr().out.lower(), command


def test_bogus_subcommand_exit_one():
    proc = subprocess.run(
        [sys.executable, "-m", "slmforge", "bogus"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 1


def test_no_subcommand_exit_one():
    assert main([]) == 1


def test_missing_input_file_is_runtime_error(tmp_path):
    rc = main(["eval", "--refs", str(tmp_path / "no.txt"),
               "--hyps", str(tmp_path / "nope.txt")])
    assert rc == 2


def test_curate_writes_manifest(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    _speechy(wav)
    out = tmp_path / "m.jsonl"
    rc = main(["curate", "--out", str(out), str(wav)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["__header__"] is True
    assert header["n_kept"] == len(lines) - 1 >= 1


def test_curate_reproducible_byte_identical(tmp_path):
    wav = tmp_path / "in.wav"
    _speechy(wav)
    out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
    assert main(["curate", "--out", str(out1), str(wav)]) == 0
    assert main(["curate", "--out", str(out2), str(wav)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_curate_bad_config_key_is_runtime_error(tmp_path):
    wav = tmp_path / "in.wav"
    _speechy(wav)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"not_a_key": 1}')
    rc = main(["curate", "--config", str(cfg), "--out",
               str(tmp_path / "m.jsonl"), str(wav)])
    assert rc == 2


def test_curate_too_low_sample_rate_exits_2_naming_the_key_before_reading(
        tmp_path, monkeypatch, capsys):
    def no_read(path):
        raise AssertionError(f"read {path}")
    monkeypatch.setattr("slmforge.curate.read_wav", no_read)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample_rate": 40}))
    assert main(["curate", "--config", str(cfg), "--out", str(tmp_path / "m.jsonl"),
                 str(tmp_path / "in.wav")]) == 2
    err = capsys.readouterr().err
    assert "'sample_rate': sample rate 40 Hz is too low" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rate", [22050, 48000])
def test_curate_at_rates_whose_frame_exceeds_512_samples(tmp_path, rate):
    wav, out, cfg = tmp_path / "in.wav", tmp_path / "m.jsonl", tmp_path / "cfg.json"
    _speechy(wav)
    cfg.write_text(json.dumps({"sample_rate": rate}))
    assert main(["curate", "--config", str(cfg), "--out", str(out), str(wav)]) == 0
    records = Manifest.read(out).records
    assert records and all(r.sample_rate == rate for r in records)


def test_transcribe_at_22050_hz(tmp_path, capsys):
    ckpt, wav = tmp_path / "asr.ckpt", tmp_path / "in.wav"
    encoder = SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3)
    save_checkpoint(CtcModel(encoder, Vocab.from_texts(["ab"])), ckpt, {})
    _speechy(wav, bursts=3)
    assert main(["transcribe", "--ckpt", str(ckpt), "--wav", str(wav),
                 "--sample-rate", "22050"]) == 0


def _no_read(path, *args):
    raise AssertionError(f"read {path}")


@pytest.mark.parametrize("rate", ["40", "0"])
@pytest.mark.parametrize("argv", [
    ["transcribe", "--ckpt", "asr.ckpt", "--wav", "in.wav"],
    ["infer", "--fusion", "fusion.ckpt", "--encoder", "enc.ckpt", "--wav", "in.wav",
     "--task", "transcribe"],
], ids=["transcribe", "infer"])
def test_unusable_sample_rate_exits_2_naming_the_flag_before_opening_a_file(
        monkeypatch, capsys, argv, rate):
    monkeypatch.setattr("slmforge.cli.load_checkpoint", _no_read)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    assert main([*argv, "--sample-rate", rate]) == 2
    assert f"--sample-rate: sample rate {rate} Hz is too low" in capsys.readouterr().err


@pytest.mark.parametrize("tokens", ["0", "-3"])
def test_infer_max_tokens_below_one_exits_2_naming_the_flag_before_opening_a_file(
        monkeypatch, capsys, tokens):
    monkeypatch.setattr("slmforge.cli.load_checkpoint", _no_read)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    assert main(["infer", "--fusion", "fusion.ckpt", "--wav", "in.wav", "--task",
                 "transcribe", "--max-tokens", tokens]) == 2
    captured = capsys.readouterr()
    assert f"--max-tokens must be at least 1, got {tokens}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("metrics, cause", [
    ("", "--metrics names no metric"),
    (" , ", "--metrics names no metric"),
    ("wer,bleu", "--metrics: unknown metrics: ['bleu']"),
])
def test_eval_metrics_naming_no_known_metric_exits_2_naming_the_flag(
        monkeypatch, capsys, metrics, cause):
    monkeypatch.setattr("slmforge.cli.read_text", _no_read)
    assert main(["eval", "--refs", "refs.txt", "--hyps", "hyps.txt",
                 "--metrics", metrics]) == 2
    captured = capsys.readouterr()
    assert cause in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("modes, cause", [
    ("", "--modes names no mode"),
    (" , ", "--modes names no mode"),
    ("transcribe,x", "--modes: unknown modes: ['x']"),
])
def test_build_sft_modes_naming_no_known_mode_exits_2_naming_the_flag(
        monkeypatch, capsys, modes, cause):
    monkeypatch.setattr("slmforge.cli.Manifest.read", _no_read)
    assert main(["build-sft", "--manifest", "m.jsonl", "--out", "sft.jsonl",
                 "--modes", modes]) == 2
    captured = capsys.readouterr()
    assert cause in captured.err
    assert "choose from " + ", ".join(MODES) in captured.err
    assert captured.out == ""


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_pins_blas_threads_unless_set(preset):
    env = {k: v for k, v in cli_env().items() if k not in BLAS_VARS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, slmforge; "
            f"print(' '.join(os.environ[k] for k in {BLAS_VARS!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == [preset or "1", "1", "1"]


def test_eval_and_report_round_trip(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("Hello, World!\nwaaw\n")
    hyps.write_text("hello world\nwaaw\n")
    out = tmp_path / "report.json"
    rc = main(["eval", "--refs", str(refs), "--hyps", str(hyps),
               "--metrics", "wer,cer,chrf", "--out", str(out), "--name", "toy"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "WER" in captured and "0.00" in captured
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["wer"] == 0.0
    assert "config_hash" in payload


def test_eval_normalization_off_switch(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("Hello!\n")
    hyps.write_text("hello\n")
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                 "--metrics", "wer"]) == 0
    normalized = capsys.readouterr().out
    assert "0.00" in normalized

    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                 "--metrics", "wer", "--no-normalize"]) == 0
    raw = capsys.readouterr().out
    assert "1.00" in raw


def test_eval_external_scores_adds_bs_column(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("waaw\n")
    hyps.write_text("waaw\n")
    scores = tmp_path / "bs.json"
    scores.write_text('{"bs_f1": 79.78}')
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                 "--metrics", "chrf", "--external-scores", str(scores)]) == 0
    out = capsys.readouterr().out
    assert "BS-F1" in out and "79.78" in out


@pytest.mark.parametrize("content", [
    '{"bs_f1": null}', '{"bs_f1": true}', '{"bs_f1": "79.78"}', '{}', '[79.78]',
])
def test_eval_external_scores_without_a_number_bs_f1_names_file_and_key(
        tmp_path, capsys, content):
    refs = tmp_path / "refs.txt"
    refs.write_text("waaw\n")
    scores = tmp_path / "bs.json"
    scores.write_text(content)
    assert main(["eval", "--refs", str(refs), "--hyps", str(refs),
                 "--external-scores", str(scores)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{scores}: " in captured.err and "'bs_f1'" in captured.err


def test_report_renders_rows_file(tmp_path, capsys):
    rows = [
        {"name": "ours", "wer": 35.65, "hours": "960 -> 860"},
        {"name": "base", "wer": 39.48, "hours": "960"},
    ]
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    assert main(["report", "--rows", str(path)]) == 0
    out = capsys.readouterr().out
    assert "35.65" in out and "39.48" in out and "hours" in out


@pytest.mark.parametrize("row, cause", [
    ({"wer": 1.0}, "string 'name'"),
    (["ours", 1.0], "not a JSON object"),
    ({"name": "ours", "wer": "x"}, "wer must be a number"),
])
def test_report_bad_row_is_runtime_error_naming_its_index(tmp_path, capsys, row, cause):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([{"name": "fine", "wer": 2.0}, row]))
    assert main(["report", "--rows", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path} row 1: " in err and cause in err


def test_eval_out_into_missing_directory_names_the_given_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("refs.txt", "hyps.txt"):
        (tmp_path / name).write_text("waaw\n")
    assert main(["eval", "--refs", "refs.txt", "--hyps", "hyps.txt",
                 "--out", "nodir/x.json"]) == 2
    err = capsys.readouterr().err
    assert "nodir/x.json" in err and ".tmp" not in err


def test_train_aligner_sft_example_without_final_is_runtime_error(tmp_path, capsys):
    sft = tmp_path / "sft.jsonl"
    example = {"audio_id": "a", "mode": "transcribe", "text": "ab", "loss_mask": [0, 1]}
    sft.write_text(json.dumps({"__header__": True, "charset": "ab"}) + "\n"
                   + json.dumps(example) + "\n")
    assert main(["train-aligner", "--sft", str(sft), "--manifest", "none.jsonl",
                 "--encoder", "none.ckpt", "--out", str(tmp_path / "f.ckpt")]) == 2
    err = capsys.readouterr().err
    assert f"{sft} line 2: missing field(s) final" in err


MANIFEST_RUN = ["pretrain", "--manifest", "rows.jsonl", "--out", "enc.ckpt"]
SFT_RUN = ["train-aligner", "--sft", "rows.jsonl", "--manifest", "none.jsonl",
           "--encoder", "none.ckpt", "--out", "f.ckpt"]


@pytest.mark.parametrize("argv, key, value, expected", [
    (MANIFEST_RUN, "offset_s", "abc", "number"),
    (MANIFEST_RUN, "sample_rate", "16000", "integer"),
    (MANIFEST_RUN, "duration_s", None, "number"),
    (SFT_RUN, "text", 5, "string"),
    (SFT_RUN, "audio_id", ["a"], "string"),
])
def test_mistyped_manifest_or_sft_row_exits_2_naming_file_line_and_key(
        tmp_path, monkeypatch, capsys, manifest, argv, key, value, expected):
    monkeypatch.chdir(tmp_path)
    if argv is MANIFEST_RUN:
        header, row = manifest.read_text().splitlines()[:2]
        row = json.loads(row)
    else:
        header = json.dumps({"__header__": True, "charset": "ab"})
        row = {"audio_id": "a", "mode": "transcribe", "text": "ab", "loss_mask": [0, 1],
               "final": "ab"}
    row[key] = value
    Path("rows.jsonl").write_text(header + "\n" + json.dumps(row) + "\n")
    assert main(argv) == 2
    assert (f"rows.jsonl line 2: {key!r} must be {expected}, got {json.dumps(value)}"
            in capsys.readouterr().err)


def _encoder_checkpoint(path, edit):
    """An encoder checkpoint whose metadata ``edit`` has changed."""
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(input_dim=4, dim=8, n_layers=1), 3),
                    path, {})
    arrays, meta = read_checkpoint(path)
    edit(meta)
    path.write_bytes(checkpoint_bytes(arrays, meta))


@pytest.mark.parametrize("edit, cause", [
    (lambda meta: meta.pop("encoder_cfg"), "missing key 'encoder_cfg'"),
    (lambda meta: meta.pop("n_classes"), "missing key 'n_classes'"),
    (lambda meta: meta.update(encoder_cfg='{"foo": 1}'), "bad value for 'encoder_cfg'"),
])
def test_finetune_asr_bad_encoder_metadata_is_runtime_error(tmp_path, capsys, edit, cause):
    enc = tmp_path / "enc.ckpt"
    _encoder_checkpoint(enc, edit)
    assert main(["finetune-asr", "--manifest", "none.jsonl", "--encoder", str(enc),
                 "--out", str(tmp_path / "asr.ckpt")]) == 2
    err = capsys.readouterr().err
    assert f"{enc}: {cause}" in err


@pytest.mark.parametrize("beam", ["0", "-1"])
def test_transcribe_beam_below_one_is_runtime_error(tmp_path, capsys, beam):
    ckpt, wav = tmp_path / "asr.ckpt", tmp_path / "in.wav"
    encoder = SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3)
    save_checkpoint(CtcModel(encoder, Vocab.from_texts(["ab"])), ckpt, {})
    _speechy(wav, bursts=3)
    assert main(["transcribe", "--ckpt", str(ckpt), "--wav", str(wav),
                 "--beam", beam]) == 2
    assert f"beam_width must be >= 1, got {beam}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("curated")
    wav = root / "in.wav"
    _speechy(wav)
    out = root / "m.jsonl"
    assert main(["curate", "--out", str(out), str(wav)]) == 0
    return out


def _tiny_pretrain(tmp_path, manifest, *flags):
    """Run a one-step pretrain and return its checkpoint metadata."""
    cfg = tmp_path / "pretrain.json"
    cfg.write_text('{"max_steps": 1, "k": 4}')
    out = tmp_path / "enc.ckpt"
    assert main(["pretrain", "--manifest", str(manifest), "--config", str(cfg),
                 "--out", str(out), *flags]) == 0
    return read_checkpoint(out)[1]


def test_seed_env_override(tmp_path, monkeypatch, manifest):
    monkeypatch.setenv("SLMFORGE_SEED", "7")
    assert json.loads(_tiny_pretrain(tmp_path, manifest)["config"])["seed"] == 7
    meta = _tiny_pretrain(tmp_path, manifest, "--seed", "3")
    assert json.loads(meta["config"])["seed"] == 3


def test_checkpoint_embeds_resolved_config_and_its_hash(tmp_path, monkeypatch, manifest):
    monkeypatch.delenv("SLMFORGE_SEED", raising=False)
    meta = _tiny_pretrain(tmp_path, manifest)
    embedded = json.loads(meta["config"])
    expected = {
        "SpeechEncoderConfig": asdict(SpeechEncoderConfig()),
        "PretrainConfig": asdict(PretrainConfig(max_steps=1, k=4)),
        "seed": 0,
    }
    assert embedded == json.loads(json.dumps(expected))
    assert embedded["PretrainConfig"]["epochs"] == 33  # a default the file did not set
    assert meta["config_hash"] == config_hash(embedded)


NEEDED_ARGS = {
    "pretrain": ["--manifest", "m.jsonl", "--out", "enc.ckpt"],
    "finetune-asr": ["--manifest", "m.jsonl", "--encoder", "enc.ckpt", "--out", "asr.ckpt"],
    "train-aligner": ["--sft", "sft.jsonl", "--manifest", "m.jsonl",
                      "--encoder", "enc.ckpt", "--out", "fusion.ckpt"],
}


# "seed" too: the seed comes only from --seed or SLMFORGE_SEED
@pytest.mark.parametrize("key", ["epochz", "seed"])
@pytest.mark.parametrize("command", sorted(NEEDED_ARGS))
def test_misspelt_config_key_is_runtime_error_naming_it(tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    # the config is checked before any input is opened
    assert main([command, "--config", str(cfg), *NEEDED_ARGS[command]]) == 2
    assert repr(key) in capsys.readouterr().err


# (key, value, expected JSON type) per training subcommand
BAD_TYPES = {
    "pretrain": [("epochs", "3", "integer"), ("epochs", True, "integer"),
                 ("epochs", None, "integer"), ("lr", "0.1", "number"),
                 ("refresh_schedule", 3, "array or null"),
                 ("max_steps", 1.0, "integer or null")],
    "finetune-asr": [("steps", "3", "integer"), ("lr", False, "number"),
                     ("batch_size", [2], "integer")],
    "train-aligner": [("steps", "3", "integer"), ("aligner_hidden", "8", "integer or null"),
                      ("d_lm", 16.0, "integer")],
}


@pytest.mark.parametrize("command", sorted(BAD_TYPES))
def test_config_value_of_wrong_type_is_runtime_error_naming_key_and_type(
        tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    for key, value, expected in BAD_TYPES[command]:
        cfg.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(cfg), *NEEDED_ARGS[command]]) == 2
        err = capsys.readouterr().err
        assert f"{key!r} must be {expected}, got {json.dumps(value)}" in err


def test_config_values_of_fitting_types_are_kept_as_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    given = {"epochs": 2, "lr": 1, "batch_seconds": 2.5, "refresh_schedule": [1],
             "max_steps": None, "mask_prob": 0}
    cfg.write_text(json.dumps(given))
    got = _config_fields(argparse.Namespace(command="pretrain", config=str(cfg)))
    merged = got[PretrainConfig]
    assert merged == given
    assert [type(merged[k]) for k in given] == [type(v) for v in given.values()]


@pytest.mark.parametrize("argv", [
    ["transcribe", "--jobs", "2", "--ckpt", "asr.ckpt", "--wav", "in.wav"],
    ["curate", "--jobs", "2", "--out", "m.jsonl", "in.wav"],
    ["eval", "--seed", "1", "--refs", "refs.txt", "--hyps", "hyps.txt"],
    ["curate", "--seed", "1", "--out", "m.jsonl", "in.wav"],
    ["curate", "--deterministic", "--out", "m.jsonl", "in.wav"],
    ["pretrain", "--jobs", "2", "--manifest", "m.jsonl", "--out", "enc.ckpt"],
    ["curate", "--sample-rate", "8000", "--out", "m.jsonl", "in.wav"],
])
def test_dropped_flag_is_usage_error(argv):
    assert main(argv) == 1


@pytest.mark.parametrize("command, flags", [
    ("finetune-asr", ["--lexicon", "lex.json", "--language", "en"]),
    ("eval", ["--lexicon", "lex.json", "--language", "en"]),
    ("eval", ["--no-normalize", "--lexicon", "lex.json"]),
    ("eval", ["--no-normalize", "--language", "en"]),
])
def test_competing_normalization_flags_are_a_usage_error(capsys, command, flags):
    needed = {"finetune-asr": NEEDED_ARGS["finetune-asr"],
              "eval": ["--refs", "refs.txt", "--hyps", "hyps.txt"]}[command]
    assert main([command, *needed, *flags]) == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("lexicon, named", [
    ({"1": 5}, "'1'"),
    ({"1": ["one"]}, "'1'"),
    ({"1": "one", "x": "ex"}, "'x'"),
    (["1"], "JSON object"),
])
def test_eval_lexicon_that_is_not_digits_to_words_names_file_and_key(
        tmp_path, capsys, lexicon, named):
    refs, lex = tmp_path / "refs.txt", tmp_path / "lex.json"
    refs.write_text("waaw 1\n")
    lex.write_text(json.dumps(lexicon))
    assert main(["eval", "--refs", str(refs), "--hyps", str(refs),
                 "--lexicon", str(lex)]) == 2
    err = capsys.readouterr().err
    assert f"lexicon {lex}" in err and named in err


def test_eval_language_flag_selects_the_builtin_lexicon(tmp_path, capsys):
    refs, hyps = tmp_path / "refs.txt", tmp_path / "hyps.txt"
    refs.write_text("2 ab\n")
    hyps.write_text("two ab\n")
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--metrics", "wer",
                 "--language", "en"]) == 0
    assert "0.00" in capsys.readouterr().out
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--metrics", "wer",
                 "--language", "xx"]) == 2
    assert "no built-in lexicon for language 'xx'" in capsys.readouterr().err


def test_freeze_encoder_steps_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"freeze_encoder_steps": 5}))
    argv = ["finetune-asr", "--config", str(cfg), *NEEDED_ARGS["finetune-asr"]]
    assert main(argv) == 2
    assert "unknown config key(s) 'freeze_encoder_steps'" in capsys.readouterr().err


def _transcribed(manifest, path):
    """A copy of ``manifest`` at ``path`` whose records all read "ab"."""
    m = Manifest.read(manifest)
    for rec in m.records:
        rec.transcript = "ab"
    m.write(path)
    return m.records[0].id


def test_finetune_asr_on_an_encoder_with_fewer_mels_than_13(tmp_path, manifest):
    man, enc, cfg = tmp_path / "m.jsonl", tmp_path / "enc.ckpt", tmp_path / "ft.json"
    _transcribed(manifest, man)
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=8, n_layers=1), 3),
                    enc, {})
    cfg.write_text(json.dumps({"steps": 1}))
    assert main(["finetune-asr", "--manifest", str(man), "--encoder", str(enc),
                 "--config", str(cfg), "--out", str(tmp_path / "asr.ckpt")]) == 0


def test_train_aligner_ignores_a_stale_template_header_entry(tmp_path, manifest):
    # older SFT headers held the chat markers; an empty one made encode hang
    man, enc, sft = tmp_path / "m.jsonl", tmp_path / "enc.ckpt", tmp_path / "plain.jsonl"
    _transcribed(manifest, man)
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), enc, {})
    assert main(["build-sft", "--manifest", str(man), "--out", str(sft)]) == 0
    header, *rows = sft.read_text().splitlines(keepends=True)
    stale = json.loads(header)
    stale["template"] = {"user_marker": ""}
    (tmp_path / "stale.jsonl").write_text(json.dumps(stale) + "\n" + "".join(rows))
    cfg = tmp_path / "aligner.json"
    cfg.write_text(json.dumps({"steps": 1, "lm_steps": 1, "d_lm": 8, "lm_layers": 1}))
    outputs = []
    for name in ("plain", "stale"):
        sft, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.ckpt"
        proc = subprocess.run(
            [sys.executable, "-m", "slmforge", "train-aligner", "--sft", str(sft),
             "--manifest", str(man), "--encoder", str(enc), "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env=cli_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_infer_ignores_stale_fusion_checkpoint_entries(tmp_path, manifest, capsys):
    enc, fusion = tmp_path / "enc.ckpt", tmp_path / "fusion.ckpt"
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), enc, {})
    tok = CharTokenizer("Transcribe the audio.")
    lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=8, n_layers=1))
    save_checkpoint(FusionModel(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), lm,
                                SpeechAligner(8, 8, hidden=4), tok), fusion, {})
    argv = ["infer", "--fusion", str(fusion), "--encoder", str(enc), "--wav",
            Manifest.read(manifest).records[0].source_path, "--task", "transcribe",
            "--max-tokens", "5"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    # entries older fusion checkpoints held, with values their readers rejected
    arrays, meta = read_checkpoint(fusion)
    meta.update(template=json.dumps({"user_marker": ""}), aligner_d_lm="x",
                layer_sel=json.dumps(["a"]))
    fusion.write_bytes(checkpoint_bytes(arrays, meta))
    assert main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("extra", ["ÀÁÂÃÄÅÆÇÈÉ", "0123456789"])
def test_infer_on_a_charset_that_does_not_fit_the_lm_names_file_and_charset(
        tmp_path, manifest, capsys, extra):
    enc, fusion = tmp_path / "enc.ckpt", tmp_path / "fusion.ckpt"
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), enc, {})
    tok = CharTokenizer("Transcribe the audio.")
    lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=8, n_layers=1))
    save_checkpoint(FusionModel(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), lm,
                                SpeechAligner(8, 8, hidden=4), tok), fusion, {})
    arrays, meta = read_checkpoint(fusion)
    meta["charset"] += extra
    fusion.write_bytes(checkpoint_bytes(arrays, meta))
    assert main(["infer", "--fusion", str(fusion), "--encoder", str(enc), "--wav",
                 Manifest.read(manifest).records[0].source_path, "--task", "transcribe",
                 "--max-tokens", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{fusion}: bad value for 'charset': its tokenizer has "
            f"{tok.vocab_size + len(extra)} symbols, but lm_cfg has vocab_size "
            f"{tok.vocab_size}") in captured.err


def test_pretrain_with_fewer_mels_than_mfccs_fails_before_reading_audio(
        tmp_path, monkeypatch, capsys, manifest):
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    cfg = tmp_path / "pretrain.json"
    cfg.write_text(json.dumps({"n_mels": 8, "max_steps": 1, "k": 4}))
    assert main(["pretrain", "--manifest", str(manifest), "--config", str(cfg),
                 "--out", str(tmp_path / "enc.ckpt")]) == 2
    err = capsys.readouterr().err
    assert f"config {cfg}: 'n_mels' 8 is below the 13 MFCCs" in err


@pytest.mark.parametrize("kind", ["asr", "fusion"])
def test_pretrain_init_from_another_checkpoint_kind_names_file_and_kind(
        tmp_path, monkeypatch, capsys, manifest, kind):
    init = tmp_path / f"{kind}.ckpt"
    encoder = SpeechEncoder(SpeechEncoderConfig(), 4)
    if kind == "asr":
        model = CtcModel(encoder, Vocab.from_texts(["ab"]))
    else:
        tok = CharTokenizer("ab")
        lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=8, n_layers=1))
        model = FusionModel(encoder, lm, SpeechAligner(64, 8, hidden=4), tok)
    save_checkpoint(model, init, {})
    cfg = tmp_path / "pretrain.json"
    cfg.write_text('{"max_steps": 1, "k": 4}')
    # the --init checkpoint is checked before the corpus is read
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    assert main(["pretrain", "--manifest", str(manifest), "--config", str(cfg),
                 "--init", str(init), "--out", str(tmp_path / "enc.ckpt")]) == 2
    err = capsys.readouterr().err
    assert f"{init}: checkpoint kind {kind!r} is not 'encoder'" in err


@pytest.mark.parametrize("config, field, stored, resolved", [
    ({"n_mels": 20}, "input_dim", 40, 20),
    ({"k": 5}, "n_classes", 4, 5),
])
def test_pretrain_init_whose_model_differs_from_the_config_names_file_and_field(
        tmp_path, monkeypatch, capsys, manifest, config, field, stored, resolved):
    init = tmp_path / "init.ckpt"
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(), 4), init, {})
    cfg = tmp_path / "pretrain.json"
    cfg.write_text(json.dumps({"max_steps": 1, "k": 4, **config}))
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    assert main(["pretrain", "--manifest", str(manifest), "--config", str(cfg),
                 "--init", str(init), "--out", str(tmp_path / "enc.ckpt")]) == 2
    err = capsys.readouterr().err
    assert f"{init}: encoder {field} {stored} differs from the config's {resolved}" in err


def _readme_config_keys():
    """{subcommand: {key: (dataclass name, field)}} from README's key table."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | keys | dataclass |") + 2
    table, command = {}, None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, keys, owner = (cell.strip() for cell in line.strip("|").split("|"))
        command = first.strip("`") or command
        keys, _, renamed = keys.partition("(its ")
        keys, names = re.findall(r"`(\w+)`", keys), re.findall(r"`(\w+)`", renamed)
        for key, name in zip(keys, names or keys):
            table.setdefault(command, {})[key] = (owner.strip("`"), name)
    return table


@pytest.mark.parametrize("command", ["pretrain", "finetune-asr", "train-aligner"])
def test_readme_config_key_table_lists_exactly_the_accepted_keys(command):
    accepted = {key: (cls.__name__, name) for key, (cls, name) in CONFIG_KEYS[command].items()}
    assert _readme_config_keys()[command] == accepted


def _readme_artifact_entries():
    """{artifact: [entry, ...]} from README's table of stored entries."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| artifact | entries |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        artifact, entries = (cell.strip() for cell in line.strip("|").split("|"))
        table[artifact] = re.findall(r"`(\w+)`", entries)
    return table


# the artifact-producing subcommands, run in one directory on tiny models
TRAINING_ARGV = (
    ["pretrain", "--config", "pre.json", "--out", "encoder.ckpt"],
    ["finetune-asr", "--encoder", "encoder.ckpt", "--config", "ft.json", "--out", "asr.ckpt"],
    ["build-sft", "--out", "sft.jsonl"],
    ["train-aligner", "--sft", "sft.jsonl", "--encoder", "encoder.ckpt",
     "--config", "al.json", "--out", "fusion.ckpt"],
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, manifest):
    """A directory holding m.jsonl, the tiny configs and every artifact the
    training subcommands write from them."""
    root = tmp_path_factory.mktemp("trained")
    _transcribed(manifest, root / "m.jsonl")
    (root / "pre.json").write_text('{"max_steps": 1, "k": 4, "dim": 8, "n_layers": 1}')
    (root / "ft.json").write_text('{"steps": 1}')
    (root / "al.json").write_text('{"steps": 1, "lm_steps": 1, "d_lm": 8, "lm_layers": 1}')
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in TRAINING_ARGV:
            assert main([*argv, "--manifest", "m.jsonl"]) == 0
    return root


def test_every_checkpoint_read_is_one_load_checkpoint_call(trained, monkeypatch):
    monkeypatch.chdir(trained)
    wav = Manifest.read("m.jsonl").records[0].source_path
    loads = []

    def counting_load(path, cls):
        loads.append((path, cls.__name__))
        return load_checkpoint(path, cls)

    monkeypatch.setattr("slmforge.cli.load_checkpoint", counting_load)
    encoder = ("encoder.ckpt", "SpeechEncoder")
    for argv, want in (
        (["finetune-asr", "--manifest", "m.jsonl", "--encoder", "encoder.ckpt",
          "--config", "ft.json", "--out", "asr2.ckpt"], [encoder]),
        (["train-aligner", "--sft", "sft.jsonl", "--manifest", "m.jsonl",
          "--encoder", "encoder.ckpt", "--config", "al.json", "--out", "fusion2.ckpt"],
         [encoder]),
        (["transcribe", "--ckpt", "asr.ckpt", "--wav", wav], [("asr.ckpt", "CtcModel")]),
        (["infer", "--fusion", "fusion.ckpt", "--encoder", "encoder.ckpt", "--wav", wav,
          "--task", "transcribe", "--max-tokens", "2"],
         [("fusion.ckpt", "FusionModel"), encoder]),
        (["pretrain", "--manifest", "m.jsonl", "--config", "pre.json",
          "--init", "encoder.ckpt", "--out", "warm.ckpt"], [encoder]),
    ):
        loads.clear()
        assert main(argv) == 0, argv[0]
        assert loads == want, argv[0]


def test_readme_lists_exactly_the_entries_each_artifact_holds(trained, monkeypatch):
    monkeypatch.chdir(trained)
    written = {f"`{kind}` checkpoint": list(read_checkpoint(f"{kind}.ckpt")[1])
               for kind in ("encoder", "asr", "fusion")}
    header = json.loads(Path("sft.jsonl").read_text().splitlines()[0])
    written["instruction-set header"] = [key for key in header if key != "__header__"]
    assert _readme_artifact_entries() == written


def _infer_argv(fusion, *encoder):
    wav = Manifest.read("m.jsonl").records[0].source_path
    return ["infer", "--fusion", fusion, *encoder, "--wav", wav, "--task", "transcribe",
            "--max-tokens", "5"]


def test_infer_reads_its_encoder_from_the_fusion_checkpoint(trained, monkeypatch, capsys):
    monkeypatch.chdir(trained)
    assert main(_infer_argv("fusion.ckpt", "--encoder", "encoder.ckpt")) == 0
    want = capsys.readouterr().out
    loads = []

    def counting_load(path, cls):
        loads.append(path)
        return load_checkpoint(path, cls)

    monkeypatch.setattr("slmforge.cli.load_checkpoint", counting_load)
    assert main(_infer_argv("fusion.ckpt")) == 0
    assert capsys.readouterr().out == want
    assert loads == ["fusion.ckpt"]


def _other_seed(arrays, meta):
    encoder = SpeechEncoder.from_record("encoder.ckpt", meta)
    arrays.update(SpeechEncoder(encoder.cfg, encoder.n_classes, seed=7).state_arrays())


def _one_weight_nudged(arrays, meta):
    name = next(iter(arrays))
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = np.nextafter(arrays[name].flat[0], np.inf)


def _same_weights_other_record(arrays, meta):
    cfg = json.loads(meta["encoder_cfg"])
    meta["encoder_cfg"] = json.dumps({**cfg, "conv_activation": "none"}, sort_keys=True)


@pytest.mark.parametrize("edit", [_other_seed, _one_weight_nudged, _same_weights_other_record])
def test_infer_with_an_encoder_the_fusion_model_was_not_trained_with_names_both_files(
        trained, monkeypatch, capsys, edit):
    monkeypatch.chdir(trained)
    arrays, meta = read_checkpoint("encoder.ckpt")
    edit(arrays, meta)
    Path("other.ckpt").write_bytes(checkpoint_bytes(arrays, meta))
    assert main(_infer_argv("fusion.ckpt", "--encoder", "other.ckpt")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "other.ckpt is not the encoder in fusion.ckpt" in captured.err


@pytest.mark.parametrize("encoder", [(), ("--encoder", "encoder.ckpt")])
def test_infer_on_a_fusion_checkpoint_without_its_encoder_says_to_retrain(
        trained, monkeypatch, capsys, encoder):
    monkeypatch.chdir(trained)
    arrays, meta = read_checkpoint("fusion.ckpt")
    # the entries and tensors fusion checkpoints held before they held their encoder
    old = {"kind": "fusion", "lm_cfg": meta["lm_cfg"], "charset": meta["charset"],
           "aligner_d_in": str(arrays["aligner.fc1.weight"].shape[0]),
           "aligner_hidden": meta["aligner_hidden"], "config": meta["config"],
           "config_hash": meta["config_hash"]}
    Path("old.ckpt").write_bytes(checkpoint_bytes(
        {name: a for name, a in arrays.items() if not name.startswith("encoder.")}, old))
    assert main(_infer_argv("old.ckpt", *encoder)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "old.ckpt: missing key 'encoder_cfg'; re-run train-aligner" in captured.err


@pytest.mark.parametrize("flag", ["--config", "--external-scores", "--rows", "--lexicon"])
def test_a_json_input_file_that_is_not_json_exits_2_naming_it(tmp_path, capsys, flag):
    bad, lines = tmp_path / "bad.json", tmp_path / "lines.txt"
    bad.write_text("{bad")
    lines.write_text("one two\n")
    argv = {
        "--config": ["pretrain", "--manifest", str(lines), "--out", str(tmp_path / "e.ckpt")],
        "--external-scores": ["eval", "--refs", str(lines), "--hyps", str(lines)],
        "--rows": ["report"],
        "--lexicon": ["eval", "--refs", str(lines), "--hyps", str(lines)],
    }[flag]
    assert main([*argv, flag, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}: invalid JSON: Expecting property name" in captured.err


def test_finetune_asr_vocab_without_the_blank_first_names_the_file(trained, monkeypatch,
                                                                   capsys):
    monkeypatch.chdir(trained)
    Path("bad.vocab").write_text("a\nb\n")
    assert main(["finetune-asr", "--manifest", "m.jsonl", "--encoder", "encoder.ckpt",
                 "--config", "ft.json", "--vocab", "bad.vocab", "--out", "v.ckpt"]) == 2
    assert "bad.vocab: vocab must start with '<blank>'" in capsys.readouterr().err
    assert not Path("v.ckpt").exists()


@pytest.mark.parametrize("flag", ["--refs", "--hyps", "--manifest", "--sft", "--vocab",
                                  "--config"])
def test_an_input_file_that_is_not_utf8_exits_2_naming_it(trained, tmp_path, monkeypatch,
                                                          capsys, flag):
    monkeypatch.chdir(trained)
    bad, lines, out = tmp_path / "bad.txt", tmp_path / "lines.txt", tmp_path / "out"
    bad.write_bytes(b"\xff\xfeh\x00i\x00\n\x00")  # UTF-16 with its byte-order mark
    lines.write_text("hi\n")
    argv = {
        "--refs": ["eval", "--refs", bad, "--hyps", lines, "--out", out],
        "--hyps": ["eval", "--refs", lines, "--hyps", bad, "--out", out],
        "--manifest": ["build-sft", "--manifest", bad, "--out", out],
        "--sft": ["train-aligner", "--sft", bad, "--manifest", "m.jsonl",
                  "--encoder", "encoder.ckpt", "--config", "al.json", "--out", out],
        "--vocab": ["finetune-asr", "--manifest", "m.jsonl", "--encoder", "encoder.ckpt",
                    "--config", "ft.json", "--vocab", bad, "--out", out],
        "--config": ["pretrain", "--manifest", "m.jsonl", "--config", bad, "--out", out],
    }[flag]
    assert main([str(a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad} line 1: not UTF-8: 'utf-8' codec can't decode byte 0xff" in captured.err
    assert not out.exists()


def test_finetune_asr_vocab_missing_a_transcript_symbol_names_the_file_and_record(
        trained, monkeypatch, capsys):
    monkeypatch.chdir(trained)
    Path("a.vocab").write_text("<blank>\na\n")
    first = Manifest.read("m.jsonl").records[0].id  # every transcript reads "ab"
    assert main(["finetune-asr", "--manifest", "m.jsonl", "--encoder", "encoder.ckpt",
                 "--config", "ft.json", "--vocab", "a.vocab", "--out", "v.ckpt"]) == 2
    err = capsys.readouterr().err
    assert (f"a.vocab: symbol 'b' not in vocab, in the transcript of record {first!r}"
            in err)
    assert not Path("v.ckpt").exists()
