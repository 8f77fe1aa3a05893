"""CLI surface: exit codes, subcommand wiring, reproducibility."""

import argparse
import ast
import inspect
import json
import re
import struct
import subprocess
import sys
import typing
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env

from slmforge import cli
from slmforge.audio import log_mel, read_wav, resample, write_wav
from slmforge.asr import BLANK_SYMBOL, CtcModel, Vocab
from slmforge.cli import CONFIG_KEYS, _config_fields, main
from slmforge.config import config_hash
from slmforge.curate import Manifest, PipelineConfig
from slmforge.metrics import cer, wer
from slmforge.nn import checkpoint_bytes, load_checkpoint, read_checkpoint, save_checkpoint
from slmforge.pretrain import PretrainConfig, SpeechEncoder, SpeechEncoderConfig
from slmforge.slm import (
    MODES, CausalLM, CausalLMConfig, ChatTemplate, FusionModel, chat_vocab,
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


def _pcm16_wav(rate, payload):
    return (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, 2 * rate, 2, 16)
            + b"data" + struct.pack("<I", len(payload)) + payload)


def test_curate_warns_of_a_zero_rate_or_a_partial_sample_naming_the_file_once(
        tmp_path, capsys):
    good, zero, odd = tmp_path / "good.wav", tmp_path / "zero.wav", tmp_path / "odd.wav"
    _speechy(good)
    zero.write_bytes(_pcm16_wav(0, b"\x00" * 64))
    odd.write_bytes(_pcm16_wav(16000, b"\x00" * 3))
    out = tmp_path / "m.jsonl"
    assert main(["curate", "--out", str(out), str(good), str(zero), str(odd)]) == 0
    assert "2 warnings" in capsys.readouterr().out
    manifest = Manifest.read(out)
    assert manifest.header["warnings"] == [
        f"{zero}: sample rate 0 Hz is not positive",
        f"{odd}: data chunk of 3 bytes is not a whole number of 16-bit samples",
    ]
    assert manifest.records
    assert {rec.source_path for rec in manifest.records} == {str(good)}


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


@pytest.mark.parametrize("window_s", [0, -0.5, 0.01])
def test_curate_window_shorter_than_a_frame_exits_2_naming_the_key_before_reading(
        tmp_path, monkeypatch, capsys, window_s):
    # a window of no length would step diarization's window starts forever
    def no_read(path):
        raise AssertionError(f"read {path}")
    monkeypatch.setattr("slmforge.curate.read_wav", no_read)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window_s": window_s}))
    assert main(["curate", "--config", str(cfg), "--out", str(tmp_path / "m.jsonl"),
                 str(tmp_path / "in.wav")]) == 2
    err = capsys.readouterr().err
    assert f"'window_s' must be at least one 400-sample analysis frame at 16000 Hz " \
           f"(0.025 s), got {window_s}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("key, value, shown", [
    ("separator", "bogus",
     "'separator' must be 'passthrough', 'spectral-gate' or 'external:<command>', "
     "got 'bogus'"),
    ("separator", "external: ",
     "'separator' must be 'passthrough', 'spectral-gate' or 'external:<command>', "
     "got 'external: '"),
    ("scorer", "bogus", "'scorer' must be 'snr-proxy' or 'external:<command>', got 'bogus'"),
    ("scorer", "external:",
     "'scorer' must be 'snr-proxy' or 'external:<command>', got 'external:'"),
])
def test_curate_unknown_plug_in_exits_2_naming_the_key_before_reading(
        tmp_path, monkeypatch, capsys, key, value, shown):
    def no_read(path):
        raise AssertionError(f"read {path}")
    monkeypatch.setattr("slmforge.curate.read_wav", no_read)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["curate", "--config", str(cfg), "--out", str(tmp_path / "m.jsonl"),
                 str(tmp_path / "in.wav")]) == 2
    assert capsys.readouterr().err == f"slmforge curate: config {cfg}: {shown}\n"
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig)
                                 if isinstance(f.default, float)])
def test_curate_non_finite_float_exits_2_naming_the_key_before_reading(
        tmp_path, monkeypatch, capsys, key, literal):
    # json.loads takes NaN and Infinity; a NaN cluster threshold merged every window
    def no_read(path):
        raise AssertionError(f"read {path}")
    monkeypatch.setattr("slmforge.curate.read_wav", no_read)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {literal}}}')
    assert main(["curate", "--config", str(cfg), "--out", str(tmp_path / "m.jsonl"),
                 str(tmp_path / "in.wav")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("slmforge curate: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("rate", [22050, 48000])
def test_curate_at_rates_whose_frame_exceeds_512_samples(tmp_path, rate):
    wav, out, cfg = tmp_path / "in.wav", tmp_path / "m.jsonl", tmp_path / "cfg.json"
    _speechy(wav)
    cfg.write_text(json.dumps({"sample_rate": rate}))
    assert main(["curate", "--config", str(cfg), "--out", str(out), str(wav)]) == 0
    records = Manifest.read(out).records
    assert records and all(r.sample_rate == rate for r in records)


def _log_mel_rates(monkeypatch):
    """The sample rates of the buffers the CLI's ``log_mel`` is given, as a
    list that fills while the test runs."""
    rates = []

    def spy(buf, n_mels):
        rates.append(buf.sample_rate)
        return log_mel(buf, n_mels)

    monkeypatch.setattr("slmforge.cli.log_mel", spy)
    return rates


def test_transcribe_at_22050_hz(tmp_path, monkeypatch):
    ckpt, wav = tmp_path / "asr.ckpt", tmp_path / "in.wav"
    encoder = SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1, sample_rate=22050), 3)
    save_checkpoint(CtcModel(encoder, Vocab.from_texts(["ab"], (BLANK_SYMBOL,))), ckpt, {})
    _speechy(wav, bursts=3)
    rates = _log_mel_rates(monkeypatch)
    assert main(["transcribe", "--ckpt", str(ckpt), "--wav", str(wav)]) == 0
    assert rates == [22050]


def _no_read(path, *args):
    raise AssertionError(f"read {path}")


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


@pytest.mark.parametrize("argv, cause", [
    (["build-sft", "--manifest", "m.jsonl", "--out", "sft.jsonl",
      "--modes", "transcribe,transcribe"], "--modes: modes named more than once: ['transcribe']"),
    (["eval", "--refs", "refs.txt", "--hyps", "hyps.txt", "--metrics", "wer, cer,wer,cer"],
     "--metrics: metrics named more than once: ['cer', 'wer']"),
])
def test_a_name_given_twice_exits_2_naming_the_flag_and_the_name(
        monkeypatch, capsys, argv, cause):
    monkeypatch.setattr("slmforge.cli.Manifest.read", _no_read)
    monkeypatch.setattr("slmforge.cli.read_text", _no_read)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert cause in captured.err
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


def test_importing_the_cli_loads_no_scipy():
    # scipy.fft (MFCC) and scipy.special (GELU) load at their first use
    code = ("import sys, slmforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), check=True)
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_builds_no_parser():
    # the parser is built at the first cli.main call, so an import pays nothing for it
    code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]; "
            "import slmforge.cli; print(len(built), slmforge.cli.build_parser.cache_info())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), check=True)
    assert proc.stdout.split(" ", 1) == [
        "0", "CacheInfo(hits=0, misses=0, maxsize=None, currsize=0)\n"]


@pytest.fixture
def fresh_parser():
    """No parser built yet in this process, and none left over afterwards."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def _mixed_calls(tmp_path):
    """(argv, exit code) of cheap ``cli.main`` calls across the subcommands,
    usage errors, help and version."""
    refs, hyps, rows = tmp_path / "refs.txt", tmp_path / "hyps.txt", tmp_path / "rows.json"
    refs.write_text("one two\nthree\n")
    hyps.write_text("one too\nthree\n")
    rows.write_text(json.dumps([{"name": "a", "wer": 1.0}]))
    bad = tmp_path / "bad.json"
    bad.write_text('{"min_dur_s": NaN}')
    return [
        (["eval", "--refs", str(refs), "--hyps", str(hyps)], 0),
        (["report", "--rows", str(rows)], 0),
        (["--version"], 0),
        (["--help"], 0),
        (["transcribe", "--help"], 0),
        (["bogus"], 1),
        ([], 1),
        (["transcribe", "--ckpt", "asr.ckpt"], 1),
        (["eval", "--refs", str(refs), "--hyps", str(hyps), "--metrics", "bleu"], 2),
        (["curate", "--config", str(bad), "--out", str(tmp_path / "m.jsonl"), "in.wav"], 2),
        (["build-sft", "--manifest", str(tmp_path / "none.jsonl"), "--out", "x"], 2),
        (["pretrain", "--manifest", "m.jsonl", "--out", "e.ckpt", "--seed", "x"], 1),
    ]


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys,
                                                fresh_parser):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    calls = _mixed_calls(tmp_path) * 2
    for argv, code in calls:
        assert main(argv) == code, argv
    capsys.readouterr()
    assert len(calls) >= 10 and built.count("slmforge") == 1
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["eval", "--refs", "r.txt"],
    ["--help"],
    ["infer", "--help"],
    ["--version"],
    ["infer", "--fusion", "f.ckpt", "--wav", "in.wav", "--task", "transcribe",
     "--max-tokens", "0"],
], ids=["unknown-command", "missing-flag", "help", "command-help", "version",
        "config-error"])
def test_a_reused_parser_prints_and_exits_as_a_fresh_one(tmp_path, monkeypatch, capsys,
                                                        fresh_parser, argv):
    monkeypatch.setattr("slmforge.cli.load_checkpoint", _no_read)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    fresh = main(argv), *capsys.readouterr()
    for other, code in _mixed_calls(tmp_path):
        assert main(other) == code, other
    capsys.readouterr()
    reused = main(argv), *capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert fresh[0] in (0, 1, 2) and fresh[1] + fresh[2]


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


@pytest.mark.parametrize("refs_text, hyps_text, want_refs, want_hyps", [
    ("one\u2028two\nthree\n", "one two\nthree\n", ["one two", "three"], ["one two", "three"]),
    ("one\u2028two\nthree four\n", "one two\x85three\nfour\n",
     ["one two", "three four"], ["one two three", "four"]),
], ids=["in-refs", "in-both"])
def test_eval_splits_lines_at_newlines_only(tmp_path, refs_text, hyps_text, want_refs,
                                            want_hyps):
    refs, hyps, out = tmp_path / "refs.txt", tmp_path / "hyps.txt", tmp_path / "r.json"
    refs.write_text(refs_text, encoding="utf-8")
    hyps.write_text(hyps_text, encoding="utf-8")
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--metrics", "wer",
                 "--out", str(out)]) == 0
    [row] = json.loads(out.read_text())["rows"]
    assert row["n_utterances"] == 2
    assert row["wer"] == pytest.approx(wer(want_refs, want_hyps))


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


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_eval_external_scores_non_finite_bs_f1_names_file_and_key(tmp_path, capsys, value):
    refs = tmp_path / "refs.txt"
    refs.write_text("waaw\n")
    scores = tmp_path / "bs.json"
    scores.write_text(f'{{"bs_f1": {value}}}')
    out = tmp_path / "eval.json"
    assert main(["eval", "--refs", str(refs), "--hyps", str(refs),
                 "--external-scores", str(scores), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"{scores}: 'bs_f1' must be finite" in captured.err


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
    ({"name": "ours", "cer": True}, "cer must be a number or null, got True"),
    ({"name": "ours", "wer": float("nan")}, "wer must be finite, got nan"),
    ({"name": "ours", "chrf": float("inf")}, "chrf must be finite, got inf"),
    ({"name": "ours", "bs_f1": -float("inf")}, "bs_f1 must be finite, got -inf"),
    ({"name": "ours", "cer": 10**400}, "cer must be finite, got 1000"),
])
def test_report_bad_row_is_runtime_error_naming_its_index(tmp_path, capsys, row, cause):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([{"name": "fine", "wer": 2.0}, row]))
    assert main(["report", "--rows", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path} row 1: " in err and cause in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("value, shown", [
    ("NaN", "nan"), ("-Infinity", "-inf"), ("[1, Infinity]", "[1, inf]"),
    ('{"h": NaN}', "{'h': nan}"),
])
def test_report_non_finite_extra_value_exits_2_naming_row_and_key(tmp_path, capsys, fmt,
                                                                  value, shown):
    path = tmp_path / "rows.json"
    path.write_text(f'[{{"name": "fine", "hours": 1e300}}, '
                    f'{{"name": "x", "wer": 1.0, "hours": {value}}}]')
    assert main(["report", "--rows", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"slmforge report: {path} row 1: hours must hold finite "
                            f"numbers only, got {shown}\n")


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
    example = {"audio_id": "a", "mode": "transcribe", "text": "ab"}
    sft.write_text(json.dumps({"__header__": True, "charset": "ab"}) + "\n"
                   + json.dumps(example) + "\n")
    assert main(["train-aligner", "--sft", str(sft), "--manifest", "none.jsonl",
                 "--encoder", "none.ckpt", "--out", str(tmp_path / "f.ckpt")]) == 2
    err = capsys.readouterr().err
    assert f"{sft} line 2: missing field(s) final" in err


@pytest.mark.parametrize("header", [
    [json.dumps({"__header__": True, "modes": ["transcribe"]})],  # no charset
    [],  # no header line
])
def test_train_aligner_sft_without_a_charset_exits_2_naming_file_and_key(
        tmp_path, capsys, header):
    sft = tmp_path / "sft.jsonl"
    example = {"audio_id": "a", "mode": "transcribe", "text": "ab", "final": "ab"}
    sft.write_text("\n".join([*header, json.dumps(example)]) + "\n")
    assert main(["train-aligner", "--sft", str(sft), "--manifest", "none.jsonl",
                 "--encoder", "none.ckpt", "--out", str(tmp_path / "f.ckpt")]) == 2
    assert capsys.readouterr().err == f"slmforge train-aligner: {sft}: missing key 'charset'\n"


GOOD_TEXT = "<|user|><|audio|> Transcribe the audio.<|assistant|>FINAL: ab<|end|>"


@pytest.mark.parametrize("audio_id, text, final, cause", [
    pytest.param(None, GOOD_TEXT.replace("<|assistant|>", ""), "ab",
                 "holds 0 <|assistant|> markers, not one", id="no-assistant-marker"),
    pytest.param(None, GOOD_TEXT.replace("FINAL: ab<|end|>", ""), "ab",
                 "its completion after <|assistant|> is empty", id="no-completion"),
    pytest.param(None, GOOD_TEXT.replace("FINAL: ab", ""), "ab",
                 "its completion after <|assistant|> is empty", id="end-marker-only"),
    pytest.param(None, GOOD_TEXT.replace(" Transcribe", "<|audio|>Transcribe"), "ab",
                 "holds 2 <|audio|> markers, not one", id="two-audio-markers"),
    pytest.param(None, GOOD_TEXT.replace("<|audio|>", "").replace("FINAL:", "FINAL:<|audio|>"),
                 "ab", "its completion holds the chat marker <|audio|>",
                 id="audio-in-completion"),
    pytest.param(None, GOOD_TEXT.replace("ab<|end|>", "a<|end|>b"), "ab",
                 "its completion does not end with <|end|>", id="text-after-end-marker"),
    pytest.param(None, GOOD_TEXT.replace("ab", "az"), "ab",
                 "character 'z' not in vocab", id="unknown-character"),
    pytest.param(None, GOOD_TEXT, "az", "character 'z' not in vocab",
                 id="unknown-character-in-final"),
    pytest.param("nope", GOOD_TEXT, "ab", "audio id not in manifest m.jsonl",
                 id="unknown-audio-id"),
])
def test_a_malformed_sft_example_exits_2_naming_file_and_example_before_reading_audio(
        tmp_path, monkeypatch, capsys, manifest, audio_id, text, final, cause):
    monkeypatch.chdir(tmp_path)
    first = _transcribed(manifest, "m.jsonl")
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    charset = Vocab.from_texts([GOOD_TEXT], ChatTemplate.specials).charset()
    rows = [{"__header__": True, "charset": charset},
            {"audio_id": first, "mode": "transcribe", "text": GOOD_TEXT, "final": "ab"},
            {"audio_id": audio_id or first, "mode": "translate", "text": text, "final": final}]
    Path("sft.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    # no encoder file exists: the check comes before it is loaded
    assert main(["train-aligner", "--sft", "sft.jsonl", "--manifest", "m.jsonl",
                 "--encoder", "enc.ckpt", "--out", "f.ckpt"]) == 2
    assert capsys.readouterr().err == (
        f"slmforge train-aligner: sft.jsonl: example {audio_id or first!r} (translate): "
        f"{cause}\n")
    assert not Path("f.ckpt").exists()


@pytest.mark.parametrize("charset", [{"<|end|>": 1, "a": 2, "b": 3}, ["a", "b"], 5, None])
def test_an_sft_charset_that_is_not_a_string_exits_2_naming_file_and_key_before_reading_audio(
        tmp_path, monkeypatch, capsys, manifest, charset):
    monkeypatch.chdir(tmp_path)
    first = _transcribed(manifest, "m.jsonl")
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    rows = [{"__header__": True, "charset": charset},
            {"audio_id": first, "mode": "transcribe", "text": GOOD_TEXT, "final": "ab"}]
    Path("sft.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    # no encoder file exists: the check comes before it is loaded
    assert main(["train-aligner", "--sft", "sft.jsonl", "--manifest", "m.jsonl",
                 "--encoder", "enc.ckpt", "--out", "f.ckpt"]) == 2
    assert capsys.readouterr().err == (
        "slmforge train-aligner: sft.jsonl: bad value for 'charset': must be a string, "
        f"got {json.dumps(charset)}\n")
    assert not Path("f.ckpt").exists()


@pytest.mark.parametrize("argv", [
    ["build-sft", "--out", "sft.jsonl"],
    ["pretrain", "--out", "enc.ckpt"],
])
def test_a_manifest_with_two_records_of_one_id_exits_2_naming_file_and_id(
        tmp_path, monkeypatch, capsys, manifest, argv):
    monkeypatch.chdir(tmp_path)
    header, row = manifest.read_text().splitlines()[:2]
    rows = [json.loads(row), {**json.loads(row), "offset_s": 0.0}]
    Path("dup.jsonl").write_text("\n".join([header, *map(json.dumps, rows)]) + "\n")
    assert main([*argv, "--manifest", "dup.jsonl"]) == 2
    assert capsys.readouterr().err == (
        f"slmforge {argv[0]}: dup.jsonl: more than one record has id {rows[0]['id']!r}\n")
    assert not Path(argv[-1]).exists()


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
        row = {"audio_id": "a", "mode": "transcribe", "text": "ab", "final": "ab"}
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


def test_an_encoder_written_while_its_front_end_was_a_convolution_exits_2(tmp_path, capsys):
    enc = tmp_path / "enc.ckpt"
    _encoder_checkpoint(enc, lambda meta: meta.update(encoder_cfg=json.dumps(
        {**json.loads(meta["encoder_cfg"]), "conv_activation": "gelu", "conv_kernel": 2,
         "conv_stride": 2, "ff_mult": 4})))
    assert main(["finetune-asr", "--manifest", "none.jsonl", "--encoder", str(enc),
                 "--out", str(tmp_path / "asr.ckpt")]) == 2
    assert capsys.readouterr().err == (
        f"slmforge finetune-asr: {enc}: bad value for 'encoder_cfg': unknown key(s) "
        "'conv_activation', 'conv_kernel', 'conv_stride', 'ff_mult' for SpeechEncoderConfig\n")


def test_an_encoder_written_before_it_held_a_sample_rate_loads_at_16_khz(tmp_path):
    enc = tmp_path / "enc.ckpt"
    _encoder_checkpoint(enc, lambda meta: meta.update(encoder_cfg=json.dumps(
        {k: v for k, v in json.loads(meta["encoder_cfg"]).items() if k != "sample_rate"})))
    assert load_checkpoint(enc, SpeechEncoder).cfg.sample_rate == 16000


@pytest.mark.parametrize("beam", ["0", "-1"])
def test_transcribe_beam_below_one_is_runtime_error(tmp_path, capsys, beam):
    ckpt, wav = tmp_path / "asr.ckpt", tmp_path / "in.wav"
    encoder = SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3)
    save_checkpoint(CtcModel(encoder, Vocab.from_texts(["ab"], (BLANK_SYMBOL,))), ckpt, {})
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


@pytest.mark.parametrize("flag, env, shown", [
    (["--seed", "-1"], None, "--seed must be a non-negative integer, got '-1'"),
    ([], "abc", "SLMFORGE_SEED must be a non-negative integer, got 'abc'"),
    ([], "-2", "SLMFORGE_SEED must be a non-negative integer, got '-2'"),
    ([], "1.5", "SLMFORGE_SEED must be a non-negative integer, got '1.5'"),
])
@pytest.mark.parametrize("command", ["pretrain", "finetune-asr", "train-aligner"])
def test_a_bad_seed_exits_2_naming_its_source_before_any_file_is_read(
        tmp_path, monkeypatch, capsys, command, flag, env, shown):
    monkeypatch.chdir(tmp_path)  # none of the files NEEDED_ARGS names exists here
    monkeypatch.delenv("SLMFORGE_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("SLMFORGE_SEED", env)
    assert main([command, *NEEDED_ARGS[command], "--config", "none.json", *flag]) == 2
    assert capsys.readouterr().err == f"slmforge {command}: {shown}\n"


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


@pytest.mark.parametrize("command, key, value, shown", [
    ("pretrain", "k", 0, "k must be >= 1, got 0"),
    ("pretrain", "dim", 0, "dim must be >= 1, got 0"),
    ("pretrain", "n_layers", 0, "n_layers must be >= 1, got 0"),
    ("pretrain", "n_heads", 0, "n_heads must be >= 1, got 0"),
    ("pretrain", "max_steps", 0, "max_steps must be >= 1, got 0"),
    ("pretrain", "max_steps", -1, "max_steps must be >= 1, got -1"),
    ("pretrain", "epochs", 0, "'epochs' must be >= 1, got 0"),
    ("pretrain", "epochs", -2, "'epochs' must be >= 1, got -2"),
    ("pretrain", "refresh_schedule", [-3],
     "refresh_schedule epochs must be integers in [1, 33), got -3"),
    ("pretrain", "refresh_schedule", [5, 33],
     "refresh_schedule epochs must be integers in [1, 33), got 33"),
    ("pretrain", "target_layer", 7, "'target_layer' 7 is outside [0, 2], the encoder's layers"),
    ("pretrain", "target_layer", -1,
     "'target_layer' -1 is outside [0, 2], the encoder's layers"),
    ("pretrain", "lr", -1, "lr must be > 0, got -1"),
    ("pretrain", "batch_seconds", 0, "batch_seconds must be > 0, got 0"),
    ("finetune-asr", "steps", -1, "steps must be >= 0, got -1"),
    ("finetune-asr", "lr", 0, "lr must be > 0, got 0"),
    ("finetune-asr", "batch_size", 0, "batch_size must be >= 1, got 0"),
    ("finetune-asr", "eval_every", 0, "eval_every must be >= 1, got 0"),
    ("train-aligner", "steps", -1, "steps must be >= 0, got -1"),
    ("train-aligner", "lm_steps", -1, "lm_steps must be >= 0, got -1"),
    ("train-aligner", "batch_size", 0, "batch_size must be >= 1, got 0"),
    ("train-aligner", "aligner_hidden", 0, "aligner_hidden must be >= 1, got 0"),
    ("train-aligner", "d_lm", 0, "d_lm must be >= 1, got 0"),
    ("train-aligner", "lm_heads", 0, "lm_heads must be >= 1, got 0"),
    ("train-aligner", "lm_layers", 0, "lm_layers must be >= 1, got 0"),
    ("train-aligner", "lr", -1, "lr must be > 0, got -1"),
    ("train-aligner", "lm_lr", -0.5, "lm_lr must be > 0, got -0.5"),
])
def test_training_config_value_out_of_range_exits_2_naming_the_key_before_reading(
        tmp_path, monkeypatch, capsys, command, key, value, shown):
    monkeypatch.chdir(tmp_path)  # none of the files NEEDED_ARGS names exists here
    Path("cfg.json").write_text(json.dumps({key: value}))
    assert main([command, "--config", "cfg.json", *NEEDED_ARGS[command]]) == 2
    assert capsys.readouterr().err == f"slmforge {command}: config cfg.json: {shown}\n"


@pytest.mark.parametrize("command, given, shown", [
    ("curate", {"min_dur_s": 40}, "min_dur_s must be below max_dur_s"),
    ("finetune-asr", {"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ("train-aligner", {"lm_layers": 0}, "lm_layers must be >= 1, got 0"),
    ("train-aligner", {"d_lm": 30, "lm_heads": 4}, "d_lm 30 is not divisible by lm_heads 4"),
    ("pretrain", {"dim": 30, "n_heads": 4}, "dim 30 is not divisible by n_heads 4"),
])
def test_a_config_rule_error_names_the_file_and_the_key_as_written_before_reading_audio(
        tmp_path, monkeypatch, capsys, manifest, command, given, shown):
    for module in ("cli", "curate"):
        monkeypatch.setattr(f"slmforge.{module}.read_wav", _no_read)
    monkeypatch.setattr("slmforge.cli.load_checkpoint", _no_read)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(given))
    inputs = {
        "curate": [Manifest.read(manifest).records[0].source_path],
        "pretrain": ["--manifest", str(manifest)],
        "finetune-asr": ["--manifest", str(manifest), "--encoder", "enc.ckpt"],
        "train-aligner": ["--sft", "sft.jsonl", "--manifest", str(manifest),
                          "--encoder", "enc.ckpt"],
    }[command]
    assert main([command, "--config", str(cfg), *inputs,
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"slmforge {command}: config {cfg}: {shown}\n"
    assert all(key in shown for key in given)
    assert not (tmp_path / "out").exists()


def _float_keys(command):
    """The config keys of ``command`` that set a float field."""
    keys = []
    for key, (cls, name) in CONFIG_KEYS[command].items():
        hint = typing.get_type_hints(cls)[name]
        if float in (typing.get_args(hint) or (hint,)):
            keys.append(key)
    return keys


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command, key", [
    (command, key) for command in ("curate", *sorted(NEEDED_ARGS))
    for key in _float_keys(command)])
def test_a_non_finite_float_in_a_config_exits_2_naming_key_and_file_before_reading(
        tmp_path, monkeypatch, capsys, command, key, literal):
    # json.loads takes NaN and Infinity; a NaN lr trained until the first update
    monkeypatch.chdir(tmp_path)  # none of the input files named here exists
    for name in ("cli.read_wav", "curate.read_wav", "cli.load_checkpoint",
                 "cli.Manifest.read", "slm.read_instruction_dataset"):
        monkeypatch.setattr(f"slmforge.{name}", _no_read)
    Path("cfg.json").write_text(f'{{"{key}": {literal}}}')
    needed = NEEDED_ARGS.get(command, ["--out", "m.jsonl", "in.wav"])
    assert main([command, "--config", "cfg.json", *needed]) == 2
    cls, name = CONFIG_KEYS[command][key]
    assert capsys.readouterr().err == (
        f"slmforge {command}: config cfg.json: {key!r} must be a finite number, "
        f"got {literal} ({cls.__name__}.{name})\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_float_config_keys_per_command():
    assert {command: len(_float_keys(command)) for command in CONFIG_KEYS} == {
        "curate": 8, "pretrain": 3, "finetune-asr": 1, "train-aligner": 2}


def test_a_manifest_row_with_a_non_finite_offset_exits_2_naming_manifest_and_key(
        tmp_path, monkeypatch, capsys, manifest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    header, row, *rest = manifest.read_text().splitlines()
    Path("nan.jsonl").write_text(
        "\n".join([header, json.dumps({**json.loads(row), "offset_s": float("nan")}),
                   *rest]) + "\n")
    assert main(["pretrain", "--manifest", "nan.jsonl", "--out", "enc.ckpt"]) == 2
    assert capsys.readouterr().err == (
        "slmforge pretrain: nan.jsonl line 2: 'offset_s' must be a finite number, "
        "got NaN (SegmentRecord.offset_s)\n")
    assert not Path("enc.ckpt").exists()


def test_config_values_of_fitting_types_are_kept_as_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    given = {"epochs": 2, "lr": 1, "batch_seconds": 2.5, "refresh_schedule": [1],
             "max_steps": None, "mask_prob": 0}
    cfg.write_text(json.dumps(given))
    with _config_fields(argparse.Namespace(command="pretrain", config=str(cfg))) as got:
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
    ["transcribe", "--ckpt", "asr.ckpt", "--wav", "in.wav", "--sample-rate", "16000"],
    ["infer", "--fusion", "fusion.ckpt", "--wav", "in.wav", "--task", "transcribe",
     "--sample-rate", "16000"],
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
    tok = chat_vocab("Transcribe the audio.")
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1))
    save_checkpoint(FusionModel(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), lm,
                                tok, aligner_hidden=4), fusion, {})
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


def test_a_fusion_checkpoint_at_the_unstacked_width_names_the_tensor_and_both_shapes(
        tmp_path, monkeypatch, manifest, capsys):
    fusion = tmp_path / "fusion.ckpt"
    tok = chat_vocab("Transcribe the audio.")
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1))
    model = FusionModel(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), lm, tok,
                        aligner_hidden=4)
    # written before the aligner stacked frames: one 8-wide frame per row
    arrays = {**model.state_arrays(), "aligner.fc1.weight": np.zeros((8, 4))}
    fusion.write_bytes(checkpoint_bytes(arrays, {"kind": "fusion", **model.record()}))
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    assert main(["infer", "--fusion", str(fusion), "--wav",
                 Manifest.read(manifest).records[0].source_path, "--task", "transcribe",
                 "--max-tokens", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"slmforge infer: {fusion}: shape mismatch for parameter 'aligner.fc1.weight': "
        "checkpoint (8, 4) vs module (16, 4)\n")


@pytest.mark.parametrize("extra", ["ÀÁÂÃÄÅÆÇÈÉ", "0123456789"])
def test_infer_on_a_charset_that_does_not_fit_the_lm_names_file_and_charset(
        tmp_path, manifest, capsys, extra):
    enc, fusion = tmp_path / "enc.ckpt", tmp_path / "fusion.ckpt"
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), enc, {})
    tok = chat_vocab("Transcribe the audio.")
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1))
    save_checkpoint(FusionModel(SpeechEncoder(SpeechEncoderConfig(dim=8, n_layers=1), 3), lm,
                                tok, aligner_hidden=4), fusion, {})
    arrays, meta = read_checkpoint(fusion)
    meta["charset"] += extra
    fusion.write_bytes(checkpoint_bytes(arrays, meta))
    assert main(["infer", "--fusion", str(fusion), "--encoder", str(enc), "--wav",
                 Manifest.read(manifest).records[0].source_path, "--task", "transcribe",
                 "--max-tokens", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{fusion}: bad value for 'charset': its tokenizer has "
            f"{len(tok) + len(extra)} symbols, but lm_cfg has vocab_size "
            f"{len(tok)}") in captured.err


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
        model = CtcModel(encoder, Vocab.from_texts(["ab"], (BLANK_SYMBOL,)))
    else:
        tok = chat_vocab("ab")
        lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=8, n_layers=1))
        model = FusionModel(encoder, lm, tok, aligner_hidden=4)
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
    meta["encoder_cfg"] = json.dumps({**cfg, "n_heads": 1}, sort_keys=True)


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


@pytest.mark.parametrize("value, cause", [
    ("-3", "must be >= 1, got -3"),
    ("0", "must be >= 1, got 0"),
    ("x", "invalid literal for int() with base 10: 'x'"),
], ids=["-3", "0", "x"])
@pytest.mark.parametrize("key", ["n_classes", "aligner_hidden"])
def test_a_checkpoint_count_that_is_not_a_positive_integer_exits_2_naming_file_and_key(
        trained, tmp_path, monkeypatch, capsys, key, value, cause):
    monkeypatch.chdir(trained)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    source = {"n_classes": "encoder.ckpt", "aligner_hidden": "fusion.ckpt"}[key]
    arrays, meta = read_checkpoint(source)
    meta[key] = value
    ckpt = tmp_path / f"bad-{source}"
    ckpt.write_bytes(checkpoint_bytes(arrays, meta))
    out = tmp_path / "out.ckpt"
    command, argv = {
        "n_classes": ("finetune-asr", ["finetune-asr", "--manifest", "m.jsonl", "--encoder",
                                       str(ckpt), "--config", "ft.json", "--out", str(out)]),
        "aligner_hidden": ("infer", _infer_argv(str(ckpt))),
    }[key]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"slmforge {command}: {ckpt}: bad value for {key!r}: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("encoder", [(), ("--encoder", "encoder.ckpt")])
def test_infer_on_a_fusion_checkpoint_without_its_encoder_names_file_and_key(
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
    assert captured.err == "slmforge infer: old.ckpt: missing key 'encoder_cfg'\n"


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


def test_finetune_asr_prints_held_out_cer_and_wer_of_the_test_records(trained, monkeypatch,
                                                                       capsys):
    monkeypatch.chdir(trained)
    argv = ["finetune-asr", "--encoder", "encoder.ckpt", "--config", "ft.json"]
    assert main([*argv, "--manifest", "m.jsonl", "--out", "plain.ckpt"]) == 0
    assert "held-out" not in capsys.readouterr().out  # no test records, no scores
    m = Manifest.read("m.jsonl")
    m.records.append(replace(m.records[0], id="held", split="test"))  # the same span
    m.write("split.jsonl")
    assert main([*argv, "--manifest", "split.jsonl", "--out", "held.ckpt"]) == 0
    out = capsys.readouterr().out
    got = re.fullmatch(r"finetune-asr: 1 steps, train WER \d+\.\d{3}, "
                       r"held-out CER (\d+\.\d{3}) WER (\d+\.\d{3}) -> held\.ckpt\n", out)
    assert got, out
    # the scores of the written model on the test record
    model = load_checkpoint("held.ckpt", CtcModel)
    [(_, features)] = cli._records_with_audio("split.jsonl", m.records[-1:],
                                               model.encoder.cfg)
    hyp = model.transcribe(features)
    assert got.groups() == (f"{cer(['ab'], [hyp]):.3f}", f"{wer(['ab'], [hyp]):.3f}")


def test_finetune_asr_prints_held_out_scores_after_zero_steps(trained, monkeypatch, capsys):
    monkeypatch.chdir(trained)
    m = Manifest.read("m.jsonl")
    m.records.append(replace(m.records[0], id="held", split="test"))
    m.write("split.jsonl")
    Path("none.json").write_text('{"steps": 0}')
    assert main(["finetune-asr", "--encoder", "encoder.ckpt", "--config", "none.json",
                 "--manifest", "split.jsonl", "--out", "none.ckpt"]) == 0
    # no step scores the training set; the written model still scores the test record
    model = load_checkpoint("none.ckpt", CtcModel)
    [(_, features)] = cli._records_with_audio("split.jsonl", m.records[-1:], model.encoder.cfg)
    hyp = model.transcribe(features)
    assert capsys.readouterr().out == (
        f"finetune-asr: 0 steps, held-out CER {cer(['ab'], [hyp]):.3f} "
        f"WER {wer(['ab'], [hyp]):.3f} -> none.ckpt\n")


@pytest.mark.parametrize("seed", range(6))
def test_finetune_asr_checks_every_training_record_s_ctc_frames_before_step_1(
        trained, monkeypatch, capsys, seed):
    """A transcript longer than its record's encoder frames can emit exits 2
    naming the record, whichever records the seed's first batch picks."""
    monkeypatch.chdir(trained)
    m = Manifest.read("m.jsonl")
    short = replace(m.records[0], id="u3", duration_s=0.6)
    cfg = load_checkpoint("encoder.ckpt", SpeechEncoder).cfg
    [(_, features)] = cli._records_with_audio("m.jsonl", [short], cfg)
    frames = SpeechEncoder.output_len(len(features))
    short.transcript = ("ab" * frames)[: frames + 7]  # no repeat: one frame a character
    m.records = [replace(m.records[0], id=f"u{i}") for i in range(3)] + [short]
    m.write("short.jsonl")
    Path("one.json").write_text('{"steps": 1, "batch_size": 1}')
    assert main(["finetune-asr", "--encoder", "encoder.ckpt", "--config", "one.json",
                 "--manifest", "short.jsonl", "--seed", str(seed), "--out", "short.ckpt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"slmforge finetune-asr: manifest short.jsonl: record 'u3' gives {frames} encoder "
        f"frames, but CTC needs at least {frames + 7} for its transcript\n")
    assert not Path("short.ckpt").exists()


def test_finetune_asr_test_record_with_no_text_exits_2_before_training(trained, monkeypatch,
                                                                        capsys):
    monkeypatch.chdir(trained)
    monkeypatch.setattr("slmforge.asr.finetune_ctc", _no_training)
    m = Manifest.read("m.jsonl")
    m.records.append(replace(m.records[0], id="held", split="test", transcript="?!"))
    m.write("empty.jsonl")
    assert main(["finetune-asr", "--manifest", "empty.jsonl", "--encoder", "encoder.ckpt",
                 "--config", "ft.json", "--out", "e.ckpt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "slmforge finetune-asr: manifest empty.jsonl: test record 'held' has a transcript "
        "with no text once normalized: '?!'; held-out scores need one\n")
    assert not Path("e.ckpt").exists()


def test_finetune_asr_with_no_training_words_exits_2_naming_the_manifest_before_reading(
        trained, monkeypatch, capsys):
    monkeypatch.chdir(trained)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    m = Manifest.read("m.jsonl")
    m.records = [replace(rec, transcript="?!") for rec in m.records]
    m.records.append(replace(m.records[0], id="held", split="test", transcript="ab"))
    m.write("wordless.jsonl")
    assert main(["finetune-asr", "--manifest", "wordless.jsonl", "--encoder", "encoder.ckpt",
                 "--config", "ft.json", "--out", "w.ckpt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "slmforge finetune-asr: manifest wordless.jsonl: no training record has a "
        "transcript with words once normalized\n")
    assert not Path("w.ckpt").exists()


def test_finetune_asr_builds_its_vocab_from_the_training_transcripts_alone(
        trained, monkeypatch, capsys):
    monkeypatch.chdir(trained)
    argv = ["finetune-asr", "--encoder", "encoder.ckpt", "--config", "ft.json"]
    assert main([*argv, "--manifest", "m.jsonl", "--out", "plain.ckpt"]) == 0
    m = Manifest.read("m.jsonl")
    m.records.append(replace(m.records[0], id="held", split="test", transcript="zq"))
    m.write("zq.jsonl")
    capsys.readouterr()
    assert main([*argv, "--manifest", "zq.jsonl", "--out", "zq.ckpt"]) == 0
    assert json.loads(read_checkpoint("zq.ckpt")[1]["vocab"]) == [BLANK_SYMBOL, "a", "b"]
    # the test record shapes nothing the model learns
    assert Path("zq.ckpt").read_bytes() == Path("plain.ckpt").read_bytes()
    # characters the model cannot emit are CER errors like any other
    model = load_checkpoint("zq.ckpt", CtcModel)
    [(_, features)] = cli._records_with_audio("zq.jsonl", m.records[-1:], model.encoder.cfg)
    hyp = model.transcribe(features)
    assert f"held-out CER {cer(['zq'], [hyp]):.3f} " in capsys.readouterr().out


def test_finetune_asr_reads_no_untranscribed_record(trained, monkeypatch, capsys):
    monkeypatch.chdir(trained)
    argv = ["finetune-asr", "--encoder", "encoder.ckpt", "--config", "ft.json"]
    assert main([*argv, "--manifest", "m.jsonl", "--out", "plain.ckpt"]) == 0
    m = Manifest.read("m.jsonl")
    # a span past the end of its WAV gives no log-mel frame if it is read
    m.records.append(replace(m.records[0], id="untranscribed", offset_s=1000.0,
                             transcript=None))
    m.write("untranscribed.jsonl")
    assert main([*argv, "--manifest", "untranscribed.jsonl", "--out", "u.ckpt"]) == 0
    assert Path("u.ckpt").read_bytes() == Path("plain.ckpt").read_bytes()


def test_train_aligner_reads_no_record_its_examples_do_not_name(trained, monkeypatch):
    monkeypatch.chdir(trained)

    def refusing_read(path, *args):
        assert Path(path).name != "b.wav", f"read {path}"
        return read_wav(path, *args)

    monkeypatch.setattr("slmforge.cli.read_wav", refusing_read)
    m = Manifest.read("m.jsonl")
    m.records.append(replace(m.records[0], id="unnamed", source_path="b.wav"))
    m.write("unnamed.jsonl")
    assert main(["train-aligner", "--sft", "sft.jsonl", "--manifest", "unnamed.jsonl",
                 "--encoder", "encoder.ckpt", "--config", "al.json",
                 "--out", "unnamed.ckpt"]) == 0
    assert Path("unnamed.ckpt").read_bytes() == Path("fusion.ckpt").read_bytes()


@pytest.mark.parametrize("text", ["a\nb\n", "ab"], ids=["two-symbols", "one-wide-symbol"])
def test_finetune_asr_vocab_without_the_blank_first_names_the_file(trained, monkeypatch,
                                                                   capsys, text):
    monkeypatch.chdir(trained)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    Path("bad.vocab").write_text(text)
    assert main(["finetune-asr", "--manifest", "m.jsonl", "--encoder", "encoder.ckpt",
                 "--config", "ft.json", "--vocab", "bad.vocab", "--out", "v.ckpt"]) == 2
    assert capsys.readouterr().err == (
        "slmforge finetune-asr: bad.vocab: vocab must start with '<blank>'\n")
    assert not Path("v.ckpt").exists()


@pytest.mark.parametrize("symbol", ["ab", "", " a"])
def test_a_vocab_symbol_of_other_than_one_character_exits_2_naming_file_and_symbol(
        trained, tmp_path, monkeypatch, capsys, symbol):
    monkeypatch.chdir(trained)
    vocab, ckpt, out = tmp_path / "wide.vocab", tmp_path / "wide.ckpt", tmp_path / "v.ckpt"
    vocab.write_text(f"<blank>\na\n{symbol}\nb\n")
    assert main(["finetune-asr", "--manifest", "m.jsonl", "--encoder", "encoder.ckpt",
                 "--config", "ft.json", "--vocab", str(vocab), "--out", str(out)]) == 2
    cause = f"vocab symbol {symbol!r} after '<blank>' is not one character"
    assert capsys.readouterr().err == f"slmforge finetune-asr: {vocab}: {cause}\n"
    assert not out.exists()
    # the checkpoint's vocab entry is read by the same check
    arrays, meta = read_checkpoint("asr.ckpt")
    meta["vocab"] = json.dumps([*json.loads(meta["vocab"]), symbol])
    ckpt.write_bytes(checkpoint_bytes(arrays, meta))
    assert main(["transcribe", "--ckpt", str(ckpt), "--wav", "in.wav"]) == 2
    assert capsys.readouterr().err == (
        f"slmforge transcribe: {ckpt}: bad value for 'vocab': {cause}\n")


@pytest.mark.parametrize("vocab, kind", [('{"a": 1}', "dict"), ('"<blank>ab"', "str"),
                                         ("5", "int")])
def test_an_asr_checkpoint_whose_vocab_is_not_a_list_exits_2_naming_file_and_key(
        trained, tmp_path, monkeypatch, capsys, vocab, kind):
    monkeypatch.chdir(trained)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    arrays, meta = read_checkpoint("asr.ckpt")
    meta["vocab"] = vocab
    ckpt = tmp_path / "object.ckpt"
    ckpt.write_bytes(checkpoint_bytes(arrays, meta))
    assert main(["transcribe", "--ckpt", str(ckpt), "--wav", "in.wav"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"slmforge transcribe: {ckpt}: bad value for 'vocab': "
                            f"vocab must be a list of symbols, not a {kind}\n")


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
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    Path("a.vocab").write_text("<blank>\na\n")
    first = Manifest.read("m.jsonl").records[0].id  # every transcript reads "ab"
    assert main(["finetune-asr", "--manifest", "m.jsonl", "--encoder", "encoder.ckpt",
                 "--config", "ft.json", "--vocab", "a.vocab", "--out", "v.ckpt"]) == 2
    err = capsys.readouterr().err
    assert (f"a.vocab: character 'b' not in vocab, in the transcript of record {first!r}"
            in err)
    assert not Path("v.ckpt").exists()


@pytest.mark.parametrize("metrics", ["", "wer,bleu"])
def test_eval_metrics_error_lists_the_metrics(monkeypatch, capsys, metrics):
    monkeypatch.setattr("slmforge.cli.read_text", _no_read)
    assert main(["eval", "--refs", "refs.txt", "--hyps", "hyps.txt",
                 "--metrics", metrics]) == 2
    assert "; choose from wer, cer, chrf" in capsys.readouterr().err


def _args_read(fn, seen):
    """The names ``fn`` reads as ``args.<name>``, with those of every ``cli``
    function it passes ``args`` to."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            helper = getattr(cli, node.func.id, None)
            if inspect.getmodule(helper) is cli and helper not in seen:
                seen.add(helper)
                names |= _args_read(helper, seen)
    return names


def test_no_subcommand_takes_a_flag_it_ignores():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        dests = {action.dest for action in parser._actions
                 if not isinstance(action, argparse._HelpAction)}
        unread = dests - _args_read(parser.get_default("func"), set())
        assert not unread, f"{command} never reads {sorted(unread)}"


def _with_rates(manifest, path, rates):
    """A copy of ``manifest``'s first record at ``path``, one record per rate."""
    header, row = manifest.read_text().splitlines()[:2]
    rows = [{**json.loads(row), "id": f"r{i}", "sample_rate": rate}
            for i, rate in enumerate(rates)]
    Path(path).write_text("\n".join([header, *map(json.dumps, rows)]) + "\n")


@pytest.mark.parametrize("rate", [40, 0])
def test_pretrain_on_a_manifest_at_an_unusable_rate_names_it_and_the_key_before_reading(
        tmp_path, monkeypatch, capsys, manifest, rate):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    _with_rates(manifest, "low.jsonl", [rate])
    assert main(["pretrain", "--manifest", "low.jsonl", "--out", "enc.ckpt"]) == 2
    assert capsys.readouterr().err.startswith(
        f"slmforge pretrain: manifest low.jsonl: 'sample_rate': sample rate {rate} Hz is "
        "too low")


@pytest.mark.parametrize("rate", [40, 0])
@pytest.mark.parametrize("kind", ["asr", "fusion"])
def test_a_checkpoint_whose_encoder_rate_is_unusable_names_it_and_the_key(
        trained, tmp_path, monkeypatch, capsys, kind, rate):
    monkeypatch.chdir(trained)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    arrays, meta = read_checkpoint(f"{kind}.ckpt")
    meta["encoder_cfg"] = json.dumps({**json.loads(meta["encoder_cfg"]), "sample_rate": rate})
    low = tmp_path / "low.ckpt"
    low.write_bytes(checkpoint_bytes(arrays, meta))
    argv = {"asr": ["transcribe", "--ckpt", str(low), "--wav", "in.wav"],
            "fusion": ["infer", "--fusion", str(low), "--wav", "in.wav",
                       "--task", "transcribe"]}[kind]
    assert main(argv) == 2
    assert (f"{low}: bad value for 'encoder_cfg': 'sample_rate': sample rate {rate} Hz is "
            "too low") in capsys.readouterr().err


def test_pretrain_on_a_manifest_of_two_rates_names_it_and_the_record_before_reading(
        tmp_path, monkeypatch, capsys, manifest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    _with_rates(manifest, "mixed.jsonl", [16000, 16000, 22050, 8000])
    assert main(["pretrain", "--manifest", "mixed.jsonl", "--out", "enc.ckpt"]) == 2
    assert capsys.readouterr().err == (
        "slmforge pretrain: manifest mixed.jsonl: record 'r2' is at 22050 Hz, record 'r0' "
        "at 16000 Hz; an encoder is trained at one sample rate\n")


def test_pretrain_init_at_another_rate_than_the_manifest_names_sample_rate(
        tmp_path, monkeypatch, capsys, manifest):
    init = tmp_path / "init.ckpt"
    save_checkpoint(SpeechEncoder(SpeechEncoderConfig(sample_rate=22050), 4), init, {})
    cfg = tmp_path / "pretrain.json"
    cfg.write_text(json.dumps({"max_steps": 1, "k": 4}))
    monkeypatch.setattr("slmforge.cli.read_wav", _no_read)
    assert main(["pretrain", "--manifest", str(manifest), "--config", str(cfg),
                 "--init", str(init), "--out", str(tmp_path / "enc.ckpt")]) == 2
    assert (f"{init}: encoder sample_rate 22050 differs from the manifest {manifest}'s "
            "16000") in capsys.readouterr().err


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize("argv", TRAINING_ARGV[:2] + TRAINING_ARGV[3:],
                         ids=lambda argv: argv[0])
def test_a_record_past_the_end_of_its_wav_exits_2_naming_manifest_and_record(
        trained, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(trained)
    for trainer in ("slmforge.cli.continued_pretrain", "slmforge.asr.finetune_ctc",
                    "slmforge.slm.train_lm", "slmforge.slm.train_aligner"):
        monkeypatch.setattr(trainer, _no_training)
    m = Manifest.read("m.jsonl")
    m.records[0].offset_s = 1000.0
    past = tmp_path / "past.jsonl"
    m.write(past)
    out = tmp_path / "out.ckpt"
    assert main([*argv[:-1], str(out), "--manifest", str(past)]) == 2
    assert capsys.readouterr().err == (
        f"slmforge {argv[0]}: manifest {past}: record {m.records[0].id!r} gives 0 log-mel "
        "frames at 16000 Hz; the encoder needs at least 2\n")
    assert not out.exists()


@pytest.mark.parametrize("duration_s, frames", [(0.04, 2), (0.05, 3)])
def test_a_record_too_short_for_a_speech_row_exits_2_in_train_aligner_naming_it(
        trained, tmp_path, monkeypatch, capsys, duration_s, frames):
    # one encoder frame makes no stacked speech row; the last record is the
    # short one, so the check must come before the encoder runs on any
    monkeypatch.chdir(trained)
    for trainer in ("slmforge.slm.extract_multilayer_features", "slmforge.slm.train_lm",
                    "slmforge.slm.train_aligner"):
        monkeypatch.setattr(trainer, _no_training)
    m = Manifest.read("m.jsonl")
    m.records[-1].duration_s = duration_s
    m.records[-1].transcript = "a"  # one CTC frame's worth, so finetune-asr can train on it
    short = tmp_path / "short.jsonl"
    m.write(short)
    out = tmp_path / "fusion.ckpt"
    assert main([*TRAINING_ARGV[3][:-1], str(out), "--manifest", str(short)]) == 2
    assert capsys.readouterr().err == (
        f"slmforge train-aligner: manifest {short}: record {m.records[-1].id!r} gives "
        f"{frames} log-mel frames at 16000 Hz, 1 encoder frame(s); the speech aligner "
        "needs at least 2\n")
    assert not out.exists()
    # the other commands still take it: it gives the encoder one frame
    for trainer in ("slmforge.cli.continued_pretrain", "slmforge.asr.finetune_ctc"):
        monkeypatch.setattr(trainer, _no_training)
    for argv in TRAINING_ARGV[:2]:
        with pytest.raises(AssertionError, match="training started"):
            main([*argv[:-1], str(tmp_path / "x.ckpt"), "--manifest", str(short)])


@pytest.mark.parametrize("argv", TRAINING_ARGV[1::2], ids=lambda argv: argv[0])
def test_finetune_asr_and_train_aligner_compute_features_at_the_encoders_rate(
        trained, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(trained)
    arrays, meta = read_checkpoint("encoder.ckpt")
    meta["encoder_cfg"] = json.dumps({**json.loads(meta["encoder_cfg"]), "sample_rate": 22050})
    enc, out = tmp_path / "enc.ckpt", tmp_path / "out.ckpt"
    enc.write_bytes(checkpoint_bytes(arrays, meta))
    argv = [str(enc) if a == "encoder.ckpt" else a for a in argv[:-1]] + [str(out)]
    rates = _log_mel_rates(monkeypatch)
    assert main([*argv, "--manifest", "m.jsonl"]) == 0
    assert {rec.sample_rate for rec in Manifest.read("m.jsonl").records} == {16000}
    assert rates and set(rates) == {22050}
    assert json.loads(read_checkpoint(out)[1]["encoder_cfg"])["sample_rate"] == 22050


def test_an_encoder_pretrained_at_22050_hz_carries_its_rate_to_decoding(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _speechy(tmp_path / "in.wav")
    Path("curate.json").write_text(json.dumps({"sample_rate": 22050}))
    assert main(["curate", "--config", "curate.json", "--out", "raw.jsonl", "in.wav"]) == 0
    _transcribed("raw.jsonl", "m.jsonl")
    Path("pre.json").write_text('{"max_steps": 1, "k": 4, "dim": 8, "n_layers": 1}')
    Path("ft.json").write_text('{"steps": 1}')
    Path("al.json").write_text('{"steps": 1, "lm_steps": 1, "d_lm": 8, "lm_layers": 1}')
    for argv in TRAINING_ARGV:
        assert main([*argv, "--manifest", "m.jsonl"]) == 0
    for kind in ("encoder", "asr", "fusion"):
        cfg = json.loads(read_checkpoint(f"{kind}.ckpt")[1]["encoder_cfg"])
        assert cfg["sample_rate"] == 22050, kind
    rates = _log_mel_rates(monkeypatch)
    assert main(["transcribe", "--ckpt", "asr.ckpt", "--wav", "in.wav"]) == 0
    assert main(["infer", "--fusion", "fusion.ckpt", "--wav", "in.wav", "--task",
                 "transcribe", "--max-tokens", "2"]) == 0
    assert rates == [22050, 22050]


def _resample_calls(monkeypatch) -> list:
    """Log (input rate, target rate, whether it returned its input) per
    ``cli.resample`` call."""
    calls = []

    def logging_resample(buf, rate):
        out = resample(buf, rate)
        calls.append((buf.sample_rate, rate, out is buf))
        return out

    monkeypatch.setattr("slmforge.cli.resample", logging_resample)
    return calls


def test_records_of_one_wav_resample_it_once_to_the_per_record_features(
        manifest, monkeypatch):
    first = Manifest.read(manifest).records[0]
    three = [replace(first, id=f"r{i}", offset_s=lo, duration_s=0.6)
             for i, lo in enumerate((0.4, 1.0, 1.7))]
    cfg = SpeechEncoderConfig(sample_rate=22050)
    want = [cli._encoder_input(read_wav(first.source_path), cfg, rec.id,
                               (rec.offset_s, rec.offset_s + rec.duration_s))
            for rec in three]
    calls = _resample_calls(monkeypatch)
    got = [features for _, features in cli._records_with_audio(manifest, three, cfg)]
    # the WAV is resampled once; each record's call finds it at the rate
    assert calls == [(16000, 22050, False)] + [(22050, 22050, True)] * 3
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_records_already_at_the_encoder_rate_use_the_wav_as_read(manifest, monkeypatch):
    first = Manifest.read(manifest).records[0]
    three = [replace(first, id=f"r{i}", offset_s=lo, duration_s=0.6)
             for i, lo in enumerate((0.4, 1.0, 1.7))]
    cfg = SpeechEncoderConfig()
    wav = read_wav(first.source_path)
    assert wav.sample_rate == cfg.sample_rate == first.sample_rate
    want = [cli._encoder_input(wav, cfg, rec.id,
                               (rec.offset_s, rec.offset_s + rec.duration_s))
            for rec in three]
    calls = _resample_calls(monkeypatch)
    got = [features for _, features in cli._records_with_audio(manifest, three, cfg)]
    assert calls == [(16000, 16000, True)] * 4
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("argv", [*TRAINING_ARGV[:2], TRAINING_ARGV[3],
                                  ["transcribe", "--ckpt", "asr.ckpt"],
                                  ["infer", "--fusion", "fusion.ckpt", "--task", "transcribe"]],
                         ids=lambda argv: argv[0])
def test_a_file_that_is_not_a_wav_exits_2_naming_it(trained, tmp_path, monkeypatch, capsys,
                                                   argv):
    monkeypatch.chdir(trained)
    text = tmp_path / "notes.wav"
    text.write_text("not audio\n")
    out = tmp_path / "out.ckpt"
    if argv[0] in ("transcribe", "infer"):
        argv = [*argv, "--wav", str(text)]
    else:
        m = Manifest.read("m.jsonl")
        m.records[0].source_path = str(text)
        m.write(tmp_path / "m.jsonl")
        argv = [*argv[:-1], str(out), "--manifest", str(tmp_path / "m.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"slmforge {argv[0]}: {text}: not a RIFF/WAVE container\n"
    assert not out.exists()


@pytest.mark.parametrize("duration_s, frames", [(0.035, 2), (0.045, 3)])
def test_a_wav_too_short_for_a_speech_row_exits_2_in_infer_naming_the_file(
        trained, tmp_path, monkeypatch, capsys, duration_s, frames):
    monkeypatch.chdir(trained)
    for step in ("slmforge.slm.extract_multilayer_features", "slmforge.slm.generate"):
        monkeypatch.setattr(step, _no_training)
    wav = tmp_path / "short.wav"
    write_wav(wav, sine(440.0, duration_s))
    assert main(["infer", "--fusion", "fusion.ckpt", "--task", "transcribe",
                 "--wav", str(wav)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"slmforge infer: --wav {wav} gives {frames} log-mel frames at 16000 Hz, 1 encoder "
        "frame(s); the speech aligner needs at least 2\n")
    # transcribe still decodes it: the encoder needs 2 log-mel frames
    assert main(["transcribe", "--ckpt", "asr.ckpt", "--wav", str(wav)]) == 0


@pytest.mark.parametrize("argv", [["transcribe", "--ckpt", "asr.ckpt"],
                                  ["infer", "--fusion", "fusion.ckpt", "--task", "transcribe"]],
                         ids=lambda argv: argv[0])
def test_a_wav_too_short_for_the_encoder_exits_2_naming_the_flag_and_file(
        trained, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(trained)
    wav = tmp_path / "short.wav"
    write_wav(wav, sine(440.0, 0.015))
    assert main([*argv, "--wav", str(wav)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"slmforge {argv[0]}: --wav {wav} gives 0 log-mel frames at "
                            "16000 Hz; the encoder needs at least 2\n")
