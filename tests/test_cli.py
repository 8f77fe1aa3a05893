"""CLI surface: exit codes, subcommand wiring, reproducibility."""

import json
import subprocess
import sys
from dataclasses import asdict

import pytest

from slmforge.audio import SpectralConfig, write_wav
from slmforge.cli import main
from slmforge.config import config_hash
from slmforge.nn import read_checkpoint
from slmforge.pretrain import PretrainConfig, SpeechEncoderConfig
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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for command in ALL_COMMANDS:
        assert command in proc.stdout


def test_every_subcommand_has_help():
    for command in ALL_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "slmforge", command, "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, command
        assert "usage" in proc.stdout.lower()


def test_bogus_subcommand_exit_one():
    proc = subprocess.run(
        [sys.executable, "-m", "slmforge", "bogus"],
        capture_output=True, text=True,
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
        "SpectralConfig": asdict(SpectralConfig()),
        "SpeechEncoderConfig": asdict(SpeechEncoderConfig(input_dim=SpectralConfig().n_mels)),
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


@pytest.mark.parametrize("argv", [
    ["transcribe", "--jobs", "2", "--ckpt", "asr.ckpt", "--wav", "in.wav"],
    ["eval", "--seed", "1", "--refs", "refs.txt", "--hyps", "hyps.txt"],
    ["curate", "--seed", "1", "--out", "m.jsonl", "in.wav"],
    ["curate", "--deterministic", "--out", "m.jsonl", "in.wav"],
    ["pretrain", "--jobs", "2", "--manifest", "m.jsonl", "--out", "enc.ckpt"],
])
def test_dropped_flag_is_usage_error(argv):
    assert main(argv) == 1
