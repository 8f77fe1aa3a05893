"""Atomic artifact writes: a failed write leaves the old file and no debris."""

import json
import os
import stat
import threading
from dataclasses import asdict

import numpy as np
import pytest

from slmforge import fileio
from slmforge.audio import AudioBuffer, wav_bytes, write_wav
from slmforge.cli import main
from slmforge.curate import Manifest, SegmentRecord
from slmforge.errors import ConfigError
from slmforge.nn import checkpoint_bytes, save_checkpoint
from slmforge.pretrain import SpeechEncoder, SpeechEncoderConfig
from slmforge.slm import (
    InstructionExample,
    chat_vocab,
    read_instruction_dataset,
    write_instruction_dataset,
)

OLD = b"old artifact bytes\n"


def _encoder():
    return SpeechEncoder(SpeechEncoderConfig(input_dim=4, dim=8, n_layers=1), 3)


def test_exception_mid_write_keeps_old_bytes_and_leaves_no_temp(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(OLD)
    with pytest.raises(RuntimeError, match="disk gone"):
        with fileio.atomic_open(path, "wb") as fh:
            fh.write(b"half of the new")
            fh.flush()
            raise RuntimeError("disk gone")
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_clean_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(OLD)
    with fileio.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("naïve\n")
    assert path.read_bytes() == "naïve\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_through_symlink_keeps_the_link(tmp_path):
    real = tmp_path / "real.json"
    real.write_bytes(OLD)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    with fileio.atomic_open(link, "wb") as fh:
        fh.write(b"new")
    assert link.is_symlink()
    assert real.read_bytes() == b"new"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


def test_fifo_target_is_written_in_place(tmp_path):
    # `eval --out /dev/stdout` and pipes cannot be renamed over
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with fileio.atomic_open(fifo, "wb") as fh:
        fh.write(b"row\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"row\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["out"]


def _eval_out(path):
    refs = path.parent / "refs.txt"
    hyps = path.parent / "hyps.txt"
    refs.write_text("waaw\n")
    hyps.write_text("waaw\n")
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                 "--metrics", "wer", "--out", str(path)]) == 2
    for p in (refs, hyps):
        p.unlink()


def _report_out(path):
    rows = path.parent / "rows.json"
    rows.write_text(json.dumps([{"name": "ours", "wer": 1.0}]))
    assert main(["report", "--rows", str(rows), "--out", str(path)]) == 2
    rows.unlink()


def _raises(write):
    def run(path):
        with pytest.raises(OSError, match="rename refused"):
            write(path)
    return run


WRITERS = {
    "save_checkpoint": _raises(
        lambda p: save_checkpoint(_encoder(), p, {"k": "v"})),
    "write_wav": _raises(
        lambda p: write_wav(p, AudioBuffer(np.zeros(16), 16000))),
    "manifest": _raises(lambda p: Manifest([], {"v": 1}).write(p)),
    "sft": _raises(lambda p: write_instruction_dataset(p, [], chat_vocab("ab"))),
    "eval_out": _eval_out,  # the CLI reports the OSError as exit 2
    "report_out": _report_out,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_every_artifact_writer_is_atomic(tmp_path, monkeypatch, capsys, writer):
    def refuse(src, dst):
        raise OSError("rename refused")

    path = tmp_path / "artifact"
    path.write_bytes(OLD)
    monkeypatch.setattr(fileio.os, "replace", refuse)
    WRITERS[writer](path)
    assert path.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["artifact"]


def test_writers_produce_the_same_bytes_as_their_serialisers(tmp_path):
    encoder = _encoder()
    save_checkpoint(encoder, tmp_path / "a.ckpt", {"k": "v"})
    assert (tmp_path / "a.ckpt").read_bytes() == checkpoint_bytes(
        encoder.state_arrays(), {"kind": "encoder", **encoder.record(), "k": "v"})
    buf = AudioBuffer(np.linspace(-1, 1, 32), 16000)
    write_wav(tmp_path / "a.wav", buf)
    assert (tmp_path / "a.wav").read_bytes() == wav_bytes(buf)


def test_missing_directory_error_names_the_target_not_the_temp_file(tmp_path):
    path = tmp_path / "nodir" / "x.json"
    with pytest.raises(FileNotFoundError) as info:
        with fileio.atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("{}")
    assert info.value.filename == str(path)
    assert ".tmp" not in str(info.value)
    assert not (tmp_path / "nodir").exists()


# ---------------------------------------------------------------------------
# Header-JSONL: manifests and SFT sets


RECORD = SegmentRecord("rec-é", "a.wav", 0.5, 3.25, "S0", 4.1, 16000, "waaw", None, "train")
SECOND = SegmentRecord(**{**asdict(RECORD), "id": "b"})
EXAMPLE = InstructionExample("rec-é", "transcribe", "<|user|>ab", "ab")


def _write_manifest(path):
    Manifest([RECORD, SECOND], {"v": 1, "name": "naïve"}).write(path)
    return Manifest.read, "duration_s"


def _write_sft(path):
    write_instruction_dataset(path, [EXAMPLE, EXAMPLE], chat_vocab("ab"), {"v": 1})
    return read_instruction_dataset, "final"


JSONL_WRITERS = {"manifest": _write_manifest, "sft": _write_sft}


def _old_jsonl_bytes(header, rows):
    """The serialisation both writers used before sharing fileio.write_jsonl."""
    lines = [json.dumps(d, sort_keys=True, ensure_ascii=False)
             for d in [header] + [asdict(r) for r in rows]]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_jsonl_writers_keep_their_bytes(tmp_path):
    _write_manifest(tmp_path / "m.jsonl")
    want = _old_jsonl_bytes({"__header__": True, "v": 1, "name": "naïve"}, [RECORD, SECOND])
    assert (tmp_path / "m.jsonl").read_bytes() == want
    _write_sft(tmp_path / "s.jsonl")
    header = {"__header__": True, "charset": "ab", "v": 1}
    assert (tmp_path / "s.jsonl").read_bytes() == _old_jsonl_bytes(header, [EXAMPLE] * 2)


def _truncate_last(lines):
    return lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]


def _drop_field(key):
    def edit(lines):
        row = json.loads(lines[2])
        del row[key]
        return lines[:2] + [json.dumps(row)]
    return edit


@pytest.mark.parametrize("fmt", sorted(JSONL_WRITERS))
@pytest.mark.parametrize("defect, line", [("truncated", 3), ("missing", 3),
                                          ("not_object", 2)])
def test_jsonl_readers_name_path_and_line_of_a_bad_line(tmp_path, fmt, defect, line):
    path = tmp_path / "data.jsonl"
    read, required = JSONL_WRITERS[fmt](path)
    lines = path.read_text(encoding="utf-8").splitlines()
    edit = {"truncated": _truncate_last, "missing": _drop_field(required),
            "not_object": lambda ls: [ls[0], "[1, 2]", ls[2]]}[defect]
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"line {line}: ") as info:
        read(path)
    assert str(info.value).startswith(f"{path} line {line}: ")
    if defect == "missing":
        assert required in str(info.value)


def test_manifest_reader_defaults_optional_fields_and_ignores_unknown_keys(tmp_path):
    path = tmp_path / "m.jsonl"
    row = {k: v for k, v in asdict(RECORD).items() if k not in ("translation", "split")}
    path.write_text(json.dumps({"__header__": True, "v": 1}) + "\n\n"
                    + json.dumps({**row, "extra": 5}) + "\n", encoding="utf-8")
    back = Manifest.read(path)
    assert back.header == {"v": 1}
    assert back.records == [SegmentRecord(**{**row, "split": "unsplit"})]


def test_read_text_reads_newlines_as_open_does(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a\r\nb\rc\nnaïve\u2028d\r\n".encode("utf-8"))
    assert fileio.read_text(path) == path.read_text(encoding="utf-8") == "a\nb\nc\nnaïve\u2028d\n"


@pytest.mark.parametrize("fmt", sorted(JSONL_WRITERS))
def test_jsonl_readers_name_the_line_holding_bytes_that_are_not_utf8(tmp_path, fmt):
    path = tmp_path / "data.jsonl"
    read, _ = JSONL_WRITERS[fmt](path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"\xc3\xa9", b"\xe9")  # "é" in Latin-1
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ConfigError) as info:
        read(path)
    assert str(info.value).startswith(f"{path} line 2: not UTF-8: 'utf-8' codec can't decode")


def test_jsonl_rows_keep_line_separators_that_are_not_newlines(tmp_path):
    path = tmp_path / "m.jsonl"
    record = SegmentRecord(**{**asdict(RECORD), "transcript": "a\u2028b\x85c\x0cd"})
    Manifest([record], {"v": 1}).write(path)
    assert "\u2028".encode("utf-8") in path.read_bytes()  # written raw, not escaped
    assert Manifest.read(path).records == [record]
