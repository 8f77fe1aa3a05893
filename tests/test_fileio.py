"""Atomic artifact writes: a failed write leaves the old file and no debris."""

import json
import os
import stat
import threading

import numpy as np
import pytest

from slmforge import fileio
from slmforge.asr import Vocab
from slmforge.audio import AudioBuffer, wav_bytes, write_wav
from slmforge.cli import main
from slmforge.curate import Manifest
from slmforge.nn import checkpoint_bytes, save_checkpoint
from slmforge.slm import CharTokenizer, write_instruction_dataset

OLD = b"old artifact bytes\n"


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
        lambda p: save_checkpoint({"w": np.ones(3)}, p, {"k": "v"})),
    "write_wav": _raises(
        lambda p: write_wav(p, AudioBuffer(np.zeros(16), 16000))),
    "manifest": _raises(lambda p: Manifest([], {"v": 1}).write(p)),
    "sft": _raises(lambda p: write_instruction_dataset(p, [], CharTokenizer("ab"))),
    "vocab": _raises(lambda p: Vocab.from_texts(["ab"]).to_file(p)),
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
    arrays = {"w": np.arange(6.0).reshape(2, 3)}
    save_checkpoint(arrays, tmp_path / "a.ckpt", {"k": "v"})
    assert (tmp_path / "a.ckpt").read_bytes() == checkpoint_bytes(arrays, {"k": "v"})
    buf = AudioBuffer(np.linspace(-1, 1, 32), 16000)
    write_wav(tmp_path / "a.wav", buf)
    assert (tmp_path / "a.wav").read_bytes() == wav_bytes(buf)
    Vocab(["<blank>", "a", "é"]).to_file(tmp_path / "vocab.txt")
    assert (tmp_path / "vocab.txt").read_bytes() == "<blank>\na\né\n".encode("utf-8")
