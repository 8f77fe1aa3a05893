"""Seeded input generator for the benchmark workloads.

Everything the program under test reads is made here from one seed: raw
WAVs, manifests, configs and text files. Sizes (utterance durations, letter
counts, recording plans, line counts) are fixed; the seed only picks the
content (letters, edits, noise), so the amount of work is the same for every
seed and timings of different seeds are comparable.

Speech is a tone alphabet: each letter is a 160 ms sine at its own
frequency, letters are 60 ms apart and words 90 ms apart. Both gaps stay
under the curation VAD's 100 ms hangover, so one utterance is one VAD span,
while the silent share keeps the speech/silence split (and hence the
quality score) well defined.

Run ``python3 bench/inputs.py --workload data --seed 1 --out DIR`` to write
one workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import bootstrap  # noqa: F401  (must precede numpy)
import numpy as np

from slmforge import synth
from slmforge.audio import AudioBuffer, write_wav
from slmforge.curate import Manifest, SegmentRecord

RATE = 16000
ALPHABET = "abcdefghijklmnopqrstuvwx"
FREQS = np.geomspace(300.0, 3400.0, len(ALPHABET))
TONE_S = 0.16
LETTER_GAP_S = 0.06
WORD_GAP_S = 0.09
PAD_S = 0.5
UTTERANCE_GAP_S = 0.8
AMPLITUDE = 0.4
# a speaker scales every letter frequency; three speakers at most
SPEAKER_SCALE = (1.0, 1.12, 0.89)
# white-noise amplitudes; quality scores measured on a 4.5 s utterance:
# clean 5.0, mild 4.75, moderate 3.9, heavy 2.1 (the gate keeps > 3.2)
NOISE = {"clean": 0.0, "mild": 0.03, "moderate": 0.07, "heavy": 0.25}
KEEP_NOISE = ("clean", "mild", "moderate")

SFT_MODES = ("transcribe", "phonemize_transcribe", "translate_transcribe",
             "translate", "transcribe_translate", "paraphrase_translate")


def letters_for(seconds: float) -> int:
    """Letter count whose utterance lasts about ``seconds``."""
    per_letter = TONE_S + LETTER_GAP_S + (WORD_GAP_S - LETTER_GAP_S) / 4
    return max(4, int(round((seconds + LETTER_GAP_S) / per_letter)))


def random_text(rng: np.random.Generator, n_letters: int) -> str:
    """``n_letters`` letters cut into words of 3 to 5 letters."""
    letters = [ALPHABET[i] for i in rng.integers(len(ALPHABET), size=n_letters)]
    words, pos = [], 0
    while pos < n_letters:
        size = int(rng.integers(3, 6))
        if n_letters - pos - size < 3:
            size = n_letters - pos
        words.append("".join(letters[pos:pos + size]))
        pos += size
    return " ".join(words)


_CIPHER = {c: ALPHABET[(7 * i + 3) % len(ALPHABET)] for i, c in enumerate(ALPHABET)}


def translate(text: str) -> str:
    """The corpus 'translation': a letter cipher with the word order reversed."""
    return " ".join("".join(_CIPHER[c] for c in w) for w in reversed(text.split()))


def speak(text: str, speaker: int = 0) -> AudioBuffer:
    """Render text in the tone alphabet; no leading or trailing silence."""
    scale = SPEAKER_SCALE[speaker]
    parts = []
    for wi, word in enumerate(text.split()):
        if wi:
            parts.append(synth.silence(WORD_GAP_S, RATE))
        for li, ch in enumerate(word):
            if li:
                parts.append(synth.silence(LETTER_GAP_S, RATE))
            freq = FREQS[ALPHABET.index(ch)] * scale
            parts.append(synth.sine(freq, TONE_S, RATE, AMPLITUDE))
    return synth.concat_buffers(parts)


def _add_noise(buf: AudioBuffer, level: str, seed: int) -> AudioBuffer:
    amp = NOISE[level]
    if amp == 0.0:
        return buf
    noise = synth.white_noise(buf.duration_s, RATE, amplitude=amp, seed=seed)
    n = min(len(buf.samples), len(noise.samples))
    return AudioBuffer(np.clip(buf.samples[:n] + noise.samples[:n], -1.0, 1.0), RATE)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_utterances(out: Path, rng, durations, prefix: str, split: str):
    """One padded WAV per utterance; returns manifest records for them."""
    records = []
    for i, seconds in enumerate(durations):
        text = random_text(rng, letters_for(seconds))
        speech = speak(text, speaker=i % 2)
        pad = synth.silence(PAD_S, RATE)
        rel = f"wav/{prefix}{i:02d}.wav"
        write_wav(out / rel, synth.concat_buffers([pad, speech, pad]))
        records.append(SegmentRecord(
            id=f"{prefix}{i:02d}", source_path=rel, offset_s=PAD_S,
            duration_s=round(speech.duration_s, 6), speaker=f"S{i % 2}",
            quality_score=5.0, sample_rate=RATE, transcript=text,
            translation=translate(text), split=split,
        ))
    return records


# ---------------------------------------------------------------------------
# Training corpus (train and decode workloads)

# train: 24 utterances from 3 to 12 s (180 s in all); decode trains its
# checkpoints on a smaller corpus to keep its set-up short. The order is
# fixed, so a training stage picks utterances of the same lengths whatever
# the seed.
TRAIN_DURATIONS = tuple(float(x) for x in np.linspace(3.0, 12.0, 24))
DECODE_DURATIONS = tuple(float(x) for x in np.linspace(3.0, 4.5, 8))
# held-out raw WAVs for decoding, all of one length so that per-call
# latencies of different seeds and files are comparable
HELDOUT_DURATIONS = (3.0,) * 8


@dataclass(frozen=True)
class TrainSpec:
    """Corpus and step counts of one training pass through the CLI stages.

    ``batch_seconds`` exceeds the three longest utterances together, so a
    pretraining batch holds at least four utterances (except an epoch's
    last); fine-tuning and fusion draw batches of ``batch``.
    """

    durations: tuple
    pretrain_steps: int
    batch_seconds: float
    finetune_steps: int
    lm_steps: int
    aligner_steps: int
    batch: int = 4

    def configs(self) -> dict:
        # lr 1e-2 everywhere: at these few steps the pretraining, CTC and LM
        # losses then fall clearly below their first values
        return {
            "pretrain.json": {
                "epochs": 1000, "max_steps": self.pretrain_steps,
                "refresh_schedule": [1], "batch_seconds": self.batch_seconds,
                "lr": 1e-2, "k": 16, "n_mels": 24, "dim": 32,
                "n_layers": 2, "n_heads": 2,
            },
            "finetune.json": {
                "steps": self.finetune_steps, "lr": 1e-2,
                "batch_size": self.batch, "eval_every": self.finetune_steps,
            },
            "aligner.json": {
                "steps": self.aligner_steps, "lm_steps": self.lm_steps,
                "batch_size": self.batch, "d_lm": 32, "lm_layers": 1,
                "lm_heads": 2, "lm_lr": 1e-2, "lr": 1e-2,
            },
        }


def make_corpus(out: Path, seed: int, spec: TrainSpec, heldout_durations=()) -> dict:
    """Manifest, configs and held-out WAVs for the training stages."""
    rng = np.random.default_rng([seed, 1])
    (out / "wav").mkdir(parents=True, exist_ok=True)
    records = _write_utterances(out, rng, spec.durations, "utt", "train")
    Manifest(records, {"source": "bench.inputs"}).write(out / "manifest.jsonl")
    for name, cfg in spec.configs().items():
        _write_json(out / name, cfg)
    heldout = _write_utterances(out, rng, heldout_durations, "heldout", "test")
    return {
        "n_records": len(records),
        "heldout": [{"wav": r.source_path, "transcript": r.transcript}
                    for r in heldout],
    }


# ---------------------------------------------------------------------------
# Raw recordings for curation (data workload)

# Each recording: (noise level, [(utterance seconds, speaker), ...]).
# Decoys: the 1.5 s utterance is too_short; the pipeline splits the 31.5 s
# utterance into a 30 s piece and a tail under 3 s (too_short); the
# heavy-noise recording is low_quality throughout; the noise-only recording
# has no speech at all.
RECORDINGS = (
    ("clean", [(9.0, 0), (9.5, 1), (9.0, 2), (10.0, 0), (9.5, 1), (9.0, 2)]),
    ("mild", [(10.0, 0), (12.0, 1), (8.0, 0), (11.0, 1)]),
    ("moderate", [(6.0, 0), (1.5, 1), (7.0, 0), (4.0, 1)]),
    ("heavy", [(8.0, 0), (9.0, 0)]),
    ("clean", [(31.5, 0)]),
    ("mild", [(4.0, 0)]),
    ("noise-only", 20.0),
)
MIN_DUR_S, MAX_DUR_S = 3.0, 30.0


def _expected_segments(seconds: float, keep: bool):
    """Pieces the pipeline cuts from one utterance, with their fate."""
    pieces = []
    while seconds > 1e-9:
        pieces.append(min(seconds, MAX_DUR_S))
        seconds -= pieces[-1]
    out = []
    for dur in pieces:
        if dur < MIN_DUR_S:
            out.append((dur, "too_short"))
        else:
            out.append((dur, None if keep else "low_quality"))
    return out


def make_recordings(out: Path, seed: int) -> dict:
    """Raw recordings plus the curation outcome they are built to produce."""
    rng = np.random.default_rng([seed, 2])
    (out / "raw").mkdir(parents=True, exist_ok=True)
    paths, kept, rejected, audio_s = [], [], {}, 0.0
    for ri, (level, plan) in enumerate(RECORDINGS):
        rel = f"raw/rec{ri}.wav"
        if level == "noise-only":
            buf = synth.white_noise(plan, RATE, amplitude=NOISE["mild"],
                                    seed=int(rng.integers(2**31)))
        else:
            parts = [synth.silence(PAD_S, RATE)]
            t = PAD_S
            for seconds, speaker in plan:
                text = random_text(rng, letters_for(seconds))
                speech = speak(text, speaker)
                start, t = t, t + speech.duration_s
                for piece_s, reason in _expected_segments(speech.duration_s,
                                                          level in KEEP_NOISE):
                    if reason is None:
                        kept.append({"path": rel, "offset_s": start,
                                     "duration_s": piece_s, "transcript": text})
                    else:
                        rejected[reason] = rejected.get(reason, 0) + 1
                    start += piece_s
                parts += [speech, synth.silence(UTTERANCE_GAP_S, RATE)]
                t += UTTERANCE_GAP_S
            parts.append(synth.silence(PAD_S - UTTERANCE_GAP_S + PAD_S, RATE))
            buf = _add_noise(synth.concat_buffers(parts), level,
                             int(rng.integers(2**31)))
        write_wav(out / rel, buf)
        paths.append(rel)
        audio_s += buf.duration_s
    return {"paths": paths, "audio_s": audio_s, "kept": kept,
            "rejected": {r: rejected.get(r, 0)
                         for r in ("too_short", "too_long", "low_quality")}}


# ---------------------------------------------------------------------------
# Scoring pairs with known edits (data workload)

EVAL_LINES = 3000


def make_eval_pairs(out: Path, seed: int, n_lines: int = EVAL_LINES) -> dict:
    """Reference/hypothesis files with at most one injected edit per line.

    One edit per line makes the oracle exact: a changed letter costs one word
    and one character; a deleted or inserted word of L letters costs one word
    and L + 1 characters (the word and one space).
    """
    rng = np.random.default_rng([seed, 3])
    refs, hyps = [], []
    word_errors = char_errors = ref_words = ref_chars = 0
    for _ in range(n_lines):
        ref = random_text(rng, int(rng.integers(8, 25)))
        words = ref.split()
        edit = ("none", "sub", "del", "ins")[int(rng.integers(4))]
        i = int(rng.integers(len(words)))
        if edit == "sub":
            w = words[i]
            j = int(rng.integers(len(w)))
            new = ALPHABET[(ALPHABET.index(w[j]) + 1 + int(rng.integers(23))) % 24]
            words[i] = w[:j] + new + w[j + 1:]
            word_errors, char_errors = word_errors + 1, char_errors + 1
        elif edit == "del":
            char_errors += len(words.pop(i)) + 1
            word_errors += 1
        elif edit == "ins":
            extra = random_text(rng, 3)
            words.insert(i, extra)
            word_errors, char_errors = word_errors + 1, char_errors + len(extra) + 1
        refs.append(ref)
        hyps.append(" ".join(words))
        ref_words += len(ref.split())
        ref_chars += len(ref)
    (out / "refs.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
    (out / "hyps.txt").write_text("\n".join(hyps) + "\n", encoding="utf-8")
    return {"refs": "refs.txt", "hyps": "hyps.txt", "lines": n_lines,
            "wer": word_errors / ref_words, "cer": char_errors / ref_chars}


def make_report_rows(out: Path, seed: int, n_rows: int = 8) -> dict:
    """A JSON array of metric rows for ``report``, with one extra column."""
    rng = np.random.default_rng([seed, 4])
    rows = [{"name": f"system-{i}", "hours": str(int(rng.integers(1, 1000))),
             "wer": round(float(rng.uniform(5, 60)), 2),
             "cer": round(float(rng.uniform(2, 30)), 2),
             "chrf": round(float(rng.uniform(20, 90)), 2)} for i in range(n_rows)]
    _write_json(out / "rows.json", rows)
    return {"rows": "rows.json", "names": [r["name"] for r in rows]}


# step counts are fixed per workload: train spends its time in them, decode
# only builds its checkpoints with them during set-up
TRAIN_SPEC = TrainSpec(TRAIN_DURATIONS, pretrain_steps=10, batch_seconds=35.0,
                       finetune_steps=6, lm_steps=60, aligner_steps=8)
DECODE_SPEC = TrainSpec(DECODE_DURATIONS, pretrain_steps=6, batch_seconds=13.0,
                        finetune_steps=6, lm_steps=30, aligner_steps=4)


def make_inputs(workload: str, out: Path, seed: int) -> dict:
    """Write one workload's inputs under ``out``; return what it should produce."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "train":
        return make_corpus(out, seed, TRAIN_SPEC)
    if workload == "decode":
        return make_corpus(out, seed, DECODE_SPEC, HELDOUT_DURATIONS)
    if workload == "data":
        return {"curate": make_recordings(out, seed),
                "eval": make_eval_pairs(out, seed),
                "report": make_report_rows(out, seed)}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("train", "decode", "data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    _write_json(out / "expected.json", make_inputs(args.workload, out, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
