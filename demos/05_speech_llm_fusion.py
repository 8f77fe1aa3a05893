#!/usr/bin/env python3
"""Late fusion end to end on a five-class toy task.

A frozen random encoder embeds five tones; a tiny causal LM is pretrained on
text-only stand-ins and frozen; only the MLP aligner trains. Generation then
answers transcription requests, and the CoT parser reads the output. The
encoder, LM, aligner and tokenizer go into one fusion checkpoint and come back
from it.
"""

import tempfile
from pathlib import Path

import numpy as np

from slmforge.audio import log_mel
from slmforge.curate import SegmentRecord
from slmforge.nn import load_checkpoint, save_checkpoint
from slmforge.pretrain import SpeechEncoder, SpeechEncoderConfig
from slmforge.slm import (
    CausalLM,
    CausalLMConfig,
    FusionModel,
    FusionTrainConfig,
    build_instruction_dataset,
    detect_repetition_loop,
    extract_multilayer_features,
    generate,
    lm_stand_in_sequences,
    parse_cot_output,
    train_aligner,
    train_lm,
)
from slmforge.synth import sine

alphabet = "abcde"
freqs = [350.0, 700.0, 1200.0, 1900.0, 2800.0]
n_mels = 16  # log-mel bands: the encoder's input width

encoder = SpeechEncoder(
    SpeechEncoderConfig(input_dim=n_mels, dim=24, n_layers=2, n_heads=2),
    n_classes=8, seed=3,
).freeze()

records, feats = [], {}
for i, ch in enumerate(alphabet):
    rec = SegmentRecord(id=f"u{i}", source_path="synth", offset_s=0.0,
                        duration_s=0.5, speaker="S0", quality_score=5.0,
                        sample_rate=16000, transcript=ch)
    records.append(rec)
    audio = log_mel(sine(freqs[i], 0.5), n_mels)
    feats[rec.id] = extract_multilayer_features(encoder, audio)
print(f"multi-layer speech features per clip: {feats['u0'].shape} "
      "(frames x concatenated layers)")

examples, tok, _ = build_instruction_dataset(records, ["transcribe"])
print(f"rendered example: {examples[0].text!r}")

lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=48, n_layers=2,
                             n_heads=2), seed=11)
corpus = lm_stand_in_sequences(examples, tok, feats)
hist = train_lm(lm, corpus, steps=400, lr=3e-3, seed=11)
print(f"LM pretraining loss: {hist[0][1]:.2f} -> {hist[-1][1]:.2f}; freezing the LM")

# the Speech LLM builds its aligner from the encoder's and the LM's widths;
# train_aligner freezes the encoder and the LM and trains the aligner alone
model = FusionModel(encoder, lm, tok, seed=12)
pairs = [(feats[ex.audio_id], ex) for ex in examples]
hist = train_aligner(model, pairs, FusionTrainConfig(steps=300, lr=1e-3, batch_size=2),
                     seed=100)
print(f"aligner-only fusion loss: {hist[0][1]:.3f} -> {hist[-1][1]:.3f}")

print("\ngeneration (greedy until <|end|>):")
correct = 0
for ex in examples:
    out = generate(model, feats[ex.audio_id], "transcribe", max_tokens=30)
    parsed = parse_cot_output(out.text)
    flag = "" if not detect_repetition_loop(out.text) else "  [repetition loop]"
    correct += parsed.final == ex.final
    print(f"   want {ex.final!r} -> raw {out.text!r} -> FINAL {parsed.final!r}{flag}")
print(f"FINAL accuracy: {correct}/{len(examples)}")

ckpt = Path(tempfile.mkdtemp(prefix="slmforge-demo-")) / "fusion.ckpt"
save_checkpoint(model, ckpt, {"note": "demo 05"})
back = load_checkpoint(ckpt, FusionModel)
same = all(
    generate(back, feats[ex.audio_id], "transcribe", max_tokens=30).text
    == generate(model, feats[ex.audio_id], "transcribe", max_tokens=30).text
    for ex in examples
)
print(f"\nfusion checkpoint {ckpt}: reloaded model generates the same text: {same}")
