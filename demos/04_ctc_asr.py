#!/usr/bin/env python3
"""CTC fine-tuning on ten tone-pattern utterances until it transcribes them.

Also shows transcription normalization (lowercasing, punctuation removal,
digit verbalization) and greedy vs beam decoding.
"""

import numpy as np

from slmforge.asr import (
    BLANK_SYMBOL,
    FinetuneConfig,
    Vocab,
    builtin_rules,
    ctc_beam_decode,
    ctc_greedy_decode,
    finetune_ctc,
    normalize_text,
)
from slmforge.audio import log_mel
from slmforge.pretrain import SpeechEncoder, SpeechEncoderConfig
from slmforge.synth import tone_sequence

# normalization as applied to every transcript before training
lexicon = builtin_rules("en")
for text in ("Hello, World!", "We saw 23 birds."):
    print(f"normalize({text!r}) -> {normalize_text(text, lexicon)!r}")

# ten utterances: three tone segments each, one tone per character
alphabet = "abcde"
freqs = [400.0, 800.0, 1200.0, 1600.0, 2000.0]
n_mels = 16  # log-mel bands: the encoder's input width
rng = np.random.default_rng(2024)
examples, seen = [], set()
while len(examples) < 10:
    idx = tuple(rng.integers(0, 5, size=3))
    if idx in seen:
        continue
    seen.add(idx)
    text = "".join(alphabet[i] for i in idx)
    feats = log_mel(tone_sequence([freqs[i] for i in idx], 0.2), n_mels)
    examples.append((feats, text))
print(f"\ntraining set: {[t for _, t in examples]}")

vocab = Vocab.from_texts([t for _, t in examples], (BLANK_SYMBOL,))
encoder = SpeechEncoder(
    SpeechEncoderConfig(input_dim=n_mels, dim=24, n_layers=2, n_heads=2),
    n_classes=8, seed=7,
)
cfg = FinetuneConfig(steps=2000, lr=3e-3, batch_size=2, eval_every=50)
model, history = finetune_ctc(encoder, examples, vocab, cfg, stop_at_zero_wer=True, seed=7)
evals = [(s, w) for s, _, w in history if w is not None]
print("train WER by step:", [(s, round(w, 2)) for s, w in evals])

print("\ndecodes:")
for feats, text in examples[:5]:
    print(f"   ref {text} -> hyp {model.transcribe(feats)}")

# greedy vs beam on the decoded lattice of the first utterance
lattice = model.log_probs(examples[0][0])
greedy = vocab.decode(ctc_greedy_decode(lattice))
beam = vocab.decode(ctc_beam_decode(lattice, beam_width=4))
print(f"\ngreedy: {greedy!r}   beam(4): {beam!r}")
