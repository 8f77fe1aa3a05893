#!/usr/bin/env python3
"""Self-supervised pretraining in miniature.

KMeans over MFCCs supplies discrete pseudo-labels; the encoder learns to
predict them at masked frame positions. A warm start from a checkpoint
(fresh optimizer state) then beats an equally long run from scratch.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from slmforge.nn import load_checkpoint, save_checkpoint
from slmforge.pretrain import (
    PretrainConfig,
    SpeechEncoder,
    SpeechEncoderConfig,
    continued_pretrain,
    evaluate_masked_loss,
    initial_labels,
    span_mask,
)

workdir = Path(tempfile.mkdtemp(prefix="slmforge-demo-"))

# eight synthetic "utterances": cluster structure the codebook can find
rng = np.random.default_rng(606)
dataset = []
for _ in range(8):
    base = rng.standard_normal(12)
    dataset.append(base + 0.3 * rng.standard_normal((50, 12)))

mask = span_mask(25, PretrainConfig(mask_prob=0.065, span_len=10), seed=0)
print(f"span mask over 25 frames: {mask.astype(int)}")

enc_cfg = SpeechEncoderConfig(input_dim=12, dim=24, n_layers=2, n_heads=2)
cfg = PretrainConfig(epochs=10**6, lr=1e-3, batch_seconds=2.0, k=4, n_mfcc=6)

print("\npretraining from scratch for 200 steps...")
encoder, history = continued_pretrain(dataset, replace(cfg, max_steps=200),
                                      SpeechEncoder(enc_cfg, cfg.k, seed=5), seed=5)
print(f"loss: {history[0][1]:.3f} (step 1) -> {history[-1][1]:.3f} (step {history[-1][0]})")

ckpt = workdir / "encoder.ckpt"
save_checkpoint(encoder, ckpt, {"note": "demo 03"})
print(f"checkpoint saved to {ckpt}")

print("\ncontinued pretraining (warm weights, fresh optimizer) vs scratch, 100 steps each:")
cfg100 = replace(cfg, max_steps=100)
warm, _ = continued_pretrain(dataset, cfg100, load_checkpoint(ckpt, SpeechEncoder), seed=5)
cold, _ = continued_pretrain(dataset, cfg100, SpeechEncoder(enc_cfg, cfg.k, seed=5), seed=5)
_, labels = initial_labels(dataset, cfg, seed=5)
print(f"   warm start loss @100: {evaluate_masked_loss(warm, dataset, labels):.4f}")
print(f"   from scratch loss @100: {evaluate_masked_loss(cold, dataset, labels):.4f}")
