#!/usr/bin/env python3
"""Walk through the audio front-end: WAV I/O, resampling, log-mel, MFCC."""

import tempfile
from pathlib import Path

import numpy as np

from slmforge.audio import (FRAME_MS, HOP_MS, analysis_frame, fft_length, log_mel, mfcc,
                            read_wav, resample, write_wav)
from slmforge.synth import sine

workdir = Path(tempfile.mkdtemp(prefix="slmforge-demo-"))

# a one-second 440 Hz tone at 32 kHz, round-tripped through a WAV file
buf = sine(440.0, 1.0, sample_rate=32000)
wav_path = workdir / "tone.wav"
write_wav(wav_path, buf)
loaded = read_wav(wav_path)
print(f"wrote/read {wav_path.name}: {len(loaded.samples)} samples @ {loaded.sample_rate} Hz")

# linear resampling to the canonical 16 kHz
down = resample(loaded, 16000)
print(f"resampled to {down.sample_rate} Hz -> {len(down.samples)} samples")
spectrum = np.abs(np.fft.rfft(down.samples))
freqs = np.fft.rfftfreq(len(down.samples), d=1 / 16000)
print(f"dominant frequency after resampling: {freqs[np.argmax(spectrum)]:.1f} Hz")

# log-mel features: the one fixed front end, with the mel count (here 40) as
# its only argument; frame, hop and FFT length follow from the sample rate
frame, hop = analysis_frame(down.sample_rate)
print(f"{FRAME_MS:g} ms Hann frames every {HOP_MS:g} ms: {frame} and {hop} samples "
      f"@ {down.sample_rate} Hz, {fft_length(frame)}-point FFT")
feats = log_mel(down, 40)
print(f"log-mel array: {feats.shape} (frames x mels), one row per {HOP_MS:g} ms hop")
mid = feats[len(feats) // 2]
print(f"hottest mel band at frame {len(feats) // 2}: {int(np.argmax(mid))}")

# MFCCs are the orthonormal DCT of each log-mel frame
coeffs = mfcc(feats, 13)
print(f"mfcc array: {coeffs.shape}")
print(f"first frame, first four coefficients: {np.round(coeffs[0, :4], 3)}")
