"""Synthetic audio generation for demos, smoke runs, and tests."""

from __future__ import annotations

import numpy as np

from .audio import AudioBuffer


def sine(freq_hz: float, duration_s: float, sample_rate: int = 16000,
         amplitude: float = 0.5) -> AudioBuffer:
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return AudioBuffer(amplitude * np.sin(2.0 * np.pi * freq_hz * t), sample_rate)


def silence(duration_s: float, sample_rate: int = 16000) -> AudioBuffer:
    return AudioBuffer(np.zeros(int(round(duration_s * sample_rate))), sample_rate)


def white_noise(duration_s: float, sample_rate: int = 16000,
                amplitude: float = 0.1, seed: int = 0) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    return AudioBuffer(amplitude * rng.standard_normal(n).clip(-3, 3) / 3.0, sample_rate)


def concat_buffers(buffers) -> AudioBuffer:
    rates = {b.sample_rate for b in buffers}
    if len(rates) != 1:
        raise ValueError(f"cannot concatenate buffers with rates {sorted(rates)}")
    return AudioBuffer(np.concatenate([b.samples for b in buffers]), rates.pop())


def tone_sequence(freqs, seg_duration_s: float) -> AudioBuffer:
    """One ``sine`` segment per frequency at its default rate and amplitude,
    concatenated; the toy utterance shape."""
    return concat_buffers([sine(f, seg_duration_s) for f in freqs])
