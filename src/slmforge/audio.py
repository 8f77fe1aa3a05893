"""Audio I/O, resampling, framing and the one speech front end (log-mel, MFCC).

Everything here is pure: functions never mutate their inputs. Shared arrays
are read-only (``flags.writeable`` off): an ``AudioBuffer``'s samples, a view
of the array given (which keeps its own flags), so a stage with nothing to
change returns its input and a slice is a view; the mel bank and Hann window,
built once per key; and the frames of ``frame_signal``, a view of its input.

The front end has one path: frames addressed by their start sample ->
Hann -> ``rfft`` -> magnitude (``frame_magnitudes``), then the mel bank
product and the floored log (``mel_log``). ``log_mel`` runs it on the
regular starts 0, hop, 2 hop, ...; diarization runs the first half once per
span on the starts its windows share, and the second half per window.

WAV reading covers RIFF little-endian containers with PCM16 or IEEE float32
samples; multichannel files are downmixed by averaging, never rejected. WAV
writing is mono PCM16 only.

The front end is fixed: Hann-windowed frames of ``FRAME_MS`` every
``HOP_MS`` (``analysis_frame`` gives their sample counts, for log-mel and
curation's VAD alike), an FFT of ``fft_length(frame)`` points, a triangular
mel bank from 0 Hz to the Nyquist rate, and a log floored at ``LOG_FLOOR``.
The mel count is the only free number; callers take it from the encoder's
input width.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, SlmforgeError, TruncatedWavError, UnsupportedWavError
from .fileio import atomic_open

FRAME_MS = 25.0
HOP_MS = 10.0
MIN_FFT_SIZE = 512
LOG_FLOOR = 1e-10
# rows of one rfft call in frame_magnitudes: about 1 MB of complex spectrum
FFT_BLOCK_ROWS = 256


@dataclass
class AudioBuffer:
    """Mono audio: read-only float64 samples in [-1, 1] plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).view()
        self.samples.flags.writeable = False
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    def slice_seconds(self, start_s: float, end_s: float) -> "AudioBuffer":
        i0 = max(0, int(round(start_s * self.sample_rate)))
        i1 = min(len(self.samples), int(round(end_s * self.sample_rate)))
        return AudioBuffer(self.samples[i0:i1], self.sample_rate)


# ---------------------------------------------------------------------------
# WAV I/O


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file into a mono AudioBuffer.

    PCM16 and IEEE float32 encodings are accepted; multichannel audio is
    downmixed by averaging. Raises FileNotFoundError for a missing file,
    and, naming ``path``, UnsupportedWavError for containers/encodings
    outside that set and TruncatedWavError for a short data chunk.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_wav_bytes(raw)
    except SlmforgeError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def parse_wav_bytes(raw: bytes) -> AudioBuffer:
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise UnsupportedWavError("not a RIFF/WAVE container")

    fmt = None
    data = None
    declared = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise UnsupportedWavError("fmt chunk too short")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            declared = size
            data = body
        pos += 8 + size + (size % 2)

    if fmt is None or declared is None:
        raise UnsupportedWavError("missing fmt or data chunk")
    if len(data) < declared:
        raise TruncatedWavError(
            f"data chunk declares {declared} bytes but only {len(data)} present"
        )

    audio_format, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if n_channels < 1:
        raise UnsupportedWavError("zero channels")
    if sample_rate < 1:
        raise UnsupportedWavError(f"sample rate {sample_rate} Hz is not positive")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise UnsupportedWavError(f"unsupported encoding: format={audio_format}, bits={bits}")
    if declared % (bits // 8):
        raise UnsupportedWavError(f"data chunk of {declared} bytes is not a whole "
                                  f"number of {bits}-bit samples")

    samples = np.frombuffer(data, dtype="<i2" if bits == 16 else "<f4").astype(np.float64)
    if bits == 16:
        samples /= 32768.0

    if not np.all(np.isfinite(samples)):
        raise UnsupportedWavError("sample data contains non-finite values")

    if n_channels > 1:
        usable = (len(samples) // n_channels) * n_channels
        samples = samples[:usable].reshape(-1, n_channels).mean(axis=1)

    samples = np.clip(samples, -1.0, 1.0)
    return AudioBuffer(samples, sample_rate)


def wav_bytes(buf: AudioBuffer) -> bytes:
    """Serialize a buffer as a mono PCM16 RIFF/WAVE byte string."""
    payload = np.round(np.clip(buf.samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    fmt_chunk = b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, 1, buf.sample_rate, buf.sample_rate * 2, 2, 16
    )
    data_chunk = b"data" + struct.pack("<I", len(payload)) + payload
    return header + fmt_chunk + data_chunk


def write_wav(path, buf: AudioBuffer) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(wav_bytes(buf))


# ---------------------------------------------------------------------------
# Resampling and features


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Linear-interpolation resampling; identical rates return the buffer itself.

    Output length is round(len * target / source). Linear interpolation is
    lossy above the toy scale this package targets; good enough for speech
    and for the synthetic test signals used throughout.
    """
    if target_rate <= 0:
        raise ConfigError(f"target_rate must be positive, got {target_rate}")
    if target_rate == buf.sample_rate:
        return buf
    n_in = len(buf.samples)
    n_out = int(round(n_in * target_rate / buf.sample_rate))
    if n_in == 0 or n_out == 0:
        return AudioBuffer(np.zeros(n_out), target_rate)
    src_pos = np.arange(n_out) * (buf.sample_rate / target_rate)
    out = np.interp(src_pos, np.arange(n_in), buf.samples)
    return AudioBuffer(out, target_rate)


def analysis_frame(sample_rate: int) -> tuple:
    """(frame, hop) sample counts of the ``FRAME_MS`` window and ``HOP_MS``
    hop at ``sample_rate``; a ConfigError naming the rate when the hop
    rounds to no sample."""
    frame = int(round(FRAME_MS * sample_rate / 1000.0))
    hop = int(round(HOP_MS * sample_rate / 1000.0))
    if hop < 1:
        raise ConfigError(f"sample rate {sample_rate} Hz is too low: its {HOP_MS:g} ms "
                          f"hop rounds to {hop} samples")
    return frame, hop


def fft_length(frame: int) -> int:
    """FFT length for ``frame``-sample windows: the larger of ``MIN_FFT_SIZE``
    and the next power of two at or above ``frame``."""
    return max(MIN_FFT_SIZE, 1 << (frame - 1).bit_length())


def frame_signal(samples: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Slice a 1-D signal into (T, frame) rows; T = 1 + (n - frame) // hop.

    The rows are a read-only strided view of ``samples``, not a copy.
    """
    if len(samples) < frame:
        return np.zeros((0, frame))
    return sliding_window_view(samples, frame)[::hop]


def mel_scale(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank from 0 Hz to the Nyquist rate over rfft bins,
    shape (n_mels, fft_size//2 + 1); built once per argument triple and
    returned read-only."""
    mel_points = np.linspace(0.0, mel_scale(sample_rate / 2.0), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    bank = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=None)
def _hann_window(frame: int) -> np.ndarray:
    """``np.hanning(frame)``, built once per length and returned read-only."""
    window = np.hanning(frame)
    window.flags.writeable = False
    return window


def frame_magnitudes(samples: np.ndarray, starts: np.ndarray, frame: int) -> np.ndarray:
    """|rfft| over ``fft_length(frame)`` points of the Hann-windowed
    ``frame``-sample frames of ``samples`` that begin at the sample indices
    ``starts``: (len(starts), fft_length(frame)//2 + 1).

    Each row depends only on its own frame, so rows shared by overlapping
    callers can be computed once and gathered. The rows are transformed
    ``FFT_BLOCK_ROWS`` at a time into the one output array, so the windowed
    frames and the complex spectrum never exist for a whole recording at
    once; a row's bytes do not depend on the block it falls in.
    """
    fft_size = fft_length(frame)
    out = np.empty((len(starts), fft_size // 2 + 1))
    if len(starts) == 0:
        return out
    view = sliding_window_view(samples, frame)
    window = _hann_window(frame)
    for i in range(0, len(starts), FFT_BLOCK_ROWS):
        frames = view[starts[i:i + FFT_BLOCK_ROWS]] * window
        np.abs(np.fft.rfft(frames, n=fft_size, axis=1), out=out[i:i + FFT_BLOCK_ROWS])
    return out


def mel_log(mag: np.ndarray, n_mels: int, sample_rate: int) -> np.ndarray:
    """(T, n_mels) log mel energies of (T, bins) STFT magnitudes, floored at
    ``LOG_FLOOR``.

    BLAS picks its product kernel by matrix size, so a row's bits depend on
    T: callers that want the bits of a given frame set project that set alone.
    """
    n_fft = 2 * (mag.shape[1] - 1)
    # the .T view of the cached (n_mels, bins) bank, as built: a transposed
    # contiguous copy sends the product down another BLAS path and moves bits
    mel_energy = mag @ mel_filterbank(n_mels, n_fft, sample_rate).T
    return np.log(np.maximum(mel_energy, LOG_FLOOR))


def log_mel(buf: AudioBuffer, n_mels: int) -> np.ndarray:
    """Hann-windowed magnitude STFT through an ``n_mels``-band triangular mel
    bank, log floored at ``LOG_FLOOR``: a (T, n_mels) array, one row per hop.

    A buffer shorter than one frame yields an empty (0, n_mels) array.
    """
    frame, hop = analysis_frame(buf.sample_rate)
    # one row per whole frame at the regular starts 0, hop, 2 hop, ...
    starts = np.arange(0, len(buf.samples) - frame + 1, hop)
    return mel_log(frame_magnitudes(buf.samples, starts, frame), n_mels, buf.sample_rate)


def standardize(features: np.ndarray) -> np.ndarray:
    """Per-utterance, per-band standardization over time (speech CMVN).

    Raw log-mel sits far from zero (silence pinned at the log floor), which
    saturates randomly initialized front-ends; training pipelines apply this
    before the encoder. Constant bands come out (numerically) zero.
    """
    if features.shape[0] == 0:
        return features.copy()
    return (features - features.mean(axis=0)) / (features.std(axis=0) + 1e-8)


def mfcc(logmel: np.ndarray, n_mfcc: int) -> np.ndarray:
    """First n_mfcc coefficients of an orthonormal type-II DCT per log-mel frame."""
    if n_mfcc > logmel.shape[1]:
        raise ConfigError(f"n_mfcc {n_mfcc} exceeds mel dimension {logmel.shape[1]}")
    from scipy.fft import dct  # here, not at import: scipy.fft is most of the CLI's import time

    return dct(logmel, type=2, norm="ortho", axis=1)[:, :n_mfcc]
