"""Audio I/O and spectral features against independent DSP oracles."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy.fft import idct

from slmforge import audio
from slmforge.audio import (
    LOG_FLOOR,
    AudioBuffer,
    analysis_frame,
    fft_length,
    frame_magnitudes,
    frame_signal,
    log_mel,
    mel_filterbank,
    mel_scale,
    mel_to_hz,
    mfcc,
    parse_wav_bytes,
    read_wav,
    resample,
    standardize,
    wav_bytes,
    write_wav,
)
from slmforge.errors import ConfigError, TruncatedWavError, UnsupportedWavError
from slmforge.synth import sine


# ---------------------------------------------------------------------------
# WAV I/O


def _riff(fmt_code, channels, rate, bits, payload):
    """A RIFF/WAVE file of ``payload`` in an encoding ``write_wav`` does not
    write (float32, stereo, 24-bit)."""
    block = channels * bits // 8
    return (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, channels, rate, rate * block,
                                    block, bits)
            + b"data" + struct.pack("<I", len(payload)) + payload)


def test_read_pcm16_mono_header_arithmetic(tmp_path):
    buf = sine(440.0, 1.0, 16000)
    path = tmp_path / "a.wav"
    write_wav(path, buf)
    out = read_wav(path)
    assert len(out.samples) == 16000
    assert out.sample_rate == 16000


def test_wav_bytes_is_mono_pcm16():
    buf = sine(440.0, 0.05, 8000)
    pcm = np.round(np.clip(buf.samples, -1, 1) * 32767.0).astype("<i2")
    assert wav_bytes(buf) == _riff(1, 1, 8000, 16, pcm.tobytes())


def test_stereo_identical_channels_downmix_to_either(tmp_path):
    mono = sine(300.0, 0.25, 8000)
    pcm = (np.round(np.clip(mono.samples, -1, 1) * 32767.0)).astype("<i2")
    stereo = np.repeat(pcm, 2)
    out = parse_wav_bytes(_riff(1, 2, 8000, 16, stereo.tobytes()))
    assert np.array_equal(out.samples, pcm.astype(np.float64) / 32768.0)


def _old_pcm16(payload, channels):
    """PCM16 samples as ``parse_wav_bytes`` converted them before its one-pass
    form: ``astype`` to float64, divide by 32768, downmix, then clip."""
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    if channels > 1:
        usable = (len(samples) // channels) * channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
    return np.clip(samples, -1.0, 1.0)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_pcm16_samples_equal_the_old_conversion_byte_for_byte(channels):
    extremes = np.array([-32768, -1, 0, 32767], dtype="<i2")
    noise = np.random.default_rng(channels).integers(-32768, 32768, size=3000, dtype=np.int64)
    pcm = np.concatenate([np.repeat(extremes, channels), noise.astype("<i2")])
    out = parse_wav_bytes(_riff(1, channels, 8000, 16, pcm.tobytes()))
    assert out.samples.tobytes() == _old_pcm16(pcm.tobytes(), channels).tobytes()
    if channels == 1:
        assert out.samples[:4].tolist() == [-1.0, -2.0 ** -15, 0.0, 1.0 - 2.0 ** -15]


def test_float32_samples_keep_their_finite_check_and_their_clip():
    nan = np.array([0.25, np.nan], dtype="<f4").tobytes()
    with pytest.raises(UnsupportedWavError, match="^sample data contains non-finite values$"):
        parse_wav_bytes(_riff(3, 1, 8000, 32, nan))
    loud = parse_wav_bytes(_riff(3, 1, 8000, 32, np.array([1.5, -1.5, 0.5], "<f4").tobytes()))
    assert loud.samples.tolist() == [1.0, -1.0, 0.5]
    # two channels average before they clip, as the old conversion did
    stereo = np.array([1.5, 0.25, -3.0, 0.5], dtype="<f4").tobytes()
    assert parse_wav_bytes(_riff(3, 2, 8000, 32, stereo)).samples.tolist() == [0.875, -1.0]


def test_truncated_data_chunk_is_distinct_error():
    buf = sine(200.0, 0.1, 8000)
    raw = wav_bytes(buf)
    with pytest.raises(TruncatedWavError):
        parse_wav_bytes(raw[:-100])


def test_missing_file_raises_file_not_found():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/nothing.wav")


def test_unsupported_encoding_is_distinct_error():
    with pytest.raises(UnsupportedWavError):
        parse_wav_bytes(_riff(1, 1, 8000, 24, b"\x00" * 64))


def test_not_riff_is_unsupported():
    with pytest.raises(UnsupportedWavError):
        parse_wav_bytes(b"OGGS" + b"\x00" * 100)


@pytest.mark.parametrize("fmt_code, rate, bits, payload, message", [
    (1, 0, 16, b"\x00" * 64, "sample rate 0 Hz is not positive"),
    (1, 8000, 16, b"\x00" * 63, "data chunk of 63 bytes is not a whole number of 16-bit "
                                 "samples"),
    (3, 8000, 32, b"\x00" * 66, "data chunk of 66 bytes is not a whole number of 32-bit "
                                 "samples"),
], ids=["zero-rate", "odd-pcm16", "partial-float32"])
def test_a_zero_rate_or_a_partial_sample_is_unsupported(fmt_code, rate, bits, payload,
                                                         message):
    with pytest.raises(UnsupportedWavError, match=f"^{message}$"):
        parse_wav_bytes(_riff(fmt_code, 1, rate, bits, payload))


@pytest.mark.parametrize("raw, error, message", [
    (b"not audio\n", UnsupportedWavError, "not a RIFF/WAVE container"),
    (wav_bytes(sine(200.0, 0.1, 8000))[:-100], TruncatedWavError,
     "data chunk declares 1600 bytes but only 1500 present"),
], ids=["not-riff", "truncated"])
def test_read_wav_errors_name_the_file(tmp_path, raw, error, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(error) as info:
        read_wav(path)
    assert str(info.value) == f"{path}: {message}"


def test_float32_round_trip(tmp_path):
    buf = sine(500.0, 0.2, 16000, amplitude=0.9)
    path = tmp_path / "f.wav"
    path.write_bytes(_riff(3, 1, 16000, 32, buf.samples.astype("<f4").tobytes()))
    out = read_wav(path)
    assert np.max(np.abs(out.samples - buf.samples)) < 1e-6


# ---------------------------------------------------------------------------
# Resampling


def test_resample_identity_bit_exact():
    buf = sine(440.0, 0.5, 16000)
    out = resample(buf, 16000)
    assert out is buf
    assert out.samples.tobytes() == buf.samples.tobytes()


def test_resample_length_ratio():
    buf = AudioBuffer(np.zeros(32000), 32000)
    assert len(resample(buf, 16000).samples) == 16000


def test_resample_preserves_dominant_frequency_fft_oracle():
    buf = sine(440.0, 1.0, 32000)
    out = resample(buf, 16000)
    spectrum = np.abs(np.fft.rfft(out.samples))
    freqs = np.fft.rfftfreq(len(out.samples), d=1.0 / 16000)
    peak = freqs[np.argmax(spectrum)]
    bin_width = freqs[1] - freqs[0]
    assert abs(peak - 440.0) <= bin_width + 1e-9


def test_resample_rejects_bad_rate():
    with pytest.raises(ConfigError):
        resample(sine(100, 0.1), 0)


# ---------------------------------------------------------------------------
# log-mel


def test_log_mel_zero_signal_hits_log_floor():
    buf = AudioBuffer(np.zeros(16000), 16000)
    feats = log_mel(buf, 40)
    assert np.all(feats == np.log(1e-10))
    assert LOG_FLOOR == 1e-10


def test_log_mel_frame_count_formula():
    # 25 ms frames every 10 ms: 400 and 160 samples at 16 kHz
    assert analysis_frame(16000) == (400, 160)
    buf = AudioBuffer(np.zeros(16000), 16000)
    feats = log_mel(buf, 40)
    assert len(feats) == 98


def test_log_mel_short_buffer_gives_empty_matrix():
    buf = AudioBuffer(np.zeros(100), 16000)
    feats = log_mel(buf, 40)
    assert len(feats) == 0


def test_log_mel_peak_bin_matches_mel_arithmetic_oracle():
    n_mels = 40
    buf = sine(1000.0, 1.0, 16000)
    feats = log_mel(buf, n_mels)
    mid = feats[len(feats) // 2]
    got = int(np.argmax(mid))

    # oracle: the triangle whose response at 1 kHz is largest, from the
    # mel-point arithmetic alone
    mel_points = np.linspace(mel_scale(0.0), mel_scale(8000.0), n_mels + 2)
    hz = 700.0 * (10.0 ** (mel_points / 2595.0) - 1.0)
    responses = []
    for m in range(n_mels):
        left, center, right = hz[m], hz[m + 1], hz[m + 2]
        up = (1000.0 - left) / (center - left)
        down = (right - 1000.0) / (right - center)
        responses.append(max(0.0, min(up, down)))
    assert got == int(np.argmax(responses))


def test_log_mel_translation_consistency_one_hop_shift():
    rng = np.random.default_rng(8)
    base = 0.3 * rng.standard_normal(16000)
    _, hop = analysis_frame(16000)
    a = log_mel(AudioBuffer(np.clip(base, -1, 1), 16000), 40)
    b = log_mel(AudioBuffer(np.clip(np.concatenate([np.zeros(hop), base]), -1, 1), 16000), 40)
    assert np.max(np.abs(b[1 : len(a)] - a[: len(a) - 1])) < 1e-6


def test_stft_of_zero_signal_is_identically_zero():
    mag = frame_magnitudes(np.zeros(4000), np.arange(0, 3601, 160), 400)
    assert mag.shape[0] > 0
    assert np.all(mag == 0.0)


def test_filterbank_shape():
    bank = mel_filterbank(40, 512, 16000)
    assert bank.shape == (40, 257)


def _log_mel_with_512_point_fft(buf, n_mels):
    """The front end as it was with a fixed 512-point FFT: 25 ms / 10 ms
    Hann frames, a mel bank from 0 Hz to the Nyquist rate, log floor 1e-10."""
    rate = buf.sample_rate
    frame, hop = int(round(25.0 * rate / 1000.0)), int(round(10.0 * rate / 1000.0))
    frames = frame_signal(buf.samples, frame, hop) * np.hanning(frame)
    mag = np.abs(np.fft.rfft(frames, n=512, axis=1))
    hz_points = 700.0 * (10.0 ** (np.linspace(mel_scale(0.0), mel_scale(rate / 2.0),
                                              n_mels + 2) / 2595.0) - 1.0)
    bin_freqs = np.arange(257) * rate / 512
    bank = np.zeros((n_mels, 257))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return np.log(np.maximum(mag @ bank.T, 1e-10))


@pytest.mark.parametrize("rate", [8000, 16000, 20480])
@pytest.mark.parametrize("n_mels", [16, 40])
def test_log_mel_is_bit_equal_to_the_fixed_512_point_front_end(rate, n_mels):
    rng = np.random.default_rng(rate + n_mels)
    buf = AudioBuffer(np.clip(0.3 * rng.standard_normal(rate // 2), -1, 1), rate)
    feats = log_mel(buf, n_mels)
    assert feats.tobytes() == _log_mel_with_512_point_fft(buf, n_mels).tobytes()


@pytest.mark.parametrize("rate, frame, n_fft", [
    (8000, 200, 512), (16000, 400, 512), (20480, 512, 512), (20500, 512, 512),
    (20520, 513, 1024), (22050, 551, 1024), (44100, 1102, 2048), (48000, 1200, 2048),
])
def test_fft_length_is_the_next_power_of_two_of_the_frame_and_at_least_512(
        rate, frame, n_fft):
    assert analysis_frame(rate)[0] == frame
    assert fft_length(frame) == n_fft


@pytest.mark.parametrize("rate", [22050, 44100, 48000])
def test_log_mel_at_high_rates_peaks_in_the_tone_band(rate):
    feats = log_mel(sine(1000.0, 0.5, rate), 40)
    frame, hop = analysis_frame(rate)
    assert len(feats) == 1 + (rate // 2 - frame) // hop
    bank = mel_filterbank(40, fft_length(frame), rate)
    peak_bin = int(round(1000.0 * fft_length(frame) / rate))
    assert int(np.argmax(feats[len(feats) // 2])) == int(np.argmax(bank[:, peak_bin]))


def _uncached_log_mel(buf, n_mels):
    """The front end as it was before its arrays were cached: frames copied
    out by a fancy index, and the Hann window and mel bank built per call."""
    frame, hop = analysis_frame(buf.sample_rate)
    n_fft = fft_length(frame)
    n = len(buf.samples)
    if n < frame:
        mag = np.zeros((0, n_fft // 2 + 1))
    else:
        idx = np.arange(frame)[None, :] + hop * np.arange(1 + (n - frame) // hop)[:, None]
        mag = np.abs(np.fft.rfft(buf.samples[idx] * np.hanning(frame), n=n_fft, axis=1))
    hz_points = mel_to_hz(np.linspace(0.0, mel_scale(buf.sample_rate / 2.0), n_mels + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * buf.sample_rate / n_fft
    bank = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return np.log(np.maximum(mag @ bank.T, LOG_FLOOR))


@pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
@pytest.mark.parametrize("n_mels", [13, 40, 64, 80])
def test_log_mel_is_byte_equal_to_the_uncached_front_end(rate, n_mels):
    frame, hop = analysis_frame(rate)
    rng = np.random.default_rng([rate, n_mels])
    for n in (0, frame - 1, frame, frame + hop - 1, frame + hop, frame + 4 * hop + 3,
              rate // 3, 3 * rate):
        buf = AudioBuffer(np.clip(0.3 * rng.standard_normal(n), -1, 1), rate)
        feats = log_mel(buf, n_mels)
        want = _uncached_log_mel(buf, n_mels)
        assert feats.shape == want.shape == (max(0, 1 + (n - frame) // hop), n_mels)
        assert feats.tobytes() == want.tobytes()


@pytest.mark.parametrize("rate", [8000, 22050])
def test_frame_magnitudes_rows_depend_only_on_their_own_frame(rate):
    frame, hop = analysis_frame(rate)
    n_fft = fft_length(frame)
    rng = np.random.default_rng(rate)
    samples = 0.3 * rng.standard_normal(rate // 2)
    # unsorted, repeated and hop-unaligned starts, the last frame ending at the end
    starts = np.array([7, 0, 3 * hop + 1, 7, len(samples) - frame, hop])
    mag = frame_magnitudes(samples, starts, frame)
    assert mag.shape == (len(starts), n_fft // 2 + 1)
    for row, s in zip(mag, starts):
        one = np.abs(np.fft.rfft(samples[s:s + frame] * np.hanning(frame), n=n_fft))
        assert row.tobytes() == one.tobytes()


def _unblocked_frame_magnitudes(samples, starts, frame, n_fft):
    """frame_magnitudes with every row in one rfft call."""
    frames = np.lib.stride_tricks.sliding_window_view(samples, frame)[starts] * np.hanning(frame)
    return np.abs(np.fft.rfft(frames, n=n_fft, axis=1))


def test_frame_magnitudes_blocks_keep_the_bytes_of_one_call():
    frame, hop = analysis_frame(16000)
    n_fft = fft_length(frame)
    block = audio.FFT_BLOCK_ROWS
    samples = 0.3 * np.random.default_rng(3).standard_normal(frame + (2 * block + 3) * hop)
    for n_rows in (1, block - 1, block, block + 1, 2 * block + 4):
        starts = np.arange(n_rows) * hop
        mag = frame_magnitudes(samples, starts, frame)
        assert mag.tobytes() == _unblocked_frame_magnitudes(samples, starts, frame, n_fft).tobytes()
    starts = np.random.default_rng(4).integers(0, len(samples) - frame + 1, 3 * block)
    assert frame_magnitudes(samples, starts, frame).tobytes() == \
        _unblocked_frame_magnitudes(samples, starts, frame, n_fft).tobytes()


def test_frame_magnitudes_of_a_long_span_allocate_about_the_output():
    frame, hop = analysis_frame(16000)
    samples = 0.3 * np.random.default_rng(5).standard_normal(30 * 16000)
    starts = np.arange(0, len(samples) - frame + 1, hop)
    tracemalloc.start()
    try:
        mag = frame_magnitudes(samples, starts, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all rows at once would also hold (rows, frame) frames and a complex
    # (rows, bins) spectrum: about 4.5 times the output for a 30 s span
    assert peak < mag.nbytes + (4 << 20)


def test_the_cached_front_end_arrays_and_the_frames_are_read_only():
    samples = np.linspace(-1.0, 1.0, 1000)
    frames = frame_signal(samples, 400, 160)
    assert frames.shape == (4, 400) and frames[3, 0] == samples[480]
    with pytest.raises(ValueError, match="read-only"):
        frames[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        mel_filterbank(40, 512, 16000)[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        audio._hann_window(400)[0] = 1.0
    assert audio._hann_window(400).tobytes() == np.hanning(400).tobytes()
    assert samples.flags.writeable


def test_log_mel_leaves_its_input_samples_unchanged():
    rng = np.random.default_rng(3)
    buf = AudioBuffer(np.clip(0.3 * rng.standard_normal(8000), -1, 1), 16000)
    before = buf.samples.copy()
    log_mel(buf, 40)
    log_mel(buf, 40)
    assert buf.samples.tobytes() == before.tobytes()
    assert not buf.samples.flags.writeable


def test_buffer_samples_are_a_read_only_view_of_the_callers_array(tmp_path):
    samples = np.linspace(-1.0, 1.0, 16000)
    buf = AudioBuffer(samples, 16000)
    part = buf.slice_seconds(0.25, 0.5)
    assert np.shares_memory(buf.samples, samples)
    assert np.shares_memory(part.samples, samples)
    assert part.samples.tobytes() == samples[4000:8000].tobytes()
    path = tmp_path / "a.wav"
    write_wav(path, buf)
    for out in (buf, part, read_wav(path), resample(buf, 16000), resample(buf, 8000)):
        with pytest.raises(ValueError, match="read-only"):
            out.samples[0] = 0.5
    samples[0] = 0.5  # the caller's array keeps its own flags
    assert buf.samples[0] == 0.5


def test_repeated_log_mel_calls_build_the_mel_bank_once_per_key(monkeypatch):
    builds = []

    def counting_mel_to_hz(mel):
        builds.append(len(mel))
        return mel_to_hz(mel)

    monkeypatch.setattr(audio, "mel_to_hz", counting_mel_to_hz)
    mel_filterbank.cache_clear()
    try:
        buf = sine(440.0, 0.2, 16000)
        first = log_mel(buf, 40)
        assert log_mel(buf, 40).tobytes() == first.tobytes()
        log_mel(sine(220.0, 0.3, 16000), 40)
        assert builds == [42]
        log_mel(buf, 41)
        log_mel(sine(440.0, 0.2, 22050), 40)
        assert builds == [42, 43, 42]
    finally:
        mel_filterbank.cache_clear()


@pytest.mark.parametrize("rate", [40, 0, -8000])
def test_analysis_frame_rejects_a_rate_whose_hop_has_no_sample(rate):
    with pytest.raises(ConfigError, match=f"sample rate {rate} Hz"):
        analysis_frame(rate)
    assert analysis_frame(100) == (2, 1)


# ---------------------------------------------------------------------------
# MFCC


def _logmel_fixture(data):
    return np.asarray(data, dtype=np.float64)


def test_mfcc_constant_frame_dct_of_constant():
    n_mels = 16
    c = 0.7
    feats = _logmel_fixture(np.full((3, n_mels), c))
    out = mfcc(feats, n_mels)
    assert out[0, 0] == pytest.approx(c * np.sqrt(n_mels), abs=1e-9)
    assert np.max(np.abs(out[:, 1:])) < 1e-9


def test_mfcc_orthonormal_reconstruction():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((5, 12))
    out = mfcc(_logmel_fixture(data), 12)
    back = idct(out, type=2, norm="ortho", axis=1)
    assert np.max(np.abs(back - data)) < 1e-6


def test_mfcc_matches_naive_dct_oracle():
    rng = np.random.default_rng(10)
    n = 10
    frame = rng.standard_normal(n)
    out = mfcc(_logmel_fixture(frame[None, :]), n)[0]

    # direct-summation orthonormal DCT-II
    oracle = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += frame[i] * np.cos(np.pi * (i + 0.5) * k / n)
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        oracle[k] = scale * acc
    assert np.max(np.abs(out - oracle)) < 1e-9


def test_mfcc_rejects_too_many_coefficients():
    with pytest.raises(ConfigError):
        mfcc(_logmel_fixture(np.zeros((2, 8))), 9)


def test_standardize_zero_mean_unit_variance_per_band():
    rng = np.random.default_rng(12)
    feats = _logmel_fixture(5.0 + 3.0 * rng.standard_normal((50, 6)))
    out = standardize(feats)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-6


def test_standardize_constant_band_stays_near_zero():
    data = np.zeros((10, 3))
    data[:, 1] = 4.2
    out = standardize(_logmel_fixture(data))
    assert np.max(np.abs(out[:, 1])) < 1e-6


def test_standardize_empty_matrix():
    out = standardize(_logmel_fixture(np.zeros((0, 4))))
    assert len(out) == 0
