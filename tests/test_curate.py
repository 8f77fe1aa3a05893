"""Curation stages: separation, VAD, diarization, scoring, filtering,
and end-to-end pipeline determinism."""

import tracemalloc

import numpy as np
import pytest

from conftest import bench_inputs

from slmforge import curate
from slmforge.audio import (
    AudioBuffer, analysis_frame, frame_signal, log_mel, read_wav, resample, write_wav,
)
from slmforge.curate import (
    Manifest,
    PipelineConfig,
    SegmentRecord,
    Span,
    diarize,
    filter_segments,
    quality_score,
    run_pipeline,
    separate_sources,
    spectral_gate,
    split_long_span,
    trim_to_speech,
    vad_segments,
)
from slmforge.errors import ConfigError, StageError
from slmforge.synth import concat_buffers, silence, sine, white_noise


def mix(a, b):
    """``a`` plus ``b`` sample by sample, cut to the shorter, clipped to [-1, 1]."""
    assert a.sample_rate == b.sample_rate
    n = min(len(a.samples), len(b.samples))
    return AudioBuffer(np.clip(a.samples[:n] + b.samples[:n], -1.0, 1.0), a.sample_rate)


def _projection_snr_db(observed, clean):
    """SNR of ``observed`` against the known clean signal via projection."""
    n = min(len(observed), len(clean))
    x, c = observed[:n], clean[:n]
    alpha = float(np.dot(x, c) / np.dot(c, c))
    residual = x - alpha * c
    signal_power = alpha * alpha * float(np.dot(c, c))
    noise_power = float(np.dot(residual, residual)) + 1e-30
    return 10.0 * np.log10(signal_power / noise_power)


# ---------------------------------------------------------------------------
# Source separation


def test_passthrough_returns_identical_audio():
    buf = sine(440.0, 0.5)
    assert separate_sources(buf, PipelineConfig(separator="passthrough")) is buf


@pytest.mark.parametrize("separator", ["passthrough", "spectral-gate", "external:cat"])
def test_every_separator_returns_read_only_samples(separator):
    for seconds in (0.01, 0.5):  # the gate passes input shorter than its frame through
        buf = sine(440.0, seconds)
        out = separate_sources(buf, PipelineConfig(separator=separator))
        with pytest.raises(ValueError, match="read-only"):
            out.samples[0] = 0.0


def _reference_spectral_gate(buf):
    """``spectral_gate`` as it framed the signal before ``frame_signal``: an
    explicit index grid and an uncached Hann window."""
    n = len(buf.samples)
    frame, hop = 512, 128
    n_frames = 1 + (n - frame + hop - 1) // hop
    padded = np.zeros((n_frames - 1) * hop + frame)
    padded[:n] = buf.samples
    window = np.hanning(frame)
    idx = np.arange(frame)[None, :] + hop * np.arange(n_frames)[:, None]
    spec = np.fft.rfft(padded[idx] * window, axis=1)
    mag = np.abs(spec)
    floor = np.percentile(mag, 20)
    gain = np.where(mag >= 2.5 * floor, 1.0, 0.1)
    bin_freqs = np.arange(spec.shape[1]) * buf.sample_rate / frame
    gain[:, bin_freqs < 80.0] = 0.0
    frames_out = np.fft.irfft(spec * gain, n=frame, axis=1) * window
    out = np.zeros_like(padded)
    norm = np.zeros_like(padded)
    wsq = window * window
    for t in range(n_frames):
        out[t * hop : t * hop + frame] += frames_out[t]
        norm[t * hop : t * hop + frame] += wsq
    out = out / np.maximum(norm, 1e-8)
    return np.clip(out[:n], -1.0, 1.0)


@pytest.mark.parametrize("n", [512, 513, 640, 8000, 11025])
def test_spectral_gate_is_byte_equal_to_the_index_grid_framing(n):
    noisy = mix(sine(440.0, 1.0, amplitude=0.3), white_noise(1.0, amplitude=0.2, seed=n))
    buf = AudioBuffer(noisy.samples[:n], 16000)
    assert spectral_gate(buf).samples.tobytes() == _reference_spectral_gate(buf).tobytes()


def test_spectral_gate_improves_snr_of_noisy_sine():
    clean = sine(440.0, 1.0, amplitude=0.2)
    # -10 dB SNR: noise power 10x the sine power
    sine_power = float(np.mean(clean.samples**2))
    noise = white_noise(1.0, amplitude=1.0, seed=3)
    noise_scale = np.sqrt(10.0 * sine_power / float(np.mean(noise.samples**2)))
    noisy = mix(clean, type(noise)(noise.samples * noise_scale, 16000))

    snr_in = _projection_snr_db(noisy.samples, clean.samples)
    out = separate_sources(noisy, PipelineConfig(separator="spectral-gate"))
    snr_out = _projection_snr_db(out.samples, clean.samples)
    assert len(out.samples) == len(noisy.samples)
    assert snr_out > snr_in


def test_spectral_gate_preserves_duration_and_rate():
    buf = white_noise(0.731, seed=5)
    out = spectral_gate(buf)
    assert len(out.samples) == len(buf.samples)
    assert out.sample_rate == buf.sample_rate
    short = white_noise(0.01, seed=5)  # shorter than one 512-sample frame
    assert spectral_gate(short) is short


def test_external_separator_false_command_stage_error():
    buf = sine(100.0, 0.1)
    with pytest.raises(StageError, match="external tool 'false' exited 1"):
        separate_sources(buf, PipelineConfig(separator="external:false"))


def test_external_separator_round_trip_via_cat():
    buf = sine(220.0, 0.2)
    out = separate_sources(buf, PipelineConfig(separator="external:cat"))
    assert out.sample_rate == buf.sample_rate
    assert len(out.samples) == len(buf.samples)


def test_external_separator_malformed_output():
    buf = sine(220.0, 0.1)
    with pytest.raises(StageError, match="malformed"):
        separate_sources(buf, PipelineConfig(separator="external:echo nonsense"))


def test_unknown_separator_is_config_error():
    with pytest.raises(ConfigError, match="'separator' must be"):
        PipelineConfig(separator="magic")


# ---------------------------------------------------------------------------
# VAD


def test_vad_digital_silence_yields_nothing():
    assert vad_segments(silence(2.0)) == []


def test_vad_tone_between_silences_boundaries_within_one_frame():
    buf = concat_buffers([silence(0.5), sine(440.0, 1.0), silence(0.5)])
    spans = vad_segments(buf, PipelineConfig(min_speech_ms=200))
    assert len(spans) == 1
    frame_s = 0.025
    assert spans[0].start_s == pytest.approx(0.5, abs=frame_s + 0.010)
    assert spans[0].end_s == pytest.approx(1.5, abs=frame_s + 0.010)


def test_vad_hangover_merges_short_gap():
    buf = concat_buffers([
        silence(1.0), sine(440.0, 0.5), silence(0.05), sine(440.0, 0.5), silence(1.0),
    ])
    spans = vad_segments(buf, PipelineConfig(hangover_ms=100.0))
    assert len(spans) == 1
    spans = vad_segments(buf, PipelineConfig(hangover_ms=10.0))
    assert len(spans) == 2


def test_vad_drops_spans_below_min_speech():
    buf = concat_buffers([silence(1.0), sine(440.0, 0.1), silence(1.0)])
    spans = vad_segments(buf, PipelineConfig(min_speech_ms=200.0))
    assert spans == []


def test_trim_to_speech_matches_vad_extent():
    buf = concat_buffers([silence(0.8), sine(440.0, 1.0), silence(0.8)])
    spans = vad_segments(buf)
    trimmed = trim_to_speech(buf)
    assert trimmed.duration_s == pytest.approx(
        spans[-1].end_s - spans[0].start_s, abs=1e-9)


def test_trim_to_speech_silence_passthrough():
    buf = silence(1.0)
    assert trim_to_speech(buf) is buf


def test_trim_to_speech_returns_a_read_only_view():
    buf = concat_buffers([silence(0.8), sine(440.0, 1.0), silence(0.8)])
    trimmed = trim_to_speech(buf)
    assert np.shares_memory(trimmed.samples, buf.samples)
    with pytest.raises(ValueError, match="read-only"):
        trimmed.samples[0] = 0.0


def test_vad_empty_buffer():
    assert vad_segments(silence(0.0)) == []


def test_vad_shift_by_k_hops_shifts_interior_spans():
    k = 7
    hop_s = 0.010
    buf = concat_buffers([silence(0.8), sine(440.0, 0.6), silence(0.8)])
    shifted = concat_buffers([silence(k * hop_s), buf])
    a = vad_segments(buf)
    b = vad_segments(shifted)
    assert len(a) == len(b) == 1
    assert b[0].start_s - a[0].start_s == pytest.approx(k * hop_s, abs=1e-9)
    assert b[0].end_s - a[0].end_s == pytest.approx(k * hop_s, abs=1e-9)


def _reference_vad_segments(buf, cfg=PipelineConfig()):
    """The VAD as it was with a per-frame loop over the speech flags (kept
    as the equivalence reference)."""
    e_db, frame_s, hop_s = curate._frame_energies_db(buf)
    if e_db.size == 0:
        return []
    speech = curate._speech_frames(e_db, cfg)

    spans = []
    start = None
    for i, flag in enumerate(speech):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            spans.append((start, i - 1))
            start = None
    if start is not None:
        spans.append((start, len(speech) - 1))

    duration = buf.duration_s
    raw = [(i0 * hop_s, min(i1 * hop_s + frame_s, duration)) for i0, i1 in spans]

    merged = []
    hangover_s = cfg.hangover_ms / 1000.0
    for s, e in raw:
        if merged and s - merged[-1][1] < hangover_s:
            merged[-1][1] = e
        else:
            merged.append([s, e])

    min_s = cfg.min_speech_ms / 1000.0
    return [Span(s, e) for s, e in merged if e - s >= min_s]


def _flag_patterns(rng, n):
    """All-speech, no-speech, single frames at either end, and random runs."""
    yield np.ones(n, dtype=bool)
    yield np.zeros(n, dtype=bool)
    for i in (0, n - 1):
        one = np.zeros(n, dtype=bool)
        one[i] = True
        yield one
        yield ~one
    for p_switch in (0.02, 0.1, 0.5, 0.9):
        switches = rng.random(n) < p_switch
        flags = (np.cumsum(switches) % 2).astype(bool)
        yield flags
        yield ~flags


@pytest.mark.parametrize("cfg", [
    PipelineConfig(),
    PipelineConfig(hangover_ms=0.0, min_speech_ms=0.0),
    PipelineConfig(hangover_ms=35.0, min_speech_ms=50.0),
], ids=["default", "no-merge", "short"])
@pytest.mark.parametrize("rate", [8000, 16000])
def test_vad_runs_equal_the_per_frame_loop(monkeypatch, cfg, rate):
    rng = np.random.default_rng([rate, int(cfg.hangover_ms)])
    frame, hop = analysis_frame(rate)
    for n_frames in (1, 2, 3, 50, 301):
        # a partial hop of samples past the last frame, so end_s is capped
        buf = AudioBuffer(np.zeros(frame + (n_frames - 1) * hop + hop // 2), rate)
        for flags in _flag_patterns(rng, n_frames):
            monkeypatch.setattr(curate, "_speech_frames", lambda e_db, cfg, f=flags: f)
            want = _reference_vad_segments(buf, cfg)
            got = vad_segments(buf, cfg)
            assert got == want
            assert [(type(sp.start_s), type(sp.end_s)) for sp in got] == \
                [(type(sp.start_s), type(sp.end_s)) for sp in want]


def _reference_frame_energies_db(buf):
    """``curate._frame_energies_db`` as it was written, squaring each frame
    of the strided view."""
    frame, hop = analysis_frame(buf.sample_rate)
    frames = frame_signal(buf.samples, frame, hop)
    if frames.shape[0] == 0:
        return np.zeros(0), frame / buf.sample_rate, hop / buf.sample_rate
    energy = (frames * frames).mean(axis=1)
    return (10.0 * np.log10(energy + curate._ENERGY_FLOOR), frame / buf.sample_rate,
            hop / buf.sample_rate)


def _assert_energies_equal_the_reference(buf):
    (got, *got_s), (want, *want_s) = (curate._frame_energies_db(buf),
                                      _reference_frame_energies_db(buf))
    assert got.tobytes() == want.tobytes() and got_s == want_s


@pytest.mark.parametrize("rate", [8000, 16000, 44100])
def test_frame_energies_equal_the_per_frame_squares_around_one_frame(rate):
    frame, hop = analysis_frame(rate)
    rng = np.random.default_rng(rate)
    for n in (0, 1, frame - 1, frame, frame + 1, frame + hop - 1, frame + hop,
              frame + hop + 1, frame + 37 * hop + 5):
        _assert_energies_equal_the_reference(AudioBuffer(rng.uniform(-1, 1, n), rate))


def test_frame_energies_equal_the_per_frame_squares_on_every_bench_wav(tmp_path, monkeypatch):
    inputs = bench_inputs(monkeypatch)
    inputs.make_recordings(tmp_path / "data", seed=1)
    inputs.make_corpus(tmp_path / "decode", 1, inputs.DECODE_SPEC, inputs.HELDOUT_DURATIONS)
    wavs = sorted(tmp_path.rglob("*.wav"))
    assert len(wavs) > len(inputs.RECORDINGS)
    for path in wavs:
        _assert_energies_equal_the_reference(read_wav(path))


# ---------------------------------------------------------------------------
# Diarization


def test_diarize_single_tone_single_speaker():
    buf = sine(200.0, 4.0)
    spans = [Span(0.0, 2.0), Span(2.0, 4.0)]
    out = diarize(buf, spans)
    assert [s.speaker for s in out] == ["S0", "S0"]


def test_diarize_two_distinct_tones_two_speakers():
    buf = concat_buffers([sine(200.0, 3.0), sine(3000.0, 3.0)])
    spans = [Span(0.0, 3.0), Span(3.0, 6.0)]
    out = diarize(buf, spans, cfg=PipelineConfig(cluster_distance_threshold=0.15))
    assert out[0].speaker == "S0"
    assert out[1].speaker == "S1"


def test_diarize_max_threshold_merges_everything():
    buf = concat_buffers([sine(200.0, 3.0), sine(3000.0, 3.0)])
    spans = [Span(0.0, 3.0), Span(3.0, 6.0)]
    out = diarize(buf, spans, cfg=PipelineConfig(cluster_distance_threshold=2.0))
    assert {s.speaker for s in out} == {"S0"}


def test_diarize_empty_spans():
    assert diarize(sine(100.0, 1.0), []) == []


def _reference_average_linkage_clusters(vectors: np.ndarray, threshold: float) -> np.ndarray:
    """The clustering before pair means were stored: every cluster pair is
    recomputed after every merge (kept verbatim as the equivalence reference)."""
    n = len(vectors)
    sims = vectors @ vectors.T
    dist = 1.0 - sims
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        best = None
        best_d = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = float(np.mean(dist[np.ix_(clusters[a], clusters[b])]))
                if best_d is None or d < best_d:
                    best_d, best = d, (a, b)
        if best_d is None or best_d > threshold:
            break
        a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    labels = np.zeros(n, dtype=int)
    for ci, members in enumerate(clusters):
        labels[members] = ci
    return labels


def _grid_vectors(rng, n):
    """``n`` L2-normalised rows on a small integer grid, so distances tie
    exactly and rows repeat; the last row is the zero vector."""
    v = rng.integers(-1, 2, size=(n, 3)).astype(float)
    v[-1] = 0.0
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(norms > 0, norms, 1.0)


def _reference_stored_means_linkage(vectors, threshold, record):
    """The stored-means clustering that the nearest-neighbour chain replaced,
    verbatim but for ``record``, which gets the means before every
    ``argmin`` (kept as the equivalence reference)."""
    n = len(vectors)
    sims = vectors @ vectors.T
    dist = 1.0 - sims
    clusters = [[i] for i in range(n)]
    # a one-member pair's mean is its distance exactly
    means = np.where(np.triu(np.ones((n, n), dtype=bool), 1), dist, np.inf)
    while len(clusters) > 1:
        record(means)
        a, b = divmod(int(np.argmin(means)), len(clusters))
        if means[a, b] > threshold:
            break
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
        means = np.delete(np.delete(means, b, axis=0), b, axis=1)
        members = clusters[a]
        to_a = dist[:, members]  # row m: distances from m to a's members
        from_a = dist[members]  # column m: distances from a's members to m
        for other, others in enumerate(clusters):
            if other < a:
                block = to_a[others]
                means[other, a] = block.sum() / block.size
            elif other > a:
                block = from_a.take(others, axis=1)
                means[a, other] = block.sum() / block.size
    labels = np.zeros(n, dtype=int)
    for ci, members in enumerate(clusters):
        labels[members] = ci
    return labels


# a reference decision closer than this to a tie is one the chain may take
# the other way: its sums round differently from the reference's block means
TIE_MARGIN = 1e-9


def _reference_margin(vectors, threshold):
    """(labels, margin) of the reference: the margin is the smallest lead of
    a merge over the runner-up pair and distance of a merge height, or of
    the height that stopped the merging, from ``threshold``."""
    seen = []
    labels = _reference_stored_means_linkage(vectors, threshold, seen.append)
    margin = np.inf
    for means in seen:
        best, *rest = np.sort(means[np.isfinite(means)])[:2]
        margin = min(margin, abs(best - threshold))
        if best <= threshold and rest:
            margin = min(margin, rest[0] - best)
    return labels, margin


def _block_mean(vectors, a, b):
    """The mean cosine distance between the members ``a`` and ``b``."""
    return float(np.mean(1.0 - vectors[a] @ vectors[b].T))


def _assert_reference_labels_or_tie_rule(vectors, threshold):
    """Labels equal the reference's where each of its decisions clears
    ``TIE_MARGIN``. Elsewhere the stated tie rule holds: labels are
    deterministic, equal nonzero windows share a label when ``threshold``
    clears rounding (a zero window is at distance 1 from every window, and
    at threshold 0 a duplicate's distance rounds to either side of 0), and
    every two clusters are more than ``threshold`` apart up to the margin.
    Returns whether the labels were compared exactly."""
    got = curate._average_linkage_clusters(vectors, threshold)
    want, margin = _reference_margin(vectors, threshold)
    if margin > TIE_MARGIN:
        assert np.array_equal(got, want)
        return True
    assert np.array_equal(curate._average_linkage_clusters(vectors, threshold), got)
    # clusters are numbered by their smallest members
    labels, first = np.unique(got, return_index=True)
    assert np.array_equal(labels, np.arange(len(labels))) and np.all(np.diff(first) > 0)
    if threshold > TIE_MARGIN:
        nonzero = np.flatnonzero(np.abs(vectors).sum(axis=1) > 0)
        for i in nonzero:
            for j in nonzero:
                if np.array_equal(vectors[i], vectors[j]):
                    assert got[i] == got[j]
    members = [np.flatnonzero(got == c) for c in range(got.max() + 1)]
    for ci, a in enumerate(members):
        for b in members[:ci]:
            assert _block_mean(vectors, a, b) > threshold - TIE_MARGIN
    return False


@pytest.mark.parametrize("threshold", [0.0, 0.15, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 25, 40, 60])
def test_linkage_on_grid_rows_equals_the_reference_or_keeps_the_tie_rule(n, threshold):
    vectors = _grid_vectors(np.random.default_rng(n), n)
    exact = _assert_reference_labels_or_tie_rule(vectors, threshold)
    # the grid's exact ties leave only its smallest cases strict
    assert exact == (n == 1 or (n, threshold) in {(2, 0.0), (2, 0.15), (2, 2.5), (3, 0.0),
                                                  (3, 0.15), (4, 0.0), (4, 0.15), (7, 0.15)})


@pytest.mark.parametrize("seed", range(6))
def test_linkage_labels_equal_the_full_recompute_on_gaussian_rows(seed):
    rng = np.random.default_rng(100 + seed)
    vectors = rng.normal(size=(int(rng.integers(5, 45)), 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    threshold = float(rng.uniform(0.0, 2.5))
    want = _reference_average_linkage_clusters(vectors, threshold)
    assert np.array_equal(curate._average_linkage_clusters(vectors, threshold), want)


@pytest.mark.parametrize("threshold", [0.15, 0.5])
def test_diarize_spans_equal_those_of_the_full_recompute(monkeypatch, threshold):
    rng = np.random.default_rng(5)
    parts, spans, t = [], [], 0.0
    for i in range(8):
        dur = float(rng.uniform(1.0, 3.0))
        tone = sine(220.0 if i % 2 else 1800.0, dur, amplitude=0.4)
        parts.append(mix(tone, white_noise(dur, amplitude=0.02, seed=i)))
        spans.append(Span(t, t + dur))
        t += dur
    buf = concat_buffers(parts)
    cfg = PipelineConfig(cluster_distance_threshold=threshold)
    got = diarize(buf, spans, cfg)
    monkeypatch.setattr(curate, "_average_linkage_clusters",
                        _reference_average_linkage_clusters)
    assert got == diarize(buf, spans, cfg)
    assert len({s.speaker for s in got}) == 2


def _reference_logmel_stats_embedder(buf):
    """The window embedding as it was: one ``log_mel`` call per window
    buffer (kept as the equivalence reference)."""
    feats = log_mel(buf, 40)
    if feats.shape[0] == 0:
        vec = np.zeros(2 * feats.shape[1])
    else:
        vec = np.concatenate([feats.mean(axis=0), feats.std(axis=0)])
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def _reference_window_vectors(buf, spans, cfg):
    """Every window embedding as ``diarize`` made them with a sliced buffer
    and a front-end call per window."""
    window_vecs = []
    for span in spans:
        t = span.start_s
        hop = cfg.window_s / 2.0
        starts = []
        while t + cfg.window_s <= span.end_s + 1e-9:
            starts.append(t)
            t += hop
        if not starts:
            starts = [span.start_s]
        for s in starts:
            e = min(s + cfg.window_s, span.end_s)
            window_vecs.append(_reference_logmel_stats_embedder(buf.slice_seconds(s, e)))
    return np.stack(window_vecs)


def _window_vectors(monkeypatch, buf, spans, cfg):
    """The window embeddings that ``diarize`` hands to the clustering."""
    seen = []
    real = curate._average_linkage_clusters

    def spy(vectors, threshold):
        seen.append(vectors.copy())
        return real(vectors, threshold)

    monkeypatch.setattr(curate, "_average_linkage_clusters", spy)
    diarize(buf, spans, cfg)
    monkeypatch.setattr(curate, "_average_linkage_clusters", real)
    (vectors,) = seen
    return vectors


def _speakers_buffer(rate, seconds, seed):
    """Alternating tones under noise at ``rate``, with a louder stretch."""
    parts = []
    for i in range(int(seconds)):
        tone = sine(300.0 + 900.0 * (i % 2), 1.0, sample_rate=rate, amplitude=0.2 + 0.1 * i)
        parts.append(mix(tone, white_noise(1.0, sample_rate=rate, amplitude=0.03, seed=seed + i)))
    return concat_buffers(parts)


def _diarize_spans(duration_s):
    """Spans that exercise every window case: several windows, two shorter
    than a window (of 19 and 21 frames at any rate), one shorter than an
    analysis frame, one ending at the buffer's end and one running past it."""
    return [Span(0.0, 2.37), Span(2.41, 2.62), Span(2.65, 2.88), Span(3.0, 3.012),
            Span(3.1, duration_s - 1.03), Span(duration_s - 1.0, duration_s),
            Span(duration_s - 0.4, duration_s + 0.5)]


@pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
def test_window_embeddings_are_byte_equal_to_the_per_window_front_end(monkeypatch, rate):
    buf = _speakers_buffer(rate, 6, seed=rate)
    spans = _diarize_spans(buf.duration_s)
    cfg = PipelineConfig(sample_rate=rate)
    got = _window_vectors(monkeypatch, buf, spans, cfg)
    assert got.tobytes() == _reference_window_vectors(buf, spans, cfg).tobytes()


@pytest.mark.parametrize("window_s", [0.05, 0.37, 1.0, 1.3])
@pytest.mark.parametrize("rate", [16000, 22050])
def test_window_embeddings_are_byte_equal_at_hop_unaligned_window_starts(
        monkeypatch, rate, window_s):
    # window starts every window_s / 2: 0.37 s and 0.05 s fall between hops
    buf = _speakers_buffer(rate, 5, seed=7)
    spans = _diarize_spans(buf.duration_s)
    if window_s < 0.1:
        spans = [Span(sp.start_s, min(sp.end_s, sp.start_s + 0.6)) for sp in spans]
    cfg = PipelineConfig(sample_rate=rate, window_s=window_s)
    got = _window_vectors(monkeypatch, buf, spans, cfg)
    want = _reference_window_vectors(buf, spans, cfg)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _blob_vectors(rng, n, k, width):
    """``n`` unit rows around ``k`` random centres, as windows of ``k``
    speakers are."""
    centres = rng.normal(size=(k, width))
    rows = centres[rng.integers(k, size=n)] + 0.3 * rng.normal(size=(n, width))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(8))
def test_linkage_labels_equal_the_reference_on_speaker_blobs(seed):
    rng = np.random.default_rng(300 + seed)
    vectors = _blob_vectors(rng, int(rng.integers(2, 121)), int(rng.integers(1, 6)), 8)
    assert _assert_reference_labels_or_tie_rule(vectors, float(rng.uniform(0.02, 0.3)))


@pytest.mark.parametrize("seed", range(8))
def test_merge_heights_are_the_block_means_of_the_clusters_they_join(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 70))
    if seed % 2:
        vectors = _grid_vectors(rng, n)
    else:
        vectors = rng.normal(size=(n, int(rng.integers(2, 9))))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    threshold = float(rng.uniform(0.2, 2.5))
    members = {i: [i] for i in range(n)}
    merges = curate._linkage_merges(vectors, threshold)
    for a, b, height in merges:
        assert a < b and height <= threshold
        assert abs(height - _block_mean(vectors, members[a], members[b])) <= 1e-12
        members[a] += members.pop(b)
    assert len(merges) > 0
    # the clusters left, in order of their smallest members, are numbered 0, 1, ...
    labels = curate._average_linkage_clusters(vectors, threshold)
    assert [labels[m].tolist() for m in members.values()] == [[c] * len(m) for c, m in
                                                             enumerate(members.values())]
    _assert_reference_labels_or_tie_rule(vectors, threshold)


def _unit(rng, n, width=80):
    rows = rng.normal(size=(n, width))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


_A, _B, _C = _unit(np.random.default_rng(9), 3)


@pytest.mark.parametrize("vectors, threshold, want", [
    (_unit(np.random.default_rng(1), 1), 0.15, [0]),
    (np.zeros((4, 80)), 0.5, [0, 1, 2, 3]),
    (np.zeros((4, 80)), 1.0, [0, 0, 0, 0]),
    (np.vstack([np.zeros((2, 80)), _unit(np.random.default_rng(2), 3)]), 2.5, [0] * 5),
    (np.stack([_A, _B, _A, _C, _B, _A]), 0.15, [0, 1, 0, 2, 1, 0]),
    (np.stack([_A, _B, _A, _C, _B, _A]), 1e-6, [0, 1, 0, 2, 1, 0]),
    (_unit(np.random.default_rng(3), 30), 0.0, list(range(30))),
    (_unit(np.random.default_rng(4), 30), 2.5, [0] * 30),
], ids=["one-window", "zeros-apart", "zeros-at-1", "zeros-at-2.5", "duplicates",
        "duplicates-at-1e-6", "threshold-0", "threshold-2.5"])
def test_linkage_edge_cases(vectors, threshold, want):
    assert curate._average_linkage_clusters(vectors, threshold).tolist() == want
    _assert_reference_labels_or_tie_rule(vectors, threshold)


def test_linkage_of_3000_windows_stays_in_linear_memory():
    vectors = _blob_vectors(np.random.default_rng(11), 3000, 4, 80)
    tracemalloc.start()
    try:
        labels = curate._average_linkage_clusters(vectors, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x n distances alone would take 3000**2 * 8 bytes = 72 MB
    assert peak < 8_000_000
    assert labels.max() + 1 == 4


def _reference_diarize(buf, spans, cfg):
    """``diarize`` as it was: per-window front end, stored-means clustering
    and a majority vote that scans every window's owner."""
    if not spans:
        return []
    vectors, owners = [], []
    for si, span in enumerate(spans):
        vecs = _reference_window_vectors(buf, [span], cfg)
        vectors.extend(vecs)
        owners.extend([si] * len(vecs))
    labels = _reference_stored_means_linkage(np.stack(vectors),
                                             cfg.cluster_distance_threshold, lambda m: None)
    span_cluster = []
    for si in range(len(spans)):
        mine = labels[[i for i, o in enumerate(owners) if o == si]]
        span_cluster.append(int(np.argmax(np.bincount(mine))))
    rename = {}
    out = []
    for span, cluster in zip(spans, span_cluster):
        if cluster not in rename:
            rename[cluster] = f"S{len(rename)}"
        out.append(Span(span.start_s, span.end_s, speaker=rename[cluster]))
    return out


@pytest.mark.parametrize("threshold", [0.02, 0.15, 0.5])
@pytest.mark.parametrize("window_s", [0.37, 1.0])
def test_diarize_equals_the_per_window_reference(threshold, window_s):
    buf = _speakers_buffer(16000, 8, seed=3)
    spans = _diarize_spans(buf.duration_s) + [Span(7.2, 7.9)]
    cfg = PipelineConfig(window_s=window_s, cluster_distance_threshold=threshold)
    got = diarize(buf, spans, cfg)
    assert got == _reference_diarize(buf, spans, cfg)


@pytest.mark.parametrize("window_s", [0.0, -1.0, 0.02, float("nan")])
def test_window_shorter_than_one_analysis_frame_is_config_error(window_s):
    with pytest.raises(ConfigError, match="'window_s' must be at least one 400-sample"):
        PipelineConfig(window_s=window_s)


def test_window_of_one_analysis_frame_is_accepted():
    for rate in (8000, 16000, 44100):
        frame, _ = analysis_frame(rate)
        assert PipelineConfig(sample_rate=rate, window_s=frame / rate).window_s == frame / rate
    with pytest.raises(ConfigError, match="'window_s'.*8000 Hz"):
        PipelineConfig(sample_rate=8000, window_s=0.0249)


# ---------------------------------------------------------------------------
# Quality scoring


def test_quality_clean_tone_with_silence_gaps_saturates():
    buf = concat_buffers([silence(0.5), sine(440.0, 1.0), silence(0.5)])
    assert quality_score(buf) >= 4.9


def test_quality_pure_white_noise_scores_low():
    buf = white_noise(2.0, amplitude=0.3, seed=11)
    assert quality_score(buf) <= 1.2


def test_quality_always_within_bounds():
    for buf in (silence(1.0), sine(440.0, 1.0), white_noise(1.0, seed=1)):
        assert 1.0 <= quality_score(buf) <= 5.0


def test_quality_external_scorer_parses_decimal():
    buf = sine(440.0, 0.2)
    cfg = PipelineConfig(scorer="external:sh -c 'cat > /dev/null; echo 4.2'")
    score = quality_score(buf, cfg)
    assert score == pytest.approx(4.2)


def test_quality_external_scorer_bad_output_is_stage_error():
    buf = sine(440.0, 0.2)
    cfg = PipelineConfig(scorer="external:sh -c 'cat > /dev/null; echo not-a-number'")
    with pytest.raises(StageError):
        quality_score(buf, cfg)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_quality_external_scorer_non_finite_output_is_stage_error(value):
    buf = sine(440.0, 0.2)
    cfg = PipelineConfig(scorer=f"external:sh -c 'cat > /dev/null; echo {value}'")
    with pytest.raises(StageError, match=f"external scorer output not finite: '{value}'"):
        quality_score(buf, cfg)


# ---------------------------------------------------------------------------
# Filtering


def _record(dur, quality):
    return SegmentRecord(
        id=f"r-{dur}-{quality}", source_path="x.wav", offset_s=0.0,
        duration_s=dur, speaker=None, quality_score=quality, sample_rate=16000,
    )


def test_filter_too_short_at_2_9_seconds():
    kept, rejected = filter_segments([_record(2.9, 4.0)])
    assert kept == []
    assert rejected[0][1] == "too_short"


def test_filter_quality_exactly_at_threshold_is_rejected():
    kept, rejected = filter_segments([_record(10.0, 3.2)])
    assert kept == []
    assert rejected[0][1] == "low_quality"


def test_filter_interior_point_kept():
    kept, rejected = filter_segments([_record(10.0, 4.0)])
    assert len(kept) == 1 and rejected == []


def test_filter_boundaries_inclusive():
    kept, _ = filter_segments([_record(3.0, 4.0), _record(30.0, 4.0)])
    assert len(kept) == 2


def test_filter_partition_reconciles():
    records = [_record(d, q) for d in (1.0, 3.0, 10.0, 31.0)
               for q in (1.5, 3.2, 4.5)]
    kept, rejected = filter_segments(records)
    assert len(kept) + len(rejected) == len(records)
    kept_ids = {r.id for r in kept} | {r.id for r, _ in rejected}
    assert kept_ids == {r.id for r in records}


def test_split_long_span_70s_becomes_30_30_10():
    parts = split_long_span(Span(0.0, 70.0, speaker="S0"), 30.0)
    assert [(p.start_s, p.end_s) for p in parts] == [(0, 30), (30, 60), (60, 70)]
    assert all(p.speaker == "S0" for p in parts)


# ---------------------------------------------------------------------------
# Pipeline


def _write_speechy_wav(path, seed=0, freq=440.0, bursts=10):
    # tone bursts with sub-hangover gaps: merges into one span that still
    # carries silence contrast for the snr-proxy, like pauses in speech
    parts = [silence(0.5)]
    for _ in range(bursts):
        parts.extend([sine(freq, 0.3, amplitude=0.4), silence(0.08)])
    parts.append(silence(0.5))
    buf = concat_buffers(parts)
    write_wav(path, buf)
    return buf


def test_pipeline_empty_inputs():
    manifest = run_pipeline([], PipelineConfig())
    assert manifest.records == []
    assert manifest.total_hours == 0.0


def test_pipeline_pure_silence_zero_records(tmp_path):
    path = tmp_path / "quiet.wav"
    write_wav(path, silence(5.0))
    manifest = run_pipeline([path], PipelineConfig())
    assert manifest.records == []
    assert manifest.header["warnings"] == []


def test_pipeline_keeps_tone_segment(tmp_path):
    path = tmp_path / "tone.wav"
    _write_speechy_wav(path)
    manifest = run_pipeline([path], PipelineConfig())
    assert len(manifest.records) == 1
    rec = manifest.records[0]
    assert 3.0 <= rec.duration_s <= 30.0
    assert rec.quality_score > 3.2
    assert rec.speaker == "S0"


def test_pipeline_unreadable_file_becomes_warning(tmp_path):
    good = tmp_path / "good.wav"
    _write_speechy_wav(good)
    missing = tmp_path / "missing.wav"
    manifest = run_pipeline([good, missing], PipelineConfig())
    assert len(manifest.header["warnings"]) == 1
    assert "missing.wav" in manifest.header["warnings"][0]
    assert len(manifest.records) == 1


def test_pipeline_deterministic_byte_identical(tmp_path):
    paths = []
    for i, freq in enumerate((300.0, 800.0)):
        p = tmp_path / f"in{i}.wav"
        _write_speechy_wav(p, freq=freq)
        paths.append(p)
    out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
    run_pipeline(paths, PipelineConfig()).write(out1)
    run_pipeline(paths, PipelineConfig()).write(out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_pipeline_resamples_only_the_files_off_its_rate(tmp_path, monkeypatch):
    at_rate, off_rate = tmp_path / "at.wav", tmp_path / "off.wav"
    _write_speechy_wav(at_rate)
    write_wav(off_rate, resample(read_wav(at_rate), 22050))
    calls = []

    def logging_resample(buf, rate):
        out = resample(buf, rate)
        calls.append((buf.sample_rate, rate, out is buf))
        return out

    monkeypatch.setattr(curate, "resample", logging_resample)
    manifest = run_pipeline([at_rate, off_rate], PipelineConfig())
    # the file at the pipeline's rate goes through as read
    assert calls == [(16000, 16000, True), (22050, 16000, False)]
    assert [rec.source_path for rec in manifest.records] == [str(at_rate), str(off_rate)]


def test_manifest_round_trip(tmp_path):
    rec = SegmentRecord(
        id="a-000-000", source_path="x.wav", offset_s=0.5, duration_s=4.0,
        speaker="S0", quality_score=4.5, sample_rate=16000,
        transcript="waaw", translation="yes", split="train",
    )
    manifest = Manifest([rec], {"pipeline_version": "1"})
    path = tmp_path / "m.jsonl"
    manifest.write(path)
    lines = path.read_text().strip().split("\n")
    assert '"__header__": true' in lines[0]
    back = Manifest.read(path)
    assert back.records[0] == rec
    assert back.header["pipeline_version"] == "1"


def test_manifest_rejects_duplicate_ids(tmp_path):
    rec = _record(5.0, 4.0)
    path = tmp_path / "m.jsonl"
    with pytest.raises(ConfigError) as info:
        Manifest([rec, rec]).write(path)
    assert str(info.value) == f"{path}: more than one record has id {rec.id!r}"
    assert not path.exists()


def test_emitted_manifest_revalidates_thresholds(tmp_path):
    paths = []
    for i, freq in enumerate((350.0, 900.0)):
        p = tmp_path / f"in{i}.wav"
        _write_speechy_wav(p, freq=freq)
        paths.append(p)
    out = tmp_path / "m.jsonl"
    cfg = PipelineConfig()
    run_pipeline(paths, cfg).write(out)
    for rec in Manifest.read(out).records:
        assert cfg.min_dur_s <= rec.duration_s <= cfg.max_dur_s
        assert rec.quality_score > cfg.quality_threshold
