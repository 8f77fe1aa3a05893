"""Corpus curation: source separation hook, VAD, diarization, quality
filtering, and the manifest of surviving utterances.

Stage order per input file: separate -> VAD -> diarize -> cut spans into
candidate segments (hard-splitting anything over the duration ceiling) ->
score -> filter. Stages are pure, so files can be fanned out to a worker
pool; results are merged back in input order to keep output deterministic.

Neural stages (separation, quality scoring, speaker embeddings) are
pluggable: a deterministic built-in proxy, or an external subprocess that
reads WAV on stdin and writes WAV (separator) or a decimal score (scorer)
on stdout, exiting 0 on success.
"""

from __future__ import annotations

import json
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .audio import (
    AudioBuffer,
    SpectralConfig,
    frame_signal,
    log_mel,
    parse_wav_bytes,
    read_wav,
    resample,
    wav_bytes,
)
from .config import config_hash
from .errors import ConfigError, SlmforgeError, StageError

PIPELINE_VERSION = "1"

VAD_FRAME_MS = 25.0
VAD_HOP_MS = 10.0
_ENERGY_FLOOR = 1e-12

REJECT_REASONS = ("too_short", "too_long", "low_quality")


@dataclass
class Span:
    start_s: float
    end_s: float
    speaker: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.start_s < self.end_s):
            raise ValueError(f"need 0 <= start < end, got [{self.start_s}, {self.end_s}]")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class SegmentRecord:
    id: str
    source_path: str
    offset_s: float
    duration_s: float
    speaker: str | None
    quality_score: float
    sample_rate: int
    transcript: str | None = None
    translation: str | None = None
    split: str = "unsplit"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_dict(cls, d: dict) -> "SegmentRecord":
        return cls(**{k: d.get(k) for k in cls.__dataclass_fields__})


@dataclass
class Manifest:
    records: list
    header: dict = field(default_factory=dict)

    @property
    def total_hours(self) -> float:
        return sum(r.duration_s for r in self.records) / 3600.0

    def validate(self) -> None:
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest ids are not unique")

    def write(self, path) -> None:
        self.validate()
        header = dict(self.header)
        header["__header__"] = True
        lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
        lines.extend(r.to_json() for r in self.records)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def read(cls, path) -> "Manifest":
        header = {}
        records = []
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                d = json.loads(line)
                if i == 0 and d.get("__header__"):
                    d.pop("__header__")
                    header = d
                else:
                    records.append(SegmentRecord.from_dict(d))
        return cls(records, header)


@dataclass(frozen=True)
class PipelineConfig:
    min_dur_s: float = 3.0
    max_dur_s: float = 30.0
    quality_threshold: float = 3.2
    sample_rate: int = 16000
    energy_threshold_db: float = 6.0
    hangover_ms: float = 100.0
    min_speech_ms: float = 200.0
    window_s: float = 1.0
    cluster_distance_threshold: float = 0.15
    separator: str = "passthrough"
    scorer: str = "snr-proxy"

    def __post_init__(self):
        if not (self.min_dur_s < self.max_dur_s):
            raise ConfigError("min_dur_s must be below max_dur_s")
        if not (1.0 <= self.quality_threshold <= 5.0):
            raise ConfigError("quality_threshold must lie in [1, 5]")


# ---------------------------------------------------------------------------
# Stage: source separation


def _run_external(command: str, buf: AudioBuffer) -> bytes:
    argv = shlex.split(command)
    try:
        proc = subprocess.run(
            argv, input=wav_bytes(buf), capture_output=True, check=False
        )
    except OSError as exc:
        raise StageError(f"failed to launch external tool {argv[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        excerpt = proc.stderr.decode("utf-8", "replace")[:500]
        raise StageError(
            f"external tool {argv[0]!r} exited {proc.returncode}: {excerpt}",
            exit_code=proc.returncode,
            stderr=excerpt,
        )
    return proc.stdout


def spectral_gate(buf: AudioBuffer, highpass_hz: float = 80.0,
                  gate_mult: float = 2.5, attenuation: float = 0.1) -> AudioBuffer:
    """Built-in noise suppressor: high-pass plus noise-floor gating.

    The noise floor is the 20th percentile of STFT magnitudes over all
    time-frequency cells (robust while tonal content is sparse); cells under
    ``gate_mult`` times the floor are attenuated, and everything below
    ``highpass_hz`` is removed. Output keeps the input duration and rate.
    """
    n = len(buf.samples)
    frame, hop = 512, 128
    if n < frame:
        return AudioBuffer(buf.samples.copy(), buf.sample_rate)
    n_frames = 1 + (n - frame + hop - 1) // hop
    padded = np.zeros((n_frames - 1) * hop + frame)
    padded[:n] = buf.samples
    window = np.hanning(frame)
    idx = np.arange(frame)[None, :] + hop * np.arange(n_frames)[:, None]
    spec = np.fft.rfft(padded[idx] * window, axis=1)
    mag = np.abs(spec)

    floor = np.percentile(mag, 20)
    gain = np.where(mag >= gate_mult * floor, 1.0, attenuation)
    bin_freqs = np.arange(spec.shape[1]) * buf.sample_rate / frame
    gain[:, bin_freqs < highpass_hz] = 0.0

    frames_out = np.fft.irfft(spec * gain, n=frame, axis=1) * window
    out = np.zeros_like(padded)
    norm = np.zeros_like(padded)
    wsq = window * window
    for t in range(n_frames):
        out[t * hop : t * hop + frame] += frames_out[t]
        norm[t * hop : t * hop + frame] += wsq
    out = out / np.maximum(norm, 1e-8)
    return AudioBuffer(np.clip(out[:n], -1.0, 1.0), buf.sample_rate)


def separate_sources(buf: AudioBuffer, separator: str = "passthrough") -> AudioBuffer:
    """Run the source-separation stage; output keeps the input duration/rate.

    ``separator`` is "passthrough", "spectral-gate", or "external:<command>"
    where the command reads WAV on stdin and writes WAV on stdout.
    """
    if separator == "passthrough":
        return AudioBuffer(buf.samples.copy(), buf.sample_rate)
    if separator == "spectral-gate":
        return spectral_gate(buf)
    if separator.startswith("external:"):
        stdout = _run_external(separator[len("external:"):], buf)
        try:
            out = parse_wav_bytes(stdout)
        except SlmforgeError as exc:
            raise StageError(f"external separator produced malformed WAV: {exc}") from exc
        if out.sample_rate != buf.sample_rate or len(out.samples) != len(buf.samples):
            raise StageError(
                "external separator changed duration or rate "
                f"({len(out.samples)}@{out.sample_rate} vs {len(buf.samples)}@{buf.sample_rate})"
            )
        return out
    raise ConfigError(f"unknown separator {separator!r}")


# ---------------------------------------------------------------------------
# Stage: VAD


def _frame_energies_db(buf: AudioBuffer):
    frame = int(round(VAD_FRAME_MS * buf.sample_rate / 1000.0))
    hop = int(round(VAD_HOP_MS * buf.sample_rate / 1000.0))
    frames = frame_signal(buf.samples, frame, hop)
    if frames.shape[0] == 0:
        return np.zeros(0), frame / buf.sample_rate, hop / buf.sample_rate
    energy = (frames * frames).mean(axis=1)
    return 10.0 * np.log10(energy + _ENERGY_FLOOR), frame / buf.sample_rate, hop / buf.sample_rate


def vad_segments(buf: AudioBuffer, cfg: PipelineConfig = PipelineConfig()) -> list:
    """Energy VAD over 25 ms / 10 ms frames.

    A frame is speech when its log energy exceeds the buffer's 10th-percentile
    energy by ``energy_threshold_db``. Gaps shorter than ``hangover_ms`` are
    merged; spans shorter than ``min_speech_ms`` are dropped. Returns sorted,
    non-overlapping spans.
    """
    e_db, frame_s, hop_s = _frame_energies_db(buf)
    if e_db.size == 0:
        return []
    threshold = np.percentile(e_db, 10) + cfg.energy_threshold_db
    speech = e_db > threshold

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


# ---------------------------------------------------------------------------
# Stage: diarization


def trim_to_speech(buf: AudioBuffer, cfg: PipelineConfig = PipelineConfig()) -> AudioBuffer:
    """Cut a buffer down to its overall speech extent (first to last VAD span).

    Decoding paths use this so ad-hoc input files see the same geometry as
    the curated segments models were trained on. A buffer with no detected
    speech is returned unchanged.
    """
    spans = vad_segments(buf, cfg)
    if not spans:
        return AudioBuffer(buf.samples.copy(), buf.sample_rate)
    return buf.slice_seconds(spans[0].start_s, spans[-1].end_s)


def logmel_stats_embedder(buf: AudioBuffer) -> np.ndarray:
    """Built-in proxy speaker embedding: per-band log-mel mean and std, L2-normalized."""
    feats = log_mel(buf, SpectralConfig())
    if feats.num_frames == 0:
        vec = np.zeros(2 * feats.dim)
    else:
        vec = np.concatenate([feats.data.mean(axis=0), feats.data.std(axis=0)])
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def _average_linkage_clusters(vectors: np.ndarray, threshold: float) -> np.ndarray:
    """Average-linkage agglomerative clustering under cosine distance.

    Merging continues while the smallest average inter-cluster distance is
    at most ``threshold``; ties pick the lexicographically smallest pair.
    """
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


def diarize(buf: AudioBuffer, spans, embedder=None,
            cfg: PipelineConfig = PipelineConfig()) -> list:
    """Label spans by speaker via clustered sliding-window embeddings.

    Windows of ``window_s`` (hop = half a window) are cut inside each span
    and embedded to unit-norm vectors; average-linkage clustering under
    cosine distance is cut at ``cluster_distance_threshold``. Each span takes
    the majority cluster of its windows. Labels are "S0", "S1", ... in order
    of first appearance.
    """
    if not spans:
        return []
    if embedder is None:
        embedder = logmel_stats_embedder

    window_vecs = []
    owners = []
    for si, span in enumerate(spans):
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
            window_vecs.append(embedder(buf.slice_seconds(s, e)))
            owners.append(si)

    vectors = np.stack(window_vecs)
    labels = _average_linkage_clusters(vectors, cfg.cluster_distance_threshold)

    span_cluster = []
    for si in range(len(spans)):
        mine = labels[[i for i, o in enumerate(owners) if o == si]]
        counts = np.bincount(mine)
        span_cluster.append(int(np.argmax(counts)))

    rename = {}
    out = []
    for span, cluster in zip(spans, span_cluster):
        if cluster not in rename:
            rename[cluster] = f"S{len(rename)}"
        out.append(Span(span.start_s, span.end_s, speaker=rename[cluster]))
    return out


# ---------------------------------------------------------------------------
# Stage: quality scoring


def quality_score(buf: AudioBuffer, scorer: str = "snr-proxy",
                  cfg: PipelineConfig = PipelineConfig()) -> float:
    """Speech-quality estimate in [1, 5].

    "snr-proxy" contrasts VAD speech-frame energy against silence-frame
    energy and maps the dB ratio through 1 + 4 / (1 + exp(-(snr - 15) / 5)).
    When the frames cannot be split into both kinds the SNR is taken as
    0 dB. "external:<command>" pipes WAV in and parses a decimal score out.
    """
    if scorer.startswith("external:"):
        stdout = _run_external(scorer[len("external:"):], buf)
        text = stdout.decode("utf-8", "replace").strip()
        try:
            raw = float(text)
        except ValueError:
            raise StageError(f"external scorer output not a decimal: {text[:80]!r}") from None
        return float(np.clip(raw, 1.0, 5.0))
    if scorer != "snr-proxy":
        raise ConfigError(f"unknown scorer {scorer!r}")

    e_db, _, _ = _frame_energies_db(buf)
    if e_db.size == 0:
        snr_db = 0.0
    else:
        threshold = np.percentile(e_db, 10) + cfg.energy_threshold_db
        speech = e_db > threshold
        if not speech.any() or speech.all():
            snr_db = 0.0
        else:
            energy = 10.0 ** (e_db / 10.0)
            snr_db = 10.0 * np.log10(
                energy[speech].mean() / max(energy[~speech].mean(), _ENERGY_FLOOR)
            )
    score = 1.0 + 4.0 / (1.0 + np.exp(-(snr_db - 15.0) / 5.0))
    return float(np.clip(score, 1.0, 5.0))


# ---------------------------------------------------------------------------
# Filtering and the full pipeline


def filter_segments(records, cfg: PipelineConfig = PipelineConfig()):
    """Partition records into (kept, rejected) per the duration and quality gates.

    Duration bounds are inclusive; the quality threshold is strict. Rejected
    records carry one reason, checked in order: too_short, too_long,
    low_quality.
    """
    kept = []
    rejected = []
    for rec in records:
        if rec.duration_s < cfg.min_dur_s:
            rejected.append((rec, "too_short"))
        elif rec.duration_s > cfg.max_dur_s:
            rejected.append((rec, "too_long"))
        elif not (rec.quality_score > cfg.quality_threshold):
            rejected.append((rec, "low_quality"))
        else:
            kept.append(rec)
    return kept, rejected


def split_long_span(span: Span, max_dur_s: float) -> list:
    """Hard-split a span at max_dur_s boundaries; the remainder forms the tail."""
    if span.duration_s <= max_dur_s:
        return [span]
    out = []
    t = span.start_s
    while span.end_s - t > 1e-9:
        e = min(t + max_dur_s, span.end_s)
        out.append(Span(t, e, speaker=span.speaker))
        t = e
    return out


def _process_file(file_idx: int, path: str, cfg: PipelineConfig, embedder):
    try:
        buf = read_wav(path)
    except (OSError, SlmforgeError) as exc:
        return None, f"{path}: {exc}"
    buf = resample(buf, cfg.sample_rate)
    buf = separate_sources(buf, cfg.separator)
    spans = vad_segments(buf, cfg)
    spans = diarize(buf, spans, embedder, cfg)

    candidates = []
    for span in spans:
        candidates.extend(split_long_span(span, cfg.max_dur_s))

    stem = Path(path).stem
    records = []
    for k, span in enumerate(candidates):
        segment = buf.slice_seconds(span.start_s, span.end_s)
        score = quality_score(segment, cfg.scorer, cfg)
        records.append(
            SegmentRecord(
                id=f"{stem}-{file_idx:03d}-{k:03d}",
                source_path=str(path),
                offset_s=round(span.start_s, 6),
                duration_s=round(span.duration_s, 6),
                speaker=span.speaker,
                quality_score=round(score, 4),
                sample_rate=cfg.sample_rate,
            )
        )
    return records, None


def run_pipeline(input_paths, cfg: PipelineConfig = PipelineConfig(),
                 embedder=None, jobs: int = 1) -> Manifest:
    """Run the full curation pipeline over input WAV paths.

    Unreadable files become manifest-level warnings rather than failures.
    Output order is (input order, span order) regardless of ``jobs``, and is
    byte-deterministic for a given (inputs, config).
    """
    input_paths = [str(p) for p in input_paths]
    if jobs > 1 and len(input_paths) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    lambda args: _process_file(args[0], args[1], cfg, embedder),
                    enumerate(input_paths),
                )
            )
    else:
        results = [
            _process_file(i, p, cfg, embedder) for i, p in enumerate(input_paths)
        ]

    warnings = []
    candidates = []
    for records, warning in results:
        if warning is not None:
            warnings.append(warning)
        else:
            candidates.extend(records)

    kept, rejected = filter_segments(candidates, cfg)
    reject_counts = {reason: 0 for reason in REJECT_REASONS}
    for _, reason in rejected:
        reject_counts[reason] += 1

    manifest = Manifest(records=kept)
    manifest.header = {
        "pipeline_version": PIPELINE_VERSION,
        "config_hash": config_hash(asdict(cfg)),
        "config": asdict(cfg),
        "n_input_files": len(input_paths),
        "n_candidates": len(candidates),
        "n_kept": len(kept),
        "rejected": reject_counts,
        "total_hours": round(manifest.total_hours, 6),
        "warnings": warnings,
    }
    return manifest
