"""Corpus curation: source separation hook, VAD, diarization, quality
filtering, and the manifest of surviving utterances.

Stage order per input file: separate -> VAD -> diarize -> cut spans into
candidate segments (hard-splitting anything over the duration ceiling) ->
score -> filter. Files run one after another in input order, so the
manifest is byte-deterministic for given inputs and config.

Separation and quality scoring are pluggable: a deterministic built-in
proxy, or an external subprocess that reads WAV on stdin and writes WAV
(separator) or a decimal score (scorer) on stdout, exiting 0 on success.
Speaker embeddings for diarization are built-in log-mel statistics over
half-overlapping windows; each span's STFT runs once over the frames its
windows share. The windows are clustered by average linkage through a
nearest-neighbour chain over cluster sums, in memory linear in the window
count, so an hour of speech (7,200 one-second windows) clusters in seconds.
VAD, scoring and diarization frame the signal with the package's one
analysis frame (``audio.analysis_frame``), so ``PipelineConfig`` rejects a
``sample_rate`` too low to hold a hop, and a ``window_s`` shorter than one
frame, before any file is read. A non-finite float field is rejected by the
one config reader (``config.config_fields``), before ``PipelineConfig`` is
built.
"""

from __future__ import annotations

import shlex
import subprocess
from collections import Counter
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .audio import (
    AudioBuffer,
    _hann_window,
    analysis_frame,
    frame_magnitudes,
    frame_signal,
    mel_log,
    parse_wav_bytes,
    read_wav,
    resample,
    wav_bytes,
)
from .config import config_hash
from .errors import ConfigError, SlmforgeError, StageError
from .fileio import read_jsonl, write_jsonl

PIPELINE_VERSION = "1"

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


@dataclass
class Manifest:
    records: list
    header: dict = field(default_factory=dict)

    @property
    def total_hours(self) -> float:
        return sum(r.duration_s for r in self.records) / 3600.0

    def write(self, path) -> None:
        _check_unique_ids(path, self.records)
        write_jsonl(path, self.header, self.records)

    @classmethod
    def read(cls, path) -> "Manifest":
        header, records = read_jsonl(path, SegmentRecord)
        _check_unique_ids(path, records)
        return cls(records, header)


def _check_unique_ids(path, records) -> None:
    """Reject two records of manifest ``path`` with one id, naming the file
    and the id: features and SFT examples are keyed by record id."""
    shared = [i for i, n in Counter(rec.id for rec in records).items() if n > 1]
    if shared:
        raise ConfigError(f"{path}: more than one record has id {shared[0]!r}")


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
        for key, builtins in (("separator", ("passthrough", "spectral-gate")),
                              ("scorer", ("snr-proxy",))):
            name = getattr(self, key)
            external = name.startswith("external:") and name[len("external:"):].strip()
            if name not in builtins and not external:
                raise ConfigError(f"{key!r} must be {', '.join(map(repr, builtins))} or "
                                  f"'external:<command>', got {name!r}")
        try:
            frame, _ = analysis_frame(self.sample_rate)
        except ConfigError as exc:
            raise ConfigError(f"'sample_rate': {exc}") from None
        # diarization steps by half a window: a window of no length never ends
        if not self.window_s >= frame / self.sample_rate:
            raise ConfigError(f"'window_s' must be at least one {frame}-sample analysis "
                              f"frame at {self.sample_rate} Hz "
                              f"({frame / self.sample_rate:g} s), got {self.window_s}")


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
        raise StageError(f"external tool {argv[0]!r} exited {proc.returncode}: {excerpt}")
    return proc.stdout


def spectral_gate(buf: AudioBuffer) -> AudioBuffer:
    """Built-in noise suppressor: high-pass plus noise-floor gating.

    The noise floor is the 20th percentile of STFT magnitudes over all
    time-frequency cells (robust while tonal content is sparse); cells under
    2.5 times the floor are scaled by 0.1, and everything below 80 Hz is
    removed. Output keeps the input duration and rate.
    """
    n = len(buf.samples)
    frame, hop = 512, 128
    if n < frame:
        return buf
    n_frames = 1 + (n - frame + hop - 1) // hop
    padded = np.zeros((n_frames - 1) * hop + frame)
    padded[:n] = buf.samples
    window = _hann_window(frame)
    spec = np.fft.rfft(frame_signal(padded, frame, hop) * window, axis=1)
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
    return AudioBuffer(np.clip(out[:n], -1.0, 1.0), buf.sample_rate)


def separate_sources(buf: AudioBuffer, cfg: PipelineConfig = PipelineConfig()) -> AudioBuffer:
    """Run the source-separation stage; output keeps the input duration/rate.

    ``cfg.separator`` is "passthrough" (returns ``buf``), "spectral-gate", or
    "external:<command>", a command reading WAV on stdin and writing it on stdout.
    """
    if cfg.separator == "passthrough":
        return buf
    if cfg.separator == "spectral-gate":
        return spectral_gate(buf)
    # PipelineConfig admits no other name than "external:<command>"
    stdout = _run_external(cfg.separator[len("external:"):], buf)
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


# ---------------------------------------------------------------------------
# Stage: VAD


def _frame_energies_db(buf: AudioBuffer):
    frame, hop = analysis_frame(buf.sample_rate)
    # frames of the squared signal: each sample is squared once, not per frame
    frames = frame_signal(buf.samples * buf.samples, frame, hop)
    if frames.shape[0] == 0:
        return np.zeros(0), frame / buf.sample_rate, hop / buf.sample_rate
    energy = frames.mean(axis=1)
    return 10.0 * np.log10(energy + _ENERGY_FLOOR), frame / buf.sample_rate, hop / buf.sample_rate


def _speech_frames(e_db: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Frames whose log energy exceeds the 10th percentile by ``energy_threshold_db``."""
    return e_db > np.percentile(e_db, 10) + cfg.energy_threshold_db


def vad_segments(buf: AudioBuffer, cfg: PipelineConfig = PipelineConfig()) -> list:
    """Energy VAD over the analysis frames of ``audio.analysis_frame``.

    A frame is speech when its log energy exceeds the buffer's 10th-percentile
    energy by ``energy_threshold_db``. Gaps shorter than ``hangover_ms`` are
    merged; spans shorter than ``min_speech_ms`` are dropped. Returns sorted,
    non-overlapping spans.
    """
    e_db, frame_s, hop_s = _frame_energies_db(buf)
    if e_db.size == 0:
        return []
    speech = _speech_frames(e_db, cfg)

    # run i covers frames first[i] ..= last[i]
    edges = np.diff(speech.astype(np.int8), prepend=0, append=0)
    first = np.flatnonzero(edges == 1).tolist()
    last = (np.flatnonzero(edges == -1) - 1).tolist()

    duration = buf.duration_s
    raw = [(i0 * hop_s, min(i1 * hop_s + frame_s, duration)) for i0, i1 in zip(first, last)]

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


def trim_to_speech(buf: AudioBuffer) -> AudioBuffer:
    """Cut a buffer down to its overall speech extent (first to last VAD span).

    Decoding paths use this so ad-hoc input files see the same geometry as
    the curated segments models were trained on. A buffer with no detected
    speech is returned itself.
    """
    spans = vad_segments(buf)
    if not spans:
        return buf
    return buf.slice_seconds(spans[0].start_s, spans[-1].end_s)


def _stats_embedding(feats: np.ndarray) -> np.ndarray:
    """Proxy speaker embedding of (T, n_mels) log-mel rows: per-band mean and
    std, L2-normalised; the zero vector when there are no rows."""
    if feats.shape[0] == 0:
        vec = np.zeros(2 * feats.shape[1])
    else:
        vec = np.concatenate([feats.mean(axis=0), feats.std(axis=0)])
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def _linkage_merges(vectors: np.ndarray, threshold: float) -> list:
    """The merges of average linkage under cosine distance at heights up to
    ``threshold``, as ``(a, b, height)``: cluster ``b`` joins cluster ``a``,
    each named by its smallest member, ``a < b``.

    The rows are unit or zero vectors, so the mean distance between clusters
    A and B is 1 - s_A·s_B / (c_A c_B) for the members' vector sum s and
    count c; a zero vector stays at distance 1 from every other. Average
    linkage is reducible, so a nearest-neighbour chain (Müllner,
    arXiv:1109.2378) finds the greedy dendrogram with one matrix-vector
    product over the sums per step. The chain grows by its last cluster's
    nearest neighbour (on a tie the chain's previous cluster, else the
    smallest) until that neighbour is already on the chain; then the two
    merge and the chain is cut back to before the neighbour. In exact
    arithmetic that neighbour is the previous cluster; the products round
    by row position, so near a tie it may be an earlier one, and merging
    still ends the loop. A chain whose last cluster has no neighbour within
    ``threshold`` retires whole: by reducibility, none of its clusters can
    merge within ``threshold`` later. Memory is O(n·d) and time O(n²·d)
    for n rows of width d.
    """
    sums = np.array(vectors, dtype=np.float64)
    sizes = np.ones(len(sums))
    # +inf on clusters merged away or retired, so that argmin skips them
    gone = np.zeros(len(sums))
    merges = []
    chain = []
    while True:
        if not chain:
            rest = np.flatnonzero(gone == 0.0)
            if len(rest) < 2:
                return merges
            chain.append(int(rest[0]))
        top = chain[-1]
        dist = 1.0 - (sums @ sums[top]) / (sizes * sizes[top])
        dist += gone
        dist[top] = np.inf
        near = int(np.argmin(dist))
        if len(chain) > 1 and dist[chain[-2]] <= dist[near]:
            near = chain[-2]
        if dist[near] > threshold:
            gone[chain] = np.inf
            chain = []
        elif near in chain:
            del chain[chain.index(near):]
            a, b = min(top, near), max(top, near)
            sums[a] += sums[b]
            sizes[a] += sizes[b]
            gone[b] = np.inf
            merges.append((a, b, float(dist[near])))
        else:
            chain.append(near)


def _average_linkage_clusters(vectors: np.ndarray, threshold: float) -> np.ndarray:
    """Average-linkage agglomerative clustering under cosine distance, cut at
    ``threshold``: the clusters of ``_linkage_merges``, numbered in the order
    of their smallest members.

    The greedy rule, merge the closest pair while its mean distance is at
    most ``threshold``, gives the same clusters wherever each of its merges
    leads the runner-up pair and each merge height clears ``threshold`` by
    more than rounding. Where they do not, the chain may take another merge
    than the greedy rule's lexicographically first pair (the tie rule):
    labels are still deterministic, equal nonzero windows share a cluster
    at any ``threshold`` above rounding, and every two clusters left are
    more than ``threshold`` apart, up to rounding.
    """
    root = np.arange(len(vectors))
    for a, b, _ in _linkage_merges(vectors, threshold):
        root[b] = a
    # every link points to a smaller index, so one ascending pass resolves it
    for i in range(len(root)):
        root[i] = root[root[i]]
    return np.unique(root, return_inverse=True)[1]


def _span_windows(span: Span, window_s: float, sample_rate: int, n_samples: int) -> list:
    """[i0, i1) sample bounds of the ``window_s`` windows (hop = half a
    window) inside ``span``, at least one, cut short at the span's end."""
    starts = []
    t = span.start_s
    while t + window_s <= span.end_s + 1e-9:
        starts.append(t)
        t += window_s / 2.0
    if not starts:
        starts = [span.start_s]
    return [(max(0, int(round(s * sample_rate))),
             min(n_samples, int(round(min(s + window_s, span.end_s) * sample_rate))))
            for s in starts]


def diarize(buf: AudioBuffer, spans, cfg: PipelineConfig = PipelineConfig()) -> list:
    """Label spans by speaker via clustered sliding-window embeddings.

    Windows of ``window_s`` (hop = half a window) are cut inside each span.
    Each span's STFT runs once, over every distinct frame start its windows
    use; a window gathers its own frames' rows, projects them onto a 40-band
    mel bank and takes their per-band mean and std, L2-normalised.
    Average-linkage clustering under cosine distance is cut at
    ``cluster_distance_threshold`` (``_average_linkage_clusters``: a
    nearest-neighbour chain over the clusters' embedding sums, O(n·80)
    memory and O(n²·80) time for n windows, about 5 s on one Xeon core for
    the 7,200 one-second windows of an hour; mean distances that tie within
    rounding may merge in either order). Each span takes the majority
    cluster of its windows. Labels are "S0", "S1", ... in order of first
    appearance.
    """
    if not spans:
        return []

    rate = buf.sample_rate
    frame, hop = analysis_frame(rate)
    window_vecs = []
    bounds = [0]  # span si owns windows bounds[si] .. bounds[si + 1] - 1
    for span in spans:
        # frame k of a window starting at sample i0 starts at i0 + k * hop
        window_frames = [np.arange(i0, i1 - frame + 1, hop)
                         for i0, i1 in _span_windows(span, cfg.window_s, rate, len(buf.samples))]
        starts, row = np.unique(np.concatenate(window_frames), return_inverse=True)
        mag = frame_magnitudes(buf.samples, starts, frame)
        at = 0
        for f in window_frames:
            rows = mag[row[at:at + len(f)]]
            window_vecs.append(_stats_embedding(mel_log(rows, 40, rate)))
            at += len(f)
        bounds.append(len(window_vecs))

    labels = _average_linkage_clusters(np.stack(window_vecs), cfg.cluster_distance_threshold)

    rename = {}
    out = []
    for si, span in enumerate(spans):
        cluster = int(np.argmax(np.bincount(labels[bounds[si]:bounds[si + 1]])))
        if cluster not in rename:
            rename[cluster] = f"S{len(rename)}"
        out.append(Span(span.start_s, span.end_s, speaker=rename[cluster]))
    return out


# ---------------------------------------------------------------------------
# Stage: quality scoring


def quality_score(buf: AudioBuffer, cfg: PipelineConfig = PipelineConfig()) -> float:
    """Speech-quality estimate in [1, 5] by ``cfg.scorer``.

    "snr-proxy" contrasts VAD speech-frame energy against silence-frame
    energy and maps the dB ratio through 1 + 4 / (1 + exp(-(snr - 15) / 5)).
    When the frames cannot be split into both kinds the SNR is taken as
    0 dB. "external:<command>" pipes WAV in and parses a decimal score out.
    """
    if cfg.scorer.startswith("external:"):
        stdout = _run_external(cfg.scorer[len("external:"):], buf)
        text = stdout.decode("utf-8", "replace").strip()
        try:
            raw = float(text)
        except ValueError:
            raise StageError(f"external scorer output not a decimal: {text[:80]!r}") from None
        if not np.isfinite(raw):
            raise StageError(f"external scorer output not finite: {text[:80]!r}")
        return float(np.clip(raw, 1.0, 5.0))

    e_db, _, _ = _frame_energies_db(buf)
    if e_db.size == 0:
        snr_db = 0.0
    else:
        speech = _speech_frames(e_db, cfg)
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


def _process_file(file_idx: int, path: str, cfg: PipelineConfig):
    try:
        buf = read_wav(path)
    except (OSError, SlmforgeError) as exc:
        return None, str(exc)
    buf = separate_sources(resample(buf, cfg.sample_rate), cfg)
    spans = vad_segments(buf, cfg)
    spans = diarize(buf, spans, cfg)

    candidates = []
    for span in spans:
        candidates.extend(split_long_span(span, cfg.max_dur_s))

    stem = Path(path).stem
    records = []
    for k, span in enumerate(candidates):
        segment = buf.slice_seconds(span.start_s, span.end_s)
        score = quality_score(segment, cfg)
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


def run_pipeline(input_paths, cfg: PipelineConfig = PipelineConfig()) -> Manifest:
    """Run the full curation pipeline over input WAV paths.

    Unreadable files become manifest-level warnings rather than failures.
    Output order is (input order, span order), byte-deterministic for a
    given (inputs, config).
    """
    input_paths = [str(p) for p in input_paths]
    results = [_process_file(i, p, cfg) for i, p in enumerate(input_paths)]

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
