"""Self-supervised masked-prediction pretraining of the speech encoder.

Discrete targets come from KMeans codebooks: first over MFCCs of the input
features, later refreshed from an intermediate transformer layer of the
partially trained encoder. Each codebook is fitted on the stacked frames of
the whole corpus, and the fit's own labels (nearest centroid, lowest index on
ties) are split back per utterance. Lloyd keeps its row-to-centroid distance
matrix across iterations and recomputes only stale columns, those of
clusters whose members changed or that were re-seeded, so the fit is
byte-identical to recomputing every column. Training minimizes
cross-entropy of the prediction head against those pseudo-labels at masked
frame positions only.
One flat ``PretrainConfig`` holds every setting, span masking's included.

Continued pretraining trains an encoder whose weights the caller built or
loaded from a checkpoint (``nn.load_checkpoint(path, SpeechEncoder)``), but
always starts the optimizer from a fresh state.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from . import tensor as T
from .audio import HOP_MS, analysis_frame, mfcc
from .config import read_config, require_at_least
from .errors import ConfigError, GraphError
from .fileio import parse_count, parse_field
from .nn import (
    Adam,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    TransformerLayer,
    fit,
    sinusoidal_positions,
    trunc_normal,
)
from .tensor import Tensor

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# KMeans codebooks


@dataclass
class Codebook:
    centroids: np.ndarray
    labels: np.ndarray  # per fitted row: its nearest centroid's index
    inertia: float


# elements of the (rows, centroids, D) difference buffer that
# ``_pairwise_sq_dist`` reuses for every chunk of rows: about 256 KB
_DIFF_BUFFER = 32_768


def _pairwise_sq_dist(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact squared distances via explicit differences, chunked over rows.

    Each chunk goes through one reused buffer: subtract, square in place,
    then sum over D into the result. Every entry is the sum of its own D
    squared differences, so it does not depend on the chunk size or on
    which other centroids are passed: a column subset of ``centroids``
    gives the same bytes as those columns of the full call.
    """
    n, dim = features.shape
    out = np.empty((n, centroids.shape[0]))
    step = max(1, _DIFF_BUFFER // max(1, centroids.size))
    buf = np.empty((min(step, n), centroids.shape[0], dim))
    for lo in range(0, n, step):
        diff = buf[: min(step, n - lo)]
        np.subtract(features[lo : lo + step, None, :], centroids[None, :, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=2, out=out[lo : lo + step])
    return out


def kmeans_fit(features: np.ndarray, k: int, iters: int = 50, seed: int = 0) -> Codebook:
    """Seeded k-means++ init then Lloyd iterations until assignments settle.

    The codebook's ``labels`` are each row's nearest returned centroid, ties
    going to the lowest index: Lloyd's own last assignment when it settles,
    else the assignment to the centroids the ``iters`` cap left. Empty
    clusters are re-seeded with the point farthest from its assigned
    centroid. Inertia is non-increasing across iterations. Raises when the
    data holds fewer than k distinct vectors.

    The (N, k) distance matrix lives across iterations, its columns filled
    by the k-means++ picks. An update recomputes only stale columns: those
    of clusters that gained or lost a row, and of re-seeded ones. A cluster
    whose members did not change would get back the same mean, so its mean
    and its column are skipped, with the same bytes as recomputing them.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be (N, D), got {features.shape}")
    # prefixes of doubling length: a prefix's distinct rows are a lower bound
    m = 2 * k
    while np.unique(features[:m], axis=0).shape[0] < k:
        if m >= features.shape[0]:
            raise ValueError(f"need at least {k} distinct vectors to fit {k} clusters")
        m *= 2

    rng = np.random.default_rng(seed)
    n = features.shape[0]
    centroids = np.empty((k, features.shape[1]))
    dists = np.empty((n, k))
    centroids[0] = features[rng.integers(n)]
    dists[:, :1] = _pairwise_sq_dist(features, centroids[:1])
    closest = dists[:, 0].copy()
    for j in range(1, k):
        total = closest.sum()
        probs = closest / total
        centroids[j] = features[rng.choice(n, p=probs)]
        dists[:, j : j + 1] = _pairwise_sq_dist(features, centroids[j : j + 1])
        closest = np.minimum(closest, dists[:, j])

    rows = np.arange(n)
    labels = None
    inertia = float(closest.sum())
    for _ in range(iters):
        new_labels = dists.argmin(axis=1)
        inertia = float(dists[rows, new_labels].sum())
        if labels is None:
            stale = np.ones(k, dtype=bool)  # k-means++ picks are not member means
        else:
            moved = new_labels != labels
            if not moved.any():
                return Codebook(centroids, new_labels, inertia)
            stale = np.zeros(k, dtype=bool)
            stale[labels[moved]] = True
            stale[new_labels[moved]] = True
        labels = new_labels
        empty = np.bincount(labels, minlength=k) == 0
        if empty.any():
            worst = features[int(dists[rows, labels].argmax())]
            stale |= empty
        cols = np.flatnonzero(stale)
        for j in cols:
            centroids[j] = worst if empty[j] else features[labels == j].mean(axis=0)
        dists[:, cols] = _pairwise_sq_dist(features, centroids[cols])
    # the cap ended Lloyd after a centroid update
    return Codebook(centroids, dists.argmin(axis=1), inertia)


# ---------------------------------------------------------------------------
# Span masking


def span_mask(t: int, cfg: PretrainConfig, seed: int) -> np.ndarray:
    """Boolean mask of length t: i.i.d. span starts with probability
    ``cfg.mask_prob`` drawn from ``seed``, each ``cfg.span_len`` frames long,
    spans unioned."""
    rng = np.random.default_rng(seed)
    starts = rng.random(t) < cfg.mask_prob
    mask = np.zeros(t, dtype=bool)
    for i in np.flatnonzero(starts):
        mask[i : i + cfg.span_len] = True
    return mask


# ---------------------------------------------------------------------------
# Speech encoder


@dataclass(frozen=True)
class SpeechEncoderConfig:
    input_dim: int = 40
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 2
    # the rate the log-mel inputs are computed at; ``pretrain`` takes it from
    # the manifest, and checkpoints without it were trained at 16 kHz
    sample_rate: int = 16000

    def __post_init__(self):
        require_at_least(self, dim=1, n_layers=1, n_heads=1)
        if self.dim % self.n_heads:
            raise ConfigError(f"dim {self.dim} is not divisible by n_heads {self.n_heads}")
        try:
            analysis_frame(self.sample_rate)
        except ConfigError as exc:
            raise ConfigError(f"'sample_rate': {exc}") from None


class SpeechEncoder(Module):
    """Frame-pair front end + transformer encoder with a masked-prediction head.

    The front end (``conv``) is GELU of one ``Linear`` over input frames 2j
    and 2j+1 stacked, so the output frame rate is half the input rate (an
    odd last frame is dropped). Hidden states are retrievable per layer:
    index 0 is the front-end output, index l (1..n_layers) layer l's output.
    """

    kind = "encoder"

    def __init__(self, cfg: SpeechEncoderConfig, n_classes: int, seed: int | None = 0):
        super().__init__()
        rng = None if seed is None else np.random.default_rng(seed)
        self.cfg = cfg
        self.n_classes = n_classes
        self.conv = Linear(2 * cfg.input_dim, cfg.dim, rng)
        # read the draw as a (dim, input_dim, 2) kernel over the pair; this
        # layout fixes the initial function each seed gives
        kernel = self.conv.weight.data.reshape(cfg.dim, cfg.input_dim, 2)
        self.conv.weight.data = kernel.transpose(2, 1, 0).reshape(2 * cfg.input_dim, cfg.dim)
        self.mask_embed = Parameter(trunc_normal(rng, (cfg.dim,)))
        self.layers = ModuleList(
            TransformerLayer(cfg.dim, cfg.n_heads, causal=False, rng=rng)
            for _ in range(cfg.n_layers)
        )
        self.final_norm = LayerNorm(cfg.dim)
        self.head = Linear(cfg.dim, n_classes, rng)

    @staticmethod
    def output_len(t_in: int) -> int:
        return t_in // 2

    def forward(self, features: np.ndarray, mask: np.ndarray | None = None) -> list:
        """Return hidden states [front_end_out, layer_1, ..., layer_L].

        When ``mask`` is given, masked output-frame positions are replaced by
        the learned mask embedding before entering the transformer: a row
        gather from the front-end rows with ``mask_embed`` as one more row
        after them. ``states[0]`` is the unmasked front-end output. Fewer
        than two input frames is a GraphError.
        """
        features = np.asarray(features, dtype=np.float64)
        t_out = self.output_len(len(features))
        if t_out == 0:
            raise GraphError(f"the encoder needs at least 2 input frames, got {len(features)}")
        h = T.gelu(self.conv(Tensor(features[: 2 * t_out].reshape(t_out, -1))))
        states = [h]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (t_out,):
                raise GraphError(
                    f"mask length {mask.shape} does not match {t_out} output frames"
                )
            if mask.any():
                h = T.embedding_lookup(T.concat([h, self.mask_embed]),
                                       np.where(mask, t_out, np.arange(t_out)))
        h = h + Tensor(sinusoidal_positions(t_out, self.cfg.dim))
        for layer in self.layers:
            h = layer(h)
            states.append(h)
        return states

    def logits(self, states) -> Tensor:
        return self.head(self.final_norm(states[-1]))

    def record(self) -> dict:
        """The checkpoint metadata entries that rebuild this module tree:
        ``encoder_cfg`` then ``n_classes``. ASR checkpoints hold them too."""
        return {"encoder_cfg": json.dumps(asdict(self.cfg), sort_keys=True),
                "n_classes": str(self.n_classes)}

    @classmethod
    def from_record(cls, path, meta: dict) -> "SpeechEncoder":
        """An encoder built from the ``record`` entries of checkpoint ``path``'s
        metadata, with no weights drawn; errors name the path and the entry."""
        return cls(
            parse_field(path, meta, "encoder_cfg",
                        lambda blob: read_config(SpeechEncoderConfig, json.loads(blob))),
            parse_field(path, meta, "n_classes", parse_count),
            seed=None,
        )


def masked_prediction_loss(encoder: SpeechEncoder, features: np.ndarray,
                           labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Cross-entropy of head logits vs pseudo-labels at masked positions only.

    Masked frames are replaced by the learned mask embedding before the
    transformer, and the rows of the masked frames are gathered from the
    head's logits, so the loss is bit-invariant both to input features at
    masked positions and to labels at unmasked positions. An all-false mask
    scores no rows, which ``cross_entropy`` rejects with a GraphError.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    t_out = encoder.output_len(np.asarray(features).shape[0])
    if labels.shape != (t_out,) or mask.shape != (t_out,):
        raise GraphError(
            f"labels {labels.shape} / mask {mask.shape} do not match {t_out} output frames"
        )
    rows = np.flatnonzero(mask)
    logits = encoder.logits(encoder.forward(features, mask=mask))
    return T.cross_entropy(T.embedding_lookup(logits, rows), labels[rows])


# ---------------------------------------------------------------------------
# Target refresh and training


def downsample_labels(labels: np.ndarray) -> np.ndarray:
    """Map input-frame labels to output-frame labels: the label of frame 2j,
    the first of output frame j's pair."""
    return np.asarray(labels)[: 2 * SpeechEncoder.output_len(len(labels)) : 2]


def _fit_codebook(mats, k: int, seed: int):
    """(codebook, per-matrix labels): KMeans fitted on the rows of ``mats``
    stacked, and the fit's labels split back into one array per matrix."""
    codebook = kmeans_fit(np.concatenate(mats, axis=0), k, seed=seed)
    return codebook, np.split(codebook.labels, np.cumsum([len(m) for m in mats])[:-1])


def refresh_targets(encoder: SpeechEncoder, dataset, cfg: PretrainConfig, seed: int = 0):
    """Fit a fresh ``cfg.k``-centroid codebook on an intermediate layer and
    relabel the dataset.

    Runs the encoder without masking, collects hidden states at
    ``cfg.target_layer`` (0 = front-end output), fits KMeans on them all,
    and splits the fit's labels back into per-frame labels for every
    utterance. Deterministic under the seed.
    """
    if len(dataset) == 0:
        raise ValueError("refresh_targets needs a non-empty dataset")
    if not (0 <= cfg.target_layer <= encoder.cfg.n_layers):
        raise ConfigError(
            f"target_layer {cfg.target_layer} outside [0, {encoder.cfg.n_layers}]"
        )
    with T.no_grad():
        states = [encoder.forward(features)[cfg.target_layer].data for features in dataset]
    return _fit_codebook(states, cfg.k, seed)


@dataclass
class PretrainConfig:
    epochs: int = 33
    lr: float = 0.0005
    batch_seconds: float = 87.5
    target_layer: int = 1
    k: int = 32
    refresh_schedule: tuple | None = None  # None -> one refresh at mid-training
    mask_prob: float = 0.065
    span_len: int = 10
    n_mfcc: int = 13
    max_steps: int | None = None  # None -> run every epoch

    def __post_init__(self):
        for name in ("batch_seconds", "lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (0.0 <= self.mask_prob <= 1.0):
            raise ConfigError(f"mask_prob must be in [0, 1], got {self.mask_prob}")
        require_at_least(self, k=1, span_len=1, max_steps=1)
        if self.refresh_schedule is None:
            self.refresh_schedule = (self.epochs // 2,) if self.epochs >= 2 else ()
        self.refresh_schedule = tuple(self.refresh_schedule)
        outside = [e for e in self.refresh_schedule
                   if not (type(e) is int and 1 <= e < self.epochs)]
        if outside:
            raise ConfigError(f"refresh_schedule epochs must be integers in "
                              f"[1, {self.epochs}), got {outside[0]!r}")


def initial_labels(dataset, cfg: PretrainConfig, seed: int):
    """First-iteration pseudo-labels: KMeans over MFCCs of the log-mel inputs."""
    codebook, per_utt = _fit_codebook([mfcc(features, cfg.n_mfcc) for features in dataset],
                                      cfg.k, seed)
    return codebook, [downsample_labels(labels) for labels in per_utt]


def evaluate_masked_loss(encoder: SpeechEncoder, dataset, labels) -> float:
    """Mean masked-prediction loss over the corpus; mask seeds are 9999 + index."""
    total = 0.0
    with T.no_grad():
        for i, features in enumerate(dataset):
            t_out = encoder.output_len(len(features))
            mask = span_mask(t_out, PretrainConfig(), 9999 + i)
            if not mask.any():
                mask = np.zeros(t_out, dtype=bool)
                mask[: max(1, t_out // 10)] = True
            loss = masked_prediction_loss(encoder, features, labels[i], mask)
            total += loss.item()
    return total / max(len(dataset), 1)


def continued_pretrain(dataset, cfg: PretrainConfig, encoder: SpeechEncoder,
                       seed: int = 0):
    """Train ``encoder`` (with ``cfg.k`` classes) in place by masked prediction.

    ``dataset`` is a list of log-mel arrays, one row per ``HOP_MS`` hop. The
    encoder is fresh or holds weights loaded from a checkpoint; either way
    the optimizer starts fresh. Batches greedily fill shuffled utterances
    until ``batch_seconds`` is reached, leaving out those whose span mask is
    empty; the loss is the mean of per-utterance losses (no padding across
    utterances). Training stops right after step ``cfg.max_steps``, before
    any later refresh. Returns (encoder, history), a list of (step, loss).
    """
    if len(dataset) == 0:
        raise ValueError("continued_pretrain needs a non-empty dataset")
    opt = Adam(encoder, lr=cfg.lr)

    def batches():
        _, labels = initial_labels(dataset, cfg, seed)
        rng = np.random.default_rng(seed + 1)
        for epoch in range(cfg.epochs):
            if epoch in cfg.refresh_schedule:
                _, labels = refresh_targets(encoder, dataset, cfg, seed=seed + 100 + epoch)
                log.info("refreshed pseudo-labels at epoch %d", epoch)
            order = rng.permutation(len(dataset))
            batch, batch_dur = [], 0.0
            for pos, utt in enumerate(order):
                batch.append(int(utt))
                batch_dur += len(dataset[utt]) * (HOP_MS / 1000.0)
                if batch_dur < cfg.batch_seconds and pos < len(order) - 1:
                    continue
                masks = {i: span_mask(encoder.output_len(len(dataset[i])), cfg, 7919 * opt.t + i)
                         for i in batch}
                masked = [partial(masked_prediction_loss, encoder, dataset[i], labels[i], mask)
                          for i, mask in masks.items() if mask.any()]
                if masked:
                    yield masked
                    if opt.t == cfg.max_steps:
                        return
                batch, batch_dur = [], 0.0

    return encoder, fit(opt, batches())
