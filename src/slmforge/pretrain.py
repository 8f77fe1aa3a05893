"""Self-supervised masked-prediction pretraining of the speech encoder.

Discrete targets come from KMeans codebooks: first over MFCCs of the input
features, later refreshed from an intermediate transformer layer of the
partially trained encoder. Training minimizes cross-entropy of the
prediction head against those pseudo-labels at masked frame positions only.

Continued pretraining loads encoder weights from a checkpoint but always
starts the optimizer from a fresh state.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .audio import FeatureMatrix, mfcc
from .errors import ConfigError, GraphError
from .nn import (
    Adam,
    Conv1d,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    TransformerLayer,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
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
    kind: str = "mfcc"
    iters: int = 0
    inertia: float = 0.0

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise ValueError(f"centroids must be (K, D) with K >= 1, got {self.centroids.shape}")
        if not np.all(np.isfinite(self.centroids)):
            raise ValueError("centroids contain non-finite values")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def save(self, path) -> None:
        meta = {
            "kind": "codebook",
            "feature_kind": self.kind,
            "iters": str(self.iters),
            "inertia": repr(self.inertia),
        }
        save_checkpoint({"centroids": self.centroids}, path, meta)

    @classmethod
    def load(cls, path) -> "Codebook":
        arrays, meta = read_checkpoint(path)
        return cls(
            arrays["centroids"].astype(np.float64).copy(),
            kind=meta.get("feature_kind", "mfcc"),
            iters=int(meta.get("iters", "0")),
            inertia=float(meta.get("inertia", "0.0")),
        )


def _pairwise_sq_dist(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact squared distances via explicit differences, chunked over rows."""
    n = features.shape[0]
    out = np.empty((n, centroids.shape[0]))
    step = max(1, 2_000_000 // max(1, centroids.size))
    for lo in range(0, n, step):
        diff = features[lo : lo + step, None, :] - centroids[None, :, :]
        out[lo : lo + step] = (diff * diff).sum(axis=2)
    return out


def kmeans_fit(features: np.ndarray, k: int, iters: int = 50, seed: int = 0,
               kind: str = "mfcc") -> Codebook:
    """Seeded k-means++ init then Lloyd iterations until assignments settle.

    Empty clusters are re-seeded with the point farthest from its assigned
    centroid. Inertia is non-increasing across iterations. Raises when the
    data holds fewer than k distinct vectors.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be (N, D), got {features.shape}")
    if np.unique(features, axis=0).shape[0] < k:
        raise ValueError(f"need at least {k} distinct vectors to fit {k} clusters")

    rng = np.random.default_rng(seed)
    n = features.shape[0]
    centroids = np.empty((k, features.shape[1]))
    centroids[0] = features[rng.integers(n)]
    closest = _pairwise_sq_dist(features, centroids[:1]).min(axis=1)
    for j in range(1, k):
        total = closest.sum()
        probs = closest / total
        centroids[j] = features[rng.choice(n, p=probs)]
        closest = np.minimum(closest, _pairwise_sq_dist(features, centroids[j : j + 1])[:, 0])

    labels = None
    inertia = float(closest.sum())
    done = 0
    for it in range(iters):
        dists = _pairwise_sq_dist(features, centroids)
        new_labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), new_labels].sum())
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        done = it + 1
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = features[members].mean(axis=0)
            else:
                worst = int(dists[np.arange(n), labels].argmax())
                centroids[j] = features[worst]
    return Codebook(centroids, kind=kind, iters=done, inertia=inertia)


def assign_labels(codebook: Codebook, features: np.ndarray) -> np.ndarray:
    """Per-frame argmin-distance centroid index, lowest index breaking ties."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != codebook.dim:
        raise ValueError(
            f"feature dim {features.shape} does not match codebook dim {codebook.dim}"
        )
    if features.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return _pairwise_sq_dist(features, codebook.centroids).argmin(axis=1)


# ---------------------------------------------------------------------------
# Span masking


@dataclass(frozen=True)
class MaskSpec:
    mask_prob: float = 0.065
    span_len: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.mask_prob <= 1.0):
            raise ConfigError(f"mask_prob must be in [0, 1], got {self.mask_prob}")
        if self.span_len < 1:
            raise ConfigError(f"span_len must be >= 1, got {self.span_len}")


def span_mask(t: int, spec: MaskSpec) -> np.ndarray:
    """Boolean mask of length t: i.i.d. span starts, spans unioned."""
    rng = np.random.default_rng(spec.seed)
    starts = rng.random(t) < spec.mask_prob
    mask = np.zeros(t, dtype=bool)
    for i in np.flatnonzero(starts):
        mask[i : i + spec.span_len] = True
    return mask


# ---------------------------------------------------------------------------
# Speech encoder


@dataclass(frozen=True)
class SpeechEncoderConfig:
    input_dim: int = 40
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 2
    ff_mult: int = 4
    conv_kernel: int = 2
    conv_stride: int = 2
    conv_activation: str = "gelu"  # or "none"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "SpeechEncoderConfig":
        return cls(**json.loads(blob))


class SpeechEncoder(Module):
    """Conv front-end + transformer encoder with a masked-prediction head.

    Hidden states are retrievable per layer: index 0 is the conv front-end
    output, index l (1..n_layers) the output of transformer layer l. Output
    frame rate is the input rate divided by the conv stride.
    """

    def __init__(self, cfg: SpeechEncoderConfig, n_classes: int, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "n_classes", n_classes)
        self.conv = Conv1d(cfg.input_dim, cfg.dim, cfg.conv_kernel, cfg.conv_stride, rng)
        self.mask_embed = Parameter(trunc_normal(rng, (cfg.dim,)))
        self.layers = ModuleList(
            TransformerLayer(cfg.dim, cfg.n_heads, cfg.ff_mult, causal=False, rng=rng)
            for _ in range(cfg.n_layers)
        )
        self.final_norm = LayerNorm(cfg.dim)
        self.head = Linear(cfg.dim, n_classes, rng)

    @property
    def total_stride(self) -> int:
        return self.cfg.conv_stride

    def output_len(self, t_in: int) -> int:
        if t_in < self.cfg.conv_kernel:
            return 0
        return 1 + (t_in - self.cfg.conv_kernel) // self.cfg.conv_stride

    def forward(self, features: np.ndarray, mask: np.ndarray | None = None) -> list:
        """Return hidden states [conv_out, layer_1, ..., layer_L].

        When ``mask`` is given, masked output-frame positions are replaced by
        the learned mask embedding before entering the transformer.
        """
        features = np.asarray(features, dtype=np.float64)
        h = self.conv(Tensor(features))
        if self.cfg.conv_activation == "gelu":
            h = T.gelu(h)
        states = [h]
        t_out = h.data.shape[0]
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (t_out,):
                raise GraphError(
                    f"mask length {mask.shape} does not match {t_out} output frames"
                )
            if mask.any():
                keep = Tensor((~mask).astype(np.float64)[:, None])
                fill = Tensor(mask.astype(np.float64)[:, None])
                h = h * keep + T.reshape(self.mask_embed, (1, self.cfg.dim)) * fill
        h = h + Tensor(sinusoidal_positions(t_out, self.cfg.dim))
        for layer in self.layers:
            h = layer(h)
            states.append(h)
        return states

    def logits(self, states) -> Tensor:
        return self.head(self.final_norm(states[-1]))


def save_encoder(encoder: SpeechEncoder, path, metadata_extra: dict | None = None) -> None:
    meta = {
        "kind": "encoder",
        "encoder_cfg": encoder.cfg.to_json(),
        "n_classes": str(encoder.n_classes),
    }
    meta.update(metadata_extra or {})
    save_checkpoint(encoder, path, meta)


def load_encoder(path) -> SpeechEncoder:
    _, meta = read_checkpoint(path)
    if meta.get("kind") != "encoder":
        raise ConfigError(f"checkpoint kind {meta.get('kind')!r} is not an encoder")
    cfg = SpeechEncoderConfig.from_json(meta["encoder_cfg"])
    encoder = SpeechEncoder(cfg, int(meta["n_classes"]))
    load_checkpoint(path, encoder, strict=True)
    return encoder


def masked_prediction_loss(encoder: SpeechEncoder, features: np.ndarray,
                           labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Cross-entropy of head logits vs pseudo-labels at masked positions only.

    Masked frames are replaced by the learned mask embedding before the
    transformer, so the loss is bit-invariant both to input features at
    masked positions and to labels at unmasked positions. An all-false mask
    yields loss 0 with no gradient.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    t_out = encoder.output_len(np.asarray(features).shape[0])
    if labels.shape != (t_out,) or mask.shape != (t_out,):
        raise GraphError(
            f"labels {labels.shape} / mask {mask.shape} do not match {t_out} output frames"
        )
    if not mask.any():
        return Tensor(0.0)
    states = encoder.forward(features, mask=mask)
    logits = encoder.logits(states)
    return T.cross_entropy(logits, labels, mask.astype(np.float64))


# ---------------------------------------------------------------------------
# Target refresh and training


def downsample_labels(labels: np.ndarray, encoder: SpeechEncoder) -> np.ndarray:
    """Map input-frame labels to output-frame labels (first frame of each patch)."""
    t_out = encoder.output_len(len(labels))
    idx = encoder.cfg.conv_stride * np.arange(t_out)
    return np.asarray(labels)[idx]


def refresh_targets(encoder: SpeechEncoder, dataset, target_layer: int, k: int,
                    seed: int = 0):
    """Fit a fresh codebook on an intermediate layer and relabel the dataset.

    Runs the encoder without masking, collects hidden states at
    ``target_layer`` (0 = conv front-end output), fits KMeans, and assigns
    per-frame labels for every utterance. Deterministic under the seed.
    """
    if len(dataset) == 0:
        raise ValueError("refresh_targets needs a non-empty dataset")
    if not (0 <= target_layer <= encoder.cfg.n_layers):
        raise ConfigError(
            f"target_layer {target_layer} outside [0, {encoder.cfg.n_layers}]"
        )
    collected = []
    with T.no_grad():
        for features in dataset:
            states = encoder.forward(_feature_data(features), mask=None)
            collected.append(states[target_layer].data)
    stacked = np.concatenate(collected, axis=0)
    codebook = kmeans_fit(stacked, k, seed=seed, kind="hidden")
    labels = [assign_labels(codebook, states) for states in collected]
    return codebook, labels


def _feature_data(features) -> np.ndarray:
    return features.data if isinstance(features, FeatureMatrix) else np.asarray(features)


@dataclass
class PretrainConfig:
    epochs: int = 33
    lr: float = 0.0005
    batch_seconds: float = 87.5
    target_layer: int = 1
    k: int = 32
    refresh_schedule: tuple | None = None  # None -> one refresh at mid-training
    mask: MaskSpec = field(default_factory=MaskSpec)
    n_mfcc: int = 13
    max_steps: int | None = None  # None -> run every epoch

    def __post_init__(self):
        if self.batch_seconds <= 0:
            raise ConfigError("batch_seconds must be positive")
        if self.refresh_schedule is None:
            self.refresh_schedule = (self.epochs // 2,) if self.epochs >= 2 else ()
        self.refresh_schedule = tuple(self.refresh_schedule)


def initial_labels(dataset, cfg: PretrainConfig, encoder: SpeechEncoder, seed: int):
    """First-iteration pseudo-labels: KMeans over MFCCs of the input features."""
    mats = []
    for features in dataset:
        fm = features if isinstance(features, FeatureMatrix) else FeatureMatrix(
            np.asarray(features), 0.01, "logmel"
        )
        mats.append(mfcc(fm, cfg.n_mfcc).data)
    codebook = kmeans_fit(np.concatenate(mats, axis=0), cfg.k, seed=seed, kind="mfcc")
    labels = [
        downsample_labels(assign_labels(codebook, m), encoder) for m in mats
    ]
    return codebook, labels


def evaluate_masked_loss(encoder: SpeechEncoder, dataset, labels, mask_seed: int = 9999) -> float:
    """Mean masked-prediction loss over the corpus with a fixed mask seed."""
    total = 0.0
    count = 0
    with T.no_grad():
        for i, features in enumerate(dataset):
            data = _feature_data(features)
            t_out = encoder.output_len(data.shape[0])
            mask = span_mask(t_out, MaskSpec(seed=mask_seed + i))
            if not mask.any():
                mask = np.zeros(t_out, dtype=bool)
                mask[: max(1, t_out // 10)] = True
            loss = masked_prediction_loss(encoder, data, labels[i], mask)
            total += loss.item()
            count += 1
    return total / max(count, 1)


def continued_pretrain(dataset, cfg: PretrainConfig,
                       encoder_cfg: SpeechEncoderConfig | None = None,
                       seed: int = 0, init_checkpoint=None):
    """Train (or continue training) the masked-prediction encoder.

    ``dataset`` is a list of FeatureMatrix (or raw (T, D) arrays). When
    ``init_checkpoint`` is given, weights are loaded strictly and the
    optimizer still starts fresh. Batches greedily fill utterances until
    ``batch_seconds`` is reached; the loss is the mean of per-utterance
    losses (no padding across utterances). Returns (encoder, history) where
    history maps step -> loss.
    """
    if len(dataset) == 0:
        raise ValueError("continued_pretrain needs a non-empty dataset")
    encoder_cfg = encoder_cfg or SpeechEncoderConfig(
        input_dim=_feature_data(dataset[0]).shape[1]
    )
    encoder = SpeechEncoder(encoder_cfg, cfg.k, seed=seed)
    if init_checkpoint is not None:
        load_checkpoint(init_checkpoint, encoder, strict=True)

    _, labels = initial_labels(dataset, cfg, encoder, seed)

    durations = []
    for features in dataset:
        if isinstance(features, FeatureMatrix):
            durations.append(features.num_frames * features.frame_hop_s)
        else:
            durations.append(np.asarray(features).shape[0] * 0.01)

    opt = Adam(encoder, lr=cfg.lr)
    rng = np.random.default_rng(seed + 1)
    history = []
    step = 0
    refresh_at = set(cfg.refresh_schedule)

    for epoch in range(cfg.epochs):
        if epoch in refresh_at and epoch > 0:
            _, labels = refresh_targets(
                encoder, dataset, cfg.target_layer, cfg.k, seed=seed + 100 + epoch
            )
            log.info("refreshed pseudo-labels at epoch %d", epoch)
        order = rng.permutation(len(dataset))
        batch = []
        batch_dur = 0.0
        for pos, utt in enumerate(order):
            batch.append(int(utt))
            batch_dur += durations[utt]
            last = pos == len(order) - 1
            if batch_dur < cfg.batch_seconds and not last:
                continue
            losses = []
            for i in batch:
                data = _feature_data(dataset[i])
                t_out = encoder.output_len(data.shape[0])
                mask = span_mask(
                    t_out, MaskSpec(cfg.mask.mask_prob, cfg.mask.span_len,
                                    seed=cfg.mask.seed + 7919 * step + i)
                )
                if mask.any():
                    losses.append(masked_prediction_loss(encoder, data, labels[i], mask))
            if losses:
                loss = losses[0]
                for extra in losses[1:]:
                    loss = loss + extra
                loss = loss / len(losses)
                opt.zero_grad()
                loss.backward()
                opt.step()
                step += 1
                history.append((step, loss.item()))
                if cfg.max_steps is not None and step >= cfg.max_steps:
                    return encoder, history
            batch = []
            batch_dur = 0.0
    return encoder, history
