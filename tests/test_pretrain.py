"""KMeans codebooks, span masking, masked prediction, and pretraining runs."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import (
    broadcast_add, masked_cross_entropy, mul, reference_train_step, trained_bytes, tsum,
)

from slmforge import nn, pretrain
from slmforge import tensor as T
from slmforge.audio import HOP_MS, mfcc
from slmforge.errors import ConfigError, GraphError
from slmforge.nn import Adam, load_checkpoint, save_checkpoint, sinusoidal_positions, trunc_normal
from slmforge.pretrain import (
    Codebook,
    PretrainConfig,
    SpeechEncoder,
    SpeechEncoderConfig,
    continued_pretrain,
    downsample_labels,
    evaluate_masked_loss,
    initial_labels,
    kmeans_fit,
    masked_prediction_loss,
    refresh_targets,
    span_mask,
)
from slmforge.tensor import Tensor

TOY_CFG = SpeechEncoderConfig(input_dim=8, dim=16, n_layers=2, n_heads=2)


def _toy_dataset(n_utts=4, t=40, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_utts):
        base = rng.standard_normal(dim)
        data = base + 0.3 * rng.standard_normal((t, dim))
        out.append(data)
    return out


def reference_assign_labels(centroids, features):
    """``pretrain.assign_labels`` as it was before ``kmeans_fit`` returned its
    labels, less its feature-width check: per-row argmin of explicit squared
    differences, lowest index breaking ties."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    diff = features[:, None, :] - centroids[None, :, :]
    return (diff * diff).sum(axis=2).argmin(axis=1)


# ---------------------------------------------------------------------------
# KMeans


def test_kmeans_n_equals_k_zero_inertia():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    book = kmeans_fit(points, 3, seed=0)
    assert book.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(map(tuple, book.centroids)) == sorted(map(tuple, points))
    assert np.array_equal(book.centroids[book.labels], points)


def test_kmeans_recovers_two_blobs_within_tolerance():
    rng = np.random.default_rng(42)
    blob_a = rng.normal((0.0, 0.0), 0.1, size=(50, 2))
    blob_b = rng.normal((10.0, 10.0), 0.1, size=(50, 2))
    data = np.concatenate([blob_a, blob_b])
    book = kmeans_fit(data, 2, seed=1)
    means = sorted(map(tuple, (blob_a.mean(axis=0), blob_b.mean(axis=0))))
    got = sorted(map(tuple, book.centroids))
    for centroid, mean in zip(got, means):
        assert np.linalg.norm(np.array(centroid) - np.array(mean)) < 0.1


def test_kmeans_inertia_non_increasing_across_iterations():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((80, 4))

    # instrument Lloyd by re-running with increasing iteration caps
    inertias = [kmeans_fit(data, 5, iters=i, seed=7).inertia for i in range(1, 8)]
    for a, b in zip(inertias, inertias[1:]):
        assert b <= a + 1e-9


def test_kmeans_too_few_distinct_vectors():
    data = np.zeros((10, 3))
    with pytest.raises(ValueError, match="distinct"):
        kmeans_fit(data, 2)


def test_kmeans_seeded_reproducible():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((60, 3))
    a = kmeans_fit(data, 4, seed=11)
    b = kmeans_fit(data, 4, seed=11)
    assert np.array_equal(a.centroids, b.centroids)


def test_assign_labels_exact_centroid():
    assert reference_assign_labels(np.eye(4), np.eye(4)[3][None, :])[0] == 3


def test_assign_labels_tie_breaks_to_lowest_index():
    centroids = np.array([[9.0, 9.0], [0.0, 0.0], [4.0, 4.0], [9.0, 0.0], [2.0, 0.0]])
    feature = np.array([[1.0, 0.0]])  # exactly 1.0 from centroids 1 and 4
    assert reference_assign_labels(centroids, feature)[0] == 1


def test_assign_labels_matches_exhaustive_scan():
    rng = np.random.default_rng(6)
    centroids = rng.standard_normal((7, 5))
    feats = rng.standard_normal((30, 5))
    got = reference_assign_labels(centroids, feats)
    for i, f in enumerate(feats):
        dists = [np.sum((f - c) ** 2) for c in centroids]
        assert got[i] == int(np.argmin(dists))


@pytest.mark.parametrize("iters", [0, 1, 2, 50])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kmeans_labels_equal_the_reference_on_the_returned_centroids(iters, seed):
    """Caps 0, 1 and 2 stop Lloyd after a centroid update; 50 lets it settle
    (these fits take 9 to 13 iterations)."""
    data = np.random.default_rng(seed).standard_normal((120, 3))
    book = kmeans_fit(data, 5, iters=iters, seed=seed)
    assert np.array_equal(book.labels, reference_assign_labels(book.centroids, data))
    settled = kmeans_fit(data, 5, iters=1000, seed=seed)
    assert (iters == 50) == np.array_equal(book.centroids, settled.centroids)


# duplicate rows whose returned centroids leave rows exactly equidistant from
# two centroids: (data, k, seed, iters); the cap-0 case ties at k-means++ picks
_TIED_FITS = [
    ([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]], 2, 0, 0),
    ([[-1.0], [-1.0], [1.0], [1.0], [2.0], [2.0]], 2, 1, 1),
    ([[-1.0], [-1.0], [1.0], [1.0], [2.0], [2.0]], 2, 1, 2),
    ([[-1.0], [-1.0], [1.0], [1.0], [2.0], [2.0]], 2, 1, 50),
]


@pytest.mark.parametrize("data, k, seed, iters", _TIED_FITS)
def test_kmeans_labels_on_duplicate_rows_and_exact_ties(data, k, seed, iters):
    data = np.asarray(data)
    book = kmeans_fit(data, k, iters=iters, seed=seed)
    diff = data[:, None, :] - book.centroids[None, :, :]
    dists = (diff * diff).sum(axis=2)
    tied = (dists == dists.min(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied.any()
    assert np.array_equal(book.labels, reference_assign_labels(book.centroids, data))
    for row in np.flatnonzero(tied):
        assert book.labels[row] == np.flatnonzero(dists[row] == dists[row].min())[0]


def reference_pairwise_sq_dist(features, centroids):
    """``pretrain._pairwise_sq_dist`` as it was before its reused buffer:
    a fresh (rows, K, D) difference array per chunk of 2,000,000 elements."""
    n = features.shape[0]
    out = np.empty((n, centroids.shape[0]))
    step = max(1, 2_000_000 // max(1, centroids.size))
    for lo in range(0, n, step):
        diff = features[lo : lo + step, None, :] - centroids[None, :, :]
        out[lo : lo + step] = (diff * diff).sum(axis=2)
    return out


def reference_kmeans_fit(features, k, iters=50, seed=0):
    """``pretrain.kmeans_fit`` as it was before it kept its distance matrix
    across Lloyd iterations: every assignment recomputes all k columns and
    every update all k means. Returns (Codebook, number of assignments,
    number of re-seeded clusters)."""
    features = np.asarray(features, dtype=np.float64)
    if np.unique(features, axis=0).shape[0] < k:
        raise ValueError(f"need at least {k} distinct vectors to fit {k} clusters")
    rng = np.random.default_rng(seed)
    n = features.shape[0]
    centroids = np.empty((k, features.shape[1]))
    centroids[0] = features[rng.integers(n)]
    closest = reference_pairwise_sq_dist(features, centroids[:1]).min(axis=1)
    for j in range(1, k):
        total = closest.sum()
        probs = closest / total
        centroids[j] = features[rng.choice(n, p=probs)]
        closest = np.minimum(closest,
                             reference_pairwise_sq_dist(features, centroids[j : j + 1])[:, 0])
    labels = None
    inertia = float(closest.sum())
    reseeded = 0
    for it in range(iters):
        dists = reference_pairwise_sq_dist(features, centroids)
        new_labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), new_labels].sum())
        if labels is not None and np.array_equal(new_labels, labels):
            return Codebook(centroids, new_labels, inertia), it + 1, reseeded
        labels = new_labels
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = features[members].mean(axis=0)
            else:
                reseeded += 1
                worst = int(dists[np.arange(n), labels].argmax())
                centroids[j] = features[worst]
    labels = reference_pairwise_sq_dist(features, centroids).argmin(axis=1)
    return Codebook(centroids, labels, inertia), iters + 1, reseeded


def _assert_same_codebook(got, want):
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.inertia == want.inertia


def _blobs(n, dim, n_blobs, seed):
    """n rows around n_blobs centres: Lloyd takes several iterations and
    most clusters settle before the last."""
    rng = np.random.default_rng(seed)
    centres = 4.0 * rng.standard_normal((n_blobs, dim))
    return centres[rng.integers(n_blobs, size=n)] + rng.standard_normal((n, dim))


@pytest.mark.parametrize("k", [1, 3, 16])
@pytest.mark.parametrize("dim", [1, 7, 8, 9, 13, 16, 32, 127, 128])
def test_kmeans_is_byte_equal_to_the_reference(dim, k):
    # two full buffers of rows and a partial third in the all-centroid call
    step = max(1, pretrain._DIFF_BUFFER // (k * dim))
    data = _blobs(2 * step + 3, dim, 5, seed=dim * 100 + k)
    want, _, _ = reference_kmeans_fit(data, k, seed=k)
    _assert_same_codebook(kmeans_fit(data, k, seed=k), want)


@pytest.mark.parametrize("iters", [0, 1, 2, 3])
@pytest.mark.parametrize("dim", [2, 13])
def test_kmeans_stopped_by_the_cap_is_byte_equal_to_the_reference(dim, iters):
    data = _blobs(3001, dim, 6, seed=iters)
    want, assignments, _ = reference_kmeans_fit(data, 8, iters=iters, seed=4)
    assert assignments == iters + 1  # the cap, not settling, ended Lloyd
    _assert_same_codebook(kmeans_fit(data, 8, iters=iters, seed=4), want)


@pytest.mark.parametrize("data, k, seed, iters", _TIED_FITS)
def test_kmeans_on_duplicate_rows_and_exact_ties_is_byte_equal_to_the_reference(
        data, k, seed, iters):
    want, _, _ = reference_kmeans_fit(np.asarray(data), k, iters=iters, seed=seed)
    _assert_same_codebook(kmeans_fit(np.asarray(data), k, iters=iters, seed=seed), want)


# a fit whose second assignment leaves a cluster empty
_RESEEDED = np.array([[-2.0, 0.0], [-1.0, 2.0], [0.0, 1.0], [-1.0, 2.0], [-2.0, 2.0],
                      [-2.0, -1.0]])


@pytest.mark.parametrize("iters", [2, 3, 50])
def test_kmeans_with_an_empty_cluster_is_byte_equal_to_the_reference(iters):
    want, _, reseeded = reference_kmeans_fit(_RESEEDED, 3, iters=iters, seed=6)
    assert reseeded == 1
    _assert_same_codebook(kmeans_fit(_RESEEDED, 3, iters=iters, seed=6), want)


@pytest.mark.parametrize("dim", [1, 7, 8, 9, 13, 127])
def test_distance_columns_of_a_centroid_subset_equal_the_full_call(dim):
    rng = np.random.default_rng(dim)
    data = rng.standard_normal((5003, dim))
    centroids = rng.standard_normal((16, dim))
    full = pretrain._pairwise_sq_dist(data, centroids)
    assert full.tobytes() == reference_pairwise_sq_dist(data, centroids).tobytes()
    for cols in ([0], [15], [2, 3, 9], list(range(1, 16, 2))):
        part = pretrain._pairwise_sq_dist(data, centroids[cols])
        assert part.tobytes() == np.ascontiguousarray(full[:, cols]).tobytes()


def test_lloyd_recomputes_fewer_distance_columns_than_a_full_pass_per_assignment(
        monkeypatch):
    columns = []
    kernel = pretrain._pairwise_sq_dist

    def counting(features, centroids):
        columns.append(centroids.shape[0])
        return kernel(features, centroids)

    data = _blobs(2000, 5, 8, seed=3)
    want, assignments, _ = reference_kmeans_fit(data, 12, seed=2)
    monkeypatch.setattr(pretrain, "_pairwise_sq_dist", counting)
    _assert_same_codebook(kmeans_fit(data, 12, seed=2), want)
    # k-means++ computes one column per centroid, then the old path k per
    # assignment after the first
    assert assignments > 3
    assert sum(columns) < 12 * assignments


def test_kmeans_counts_distinct_rows_on_doubling_prefixes(monkeypatch):
    sizes = []
    unique = np.unique

    def spy(ar, **kwargs):
        sizes.append(len(ar))
        return unique(ar, **kwargs)

    monkeypatch.setattr(pretrain.np, "unique", spy)
    kmeans_fit(_blobs(1000, 3, 4, seed=0), 4, seed=0)
    assert sizes == [8]
    sizes.clear()
    # the only rows that differ come last: every prefix up to the whole matrix
    data = np.zeros((100, 2))
    data[-2:] = [[1.0, 0.0], [0.0, 1.0]]
    kmeans_fit(data, 3, seed=0)
    assert sizes == [6, 12, 24, 48, 96, 100]
    sizes.clear()
    with pytest.raises(ValueError, match="distinct"):
        kmeans_fit(data, 4, seed=0)
    assert sizes == [8, 16, 32, 64, 100]


# ---------------------------------------------------------------------------
# Masking


def test_span_mask_p_zero_all_false():
    assert not span_mask(50, PretrainConfig(mask_prob=0.0), 0).any()


def test_span_mask_p_one_l_one_all_true():
    assert span_mask(50, PretrainConfig(mask_prob=1.0, span_len=1), 0).all()


def test_span_mask_coverage_matches_expectation():
    # masked fraction ~ 1 - (1 - p)^l for iid span starts
    t, p, l = 10000, 0.065, 10
    frac = span_mask(t, PretrainConfig(mask_prob=p, span_len=l), 0).mean()
    expected = 1.0 - (1.0 - p) ** l
    assert abs(frac - expected) <= 0.03


def test_span_mask_deterministic_per_seed():
    a = span_mask(100, PretrainConfig(mask_prob=0.2, span_len=3), 5)
    b = span_mask(100, PretrainConfig(mask_prob=0.2, span_len=3), 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, span_mask(100, PretrainConfig(mask_prob=0.2, span_len=3), 6))


def test_mask_spec_validation():
    with pytest.raises(ConfigError):
        PretrainConfig(mask_prob=1.5)
    with pytest.raises(ConfigError):
        PretrainConfig(span_len=0)


# ---------------------------------------------------------------------------
# Encoder shapes and masked prediction


def test_encoder_hidden_state_shapes():
    enc = SpeechEncoder(TOY_CFG, n_classes=6, seed=0)
    feats = np.random.default_rng(0).standard_normal((40, 8))
    states = enc.forward(feats)
    t_out = enc.output_len(40)
    assert len(states) == TOY_CFG.n_layers + 1
    for s in states:
        assert s.data.shape == (t_out, TOY_CFG.dim)
    assert enc.logits(states).data.shape == (t_out, 6)


def _reference_conv1d(x, weight, bias, stride=1):
    """The encoder front end's op before it became a Linear over frame pairs:
    valid 1-D convolution of x (T, C_in) with weight (C_out, C_in, k) and
    bias (C_out,), giving (1 + (T - k) // stride, C_out)."""
    t_in, c_in = x.data.shape
    c_out, c_in_w, k = weight.data.shape
    if c_in != c_in_w:
        raise GraphError(
            f"conv1d channel mismatch: input {x.data.shape} vs weight {weight.data.shape}"
        )
    if t_in < k:
        raise GraphError(f"conv1d input of {t_in} frames shorter than kernel {k}")
    t_out = 1 + (t_in - k) // stride
    idx = np.arange(k)[None, :] + stride * np.arange(t_out)[:, None]
    patches = x.data[idx]  # (T', k, C_in)
    out = np.einsum("tkc,ock->to", patches, weight.data) + bias.data

    def backward(grad):
        if weight.requires_grad:
            T._accumulate(weight, np.einsum("to,tkc->ock", grad, patches))
        if bias.requires_grad:
            T._accumulate(bias, grad.sum(axis=0))
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for j in range(k):
                gx[j : j + (t_out - 1) * stride + 1 : stride] += grad @ weight.data[:, :, j]
            T._accumulate(x, gx)

    return T._make(out, (x, weight, bias), backward, "conv1d")


def _relaid(kernel):
    """A (dim, input_dim, 2) kernel as the (2 * input_dim, dim) weight of the
    front end's Linear over stacked frame pairs."""
    dim, input_dim, _ = kernel.shape
    return kernel.transpose(2, 1, 0).reshape(2 * input_dim, dim)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("t", [2, 3, 9, 150])
def test_front_end_equals_the_stride_2_convolution_with_the_relaid_kernel(t):
    rng = np.random.default_rng(t)
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=t)
    kernel = rng.standard_normal((TOY_CFG.dim, TOY_CFG.input_dim, 2))
    bias = rng.standard_normal(TOY_CFG.dim)
    enc.conv.weight.data = _relaid(kernel)
    enc.conv.bias.data = bias.copy()
    feats = rng.standard_normal((t, TOY_CFG.input_dim))
    cotangent = Tensor(rng.standard_normal((t // 2, TOY_CFG.dim)))

    got = enc.forward(feats)[0]
    tsum(mul(got, cotangent)).backward()
    ref_w, ref_b = Tensor(kernel, requires_grad=True), Tensor(bias, requires_grad=True)
    want = T.gelu(_reference_conv1d(Tensor(feats), ref_w, ref_b, stride=2))
    tsum(mul(want, cotangent)).backward()

    assert got.data.shape == want.data.shape == (t // 2, TOY_CFG.dim)
    assert _rel_err(got.data, want.data) < 1e-12
    assert _rel_err(enc.conv.weight.grad, _relaid(ref_w.grad)) < 1e-12
    assert _rel_err(enc.conv.bias.grad, ref_b.grad) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_front_end_init_is_the_seeds_convolution_kernel_relaid(seed):
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=seed)
    rng = np.random.default_rng(seed)
    kernel = trunc_normal(rng, (TOY_CFG.dim, TOY_CFG.input_dim, 2))
    assert enc.conv.weight.data.tobytes() == _relaid(kernel).tobytes()
    assert enc.conv.bias.data.tobytes() == np.zeros(TOY_CFG.dim).tobytes()
    # the draws after the front end's are unchanged too
    assert enc.mask_embed.data.tobytes() == trunc_normal(rng, (TOY_CFG.dim,)).tobytes()


@pytest.mark.parametrize("shape, cause", [
    ((0, 8), "at least 2 input frames, got 0"),
    ((1, 8), "at least 2 input frames, got 1"),
    ((6, 7), "matmul shape mismatch"),
])
def test_encoder_rejects_too_few_frames_or_the_wrong_width(shape, cause):
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=0)
    with pytest.raises(GraphError, match=cause):
        enc.forward(np.zeros(shape))


def test_masked_loss_uniform_head_is_log_k():
    enc = SpeechEncoder(TOY_CFG, n_classes=5, seed=0)
    # zero head makes logits uniform regardless of the encoder body
    enc.head.weight.data[:] = 0.0
    enc.head.bias.data[:] = 0.0
    feats = np.random.default_rng(1).standard_normal((20, 8))
    t_out = enc.output_len(20)
    labels = np.zeros(t_out, dtype=np.int64)
    mask = np.ones(t_out, dtype=bool)
    loss = masked_prediction_loss(enc, feats, labels, mask)
    assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)


def test_masked_loss_saturated_correct_head_is_tiny():
    enc = SpeechEncoder(TOY_CFG, n_classes=3, seed=0)
    feats = np.random.default_rng(2).standard_normal((20, 8))
    t_out = enc.output_len(20)
    labels = np.ones(t_out, dtype=np.int64)
    # rig the head: bias drives the correct class with margin 100
    enc.head.weight.data[:] = 0.0
    enc.head.bias.data[:] = -100.0
    enc.head.bias.data[1] = 100.0
    loss = masked_prediction_loss(enc, feats, labels, np.ones(t_out, dtype=bool))
    assert loss.item() < 1e-6


def test_masked_loss_invariant_to_unmasked_labels_and_masked_features():
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=3)
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((24, 8))
    t_out = enc.output_len(24)
    labels = rng.integers(0, 4, size=t_out)
    mask = np.zeros(t_out, dtype=bool)
    mask[::3] = True

    def run(features, lbls):
        loss = masked_prediction_loss(enc, features, lbls, mask)
        enc.zero_grad()
        loss.backward()
        grads = np.concatenate([
            p.grad.reshape(-1) if p.grad is not None else np.zeros(p.data.size)
            for _, p in enc.named_parameters()
        ])
        return loss.item(), grads

    base_loss, base_grads = run(feats, labels)

    labels2 = labels.copy()
    labels2[~mask] = (labels2[~mask] + 1) % 4
    loss2, grads2 = run(feats, labels2)
    assert loss2 == base_loss
    assert np.array_equal(base_grads, grads2)

    # perturb the frame pairs 2j, 2j+1 feeding masked output frames only
    feats3 = feats.copy()
    for j in np.flatnonzero(mask):
        feats3[2 * j : 2 * j + 2] += rng.standard_normal((2, 8))
    loss3, grads3 = run(feats3, labels)
    assert loss3 == base_loss
    assert np.array_equal(base_grads, grads3)


def _reference_masked_prediction_loss(encoder, features, labels, mask):
    """masked_prediction_loss as it was: every frame's logits, weighted by
    the 0/1 mask in the cross-entropy."""
    logits = encoder.logits(encoder.forward(features, mask=mask))
    return masked_cross_entropy(logits, labels, mask.astype(np.float64))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("density", [0.05, 0.3, 0.7, 1.0])
def test_masked_loss_on_gathered_rows_keeps_the_masked_reference_gradients(seed, density):
    """Gathering the masked rows after the head gives every parameter the
    gradient bytes of the masked cross-entropy over all frames; the loss,
    summed over fewer terms, stays within 4 ulps."""
    enc = SpeechEncoder(TOY_CFG, n_classes=5, seed=seed)
    rng = np.random.default_rng(100 + seed)
    feats = rng.standard_normal((41, 8))
    t_out = enc.output_len(41)
    labels = rng.integers(0, 5, size=t_out)
    mask = rng.random(t_out) < density
    mask[rng.integers(t_out)] = True

    def run(loss_fn):
        enc.zero_grad()
        loss = loss_fn(enc, feats, labels, mask)
        loss.backward(1 / 3)
        return loss.item(), [None if p.grad is None else p.grad.tobytes()
                             for p in enc.parameters()]

    loss, grads = run(masked_prediction_loss)
    ref_loss, ref_grads = run(_reference_masked_prediction_loss)
    assert grads == ref_grads
    assert sum(g is not None for g in grads) > 2
    assert abs(loss - ref_loss) <= 4 * np.spacing(abs(ref_loss))


def _blended_forward(self, features, mask=None):
    """``SpeechEncoder.forward`` as it was when masked frames were a blend,
    ``h * keep + mask_embed * fill``: 0/1 columns broadcast over the rows'
    features and the mask embedding broadcast down the rows."""
    features = np.asarray(features, dtype=np.float64)
    t_out = self.output_len(len(features))
    h = T.gelu(self.conv(Tensor(features[: 2 * t_out].reshape(t_out, -1))))
    states = [h]
    if mask is not None and mask.any():
        keep = Tensor((~mask).astype(np.float64)[:, None])
        fill = Tensor(mask.astype(np.float64)[:, None])
        h = broadcast_add(mul(h, keep), mul(self.mask_embed, fill))
    h = h + Tensor(sinusoidal_positions(t_out, self.cfg.dim))
    for layer in self.layers:
        h = layer(h)
        states.append(h)
    return states


def _gathered_and_blended(monkeypatch, mask, seed=0):
    """Hidden states, masked-prediction loss and every parameter gradient,
    as bytes, with masked frames gathered and then with them blended."""
    t_out = len(mask)
    results = []
    for forward in (SpeechEncoder.forward, _blended_forward):
        monkeypatch.setattr(SpeechEncoder, "forward", forward)
        enc = SpeechEncoder(TOY_CFG, n_classes=5, seed=seed)
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((2 * t_out + 1, 8))
        labels = rng.integers(0, 5, size=t_out)
        states = enc.forward(feats, mask=mask)
        loss = masked_prediction_loss(enc, feats, labels, mask)
        loss.backward(1 / 3)
        results.append([s.data.tobytes() for s in states] + [loss.data.tobytes()] + [
            None if p.grad is None else p.grad.tobytes() for p in enc.parameters()])
    return results


@pytest.mark.parametrize("rows", [[0], [-1], "all-but-one", "all", [0, -1]],
                         ids=["first", "last", "all-but-one", "all", "first-and-last"])
def test_masked_frames_as_a_row_gather_give_the_blend_s_bytes(monkeypatch, rows):
    t_out = 17
    mask = np.zeros(t_out, dtype=bool)
    if rows == "all-but-one":
        mask[:] = True
        mask[8] = False
    elif rows == "all":
        mask[:] = True
    else:
        mask[rows] = True
    gathered, blended = _gathered_and_blended(monkeypatch, mask)
    assert gathered == blended
    assert None not in gathered  # the mask embedding and every weight get a gradient


def test_masked_frames_as_a_row_gather_give_the_blend_s_bytes_on_span_masks(monkeypatch):
    cfg = PretrainConfig()
    for seed in range(40):
        mask = span_mask(11 + seed, cfg, seed)
        mask[seed % len(mask)] = True
        gathered, blended = _gathered_and_blended(monkeypatch, mask, seed)
        assert gathered == blended, seed


def test_masked_loss_on_an_all_false_mask_is_a_graph_error():
    # no caller passes one: an empty mask scores no rows
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(5).standard_normal((20, 8))
    t_out = enc.output_len(20)
    with pytest.raises(GraphError, match="cross_entropy needs at least one row"):
        masked_prediction_loss(enc, feats, np.zeros(t_out, dtype=np.int64),
                               np.zeros(t_out, dtype=bool))


# ---------------------------------------------------------------------------
# Target refresh


@pytest.mark.parametrize("target_layer", [0, 1, 2])
def test_refresh_labels_equal_the_reference_per_utterance(target_layer):
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=2)
    rng = np.random.default_rng(10)
    dataset = [rng.standard_normal((n, 8)) for n in (12, 31, 20, 9)]
    book, labels = refresh_targets(enc, dataset, PretrainConfig(target_layer=target_layer, k=4),
                                   seed=6)
    assert len(labels) == len(dataset)
    with T.no_grad():
        for features, lab in zip(dataset, labels):
            states = enc.forward(features)[target_layer].data
            assert np.array_equal(lab, reference_assign_labels(book.centroids, states))


def test_initial_labels_equal_the_reference_per_utterance():
    dataset = _toy_dataset(n_utts=3, t=30, seed=4) + _toy_dataset(n_utts=2, t=17, seed=5)
    cfg = PretrainConfig(k=3, n_mfcc=4)
    book, labels = initial_labels(dataset, cfg, seed=7)
    assert len(labels) == len(dataset)
    for features, lab in zip(dataset, labels):
        want = reference_assign_labels(book.centroids, mfcc(features, cfg.n_mfcc))
        assert np.array_equal(lab, downsample_labels(want))


def test_refresh_deterministic_and_shapes():
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=1)
    rng = np.random.default_rng(8)
    dataset = [rng.standard_normal((20 + 2 * i, 8)) for i in range(3)]
    cfg = PretrainConfig(target_layer=1, k=4)
    book1, labels1 = refresh_targets(enc, dataset, cfg, seed=3)
    book2, labels2 = refresh_targets(enc, dataset, cfg, seed=3)
    assert np.array_equal(book1.centroids, book2.centroids)
    for a, b, data in zip(labels1, labels2, dataset):
        assert np.array_equal(a, b)
        assert len(a) == enc.output_len(data.shape[0])


def test_refresh_rejects_empty_dataset_and_bad_layer():
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=0)
    with pytest.raises(ValueError):
        refresh_targets(enc, [], PretrainConfig(target_layer=1, k=4))
    with pytest.raises(ConfigError):
        refresh_targets(enc, [np.zeros((10, 8))], PretrainConfig(target_layer=5, k=2))


def test_downsample_labels_uses_patch_start():
    for n in (20, 21):  # an odd last frame has no output frame
        assert np.array_equal(downsample_labels(np.arange(n)), np.arange(0, 20, 2))


# ---------------------------------------------------------------------------
# Training


def test_continued_pretrain_epochs_zero_bit_equal(tmp_path):
    dataset = _toy_dataset()
    cfg = PretrainConfig(epochs=1, lr=1e-3, batch_seconds=1.0, k=3, n_mfcc=4,
                         max_steps=3)
    enc, _ = continued_pretrain(dataset, cfg, SpeechEncoder(TOY_CFG, 3), seed=0)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(enc, path, {})

    cfg0 = PretrainConfig(epochs=0, lr=1e-3, batch_seconds=1.0, k=3, n_mfcc=4)
    warm = load_checkpoint(path, SpeechEncoder)
    enc2, history = continued_pretrain(dataset, cfg0, warm, seed=5)
    assert history == []
    for (_, a), (_, b) in zip(enc.named_parameters(), enc2.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_continued_pretrain_same_seed_identical_checkpoint():
    dataset = _toy_dataset()
    cfg = PretrainConfig(epochs=100, lr=1e-3, batch_seconds=1.0, k=3, n_mfcc=4,
                         max_steps=10)
    enc1, h1 = continued_pretrain(dataset, cfg, SpeechEncoder(TOY_CFG, 3, seed=2), seed=2)
    enc2, h2 = continued_pretrain(dataset, cfg, SpeechEncoder(TOY_CFG, 3, seed=2), seed=2)
    assert h1 == h2
    for (_, a), (_, b) in zip(enc1.named_parameters(), enc2.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_toy_overfit_halves_masked_loss():
    dataset = _toy_dataset(n_utts=8, t=40, seed=1)
    cfg = PretrainConfig(epochs=1000, lr=3e-3, batch_seconds=2.0, k=4, n_mfcc=4)
    enc0, _ = continued_pretrain(dataset, replace(cfg, max_steps=1),
                                 SpeechEncoder(TOY_CFG, 4, seed=4), seed=4)
    _, labels = initial_labels(dataset, cfg, seed=4)
    initial = evaluate_masked_loss(enc0, dataset, labels)

    enc, history = continued_pretrain(dataset, replace(cfg, max_steps=200),
                                      SpeechEncoder(TOY_CFG, 4, seed=4), seed=4)
    final = evaluate_masked_loss(enc, dataset, labels)
    assert final < 0.5 * initial, f"loss went {initial:.4f} -> {final:.4f}"


def test_default_refresh_schedule_is_mid_training():
    assert PretrainConfig(epochs=10).refresh_schedule == (5,)
    assert PretrainConfig(epochs=1).refresh_schedule == ()
    assert PretrainConfig(epochs=10, refresh_schedule=(2, 7)).refresh_schedule == (2, 7)


def test_training_with_refresh_cycle_runs_and_stays_deterministic():
    dataset = _toy_dataset(n_utts=4, t=40)
    cfg = PretrainConfig(epochs=6, lr=1e-3, batch_seconds=1.0, k=3,
                         refresh_schedule=(3,), n_mfcc=4)
    enc1, h1 = continued_pretrain(dataset, cfg, SpeechEncoder(TOY_CFG, 3, seed=8), seed=8)
    enc2, h2 = continued_pretrain(dataset, cfg, SpeechEncoder(TOY_CFG, 3, seed=8), seed=8)
    assert h1 == h2
    assert len(h1) > 0
    for (_, a), (_, b) in zip(enc1.named_parameters(), enc2.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def _reference_continued_pretrain(dataset, cfg, encoder, seed=0):
    """``continued_pretrain`` as it was when it ran its own loop: its own
    step count and history list, and one ``reference_train_step`` per
    batch. Returns (history, optimizer)."""
    _, labels = initial_labels(dataset, cfg, seed)
    opt = Adam(encoder, lr=cfg.lr)
    rng = np.random.default_rng(seed + 1)
    history = []
    step = 0
    refresh_at = set(cfg.refresh_schedule)

    for epoch in range(cfg.epochs):
        if epoch in refresh_at:
            _, labels = refresh_targets(encoder, dataset, cfg, seed=seed + 100 + epoch)
        order = rng.permutation(len(dataset))
        batch = []
        batch_dur = 0.0
        for pos, utt in enumerate(order):
            batch.append(int(utt))
            batch_dur += len(dataset[utt]) * (HOP_MS / 1000.0)
            last = pos == len(order) - 1
            if batch_dur < cfg.batch_seconds and not last:
                continue
            masked = []
            for i in batch:
                t_out = encoder.output_len(len(dataset[i]))
                mask = span_mask(t_out, cfg, 7919 * step + i)
                if mask.any():
                    masked.append((dataset[i], labels[i], mask))
            if masked:
                step += 1
                history.append((step, reference_train_step(
                    opt, [partial(masked_prediction_loss, encoder, *utt) for utt in masked])))
                if cfg.max_steps is not None and step >= cfg.max_steps:
                    return history, opt
            batch = []
            batch_dur = 0.0
    return history, opt


def test_continued_pretrain_is_byte_equal_to_its_own_loop(monkeypatch):
    """A refresh inside the run and ``max_steps`` in the middle of an epoch:
    history, parameters and Adam moments keep the bytes of the loop
    ``continued_pretrain`` ran before ``nn.fit`` took its steps."""
    dataset = _toy_dataset(n_utts=6, t=40)
    # 40 frames are 0.4 s: three batches per epoch, a refresh after the
    # first epoch, and the fifth step in the middle of the second
    cfg = PretrainConfig(epochs=4, lr=1e-2, batch_seconds=0.8, k=3, n_mfcc=4,
                         refresh_schedule=(1,), max_steps=5, mask_prob=0.2, span_len=3)
    want, want_opt = _reference_continued_pretrain(dataset, cfg, SpeechEncoder(TOY_CFG, 3, seed=3),
                                                   seed=3)
    opts, refreshes = [], []
    monkeypatch.setattr(pretrain, "fit",
                        lambda opt, batches: opts.append(opt) or nn.fit(opt, batches))
    monkeypatch.setattr(pretrain, "refresh_targets",
                        lambda *a, **k: refreshes.append(1) or refresh_targets(*a, **k))
    _, got = continued_pretrain(dataset, cfg, SpeechEncoder(TOY_CFG, 3, seed=3), seed=3)
    assert [step for step, _ in got] == [1, 2, 3, 4, 5]
    assert len(refreshes) == 1
    assert [(step, np.float64(loss).tobytes()) for step, loss in got] == \
        [(step, np.float64(loss).tobytes()) for step, loss in want]
    assert trained_bytes(opts[0]) == trained_bytes(want_opt)


@pytest.mark.parametrize("max_steps, refreshes", [(1, 0), (2, 1)])
def test_continued_pretrain_stops_at_max_steps_before_the_next_epoch(
        monkeypatch, max_steps, refreshes):
    """One step per epoch and a refresh at epoch 1: the run that stops at
    step 1 never starts epoch 1, so it refreshes nothing."""
    calls = []
    monkeypatch.setattr(pretrain, "refresh_targets",
                        lambda *a, **k: calls.append(1) or refresh_targets(*a, **k))
    cfg = PretrainConfig(epochs=3, lr=1e-3, batch_seconds=100.0, k=3, n_mfcc=4,
                         refresh_schedule=(1,), max_steps=max_steps, mask_prob=1.0)
    _, history = continued_pretrain(_toy_dataset(), cfg, SpeechEncoder(TOY_CFG, 3), seed=0)
    assert len(history) == max_steps
    assert len(calls) == refreshes


def test_encoder_save_load_round_trip(tmp_path):
    enc = SpeechEncoder(TOY_CFG, n_classes=5, seed=9)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(enc, path, {"note": "hi"})
    back = load_checkpoint(path, SpeechEncoder)
    assert back.cfg == enc.cfg
    for (_, a), (_, b) in zip(enc.named_parameters(), back.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
