"""KMeans codebooks, span masking, masked prediction, and pretraining runs."""

from dataclasses import replace

import numpy as np
import pytest

from slmforge.audio import FeatureMatrix
from slmforge.errors import ConfigError
from slmforge.pretrain import (
    Codebook,
    MaskSpec,
    PretrainConfig,
    SpeechEncoder,
    SpeechEncoderConfig,
    assign_labels,
    continued_pretrain,
    downsample_labels,
    evaluate_masked_loss,
    initial_labels,
    kmeans_fit,
    load_encoder,
    masked_prediction_loss,
    refresh_targets,
    save_encoder,
    span_mask,
)

TOY_CFG = SpeechEncoderConfig(input_dim=8, dim=16, n_layers=2, n_heads=2)


def _toy_dataset(n_utts=4, t=40, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_utts):
        base = rng.standard_normal(dim)
        data = base + 0.3 * rng.standard_normal((t, dim))
        out.append(FeatureMatrix(data, 0.01, "logmel"))
    return out


# ---------------------------------------------------------------------------
# KMeans


def test_kmeans_n_equals_k_zero_inertia():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    book = kmeans_fit(points, 3, seed=0)
    assert book.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(map(tuple, book.centroids)) == sorted(map(tuple, points))


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
    book = Codebook(np.eye(4))
    assert assign_labels(book, np.eye(4)[3][None, :])[0] == 3


def test_assign_labels_tie_breaks_to_lowest_index():
    centroids = np.array([[9.0, 9.0], [0.0, 0.0], [4.0, 4.0], [9.0, 0.0], [2.0, 0.0]])
    feature = np.array([[1.0, 0.0]])  # exactly 1.0 from centroids 1 and 4
    assert assign_labels(Codebook(centroids), feature)[0] == 1


def test_assign_labels_matches_exhaustive_scan():
    rng = np.random.default_rng(6)
    book = Codebook(rng.standard_normal((7, 5)))
    feats = rng.standard_normal((30, 5))
    got = assign_labels(book, feats)
    for i, f in enumerate(feats):
        dists = [np.sum((f - c) ** 2) for c in book.centroids]
        assert got[i] == int(np.argmin(dists))


def test_assign_labels_dim_mismatch():
    with pytest.raises(ValueError):
        assign_labels(Codebook(np.zeros((2, 3))), np.zeros((4, 5)))


def test_codebook_round_trip(tmp_path):
    book = Codebook(np.random.default_rng(0).standard_normal((4, 6)),
                    kind="mfcc", iters=3, inertia=1.25)
    path = tmp_path / "book.ckpt"
    book.save(path)
    back = Codebook.load(path)
    assert np.array_equal(back.centroids, book.centroids)
    assert back.kind == "mfcc" and back.iters == 3 and back.inertia == 1.25


# ---------------------------------------------------------------------------
# Masking


def test_span_mask_p_zero_all_false():
    assert not span_mask(50, MaskSpec(mask_prob=0.0)).any()


def test_span_mask_p_one_l_one_all_true():
    assert span_mask(50, MaskSpec(mask_prob=1.0, span_len=1)).all()


def test_span_mask_coverage_matches_expectation():
    # masked fraction ~ 1 - (1 - p)^l for iid span starts
    t, p, l = 10000, 0.065, 10
    frac = span_mask(t, MaskSpec(p, l, seed=0)).mean()
    expected = 1.0 - (1.0 - p) ** l
    assert abs(frac - expected) <= 0.03


def test_span_mask_deterministic_per_seed():
    a = span_mask(100, MaskSpec(0.2, 3, seed=5))
    b = span_mask(100, MaskSpec(0.2, 3, seed=5))
    assert np.array_equal(a, b)


def test_mask_spec_validation():
    with pytest.raises(ConfigError):
        MaskSpec(mask_prob=1.5)
    with pytest.raises(ConfigError):
        MaskSpec(span_len=0)


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

    # perturb features inside conv patches feeding masked output frames only
    feats3 = feats.copy()
    stride, kernel = TOY_CFG.conv_stride, TOY_CFG.conv_kernel
    for j in np.flatnonzero(mask):
        feats3[j * stride : j * stride + kernel] += rng.standard_normal((kernel, 8))
    loss3, grads3 = run(feats3, labels)
    assert loss3 == base_loss
    assert np.array_equal(base_grads, grads3)


def test_masked_loss_all_false_mask_is_zero():
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(5).standard_normal((20, 8))
    t_out = enc.output_len(20)
    loss = masked_prediction_loss(enc, feats, np.zeros(t_out, dtype=np.int64),
                                  np.zeros(t_out, dtype=bool))
    assert loss.item() == 0.0
    assert not loss.requires_grad


# ---------------------------------------------------------------------------
# Target refresh


def test_refresh_layer0_identity_conv_reproduces_input_labels():
    cfg = SpeechEncoderConfig(input_dim=6, dim=6, n_layers=1, n_heads=1,
                              conv_kernel=1, conv_stride=1, conv_activation="none")
    enc = SpeechEncoder(cfg, n_classes=4, seed=0)
    enc.conv.weight.data[:] = np.eye(6)[:, :, None]
    enc.conv.bias.data[:] = 0.0

    rng = np.random.default_rng(7)
    dataset = [rng.standard_normal((15, 6)) for _ in range(3)]
    book, labels = refresh_targets(enc, dataset, target_layer=0, k=4, seed=9)

    direct = kmeans_fit(np.concatenate(dataset), 4, seed=9, kind="hidden")
    for data, lab in zip(dataset, labels):
        assert np.array_equal(lab, assign_labels(direct, data))


def test_refresh_deterministic_and_shapes():
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=1)
    rng = np.random.default_rng(8)
    dataset = [rng.standard_normal((20 + 2 * i, 8)) for i in range(3)]
    book1, labels1 = refresh_targets(enc, dataset, target_layer=1, k=4, seed=3)
    book2, labels2 = refresh_targets(enc, dataset, target_layer=1, k=4, seed=3)
    assert np.array_equal(book1.centroids, book2.centroids)
    for a, b, data in zip(labels1, labels2, dataset):
        assert np.array_equal(a, b)
        assert len(a) == enc.output_len(data.shape[0])


def test_refresh_rejects_empty_dataset_and_bad_layer():
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=0)
    with pytest.raises(ValueError):
        refresh_targets(enc, [], 1, 4)
    with pytest.raises(ConfigError):
        refresh_targets(enc, [np.zeros((10, 8))], 5, 2)


def test_downsample_labels_uses_patch_start():
    enc = SpeechEncoder(TOY_CFG, n_classes=4, seed=0)
    labels = np.arange(20)
    down = downsample_labels(labels, enc)
    assert np.array_equal(down, np.arange(0, 20, 2)[: enc.output_len(20)])


# ---------------------------------------------------------------------------
# Training


def test_continued_pretrain_epochs_zero_bit_equal(tmp_path):
    dataset = _toy_dataset()
    cfg = PretrainConfig(epochs=1, lr=1e-3, batch_seconds=1.0, k=3, n_mfcc=4,
                         max_steps=3)
    enc, _ = continued_pretrain(dataset, cfg, TOY_CFG, seed=0)
    path = tmp_path / "enc.ckpt"
    save_encoder(enc, path)

    cfg0 = PretrainConfig(epochs=0, lr=1e-3, batch_seconds=1.0, k=3, n_mfcc=4)
    enc2, history = continued_pretrain(dataset, cfg0, TOY_CFG, seed=5,
                                       init_checkpoint=path)
    assert history == []
    for (_, a), (_, b) in zip(enc.named_parameters(), enc2.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_continued_pretrain_same_seed_identical_checkpoint():
    dataset = _toy_dataset()
    cfg = PretrainConfig(epochs=100, lr=1e-3, batch_seconds=1.0, k=3, n_mfcc=4,
                         max_steps=10)
    enc1, h1 = continued_pretrain(dataset, cfg, TOY_CFG, seed=2)
    enc2, h2 = continued_pretrain(dataset, cfg, TOY_CFG, seed=2)
    assert h1 == h2
    for (_, a), (_, b) in zip(enc1.named_parameters(), enc2.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_toy_overfit_halves_masked_loss():
    dataset = _toy_dataset(n_utts=8, t=40, seed=1)
    cfg = PretrainConfig(epochs=1000, lr=3e-3, batch_seconds=2.0, k=4, n_mfcc=4)
    enc0, _ = continued_pretrain(dataset, replace(cfg, max_steps=1), TOY_CFG, seed=4)
    _, labels = initial_labels(dataset, cfg, enc0, seed=4)
    initial = evaluate_masked_loss(enc0, dataset, labels)

    enc, history = continued_pretrain(dataset, replace(cfg, max_steps=200), TOY_CFG, seed=4)
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
    enc1, h1 = continued_pretrain(dataset, cfg, TOY_CFG, seed=8)
    enc2, h2 = continued_pretrain(dataset, cfg, TOY_CFG, seed=8)
    assert h1 == h2
    assert len(h1) > 0
    for (_, a), (_, b) in zip(enc1.named_parameters(), enc2.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_encoder_save_load_round_trip(tmp_path):
    enc = SpeechEncoder(TOY_CFG, n_classes=5, seed=9)
    path = tmp_path / "enc.ckpt"
    save_encoder(enc, path, {"note": "hi"})
    back = load_encoder(path)
    assert back.cfg == enc.cfg
    for (_, a), (_, b) in zip(enc.named_parameters(), back.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
