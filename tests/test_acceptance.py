"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and runtime budget is asserted in the test itself.
"""

import ast
import hashlib
import itertools
import json
import subprocess
import sys
import time
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    check_grad_against_fd, cli_env, completion_mask, finite_diff_grad, log_softmax,
    masked_fusion_loss, matmul, max_rel_error, mul, softmax,
)
from test_asr import random_lattice
from test_metrics import brute_force_chrf, edit_distance, random_string, recursive_edit_distance

from slmforge import tensor as T
from slmforge.asr import (
    BLANK_SYMBOL,
    FinetuneConfig,
    Vocab,
    ctc_loss,
    ctc_required_frames,
    finetune_ctc,
)
from slmforge.audio import log_mel, write_wav
from slmforge.curate import Manifest, PipelineConfig, run_pipeline
from slmforge.metrics import MetricRow, cer, chrf, render_report, wer
from slmforge.nn import (
    Adam,
    checkpoint_bytes,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from slmforge.pretrain import (
    PretrainConfig,
    SpeechEncoder,
    SpeechEncoderConfig,
    continued_pretrain,
    evaluate_masked_loss,
    initial_labels,
    kmeans_fit,
    masked_prediction_loss,
    span_mask,
)
from slmforge.slm import (
    CausalLM,
    CausalLMConfig,
    FusionModel,
    FusionTrainConfig,
    build_instruction_dataset,
    extract_multilayer_features,
    fusion_loss,
    generate,
    lm_stand_in_sequences,
    parse_cot_output,
    train_aligner,
    train_lm,
)
from slmforge.synth import concat_buffers, silence, sine, tone_sequence
from slmforge.tensor import Tensor

FIXTURES = Path(__file__).parent / "fixtures"


def _passed(n, started, limit_s, detail):
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"criterion {n} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"\n[acceptance] criterion {n:02d} PASS ({elapsed:.1f}s): {detail}")


# ---------------------------------------------------------------------------
# 1. CTC oracle equivalence


def test_criterion_01_ctc_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    n_loss, n_grad = 0, 0
    for v in (2, 3, 4):
        for t_len in range(1, 7):
            logp = random_lattice(rng, t_len, v)

            path_probs = {}
            for path in itertools.product(range(v), repeat=t_len):
                from slmforge.asr import collapse_path

                key = tuple(collapse_path(path))
                logw = sum(logp[t, path[t]] for t in range(t_len))
                path_probs[key] = np.logaddexp(path_probs.get(key, -np.inf), logw)

            for length in (1, 2, 3):
                for target in itertools.product(range(1, v), repeat=length):
                    if ctc_required_frames(target) > t_len:
                        continue
                    got = ctc_loss(Tensor(logp), list(target)).item()
                    want = -path_probs[target]
                    assert got == pytest.approx(want, abs=1e-9), (t_len, v, target)
                    n_loss += 1

                    if t_len <= 4:
                        x = Tensor(logp.copy(), requires_grad=True)
                        ctc_loss(x, list(target)).backward()
                        numeric = finite_diff_grad(
                            lambda arr, tg=list(target): ctc_loss(Tensor(arr), tg).item(),
                            logp.copy(),
                        )
                        assert max_rel_error(x.grad, numeric) < 1e-4, (t_len, v, target)
                        n_grad += 1
    _passed(1, started, 30,
            f"{n_loss} losses vs exhaustive paths (1e-9), {n_grad} grads vs FD (1e-4)")


# ---------------------------------------------------------------------------
# 2. Autodiff suite


def _u(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


# One row per graph op (a row named ``op`` or ``op_<variant>``); see
# test_every_graph_op_has_a_finite_difference_check.
AUTODIFF_CHECKS = {
    "add": lambda rng: ([_u(rng, 3, 4), _u(rng, 3, 4)], T.add),
    "linear": lambda rng: ([_u(rng, 3, 4), _u(rng, 4, 2), _u(rng, 2)], T.linear),
    "concat": lambda rng: ([_u(rng, 2, 3), _u(rng, 3, 3)], lambda a, b: T.concat([a, b])),
    # a 1-D part is one row, as the encoder's mask embedding joins its frames
    "concat_row": lambda rng: (
        [_u(rng, 3, 4), _u(rng, 4), _u(rng, 2, 4)], lambda a, b, c: T.concat([a, b, c])),
    # the tests-side mul, which weights every check's output by its cotangent
    # and is the masked-frame reference, matmul, which tensor.linear's reference
    # and tensor.attention's reference composition use, softmax, which that
    # composition uses, and log-softmax, which the reference CTC loss reads
    "mul": lambda rng: ([_u(rng, 3, 4), _u(rng, 3, 4)], mul),
    "matmul": lambda rng: ([_u(rng, 3, 4), _u(rng, 4, 2)], matmul),
    "softmax": lambda rng: ([_u(rng, 4, 5)], softmax),
    "log_softmax": lambda rng: ([_u(rng, 4, 5)], log_softmax),
    "relu": lambda rng: ([_away_from_kink(_u(rng, 4, 5))], T.relu),
    "gelu": lambda rng: ([_u(rng, 4, 5)], T.gelu),
    "layer_norm": lambda rng: ([_u(rng, 3, 6), _u(rng, 6), _u(rng, 6)], T.layer_norm),
    "attention": lambda rng: (
        [_u(rng, 3, 4), _u(rng, 4, 4), _u(rng, 4, 4)],
        lambda q, k, v: T.attention(q, k, v, 2)),
    # causal by query position: square, cached (3 new rows after 2 cached
    # ones) and a scored-row subset out of order
    "attention_causal": lambda rng: (
        [_u(rng, 4, 4), _u(rng, 4, 4), _u(rng, 4, 4)],
        lambda q, k, v: T.attention(q, k, v, 2, np.arange(4))),
    "attention_causal_cached": lambda rng: (
        [_u(rng, 3, 4), _u(rng, 5, 4), _u(rng, 5, 4)],
        lambda q, k, v: T.attention(q, k, v, 2, np.arange(2, 5))),
    "attention_causal_rows": lambda rng: (
        [_u(rng, 2, 4), _u(rng, 5, 4), _u(rng, 5, 4)],
        lambda q, k, v: T.attention(q, k, v, 2, np.array([3, 1]))),
    "embedding_lookup": lambda rng: (
        [_u(rng, 5, 4)],
        lambda t, ids=tuple(rng.integers(0, 5, size=7)): T.embedding_lookup(t, list(ids))),
    "cross_entropy": lambda rng: (
        [_u(rng, 6, 5)],
        lambda lg, tg=tuple(rng.integers(0, 5, size=6)): T.cross_entropy(lg, list(tg))),
}

# Graph ops with no AUTODIFF_CHECKS row, each with the test that checks its
# gradient against finite differences.
AUTODIFF_CHECKED_ELSEWHERE = {
    "ctc_loss": "test_criterion_01_ctc_oracle_equivalence",
}

# AUTODIFF_CHECKS rows of test-side ops, which no src code passes to
# ``_make``, each with the reason it is checked.
TEST_SIDE_ROWS = {
    "mul": "every check weights its op's output by a cotangent with it, and the "
           "masked-frame and loss / n references are built on it",
    "matmul": "tensor.linear's two-node reference and the reference attention "
              "composition are built on it",
    "softmax": "tensor.attention's reference composition is built on it",
    "log_softmax": "the reference CTC loss in test_asr reads its lattice",
}


def test_criterion_02_autodiff_suite():
    started = time.monotonic()
    trials = 100
    worst = {}
    for name, make in AUTODIFF_CHECKS.items():
        w = 0.0
        for trial in range(trials):
            rng = np.random.default_rng(20_000 + 131 * trial + zlib.crc32(name.encode()) % 997)
            arrays, op = make(rng)
            w = max(w, check_grad_against_fd(op, arrays, seed=trial))
        worst[name] = w
        assert w < 1e-4, f"{name}: worst relative error {w}"
    summary = max(worst, key=worst.get)
    _passed(2, started, 60,
            f"{len(AUTODIFF_CHECKS)} ops x {trials} trials; worst {summary}={worst[summary]:.2e}")


def _graph_op_names():
    """Every op name passed to ``_make`` under src/slmforge, by AST."""
    names = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "slmforge").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_make"):
                op = node.args[3] if len(node.args) > 3 else next(
                    kw.value for kw in node.keywords if kw.arg == "op")
                names.add(op.value)
    return names


def test_every_graph_op_has_a_finite_difference_check():
    ops = _graph_op_names()
    assert {"add", "attention", "ctc_loss"} <= ops
    unchecked = {op for op in ops - set(AUTODIFF_CHECKED_ELSEWHERE)
                 if not any(row == op or row.startswith(op + "_") for row in AUTODIFF_CHECKS)}
    assert not unchecked, f"graph ops without a criterion-2 row: {sorted(unchecked)}"
    assert set(AUTODIFF_CHECKED_ELSEWHERE) <= ops, "an exemption names no graph op"
    stale = {row for row in set(AUTODIFF_CHECKS) - set(TEST_SIDE_ROWS)
             if not any(row == op or row.startswith(op + "_") for op in ops)}
    assert not stale, f"criterion-2 rows naming no graph op in src: {sorted(stale)}"
    assert not set(TEST_SIDE_ROWS) & ops, "a test-side row names a graph op in src"


# Rows beyond AUTODIFF_CHECKS for the no-aliasing check, each
# rng -> (input arrays, op, other arrays the op reads): the graph op that
# AUTODIFF_CHECKED_ELSEWHERE exempts, and attention's query positions.
NO_ALIASING_EXTRA = {
    "ctc_loss": lambda rng: ([random_lattice(rng, 6, 4)], lambda x: ctc_loss(x, [1, 2, 2]), []),
    "attention_positions": lambda rng, positions=np.array([4, 1, 2]): (
        [_u(rng, 3, 4), _u(rng, 5, 4), _u(rng, 5, 4)],
        lambda q, k, v: T.attention(q, k, v, 2, positions), [positions]),
}


@pytest.mark.parametrize("name", [*AUTODIFF_CHECKS, *NO_ALIASING_EXTRA])
def test_no_op_writes_into_its_inputs_or_incoming_gradient(name):
    """Forward then backward of each graph op leaves the bytes of every array
    it was given unchanged: its inputs, the arrays it reads besides them and
    the gradient passed to its backward. The op must be one graph node, so
    its own backward gives every input a gradient."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if name in NO_ALIASING_EXTRA:
        arrays, op, held = NO_ALIASING_EXTRA[name](rng)
    else:
        (arrays, op), held = AUTODIFF_CHECKS[name](rng), []
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    assert all(t.data is a for t, a in zip(tensors, arrays))  # the op sees these arrays
    before = [a.tobytes() for a in [*arrays, *held]]
    out = op(*tensors)
    incoming = rng.standard_normal(out.data.shape)
    sent = incoming.tobytes()
    out._backward_fn(incoming)
    assert all(t.grad is not None for t in tensors)
    assert [a.tobytes() for a in [*arrays, *held]] == before
    assert incoming.tobytes() == sent


def test_the_no_aliasing_check_covers_every_graph_op():
    rows = [*AUTODIFF_CHECKS, *NO_ALIASING_EXTRA]
    unchecked = {op for op in _graph_op_names()
                 if not any(row == op or row.startswith(op + "_") for row in rows)}
    assert not unchecked, f"graph ops without a no-aliasing row: {sorted(unchecked)}"


def _away_from_kink(x):
    x = x.copy()
    x[np.abs(x) < 1e-3] = 0.5
    return x


# ---------------------------------------------------------------------------
# 3. KMeans


def test_criterion_03_kmeans_monotonic_and_blob_recovery():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    for trial in range(1000):
        data = rng.standard_normal((25, 3))
        seed = int(rng.integers(0, 2**31))
        inertias = [kmeans_fit(data, 4, iters=i, seed=seed).inertia
                    for i in (1, 2, 3, 4)]
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9, f"trial {trial}: inertia rose {a} -> {b}"

    blob_rng = np.random.default_rng(304)
    blob_a = blob_rng.normal((0.0, 0.0), 0.1, size=(60, 2))
    blob_b = blob_rng.normal((10.0, 10.0), 0.1, size=(60, 2))
    book = kmeans_fit(np.concatenate([blob_a, blob_b]), 2, seed=9)
    means = sorted(map(tuple, (blob_a.mean(axis=0), blob_b.mean(axis=0))))
    got = sorted(map(tuple, book.centroids))
    for centroid, mean in zip(got, means):
        assert np.linalg.norm(np.array(centroid) - np.array(mean)) < 0.1
    _passed(3, started, 30, "1000 datasets monotone inertia + blob recovery < 0.1")


# ---------------------------------------------------------------------------
# 4. Masking contracts


ENC_CFG = SpeechEncoderConfig(input_dim=8, dim=16, n_layers=2, n_heads=2)


def _encoder_grads(enc):
    return np.concatenate([
        p.grad.reshape(-1) if p.grad is not None else np.zeros(p.data.size)
        for _, p in enc.named_parameters()
    ])


def test_criterion_04_masking_contracts_bit_invariance():
    started = time.monotonic()

    for trial in range(10):
        rng = np.random.default_rng(400 + trial)
        enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=trial)
        feats = rng.standard_normal((24, 8))
        t_out = enc.output_len(24)
        labels = rng.integers(0, 4, size=t_out)
        mask = span_mask(t_out, PretrainConfig(mask_prob=0.3, span_len=2), trial)
        if not mask.any() or mask.all():
            mask[0], mask[-1] = True, False

        def run(features, lbls):
            enc.zero_grad()
            loss = masked_prediction_loss(enc, features, lbls, mask)
            loss.backward()
            return loss.item(), _encoder_grads(enc)

        base_loss, base_grads = run(feats, labels)
        lbls2 = labels.copy()
        lbls2[~mask] = (lbls2[~mask] + 1 + trial) % 4
        feats2 = feats.copy()
        for j in np.flatnonzero(mask):
            feats2[2 * j : 2 * j + 2] += rng.standard_normal((2, 8))
        loss2, grads2 = run(feats2, lbls2)
        assert loss2 == base_loss
        assert np.array_equal(base_grads, grads2)

    for trial in range(10):
        rng = np.random.default_rng(450 + trial)
        from slmforge.curate import SegmentRecord

        rec = SegmentRecord(id="r", source_path="x", offset_s=0, duration_s=1,
                            speaker=None, quality_score=5.0, sample_rate=16000,
                            transcript="ab")
        examples, tok, _ = build_instruction_dataset([rec], ["transcribe"])
        lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16,
                                     n_layers=1, n_heads=2), seed=trial)
        lm.freeze()
        # 10-wide speech rows: two stacked frames of one 5-wide encoder layer
        model = FusionModel(SpeechEncoder(SpeechEncoderConfig(dim=5, n_layers=1, n_heads=1), 4),
                            lm, tok, aligner_hidden=8, seed=trial + 1)
        aligner = model.aligner
        speech = rng.standard_normal((4, 10))
        ids = tok.encode(examples[0].text)
        mask = completion_mask(ids, tok)

        def run_fusion(loss_fn, *args):
            aligner.zero_grad()
            loss = loss_fn(*args)
            loss.backward()
            return loss.item(), np.concatenate(
                [p.grad.reshape(-1) for p in aligner.parameters()])

        # the loss scores the completion alone: it equals the masked
        # reference run with random targets everywhere off the completion
        base_loss, base_grads = run_fusion(fusion_loss, model, speech, ids)
        perturbed = [t if m else int(rng.integers(0, len(tok)))
                     for t, m in zip(ids, mask)]
        loss2, grads2 = run_fusion(masked_fusion_loss, lm, aligner, speech, ids, mask, tok,
                                   perturbed)
        assert loss2 == base_loss
        assert np.array_equal(base_grads, grads2)

    _passed(4, started, 60,
            "masked-prediction and fusion losses bit-invariant, 10 trials each")


# ---------------------------------------------------------------------------
# 5. Frozen-module contract


def test_criterion_05_frozen_modules_after_100_fusion_steps():
    started = time.monotonic()
    rng = np.random.default_rng(505)
    from slmforge.curate import SegmentRecord

    records = [
        SegmentRecord(id=f"u{i}", source_path="synth", offset_s=0, duration_s=0.3,
                      speaker=None, quality_score=5.0, sample_rate=16000,
                      transcript=ch)
        for i, ch in enumerate("abc")
    ]
    examples, tok, _ = build_instruction_dataset(records, ["transcribe"])
    encoder = SpeechEncoder(ENC_CFG, n_classes=4, seed=1).freeze()
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16, n_layers=1,
                                 n_heads=2), seed=2).freeze()
    # a speech row is encoder frames 2j and 2j + 1, each every layer's state
    bundle = FusionModel(encoder, lm, tok, aligner_hidden=8, seed=3)
    aligner = bundle.aligner
    feats = {ex.audio_id: rng.standard_normal((20, 8)) for ex in examples}

    encoder_before = checkpoint_bytes(encoder.state_arrays())
    lm_before = checkpoint_bytes(lm.state_arrays())
    aligner_before = checkpoint_bytes(aligner.state_arrays())

    opt = Adam(bundle, lr=1e-3)
    for step in range(100):
        ex = examples[step % len(examples)]
        speech = extract_multilayer_features(encoder, feats[ex.audio_id])
        ids = tok.encode(ex.text)
        loss = fusion_loss(bundle, speech, ids)
        bundle.zero_grad()
        loss.backward()
        opt.step()

    assert checkpoint_bytes(encoder.state_arrays()) == encoder_before
    assert checkpoint_bytes(lm.state_arrays()) == lm_before
    assert checkpoint_bytes(aligner.state_arrays()) != aligner_before
    _passed(5, started, 120,
            "after 100 fusion steps: encoder+LM bytes identical, aligner moved")


# ---------------------------------------------------------------------------
# 6. Continued-pretraining benefit


def test_criterion_06_continued_pretraining_benefit(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(606)
    dataset = []
    for _ in range(8):
        base = rng.standard_normal(12)
        dataset.append(base + 0.3 * rng.standard_normal((50, 12)))
    enc_cfg = SpeechEncoderConfig(input_dim=12, dim=24, n_layers=2, n_heads=2)
    cfg = PretrainConfig(epochs=10**6, lr=1e-3, batch_seconds=2.0, k=4, n_mfcc=6)

    enc_a, _ = continued_pretrain(dataset, replace(cfg, max_steps=200),
                                  SpeechEncoder(enc_cfg, cfg.k, seed=5), seed=5)
    ckpt = tmp_path / "warm.ckpt"
    save_checkpoint(enc_a, ckpt, {})

    cfg100 = replace(cfg, max_steps=100)
    enc_warm, _ = continued_pretrain(dataset, cfg100, load_checkpoint(ckpt, SpeechEncoder),
                                     seed=5)
    enc_cold, _ = continued_pretrain(dataset, cfg100, SpeechEncoder(enc_cfg, cfg.k, seed=5),
                                     seed=5)

    _, labels = initial_labels(dataset, cfg, seed=5)
    loss_warm = evaluate_masked_loss(enc_warm, dataset, labels)
    loss_cold = evaluate_masked_loss(enc_cold, dataset, labels)
    assert loss_warm < loss_cold, f"warm {loss_warm:.4f} !< cold {loss_cold:.4f}"
    _passed(6, started, 300,
            f"seed 5: warm@100 {loss_warm:.4f} < scratch@100 {loss_cold:.4f}")


# ---------------------------------------------------------------------------
# 7. Toy ASR overfit


def test_criterion_07_toy_asr_overfit_wer_zero():
    started = time.monotonic()
    alphabet = "abcde"
    freqs = [400.0, 800.0, 1200.0, 1600.0, 2000.0]

    rng = np.random.default_rng(2024)
    seen, examples = set(), []
    while len(examples) < 10:
        idx = tuple(rng.integers(0, 5, size=3))
        if idx in seen:
            continue
        seen.add(idx)
        text = "".join(alphabet[i] for i in idx)
        feats = log_mel(tone_sequence([freqs[i] for i in idx], 0.2), 16)
        examples.append((feats, text))

    vocab = Vocab.from_texts([t for _, t in examples], (BLANK_SYMBOL,))
    enc = SpeechEncoder(SpeechEncoderConfig(input_dim=16, dim=24, n_layers=2,
                                            n_heads=2), n_classes=8, seed=7)
    cfg = FinetuneConfig(steps=2000, lr=3e-3, batch_size=2, eval_every=50)
    _, history = finetune_ctc(enc, examples, vocab, cfg, stop_at_zero_wer=True, seed=7)
    evals = [(s, w) for s, _, w in history if w is not None]
    assert evals[-1][1] == 0.0, f"train WER still {evals[-1][1]} at step {evals[-1][0]}"
    assert evals[-1][0] <= 2000
    _passed(7, started, 300,
            f"10 tone utterances reach train WER 0 at step {evals[-1][0]} (seed 7)")


# ---------------------------------------------------------------------------
# 8. Toy fusion overfit


def test_criterion_08_toy_fusion_overfit_final_accuracy():
    started = time.monotonic()
    from slmforge.curate import SegmentRecord

    alphabet = "abcde"
    freqs = [350.0, 700.0, 1200.0, 1900.0, 2800.0]
    encoder = SpeechEncoder(SpeechEncoderConfig(input_dim=16, dim=24, n_layers=2,
                                                n_heads=2), n_classes=8, seed=3)
    encoder.freeze()

    records, feats = [], {}
    for i, ch in enumerate(alphabet):
        rec = SegmentRecord(id=f"u{i}", source_path="synth", offset_s=0.0,
                            duration_s=0.5, speaker="S0", quality_score=5.0,
                            sample_rate=16000, transcript=ch)
        records.append(rec)
        audio = log_mel(sine(freqs[i], 0.5), 16)
        feats[rec.id] = extract_multilayer_features(encoder, audio)

    examples, tok, _ = build_instruction_dataset(records, ["transcribe"])
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=48, n_layers=2,
                                 n_heads=2), seed=11)
    corpus = lm_stand_in_sequences(examples, tok, feats)
    train_lm(lm, corpus, steps=400, lr=3e-3, seed=11)

    model = FusionModel(encoder, lm, tok, seed=12)
    pairs = [(feats[ex.audio_id], ex) for ex in examples]

    def accuracy():
        good = 0
        for ex in examples:
            out = generate(model, feats[ex.audio_id], "transcribe", max_tokens=30)
            good += parse_cot_output(out.text).final == ex.final
        return good / len(examples)

    steps_done = 0
    acc = 0.0
    while steps_done < 3000:
        train_aligner(model, pairs, FusionTrainConfig(steps=100, lr=1e-3, batch_size=2),
                      seed=100 + steps_done)
        steps_done += 100
        acc = accuracy()
        if acc >= 0.95:
            break
    assert acc >= 0.95, f"FINAL accuracy {acc:.2f} after {steps_done} aligner steps"
    _passed(8, started, 600,
            f"5-class fusion reaches {acc:.0%} FINAL accuracy at {steps_done} steps")


# ---------------------------------------------------------------------------
# 9. Curation thresholds and determinism


def _bursty_wav(path, freq):
    parts = [silence(0.5)]
    for _ in range(10):
        parts.extend([sine(freq, 0.3, amplitude=0.4), silence(0.08)])
    parts.append(silence(0.5))
    write_wav(path, concat_buffers(parts))


def test_criterion_09_curation_thresholds_and_determinism(tmp_path):
    started = time.monotonic()
    paths = []
    for i, freq in enumerate((300.0, 700.0, 1400.0)):
        p = tmp_path / f"in{i}.wav"
        _bursty_wav(p, freq)
        paths.append(p)
    short = tmp_path / "short.wav"
    write_wav(short, concat_buffers([silence(0.4), sine(900.0, 1.0), silence(0.4)]))
    paths.append(short)

    cfg = PipelineConfig()
    out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
    run_pipeline(paths, cfg).write(out1)
    run_pipeline(paths, cfg).write(out2)
    assert out1.read_bytes() == out2.read_bytes()

    manifest = Manifest.read(out1)
    assert manifest.records, "pipeline kept nothing"
    for rec in manifest.records:
        assert 3.0 <= rec.duration_s <= 30.0
        assert rec.quality_score > 3.2
    rejected = manifest.header["rejected"]
    assert rejected["too_short"] >= 1  # the 1 s tone is filtered out
    assert manifest.header["n_kept"] + sum(rejected.values()) == \
        manifest.header["n_candidates"]
    _passed(9, started, 120,
            f"{manifest.header['n_kept']} kept records all satisfy gates; "
            "two runs byte-identical")


# ---------------------------------------------------------------------------
# 10. Metric oracles


def test_criterion_10_metric_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(1010)
    for _ in range(500):
        a, b = random_string(rng), random_string(rng)
        assert edit_distance(list(a), list(b)) == recursive_edit_distance(a, b)
        assert edit_distance(a.split(), b.split()) == \
            recursive_edit_distance(tuple(a.split()), tuple(b.split()))

    for _ in range(100):
        refs = [random_string(rng, 12) for _ in range(2)]
        hyps = [random_string(rng, 12) for _ in range(2)]
        assert chrf(refs, hyps) == pytest.approx(
            brute_force_chrf(refs, hyps), abs=1e-6)
    _passed(10, started, 60,
            "500 pairs exact edit distance, 100 pairs chrf within 1e-6")


# ---------------------------------------------------------------------------
# 11. Report fixtures


def test_criterion_11_report_fixtures_byte_exact():
    started = time.monotonic()
    stems = ("report_rows_asr_baselines", "report_rows_cot_asr",
             "report_rows_cot_translation")
    for stem in stems:
        raw = json.loads((FIXTURES / f"{stem}.json").read_text(encoding="utf-8"))
        rows = [MetricRow.from_dict(d) for d in raw]
        got = render_report(rows)
        want = (FIXTURES / f"expected_{stem}.txt").read_text(encoding="utf-8")
        assert got == want, f"{stem} drifted from frozen rendering"

    baselines = (FIXTURES / "expected_report_rows_asr_baselines.txt").read_text()
    for value in ("41.11", "39.48", "35.65"):
        assert value in baselines
    cot_asr = (FIXTURES / "expected_report_rows_cot_asr.txt").read_text()
    for value in ("29.09", "15.26", "34.05", "19.08", "29.48", "15.95"):
        assert value in cot_asr
    cot_tr = (FIXTURES / "expected_report_rows_cot_translation.txt").read_text()
    for value in ("33.08", "79.78", "33.79", "79.73", "33.59", "77.54"):
        assert value in cot_tr
    _passed(11, started, 30, "three fixture tables render byte-exactly")


# ---------------------------------------------------------------------------
# 12. End-to-end smoke through the CLI


def _cli(*args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "slmforge", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )
    assert proc.returncode == 0, (
        f"slmforge {args[0]} exited {proc.returncode}\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc.stdout


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One seeded pass of all nine subcommands. Criterion 12 checks that it
    ran; the numerics fingerprint test digests what it wrote."""
    tmp_path = tmp_path_factory.mktemp("smoke")
    started = time.monotonic()
    freqs = {"a": 400.0, "b": 900.0, "c": 1600.0}
    texts = ["aba", "cbc", "bab"]
    wavs = []
    for i, text in enumerate(texts):
        p = tmp_path / f"utt{i}.wav"
        _bursty_wav(p, freqs[text[0]])
        wavs.append(p)

    manifest_path = tmp_path / "manifest.jsonl"
    _cli("curate", "--out", manifest_path, *wavs, cwd=tmp_path)

    # attach transcripts (stands in for human annotation)
    manifest = Manifest.read(manifest_path)
    assert len(manifest.records) == 3
    for rec, text in zip(manifest.records, texts):
        rec.transcript = text
        rec.split = "train"
    manifest.write(manifest_path)

    pre_cfg = tmp_path / "pretrain.json"
    pre_cfg.write_text(json.dumps({
        "epochs": 1000, "max_steps": 50, "lr": 1e-3, "batch_seconds": 8.0,
        "k": 4, "n_mels": 16, "dim": 24,
    }))
    enc_ckpt = tmp_path / "encoder.ckpt"
    _cli("pretrain", "--manifest", manifest_path, "--config", pre_cfg,
         "--seed", "0", "--out", enc_ckpt, cwd=tmp_path)

    ft_cfg = tmp_path / "finetune.json"
    ft_cfg.write_text(json.dumps({"steps": 50, "lr": 3e-3, "eval_every": 25}))
    asr_ckpt = tmp_path / "asr.ckpt"
    _cli("finetune-asr", "--manifest", manifest_path, "--encoder", enc_ckpt,
         "--config", ft_cfg, "--seed", "0", "--out", asr_ckpt, cwd=tmp_path)

    hyp = _cli("transcribe", "--ckpt", asr_ckpt, "--wav", wavs[0], cwd=tmp_path)

    sft_path = tmp_path / "sft.jsonl"
    _cli("build-sft", "--manifest", manifest_path, "--modes", "transcribe",
         "--out", sft_path, cwd=tmp_path)

    aligner_cfg = tmp_path / "aligner.json"
    aligner_cfg.write_text(json.dumps({
        "steps": 50, "lm_steps": 50, "d_lm": 32, "lm_layers": 1, "lr": 1e-3,
    }))
    fusion_ckpt = tmp_path / "fusion.ckpt"
    _cli("train-aligner", "--sft", sft_path, "--manifest", manifest_path,
         "--encoder", enc_ckpt, "--config", aligner_cfg, "--seed", "0",
         "--out", fusion_ckpt, cwd=tmp_path)

    infer_out = _cli("infer", "--fusion", fusion_ckpt, "--encoder", enc_ckpt,
                     "--wav", wavs[0], "--task", "transcribe",
                     "--max-tokens", "40", cwd=tmp_path)

    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("\n".join(texts) + "\n")
    hyps.write_text("\n".join(texts) + "\n")
    report_json = tmp_path / "report.json"
    eval_out = _cli("eval", "--refs", refs, "--hyps", hyps,
                    "--metrics", "wer,cer,chrf", "--out", report_json, cwd=tmp_path)

    _cli("report", "--rows", FIXTURES / "report_rows_asr_baselines.json",
         cwd=tmp_path)
    return {"started": started, "dir": tmp_path, "transcribe": hyp, "infer": infer_out,
            "eval": eval_out, "report_json": report_json}


def test_criterion_12_end_to_end_smoke(smoke_run):
    assert smoke_run["transcribe"] is not None  # content not asserted at 50 steps
    assert "FINAL:" in smoke_run["infer"]
    assert "WER" in smoke_run["eval"]
    assert json.loads(smoke_run["report_json"].read_text())["rows"][0]["wer"] == 0.0
    _passed(12, smoke_run["started"], 900, "curate -> pretrain -> finetune -> transcribe -> "
            "build-sft -> train-aligner -> infer -> eval -> report all exit 0")


# ---------------------------------------------------------------------------
# Numerics fingerprint of the criterion-12 run

FINGERPRINTS = FIXTURES / "numerics_fingerprints.json"


def _numerics_host():
    """numpy version and BLAS build line: BLAS kernels round differently per
    build and CPU, so expected digests are kept per host."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 only prints its configuration
        blas = {}
    line = blas.get("openblas configuration", blas.get("name", "unknown BLAS"))
    return f"numpy {np.__version__}; {line}"


def _tensor_digest(path):
    """SHA-256 over each checkpoint tensor's name, shape and float64 bytes, in
    file order; metadata (provenance, paths) is left out."""
    arrays, _ = read_checkpoint(path)
    digest = hashlib.sha256()
    for name, arr in arrays.items():
        digest.update(f"{name}{arr.shape}".encode())
        digest.update(arr.astype("<f8").tobytes())
    return digest.hexdigest()


def test_numerics_fingerprint_of_the_smoke_run(smoke_run):
    """The seeded criterion-12 run writes the same tensors, SFT file and
    decodes as the committed digests. A change that moves numerics updates
    the fixture in the same commit and says why."""
    run_dir = smoke_run["dir"]

    def sha(text_or_bytes):
        data = text_or_bytes.encode() if isinstance(text_or_bytes, str) else text_or_bytes
        return hashlib.sha256(data).hexdigest()

    digests = {
        **{name: _tensor_digest(run_dir / name)
           for name in ("encoder.ckpt", "asr.ckpt", "fusion.ckpt")},
        "sft.jsonl": sha((run_dir / "sft.jsonl").read_bytes()),
        "transcribe stdout": sha(smoke_run["transcribe"]),
        "infer stdout": sha(smoke_run["infer"]),
    }
    host = _numerics_host()
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    if host not in expected:
        print(json.dumps({host: digests}, indent=2))
        pytest.skip(f"no committed numerics fingerprint for host {host!r}; "
                    "its digests are printed above")
    assert digests == expected[host]
