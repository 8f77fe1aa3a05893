"""Fusion model: instruction data, aligner, splicing, generation, parsing."""

import numpy as np
import pytest

from conftest import finite_diff_grad, max_rel_error

from slmforge.curate import SegmentRecord
from slmforge.errors import ConfigError, GraphError, NonFiniteError
from slmforge.nn import load_checkpoint, save_checkpoint
from slmforge.pretrain import SpeechEncoder, SpeechEncoderConfig
from slmforge import tensor as T
from slmforge.slm import (
    _MODE_TABLE,
    MODES,
    _fused_sequence,
    CausalLM,
    CausalLMConfig,
    CharTokenizer,
    ChatTemplate,
    FusionModel,
    FusionTrainConfig,
    SpeechAligner,
    build_instruction_dataset,
    chat_prompt,
    completion_mask,
    detect_repetition_loop,
    extract_multilayer_features,
    fusion_loss,
    generate,
    parse_cot_output,
    read_instruction_dataset,
    render_chat,
    rule_table_phonemizer,
    train_aligner,
    train_lm,
    write_instruction_dataset,
)
from slmforge.tensor import Tensor, tsum


def _record(id="r0", transcript="waaw", translation="yes"):
    return SegmentRecord(
        id=id, source_path="x.wav", offset_s=0.0, duration_s=4.0, speaker="S0",
        quality_score=4.0, sample_rate=16000, transcript=transcript,
        translation=translation,
    )


def _tok(texts):
    return CharTokenizer.from_texts(texts)


# ---------------------------------------------------------------------------
# Tokenizer and template


def test_special_markers_are_atomic_tokens():
    tok = _tok(["abc"])
    ids = tok.encode("<|user|>a<|audio|>b<|assistant|>c<|end|>")
    assert len(ids) == 7
    assert tok.decode(ids) == "<|user|>a<|audio|>b<|assistant|>c<|end|>"


def test_tokenizer_unknown_char_errors():
    tok = _tok(["abc"])
    with pytest.raises(ConfigError, match="'z'"):
        tok.encode("z")


def test_render_contains_exactly_one_placeholder_and_final():
    text = render_chat("Transcribe the audio.", [("translate", "hello")], "waaw")
    assert text.count("<|audio|>") == 1
    assert "STEP[translate]: hello\n" in text
    assert "FINAL: waaw<|end|>" in text


def test_completion_mask_covers_assistant_tokens_only():
    text = render_chat("Transcribe the audio.", [], "waaw")
    tok = _tok([text])
    ids = tok.encode(text)
    mask = completion_mask(ids, tok)
    start = ids.index(tok.token_id(ChatTemplate.assistant_marker))
    assert all(m == 0 for m in mask[: start + 1])
    assert all(m == 1 for m in mask[start + 1 :])
    assert tok.decode([i for i, m in zip(ids, mask) if m]) == "FINAL: waaw<|end|>"


# ---------------------------------------------------------------------------
# Instruction dataset


def test_transcribe_mode_renders_final_line_by_hand():
    # oracle: assemble the expected string manually
    examples, tok, skipped = build_instruction_dataset([_record()], ["transcribe"])
    assert skipped == []
    ex = examples[0]
    expected = ("<|user|><|audio|> Transcribe the audio.<|assistant|>"
                "FINAL: waaw<|end|>")
    assert ex.text == expected
    masked_text = tok.decode(
        [i for i, m in zip(tok.encode(ex.text), ex.loss_mask) if m]
    )
    assert masked_text == "FINAL: waaw<|end|>"


def test_missing_translation_skips_with_reason():
    rec = _record(translation=None)
    examples, _, skipped = build_instruction_dataset([rec], ["translate_transcribe"])
    assert examples == []
    assert skipped == [("r0", "translate_transcribe", "missing translation")]


def _reference_skip_reason(mode, rec):
    """build_instruction_dataset's skip rule before the step -> field table."""
    _, step_names, final_field = _MODE_TABLE[mode]
    needs_transcript = final_field == "transcript" or any(
        s in ("phonemize", "transcribe", "paraphrase") for s in step_names
    )
    needs_translation = final_field == "translation" or "translate" in step_names
    if needs_transcript and not rec.transcript:
        return "missing transcript"
    if needs_translation and not rec.translation:
        return "missing translation"
    return None


@pytest.mark.parametrize("transcript, translation", [
    ("waaw", "yes"), (None, "yes"), ("waaw", None), (None, None), ("", ""),
])
def test_skip_reasons_match_the_rule_the_step_table_replaced(transcript, translation):
    rec = _record(transcript=transcript, translation=translation)
    _, _, skipped = build_instruction_dataset([rec], list(MODES))
    reasons = [(mode, _reference_skip_reason(mode, rec)) for mode in MODES]
    assert skipped == [("r0", mode, why) for mode, why in reasons if why]


def test_six_modes_one_complete_record_six_examples():
    examples, _, skipped = build_instruction_dataset([_record()], list(MODES))
    assert len(examples) == 6
    assert skipped == []
    assert {ex.mode for ex in examples} == set(MODES)


def test_mode_final_fields():
    examples, _, _ = build_instruction_dataset([_record()], list(MODES))
    finals = {ex.mode: ex.final for ex in examples}
    assert finals["transcribe"] == "waaw"
    assert finals["translate"] == "yes"
    assert finals["transcribe_translate"] == "yes"
    assert finals["phonemize_transcribe"] == "waaw"


def test_phonemizer_rule_table_applies():
    g2p = rule_table_phonemizer({"aa": "A:", "w": "U"})
    examples, _, _ = build_instruction_dataset(
        [_record()], ["phonemize_transcribe"], phonemizer=g2p
    )
    assert "STEP[phonemize]: UA:U" in examples[0].text


def test_dataset_file_round_trip(tmp_path):
    examples, tok, _ = build_instruction_dataset([_record()], ["transcribe", "translate"])
    path = tmp_path / "sft.jsonl"
    write_instruction_dataset(path, examples, tok, {"modes": ["transcribe", "translate"]})
    back, tok2, header = read_instruction_dataset(path)
    assert [ex.text for ex in back] == [ex.text for ex in examples]
    assert tok2.symbols == tok.symbols
    assert header["modes"] == ["transcribe", "translate"]


# ---------------------------------------------------------------------------
# Aligner


def test_aligner_zero_weights_bias_constant():
    aligner = SpeechAligner(6, 4, hidden=8, seed=0)
    aligner.fc1.weight.data[:] = 0.0
    aligner.fc1.bias.data[:] = 0.0
    aligner.fc2.weight.data[:] = 0.0
    aligner.fc2.bias.data[:] = 0.7
    out = aligner.align(np.random.default_rng(0).standard_normal((5, 6)))
    assert np.allclose(out.data, 0.7)
    assert out.data.shape == (5, 4)


def test_aligner_gradient_matches_finite_differences():
    aligner = SpeechAligner(5, 3, hidden=7, seed=1)
    feats = np.random.default_rng(1).standard_normal((4, 5))
    cot = np.random.default_rng(2).standard_normal((4, 3))

    loss = tsum(aligner.align(feats) * Tensor(cot))
    loss.backward()

    for name, p in aligner.named_parameters():
        base = p.data.copy()

        def f(x, p=p, base=base):
            p.data = x
            out = float((aligner.align(feats).data * cot).sum())
            p.data = base
            return out

        numeric = finite_diff_grad(f, base.copy())
        assert max_rel_error(p.grad, numeric) < 1e-4, name


def test_aligner_dim_mismatch():
    aligner = SpeechAligner(5, 3, seed=0)
    with pytest.raises(GraphError):
        aligner.align(np.zeros((4, 6)))


# ---------------------------------------------------------------------------
# Multi-layer features


ENC_CFG = SpeechEncoderConfig(input_dim=8, dim=16, n_layers=3, n_heads=2)


def test_multilayer_feature_dim_is_layers_times_dim():
    # the features are the transformer layers' hidden states side by side
    enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(0).standard_normal((30, 8))
    out = extract_multilayer_features(enc, feats)
    states = enc.forward(feats)
    assert np.array_equal(out, np.concatenate([s.data for s in states[1:]], axis=1))


def test_single_layer_selection_equals_hidden_states():
    # each layer's block of columns is that layer's hidden states, unchanged
    enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(1).standard_normal((30, 8))
    out = extract_multilayer_features(enc, feats)
    states = enc.forward(feats)
    dim = ENC_CFG.dim
    for layer in range(1, ENC_CFG.n_layers + 1):
        block = out[:, (layer - 1) * dim : layer * dim]
        assert np.array_equal(block, states[layer].data)


def test_default_selection_all_transformer_layers_no_extra_downsampling():
    enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(2).standard_normal((30, 8))
    out = extract_multilayer_features(enc, feats)
    assert out.shape == (enc.output_len(30), ENC_CFG.n_layers * 16)


# ---------------------------------------------------------------------------
# Fusion loss


def _fusion_setup(seed=0):
    examples, tok, _ = build_instruction_dataset(
        [_record(), _record(id="r1", transcript="deedeet", translation="ok")],
        ["transcribe"],
    )
    lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=16, n_layers=1,
                                 n_heads=2), seed=seed)
    lm.freeze()
    aligner = SpeechAligner(12, 16, hidden=8, seed=seed + 1)
    rng = np.random.default_rng(seed)
    speech = rng.standard_normal((5, 12))
    return lm, aligner, tok, examples, speech


def test_fused_sequence_length_arithmetic():
    lm, aligner, tok, examples, speech = _fusion_setup()
    ids = tok.encode(examples[0].text)
    t_prime = 5
    # probe through the logits row count of a forward pass
    from slmforge import tensor as T

    with T.no_grad():
        emb_parts = [
            lm.embed(np.asarray(ids[:1])),
            aligner.align(speech),
            lm.embed(np.asarray(ids[2:])),
        ]
        fused = T.concat(emb_parts, axis=0)
        logits = lm.forward_embeddings(fused)
    assert logits.data.shape[0] == len(ids) - 1 + t_prime


def test_fusion_loss_trains_only_aligner():
    lm, aligner, tok, examples, speech = _fusion_setup()
    enc_before = {n: p.data.copy() for n, p in lm.named_parameters()}
    loss = fusion_loss(lm, aligner, speech, tok.encode(examples[0].text),
                       examples[0].loss_mask, tok)
    loss.backward()
    for name, p in lm.named_parameters():
        assert p.grad is None
        assert p.data.tobytes() == enc_before[name].tobytes()
    assert any(p.grad is not None for p in aligner.parameters())


def test_fusion_loss_bit_invariant_to_masked_out_targets():
    lm, aligner, tok, examples, speech = _fusion_setup(seed=3)
    ids = tok.encode(examples[0].text)
    mask = examples[0].loss_mask

    def run(targets):
        aligner.zero_grad()
        loss = fusion_loss(lm, aligner, speech, ids, mask, tok,
                           targets_override=targets)
        loss.backward()
        grads = np.concatenate([p.grad.reshape(-1) for p in aligner.parameters()])
        return loss.item(), grads

    base_loss, base_grads = run(None)
    perturbed = list(ids)
    rng = np.random.default_rng(0)
    for j, m in enumerate(mask):
        if not m:
            perturbed[j] = int(rng.integers(0, tok.vocab_size))
    loss2, grads2 = run(perturbed)
    assert loss2 == base_loss
    assert np.array_equal(base_grads, grads2)


def test_fusion_loss_requires_single_placeholder():
    lm, aligner, tok, examples, speech = _fusion_setup()
    bad = tok.encode("FINAL: waaw<|end|>")
    with pytest.raises(GraphError, match="placeholder"):
        fusion_loss(lm, aligner, speech, bad, [1] * len(bad), tok)


def test_fusion_loss_on_example_runs_through_encoder():
    enc = SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=16, n_layers=2),
                        n_classes=4, seed=1)
    examples, tok, _ = build_instruction_dataset([_record()], ["transcribe"])
    lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=16, n_layers=1,
                                 n_heads=2), seed=0)
    lm.freeze()
    aligner = SpeechAligner(2 * 16, 16, hidden=8, seed=2)
    feats = np.random.default_rng(3).standard_normal((20, 8))
    speech = extract_multilayer_features(enc, feats)
    loss = fusion_loss(lm, aligner, speech, tok.encode(examples[0].text),
                       examples[0].loss_mask, tok)
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# The fused-sequence builder against the two assemblies it replaced


def _reference_fusion_loss(lm, aligner, speech_features, ids, loss_mask, tokenizer):
    """fusion_loss as it assembled the fused sequence before _fused_sequence."""
    ids = list(ids)
    loss_mask = list(loss_mask)
    placeholder = tokenizer.token_id(ChatTemplate.audio_marker)
    positions = [i for i, t in enumerate(ids) if t == placeholder]
    assert len(positions) == 1
    p = positions[0]
    speech = aligner.align(speech_features)
    t_prime = speech.data.shape[0]
    before = lm.embed(np.asarray(ids[:p], dtype=np.int64)) if p else None
    after_ids = np.asarray(ids[p + 1 :], dtype=np.int64)
    after = lm.embed(after_ids) if len(after_ids) else None
    parts = [x for x in (before, speech, after) if x is not None]
    logits = lm.forward_embeddings(T.concat(parts, axis=0))
    rows, target_ids, mask = [], [], []
    for j in range(1, len(ids)):
        if j == p:
            continue
        rows.append((j if j < p else j + t_prime - 1) - 1)
        target_ids.append(ids[j])
        mask.append(loss_mask[j])
    picked = T.embedding_lookup(logits, np.asarray(rows, dtype=np.int64))
    return T.cross_entropy(picked, np.asarray(target_ids, dtype=np.int64),
                           np.asarray(mask, dtype=np.float64))


def _reference_generate_logits(lm, speech, prompt_ids, placeholder, generated):
    """One step of generate's loop before _fused_sequence."""
    p = prompt_ids.index(placeholder)
    parts = [lm.embed(np.asarray(prompt_ids[:p], dtype=np.int64)), speech]
    tail = list(prompt_ids[p + 1 :]) + generated
    if tail:
        parts.append(lm.embed(np.asarray(tail, dtype=np.int64)))
    return lm.forward_embeddings(T.concat(parts, axis=0))


def _reference_generate(lm, aligner, speech_features, mode, tokenizer, max_tokens):
    """generate's loop before _fused_sequence."""
    prompt_ids = tokenizer.encode(f"<|user|><|audio|> {_MODE_TABLE[mode][0]}<|assistant|>")
    placeholder = tokenizer.token_id("<|audio|>")
    end_id = tokenizer.token_id("<|end|>")
    with T.no_grad():
        speech = aligner.align(np.asarray(speech_features))
        generated, truncated = [], True
        for _ in range(max_tokens):
            logits = _reference_generate_logits(lm, speech, prompt_ids, placeholder,
                                                generated)
            nxt = int(np.argmax(logits.data[-1]))
            if nxt == end_id:
                truncated = False
                break
            generated.append(nxt)
    return tokenizer.decode(generated), truncated


def _loss_and_aligner_grads(loss_fn, aligner, *args):
    aligner.zero_grad()
    loss = loss_fn(*args)
    loss.backward()
    return loss.data.tobytes(), [p.grad.tobytes() for p in aligner.parameters()]


# normal, placeholder at position 0, and nothing after the placeholder
FUSION_TEXTS = [
    None,
    "<|audio|> Transcribe the audio.<|assistant|>FINAL: waaw<|end|>",
    "<|user|>FINAL: waaw<|end|><|assistant|><|audio|>",
]


@pytest.mark.parametrize("case", range(len(FUSION_TEXTS)))
@pytest.mark.parametrize("seed", [0, 5])
def test_fusion_loss_bit_identical_to_reference_assembly(case, seed):
    lm, aligner, tok, examples, speech = _fusion_setup(seed=seed)
    text = FUSION_TEXTS[case] or examples[1].text
    ids = tok.encode(text)
    mask = [1] * len(ids)
    args = (lm, aligner, speech, ids, mask, tok)
    got = _loss_and_aligner_grads(fusion_loss, aligner, *args)
    want = _loss_and_aligner_grads(_reference_fusion_loss, aligner, *args)
    assert got == want


@pytest.mark.parametrize("prompt", [
    "<|user|><|audio|> ab<|assistant|>",  # normal
    "<|audio|> ab<|assistant|>",  # placeholder at position 0
    "<|user|>ab<|audio|>",  # nothing after the placeholder
])
@pytest.mark.parametrize("generated", [[], [4, 5, 4]])
def test_fused_sequence_for_generation_bit_identical_to_reference(prompt, generated):
    lm, aligner, tok, _, speech = _fusion_setup(seed=2)
    prompt_ids = tok.encode(prompt)
    placeholder = tok.token_id("<|audio|>")
    generated = generated + [placeholder]  # a generated audio marker is an ordinary token
    with T.no_grad():
        aligned = aligner.align(speech)
        # the fused prompt once, then one embedding appended per token
        fused, _ = _fused_sequence(lm, aligned, prompt_ids, placeholder)
        for step in range(len(generated) + 1):
            got = lm.forward_embeddings(fused).data
            want = _reference_generate_logits(lm, aligned, prompt_ids, placeholder,
                                              generated[:step])
            assert got.tobytes() == want.data.tobytes(), step
            if step < len(generated):
                fused = T.concat([fused, lm.embed([generated[step]])], axis=0)


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_generate_matches_reference_loop(seed):
    lm, aligner, tok, _, speech = _fusion_setup(seed=seed)
    got = generate(lm, aligner, speech, "transcribe", tok, max_tokens=12)
    assert (got.text, got.truncated) == _reference_generate(lm, aligner, speech,
                                                            "transcribe", tok, 12)


@pytest.mark.parametrize("forced", ["<|end|>", "<|audio|>"])
def test_generate_matches_reference_loop_when_one_token_dominates(forced):
    """The end marker stops generation at once; a generated audio marker is an
    ordinary token, not a second placeholder."""
    lm, aligner, tok, _, speech = _fusion_setup(seed=4)
    lm.head.bias.data[tok.token_id(forced)] = 1e3
    got = generate(lm, aligner, speech, "transcribe", tok, max_tokens=5)
    want = _reference_generate(lm, aligner, speech, "transcribe", tok, 5)
    assert (got.text, got.truncated) == want
    assert got.truncated == (forced == "<|audio|>")


# ---------------------------------------------------------------------------
# The key/value cache against recomputing the whole sequence
#
# A cached step multiplies one row where the full pass multiplies a matrix,
# and BLAS rounds the two differently (gemv against gemm, and gemm rows by
# their place in its blocks), so cached logits match to 1e-12, not bit for
# bit; greedy tokens must be the same.


def _cache_setup(seed):
    """A two-layer LM and 40 aligned speech frames, so both the cache of a
    later layer and BLAS's matrix kernels take part."""
    tok = _tok([chat_prompt(_MODE_TABLE["transcribe"][0])])
    lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=32, n_layers=2,
                                 n_heads=4), seed=seed)
    lm.freeze()
    aligner = SpeechAligner(12, 32, hidden=16, seed=seed + 1)
    speech = np.random.default_rng(seed).standard_normal((40, 12))
    return lm, aligner, tok, speech


def _fresh_caches(lm):
    return [[] for _ in lm.blocks]


@pytest.mark.parametrize("seed", [0, 1])
def test_forward_with_empty_caches_is_bit_identical_to_forward_without(seed):
    lm, aligner, tok, speech = _cache_setup(seed)
    prompt_ids = tok.encode(chat_prompt(_MODE_TABLE["transcribe"][0]))
    with T.no_grad():
        fused, _ = _fused_sequence(lm, aligner.align(speech), prompt_ids,
                                   tok.token_id("<|audio|>"))
        want = lm.forward_embeddings(fused).data
        got = lm.forward_embeddings(fused, _fresh_caches(lm)).data
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_cached_steps_match_the_reference_logits(seed):
    lm, aligner, tok, speech = _cache_setup(seed)
    prompt_ids = tok.encode(chat_prompt(_MODE_TABLE["transcribe"][0]))
    placeholder = tok.token_id("<|audio|>")
    rng = np.random.default_rng(seed)
    generated = [int(t) for t in rng.integers(0, tok.vocab_size, 15)] + [placeholder]
    with T.no_grad():
        aligned = aligner.align(speech)
        rows, _ = _fused_sequence(lm, aligned, prompt_ids, placeholder)
        caches = _fresh_caches(lm)
        for step in range(len(generated) + 1):
            got = lm.forward_embeddings(rows, caches).data[-1]
            want = _reference_generate_logits(lm, aligned, prompt_ids, placeholder,
                                              generated[:step]).data[-1]
            if step == 0:  # the prefill is the full pass
                assert got.tobytes() == want.tobytes()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert np.argmax(got) == np.argmax(want), step
            if step < len(generated):
                rows = lm.embed([generated[step]])


def test_a_sequence_fed_in_pieces_gives_the_logits_of_the_whole():
    """Pieces of several rows after cached ones get the offset causal mask."""
    lm, _, tok, _ = _cache_setup(5)
    emb = lm.embed(np.random.default_rng(5).integers(0, tok.vocab_size, 30))
    caches = _fresh_caches(lm)
    with T.no_grad():
        whole = lm.forward_embeddings(emb).data
        pieces = [lm.forward_embeddings(Tensor(emb.data[lo:hi]), caches).data
                  for lo, hi in [(0, 11), (11, 14), (14, 15), (15, 30)]]
    np.testing.assert_allclose(np.concatenate(pieces), whole, rtol=0, atol=1e-12)
    assert [layer[0].data.shape for layer in caches] == [(4, 30, 8)] * 2


@pytest.mark.parametrize("seed", [0, 5])
def test_generate_with_a_larger_lm_matches_reference_loop(seed):
    lm, aligner, tok, speech = _cache_setup(seed)
    got = generate(lm, aligner, speech, "transcribe", tok, max_tokens=30)
    assert (got.text, got.truncated) == _reference_generate(lm, aligner, speech,
                                                            "transcribe", tok, 30)


def test_a_non_finite_cached_key_raises_naming_the_op():
    lm, aligner, tok, speech = _cache_setup(2)
    prompt_ids = tok.encode(chat_prompt(_MODE_TABLE["transcribe"][0]))
    caches = _fresh_caches(lm)
    with T.no_grad():
        fused, _ = _fused_sequence(lm, aligner.align(speech), prompt_ids,
                                   tok.token_id("<|audio|>"))
        lm.forward_embeddings(fused, caches)
        caches[1][0].data[0, 3] = np.nan  # one key row of layer 1, head 0
        with pytest.raises(NonFiniteError, match="op 'concat'"):
            lm.forward_embeddings(lm.embed([4]), caches)


def test_lm_causality_future_tokens_do_not_change_past_logits():
    tok = _tok(["abcdef"])
    lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=16, n_layers=2,
                                 n_heads=2), seed=5)
    from slmforge import tensor as T

    base = tok.encode("abcdef")
    changed = list(base)
    changed[-1] = tok.encode("a")[0]
    with T.no_grad():
        la = lm.forward_tokens(np.asarray(base)).data
        lb = lm.forward_tokens(np.asarray(changed)).data
    assert np.array_equal(la[:-1], lb[:-1])


def test_train_lm_reduces_loss():
    texts = ["FINAL: waaw<|end|>", "FINAL: deedeet<|end|>"]
    tok = _tok(texts)
    lm = CausalLM(CausalLMConfig(vocab_size=tok.vocab_size, dim=16, n_layers=1,
                                 n_heads=2), seed=0)
    history = train_lm(lm, [tok.encode(t) for t in texts], steps=60, lr=3e-3, seed=0)
    assert history[-1][1] < history[0][1]


def test_train_aligner_requires_frozen_lm():
    lm, aligner, tok, examples, speech = _fusion_setup()
    lm.unfreeze()
    with pytest.raises(ConfigError, match="frozen"):
        train_aligner(lm, aligner, [(speech, examples[0])], tok,
                      FusionTrainConfig(steps=1))


def test_train_aligner_names_the_first_trainable_lm_parameters():
    lm, aligner, tok, examples, speech = _fusion_setup()
    lm.final_norm.unfreeze()
    lm.head.bias.requires_grad = True
    with pytest.raises(ConfigError) as info:
        train_aligner(lm, aligner, [(speech, examples[0])], tok,
                      FusionTrainConfig(steps=1))
    assert "['final_norm.gain', 'final_norm.bias', 'head.bias']" in str(info.value)


# ---------------------------------------------------------------------------
# Generation and parsing


def test_generate_max_tokens_zero_sets_truncation():
    lm, aligner, tok, examples, speech = _fusion_setup()
    out = generate(lm, aligner, speech, "transcribe", tok, max_tokens=0)
    assert out.text == ""
    assert out.truncated


def test_generate_deterministic():
    lm, aligner, tok, examples, speech = _fusion_setup(seed=7)
    a = generate(lm, aligner, speech, "transcribe", tok, max_tokens=10)
    b = generate(lm, aligner, speech, "transcribe", tok, max_tokens=10)
    assert a.text == b.text
    assert a.truncated == b.truncated


def test_parse_cot_step_and_final():
    parsed = parse_cot_output("STEP[translate]: hello\nFINAL: waaw")
    assert parsed.steps == {"translate": "hello"}
    assert parsed.final == "waaw"
    assert not parsed.malformed


def test_parse_cot_missing_final_falls_back():
    parsed = parse_cot_output("some rambling\nmore text")
    assert parsed.malformed
    assert parsed.final == "more text"


def test_parse_cot_empty_text():
    parsed = parse_cot_output("")
    assert parsed.malformed
    assert parsed.final == ""


def test_parse_of_render_is_identity_for_every_mode():
    records = [_record()]
    examples, tok, _ = build_instruction_dataset(records, list(MODES))
    for ex in examples:
        assistant = ex.text.split("<|assistant|>")[1].replace("<|end|>", "")
        parsed = parse_cot_output(assistant)
        assert not parsed.malformed
        assert parsed.final == ex.final


def test_repetition_loop_detection():
    assert detect_repetition_loop("ab ab ab ab", n=1, k=3)
    assert not detect_repetition_loop("the quick brown fox", n=1, k=3)


def test_repetition_loop_boundary_exactly_k():
    text_k = "x y " * 3  # 3 repeats of the 2-gram
    text_k1 = "x y " * 2
    assert detect_repetition_loop(text_k.strip(), n=2, k=3)
    assert not detect_repetition_loop(text_k1.strip(), n=2, k=3)


def test_repetition_loop_validates_params():
    with pytest.raises(ConfigError):
        detect_repetition_loop("a", n=0, k=3)
    with pytest.raises(ConfigError):
        detect_repetition_loop("a", n=1, k=1)


# ---------------------------------------------------------------------------
# Fusion checkpoints


def test_fusion_save_load_round_trip(tmp_path):
    lm, aligner, tok, examples, speech = _fusion_setup(seed=11)
    path = tmp_path / "fusion.ckpt"
    encoder = SpeechEncoder(SpeechEncoderConfig(dim=12, n_layers=1), 3)
    save_checkpoint(FusionModel(encoder, lm, aligner, tok), path, {})
    back = load_checkpoint(path, FusionModel)
    assert back.tokenizer.symbols == tok.symbols
    a = generate(lm, aligner, speech, "transcribe", tok, max_tokens=8)
    b = generate(back.lm, back.aligner, speech, "transcribe", back.tokenizer, max_tokens=8)
    assert a.text == b.text
