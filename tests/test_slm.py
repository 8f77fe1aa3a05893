"""Fusion model: instruction data, aligner, splicing, generation, parsing."""

import json
import re

import numpy as np
import pytest

from conftest import (
    bench_inputs, completion_mask, finite_diff_grad, masked_cross_entropy, masked_fusion_loss,
    max_rel_error, mul, tsum,
)

from slmforge.asr import BLANK_SYMBOL, Vocab
from slmforge.curate import Manifest, SegmentRecord
from slmforge.errors import ConfigError, GraphError, NonFiniteError
from slmforge.nn import Module, checkpoint_bytes, load_checkpoint, save_checkpoint
from slmforge.pretrain import SpeechEncoder, SpeechEncoderConfig
from slmforge import tensor as T
from slmforge.slm import (
    _MODE_TABLE,
    ASSISTANT_ID,
    AUDIO_ID,
    END_ID,
    MODES,
    _fused_sequence,
    CausalLM,
    CausalLMConfig,
    ChatTemplate,
    FusionModel,
    FusionTrainConfig,
    SpeechAligner,
    build_instruction_dataset,
    chat_prompt,
    completion_start,
    detect_repetition_loop,
    extract_multilayer_features,
    fusion_loss,
    generate,
    parse_cot_output,
    read_instruction_dataset,
    render_chat,
    train_aligner,
    train_lm,
    write_instruction_dataset,
)
from slmforge.tensor import Tensor


def _record(id="r0", transcript="waaw", translation="yes"):
    return SegmentRecord(
        id=id, source_path="x.wav", offset_s=0.0, duration_s=4.0, speaker="S0",
        quality_score=4.0, sample_rate=16000, transcript=transcript,
        translation=translation,
    )


def _tok(texts):
    return Vocab.from_texts(texts, ChatTemplate.specials)


# ---------------------------------------------------------------------------
# Vocabulary and template


def _reference_encode(vocab, text):
    """``encode`` as it was for the LM: every reserved symbol tried in turn at
    every position (kept as the equivalence reference)."""
    ids = []
    pos = 0
    while pos < len(text):
        for marker in vocab.reserved:
            if text.startswith(marker, pos):
                ids.append(vocab.symbols.index(marker))
                pos += len(marker)
                break
        else:
            ch = text[pos]
            if ch not in vocab.symbols:
                raise ConfigError(f"character {ch!r} not in vocab")
            ids.append(vocab.symbols.index(ch))
            pos += 1
    return ids


def _from_texts(reserved):
    # the reserved symbols are stripped, the other characters sorted after them
    first, last = reserved[0], reserved[-1]
    vocab = Vocab.from_texts([f"b{last}a", "", f"{first}c\n"], reserved)
    assert vocab.symbols == [*reserved, "\n", "a", "b", "c"]
    assert len(vocab) == len(reserved) + 4 and vocab.charset() == "\nabc"
    for i, symbol in enumerate(reserved):
        assert vocab.encode(symbol) == [vocab.symbols.index(symbol)] == [i]


def _every_character_of(reserved):
    return Vocab([*reserved, *sorted(set("".join(reserved) + " \nbx"))], reserved)


def _round_trips(reserved):
    # fragments of the reserved symbols included, read as the reference reads them
    vocab = _every_character_of(reserved)
    first = reserved[0]
    texts = ["", "".join(reserved), "".join(reversed(reserved)) + "x\n"]
    for r in reserved:
        texts += [r[:-1], r[1:], r[:5], r[-2:], r[: len(r) // 2], f"b{r[:-1]}x", f"<{r}>",
                  f"{r[:-2]}{r}", r + r, f"x\n{r}\n", f"{r[:2]}{first}"]
    for text in texts:
        ids = vocab.encode(text)
        assert ids == _reference_encode(vocab, text), text
        assert vocab.decode(ids) == text


def _unknown_character(reserved):
    # the first unknown character is named, as the reference names it
    vocab = _every_character_of(reserved)
    for text, ch in [("abz", "z"), (f"{reserved[-1]}é", "é"), (f"{reserved[0][:4]}\t", "\t")]:
        with pytest.raises(ConfigError) as got:
            vocab.encode(text)
        with pytest.raises(ConfigError) as want:
            _reference_encode(vocab, text)
        assert str(got.value) == str(want.value) == f"character {ch!r} not in vocab"


def _rejected(symbols, reserved):
    with pytest.raises(ConfigError) as err:
        Vocab(symbols, reserved)
    return str(err.value)


def _duplicate_and_wide_symbols(reserved):
    first, last = reserved[0], reserved[-1]
    assert _rejected([*reserved, "a", "b", "a"], reserved) == "vocab symbol 'a' appears twice"
    for symbol in ["ab", "", first, 7]:
        assert _rejected([*reserved, "a", symbol], reserved) == (
            f"vocab symbol {symbol!r} after {last!r} is not one character")


def _wrong_prefix(reserved):
    starts = f"vocab must start with {', '.join(map(repr, reserved))}"
    for symbols in [["a", *reserved], [reserved[0].upper(), *reserved[1:]],
                    list(reserved[:-1])]:
        assert _rejected(symbols, reserved) == starts
    for symbols, kind in [({"a": 1}, "dict"), ("".join(reserved), "str"),
                          (tuple(reserved), "tuple")]:
        assert _rejected(symbols, reserved) == f"vocab must be a list of symbols, not a {kind}"


@pytest.mark.parametrize("behaviour", [_from_texts, _round_trips, _unknown_character,
                                       _duplicate_and_wide_symbols, _wrong_prefix],
                         ids=lambda behaviour: behaviour.__name__.strip("_"))
@pytest.mark.parametrize("reserved", [(BLANK_SYMBOL,), ChatTemplate.specials],
                         ids=["ctc", "chat"])
def test_one_vocab_class_behaves_alike_for_ctc_and_the_lm(reserved, behaviour):
    """The behaviour table of the one vocabulary: each row runs with the
    CTC blank and with the chat markers as the reserved prefix."""
    behaviour(reserved)


def _bench_sft_texts(tmp_path, monkeypatch, seed):
    """The texts of every SFT file the benchmark builds at ``seed``: from the
    train and decode corpora and from the data workload's kept segments."""
    inputs = bench_inputs(monkeypatch)
    records = []
    for name, corpus in (("train", inputs.TRAIN_SPEC), ("decode", inputs.DECODE_SPEC)):
        inputs.make_corpus(tmp_path / name, seed, corpus)
        records += Manifest.read(tmp_path / name / "manifest.jsonl").records
    for i, kept in enumerate(inputs.make_recordings(tmp_path / "data", seed)["kept"]):
        records.append(_record(id=f"kept{i}", transcript=kept["transcript"],
                               translation=inputs.translate(kept["transcript"])))
    examples, tok, skipped = build_instruction_dataset(records, list(inputs.SFT_MODES))
    assert not skipped and len(examples) == len(records) * len(inputs.SFT_MODES)
    return tok, [ex.text for ex in examples]


def test_encode_equals_the_marker_loop_on_every_bench_sft_text(tmp_path, monkeypatch):
    tok, texts = _bench_sft_texts(tmp_path, monkeypatch, seed=1)
    assert any("\n" in text for text in texts)
    for text in texts:
        assert tok.encode(text) == _reference_encode(tok, text)


def test_render_contains_exactly_one_placeholder_and_final():
    text = render_chat("Transcribe the audio.", [("translate", "hello")], "waaw")
    assert text.count("<|audio|>") == 1
    assert "STEP[translate]: hello\n" in text
    assert "FINAL: waaw<|end|>" in text


def test_completion_starts_after_the_assistant_marker_and_runs_to_the_end():
    text = render_chat("Transcribe the audio.", [], "waaw")
    tok = _tok([text])
    ids = tok.encode(text)
    start = completion_start(ids)
    assert ids[start - 1] == tok.symbols.index(ChatTemplate.assistant_marker)
    assert tok.decode(ids[start:]) == "FINAL: waaw<|end|>"


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
    ids = tok.encode(ex.text)
    assert tok.decode(ids[completion_start(ids):]) == "FINAL: waaw<|end|>"


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


@pytest.mark.parametrize("transcript", ["ab<|", "|>ab", "a<|end"])
def test_a_field_holding_a_marker_fragment_is_kept_and_encodes(transcript):
    modes = ["transcribe", "phonemize_transcribe"]
    examples, tok, skipped = build_instruction_dataset([_record(transcript=transcript)], modes)
    assert skipped == []
    assert [ex.mode for ex in examples] == modes
    for ex in examples:
        ids = tok.encode(ex.text)
        assert tok.decode(ids) == ex.text
        completion = tok.decode(ids[completion_start(ids):])
        assert completion.endswith(f"FINAL: {transcript}<|end|>")


@pytest.mark.parametrize("transcript, marker", [
    ("ab<|end|>cd", "<|end|>"),
    ("x<|a<|user|>udio|>", "<|user|>"),
])
def test_a_field_holding_a_chat_marker_is_skipped_with_the_reason(transcript, marker):
    examples, _, skipped = build_instruction_dataset(
        [_record(transcript=transcript)], ["transcribe", "translate", "transcribe_translate"])
    assert [ex.mode for ex in examples] == ["translate"]
    reason = f"holds chat marker {marker!r}"
    assert skipped == [("r0", "transcribe", reason), ("r0", "transcribe_translate", reason)]


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


def test_phonemize_and_paraphrase_steps_restate_the_transcript():
    examples, _, _ = build_instruction_dataset(
        [_record()], ["phonemize_transcribe", "paraphrase_translate"])
    assert "STEP[phonemize]: waaw\n" in examples[0].text
    assert "STEP[paraphrase]: waaw\n" in examples[1].text


def test_dataset_file_round_trip(tmp_path):
    examples, tok, _ = build_instruction_dataset([_record()], ["transcribe", "translate"])
    path = tmp_path / "sft.jsonl"
    write_instruction_dataset(path, examples, tok, {"modes": ["transcribe", "translate"]})
    back, tok2, header = read_instruction_dataset(path)
    assert [ex.text for ex in back] == [ex.text for ex in examples]
    assert tok2.symbols == tok.symbols
    assert header["modes"] == ["transcribe", "translate"]


def test_rows_that_still_hold_a_loss_mask_read_as_rows_without_one(tmp_path):
    # SFT rows stored their completion mask before train_aligner derived it
    examples, tok, _ = build_instruction_dataset([_record()], ["transcribe", "translate"])
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    write_instruction_dataset(new, examples, tok, {"modes": ["transcribe", "translate"]})
    header, *rows = [json.loads(line) for line in new.read_text().splitlines()]
    for row in rows:
        row["loss_mask"] = completion_mask(tok.encode(row["text"]), tok)
    old.write_text("".join(json.dumps(d) + "\n" for d in [header, *rows]))
    back_new, tok_new, header_new = read_instruction_dataset(new)
    back_old, tok_old, header_old = read_instruction_dataset(old)
    assert back_old == back_new == examples
    assert tok_old.symbols == tok_new.symbols and header_old == header_new


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

    loss = tsum(mul(aligner.align(feats), Tensor(cot)))
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
    # a row is the transformer layers' hidden states side by side, for
    # encoder frames 2j and then 2j + 1; the 15th frame has no pair
    enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(0).standard_normal((30, 8))
    out = extract_multilayer_features(enc, feats)
    states = enc.forward(feats)
    frames = np.concatenate([s.data for s in states[1:]], axis=1)
    assert len(frames) == 15
    assert np.array_equal(out, np.concatenate([frames[0:14:2], frames[1:14:2]], axis=1))


def test_single_layer_selection_equals_hidden_states():
    # each layer's block of columns is that layer's hidden states, unchanged
    enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(1).standard_normal((30, 8))
    out = extract_multilayer_features(enc, feats)
    states = enc.forward(feats)
    dim, width = ENC_CFG.dim, ENC_CFG.n_layers * ENC_CFG.dim
    for layer in range(1, ENC_CFG.n_layers + 1):
        block = out[:, (layer - 1) * dim : layer * dim]
        assert np.array_equal(block, states[layer].data[0:14:2])
        block = out[:, width + (layer - 1) * dim : width + layer * dim]
        assert np.array_equal(block, states[layer].data[1:14:2])


def test_default_selection_all_transformer_layers_at_half_the_encoder_frame_rate():
    enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(2).standard_normal((30, 8))
    out = extract_multilayer_features(enc, feats)
    assert out.shape == (enc.output_len(30) // 2, 2 * ENC_CFG.n_layers * 16)


def _unstacked_multilayer_features(encoder, features):
    """``extract_multilayer_features`` before it stacked frame pairs: one row
    per encoder frame, every transformer layer's state side by side."""
    with T.no_grad():
        states = encoder.forward(np.asarray(features, dtype=np.float64), mask=None)
    return np.concatenate([state.data for state in states[1:]], axis=1)


@pytest.mark.parametrize("n_in", [4, 5, 6, 7, 8, 9, 30, 31, 46])
@pytest.mark.parametrize("n_layers", [1, 3])
def test_stacked_rows_are_byte_equal_to_unstacked_frame_pairs(n_in, n_layers):
    # n_in log-mel frames give T' = n_in // 2 encoder frames: even and odd
    # T', 2 and 3 among them; an odd T' loses its last frame
    enc = SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=16, n_layers=n_layers),
                        n_classes=4, seed=n_in)
    feats = np.random.default_rng(n_in).standard_normal((n_in, 8))
    ref = _unstacked_multilayer_features(enc, feats)
    assert len(ref) == n_in // 2
    out = extract_multilayer_features(enc, feats)
    assert out.shape == (len(ref) // 2, 2 * n_layers * 16)
    for j, row in enumerate(out):
        assert row.tobytes() == np.concatenate([ref[2 * j], ref[2 * j + 1]]).tobytes()


@pytest.mark.parametrize("n_in", [2, 3])
def test_one_encoder_frame_makes_no_speech_row(n_in):
    enc = SpeechEncoder(ENC_CFG, n_classes=4, seed=0)
    feats = np.random.default_rng(0).standard_normal((n_in, 8))
    with pytest.raises(GraphError, match="the speech aligner needs at least 2 encoder "
                                         "frames, got 1"):
        extract_multilayer_features(enc, feats)


# ---------------------------------------------------------------------------
# Fusion loss


# an encoder whose speech rows are 12 wide: two stacked frames of one 6-wide layer
WIDTH_12 = SpeechEncoderConfig(dim=6, n_layers=1)


def _fusion_setup(seed=0):
    """A FusionModel with a frozen one-block LM and an 8-wide aligner, its
    tokenizer's examples, and 5 speech rows for its 12-wide aligner input."""
    examples, tok, _ = build_instruction_dataset(
        [_record(), _record(id="r1", transcript="deedeet", translation="ok")],
        ["transcribe"],
    )
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16, n_layers=1,
                                 n_heads=2), seed=seed)
    lm.freeze()
    model = FusionModel(SpeechEncoder(WIDTH_12, 3), lm, tok, aligner_hidden=8, seed=seed + 1)
    rng = np.random.default_rng(seed)
    speech = rng.standard_normal((5, 12))
    return model, examples, speech


def test_fused_sequence_length_arithmetic():
    model, examples, speech = _fusion_setup()
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
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
        fused = T.concat(emb_parts)
        logits = lm.forward_embeddings(fused)
    assert logits.data.shape[0] == len(ids) - 1 + t_prime


def test_fusion_loss_trains_only_aligner():
    model, examples, speech = _fusion_setup()
    lm_before = {n: p.data.copy() for n, p in model.lm.named_parameters()}
    loss = fusion_loss(model, speech, model.tokenizer.encode(examples[0].text))
    loss.backward()
    for name, p in model.lm.named_parameters():
        assert p.grad is None
        assert p.data.tobytes() == lm_before[name].tobytes()
    assert any(p.grad is not None for p in model.aligner.parameters())


def test_fusion_loss_equals_the_masked_reference_with_random_targets_off_the_completion():
    model, examples, speech = _fusion_setup(seed=3)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    ids = tok.encode(examples[0].text)
    mask = completion_mask(ids, tok)
    rng = np.random.default_rng(0)
    perturbed = [t if m else int(rng.integers(0, len(tok))) for t, m in zip(ids, mask)]
    assert perturbed != ids
    got = _loss_and_aligner_grads(fusion_loss, aligner, model, speech, ids)
    want = _loss_and_aligner_grads(masked_fusion_loss, aligner, lm, aligner, speech, ids, mask,
                                   tok, perturbed)
    assert got == want


def test_fusion_loss_requires_single_placeholder():
    model, examples, speech = _fusion_setup()
    bad = model.tokenizer.encode("FINAL: waaw<|end|>")
    with pytest.raises(ConfigError, match=re.escape("holds 0 <|audio|> markers, not one")):
        fusion_loss(model, speech, bad)


def test_fusion_loss_on_example_runs_through_encoder():
    enc = SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=16, n_layers=2),
                        n_classes=4, seed=1)
    examples, tok, _ = build_instruction_dataset([_record()], ["transcribe"])
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16, n_layers=1,
                                 n_heads=2), seed=0)
    lm.freeze()
    model = FusionModel(enc, lm, tok, aligner_hidden=8, seed=2)
    assert model.aligner.d_in == 2 * 2 * 16  # 2 frames x 2 layers
    feats = np.random.default_rng(3).standard_normal((20, 8))
    speech = extract_multilayer_features(enc, feats)
    loss = fusion_loss(model, speech, tok.encode(examples[0].text))
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# The fused-sequence builder against the two assemblies it replaced


def _reference_fusion_loss(lm, aligner, speech_features, ids, loss_mask, tokenizer):
    """fusion_loss as it assembled the fused sequence before _fused_sequence,
    cross-entropy taking the rows of the positions ``loss_mask`` selects."""
    ids = list(ids)
    loss_mask = list(loss_mask)
    placeholder = tokenizer.symbols.index(ChatTemplate.audio_marker)
    positions = [i for i, t in enumerate(ids) if t == placeholder]
    assert len(positions) == 1
    p = positions[0]
    speech = aligner.align(speech_features)
    t_prime = speech.data.shape[0]
    before = lm.embed(np.asarray(ids[:p], dtype=np.int64)) if p else None
    after_ids = np.asarray(ids[p + 1 :], dtype=np.int64)
    after = lm.embed(after_ids) if len(after_ids) else None
    parts = [x for x in (before, speech, after) if x is not None]
    logits = lm.forward_embeddings(T.concat(parts))
    rows, target_ids = [], []
    for j in range(1, len(ids)):
        if j == p or not loss_mask[j]:
            continue
        rows.append((j if j < p else j + t_prime - 1) - 1)
        target_ids.append(ids[j])
    picked = T.embedding_lookup(logits, np.asarray(rows, dtype=np.int64))
    return T.cross_entropy(picked, target_ids)


def _reference_generate_logits(lm, speech, prompt_ids, placeholder, generated):
    """One step of generate's loop before _fused_sequence."""
    p = prompt_ids.index(placeholder)
    parts = [lm.embed(np.asarray(prompt_ids[:p], dtype=np.int64)), speech]
    tail = list(prompt_ids[p + 1 :]) + generated
    if tail:
        parts.append(lm.embed(np.asarray(tail, dtype=np.int64)))
    return lm.forward_embeddings(T.concat(parts))


def _reference_generate(lm, aligner, speech_features, mode, tokenizer, max_tokens):
    """generate's loop before _fused_sequence."""
    prompt_ids = tokenizer.encode(f"<|user|><|audio|> {_MODE_TABLE[mode][0]}<|assistant|>")
    placeholder = tokenizer.symbols.index("<|audio|>")
    end_id = tokenizer.symbols.index("<|end|>")
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


# normal, placeholder at position 0, and the assistant marker right after it
FUSION_TEXTS = [
    None,
    "<|audio|> Transcribe the audio.<|assistant|>FINAL: waaw<|end|>",
    "<|user|><|audio|><|assistant|>FINAL: waaw<|end|>",
]


@pytest.mark.parametrize("case", range(len(FUSION_TEXTS)))
@pytest.mark.parametrize("seed", [0, 5])
def test_fusion_loss_bit_identical_to_reference_assembly(case, seed):
    model, examples, speech = _fusion_setup(seed=seed)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    ids = tok.encode(FUSION_TEXTS[case] or examples[1].text)
    got = _loss_and_aligner_grads(fusion_loss, aligner, model, speech, ids)
    want = _loss_and_aligner_grads(_reference_fusion_loss, aligner, lm, aligner, speech, ids,
                                   completion_mask(ids, tok), tok)
    assert got == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fusion_loss_equals_the_masked_reference_on_every_bench_sft_text(
        tmp_path, monkeypatch, seed):
    """Scoring ``ids[completion_start:]`` gives the loss and aligner-gradient
    bytes the completion mask gave, on every text of every mode the
    benchmark writes."""
    tok, texts = _bench_sft_texts(tmp_path, monkeypatch, seed)
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16, n_layers=1, n_heads=2),
                  seed=seed)
    lm.freeze()
    model = FusionModel(SpeechEncoder(WIDTH_12, 3), lm, tok, aligner_hidden=8, seed=seed + 1)
    aligner = model.aligner
    speech = np.random.default_rng(seed).standard_normal((7, 12))
    for text in texts:
        ids = tok.encode(text)
        got = _loss_and_aligner_grads(fusion_loss, aligner, model, speech, ids)
        want = _loss_and_aligner_grads(masked_fusion_loss, aligner, lm, aligner, speech, ids,
                                       completion_mask(ids, tok), tok)
        assert got == want, text


@pytest.mark.parametrize("prompt", [
    "<|user|><|audio|> ab<|assistant|>",  # normal
    "<|audio|> ab<|assistant|>",  # placeholder at position 0
    "<|user|>ab<|audio|>",  # nothing after the placeholder
])
@pytest.mark.parametrize("generated", [[], [4, 5, 4]])
def test_fused_sequence_for_generation_bit_identical_to_reference(prompt, generated):
    model, _, speech = _fusion_setup(seed=2)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    prompt_ids = tok.encode(prompt)
    placeholder = tok.symbols.index("<|audio|>")
    generated = generated + [placeholder]  # a generated audio marker is an ordinary token
    with T.no_grad():
        aligned = aligner.align(speech)
        # the fused prompt once, then one embedding appended per token
        fused = _fused_sequence(lm, aligned, prompt_ids)
        for step in range(len(generated) + 1):
            got = lm.forward_embeddings(fused).data
            want = _reference_generate_logits(lm, aligned, prompt_ids, placeholder,
                                              generated[:step])
            assert got.tobytes() == want.data.tobytes(), step
            if step < len(generated):
                fused = T.concat([fused, lm.embed([generated[step]])])


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_generate_matches_reference_loop(seed):
    model, _, speech = _fusion_setup(seed=seed)
    got = generate(model, speech, "transcribe", max_tokens=12)
    assert (got.text, got.truncated) == _reference_generate(
        model.lm, model.aligner, speech, "transcribe", model.tokenizer, 12)


@pytest.mark.parametrize("forced", ["<|end|>", "<|audio|>"])
def test_generate_matches_reference_loop_when_one_token_dominates(forced):
    """The end marker stops generation at once; a generated audio marker is an
    ordinary token, not a second placeholder."""
    model, _, speech = _fusion_setup(seed=4)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    lm.head.bias.data[tok.symbols.index(forced)] = 1e3
    got = generate(model, speech, "transcribe", max_tokens=5)
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
    """A FusionModel with a two-layer LM, and 40 speech rows, so both the
    cache of a later layer and BLAS's matrix kernels take part."""
    tok = _tok([chat_prompt(_MODE_TABLE["transcribe"][0])])
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=32, n_layers=2,
                                 n_heads=4), seed=seed)
    lm.freeze()
    model = FusionModel(SpeechEncoder(WIDTH_12, 3), lm, tok, aligner_hidden=16, seed=seed + 1)
    speech = np.random.default_rng(seed).standard_normal((40, 12))
    return model, speech


def _fresh_caches(lm):
    return [[] for _ in lm.blocks]


@pytest.mark.parametrize("seed", [0, 1])
def test_forward_with_empty_caches_is_bit_identical_to_forward_without(seed):
    model, speech = _cache_setup(seed)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    prompt_ids = tok.encode(chat_prompt(_MODE_TABLE["transcribe"][0]))
    with T.no_grad():
        fused = _fused_sequence(lm, aligner.align(speech), prompt_ids)
        want = lm.forward_embeddings(fused).data
        got = lm.forward_embeddings(fused, _fresh_caches(lm)).data
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_cached_steps_match_the_reference_logits(seed):
    model, speech = _cache_setup(seed)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    prompt_ids = tok.encode(chat_prompt(_MODE_TABLE["transcribe"][0]))
    placeholder = tok.symbols.index("<|audio|>")
    rng = np.random.default_rng(seed)
    generated = [int(t) for t in rng.integers(0, len(tok), 15)] + [placeholder]
    with T.no_grad():
        aligned = aligner.align(speech)
        rows = _fused_sequence(lm, aligned, prompt_ids)
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
    model, _ = _cache_setup(5)
    lm, tok = model.lm, model.tokenizer
    emb = lm.embed(np.random.default_rng(5).integers(0, len(tok), 30))
    caches = _fresh_caches(lm)
    with T.no_grad():
        whole = lm.forward_embeddings(emb).data
        pieces = [lm.forward_embeddings(Tensor(emb.data[lo:hi]), caches).data
                  for lo, hi in [(0, 11), (11, 14), (14, 15), (15, 30)]]
    np.testing.assert_allclose(np.concatenate(pieces), whole, rtol=0, atol=1e-12)
    assert [layer[0].data.shape for layer in caches] == [(30, 32)] * 2


@pytest.mark.parametrize("seed", [0, 5])
def test_generate_with_a_larger_lm_matches_reference_loop(seed):
    model, speech = _cache_setup(seed)
    got = generate(model, speech, "transcribe", max_tokens=30)
    assert (got.text, got.truncated) == _reference_generate(
        model.lm, model.aligner, speech, "transcribe", model.tokenizer, 30)


def test_a_non_finite_cached_key_raises_naming_the_op():
    model, speech = _cache_setup(2)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    prompt_ids = tok.encode(chat_prompt(_MODE_TABLE["transcribe"][0]))
    caches = _fresh_caches(lm)
    with T.no_grad():
        fused = _fused_sequence(lm, aligner.align(speech), prompt_ids)
        lm.forward_embeddings(fused, caches)
        caches[1][0].data[3, 0] = np.nan  # key row 3 of layer 1, in head 0's columns
        with pytest.raises(NonFiniteError, match="op 'concat'"):
            lm.forward_embeddings(lm.embed([4]), caches)


# ---------------------------------------------------------------------------
# Logits at the scored rows only, against the full pass they replaced
#
# The LM's last block multiplies only the rows asked for, and BLAS rounds a
# row by the row count it multiplies, so the loss and gradients match the
# full pass to 1e-12 relative, not bit for bit; greedy text must be the same.


def _full_pass_fusion_loss(lm, aligner, speech_features, ids, loss_mask, tokenizer):
    """fusion_loss as it was before it asked the LM for the scored rows only:
    logits at every fused row, then the rows before each target picked."""
    ids = list(ids)
    speech = aligner.align(speech_features)
    t_prime = speech.data.shape[0]
    placeholder = tokenizer.symbols.index(ChatTemplate.audio_marker)
    p = ids.index(placeholder)
    logits = lm.forward_embeddings(_fused_sequence(lm, speech, ids))
    targets = np.asarray(ids, dtype=np.int64)
    j = np.arange(1, len(ids))
    j = j[j != p]
    rows = np.where(j < p, j - 1, j + t_prime - 2)
    picked = T.embedding_lookup(logits, rows)
    return masked_cross_entropy(picked, targets[j], np.asarray(loss_mask)[j])


def _full_pass_generate(lm, aligner, speech_features, mode, tokenizer, max_tokens):
    """generate as it was before its prefill asked for the last row only."""
    prompt_ids = tokenizer.encode(chat_prompt(_MODE_TABLE[mode][0]))
    end_id = tokenizer.symbols.index(ChatTemplate.end_marker)
    with T.no_grad():
        speech = aligner.align(np.asarray(speech_features))
        rows = _fused_sequence(lm, speech, prompt_ids)
        caches = [[] for _ in lm.blocks]
        generated, truncated = [], True
        for _ in range(max_tokens):
            nxt = int(np.argmax(lm.forward_embeddings(rows, caches).data[-1]))
            if nxt == end_id:
                truncated = False
                break
            generated.append(nxt)
            rows = lm.embed([nxt])
    return tokenizer.decode(generated), truncated


def _scored_fusion_setup(seed, n_layers):
    """A bench-sized fusion case: 150 speech frames, a completion of a few
    dozen tokens, an LM of ``n_layers`` blocks."""
    rec = _record(transcript="wa aw deed waaw ta wee da", translation="yes ok")
    examples, tok, _ = build_instruction_dataset([rec], ["transcribe_translate"])
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=32, n_layers=n_layers,
                                 n_heads=2), seed=seed)
    lm.freeze()
    # two stacked frames of one 12-wide encoder layer: 24-wide speech rows
    model = FusionModel(SpeechEncoder(SpeechEncoderConfig(dim=12, n_layers=1), 3), lm, tok,
                        aligner_hidden=64, seed=seed + 1)
    speech = np.random.default_rng(seed).standard_normal((150, 24))
    ids = tok.encode(examples[0].text)
    return model, speech, ids


def _loss_and_grads(loss_fn, aligner, *args):
    aligner.zero_grad()
    loss = loss_fn(*args)
    loss.backward()
    return loss.item(), [p.grad for p in aligner.parameters()]


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_fusion_loss_at_scored_rows_matches_the_full_pass(n_layers, seed):
    model, speech, ids = _scored_fusion_setup(seed, n_layers)
    lm, aligner, tok = model.lm, model.aligner, model.tokenizer
    mask = completion_mask(ids, tok)
    assert 0 < sum(mask) < (len(ids) + len(speech)) // 2  # most fused rows unscored
    loss, grads = _loss_and_grads(fusion_loss, aligner, model, speech, ids)
    want_loss, want_grads = _loss_and_grads(_full_pass_fusion_loss, aligner, lm, aligner,
                                            speech, ids, mask, tok)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for got, want in zip(grads, want_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fusion_and_prefill_ask_the_lm_for_the_rows_they_read(monkeypatch):
    model, speech, ids = _scored_fusion_setup(1, 2)
    tok = model.tokenizer
    asked = []
    forward = CausalLM.forward_embeddings

    def recording(self, emb, caches=None, rows=None):
        asked.append((emb.data.shape[0], None if rows is None else list(rows)))
        return forward(self, emb, caches, rows)

    monkeypatch.setattr(CausalLM, "forward_embeddings", recording)
    fusion_loss(model, speech, ids)
    scored = [j for j, m in enumerate(completion_mask(ids, tok)) if m]
    assert asked == [(len(ids) - 1 + len(speech), [j + len(speech) - 2 for j in scored])]
    asked.clear()
    generate(model, speech, "transcribe", max_tokens=3)
    prompt_rows = len(tok.encode(chat_prompt(_MODE_TABLE["transcribe"][0]))) - 1 + len(speech)
    assert asked[0] == (prompt_rows, [prompt_rows - 1])
    assert all(step == (1, None) for step in asked[1:])


@pytest.mark.parametrize("cached", [0, 9], ids=["prefill", "after-cache"])
def test_forward_at_rows_keeps_every_rows_keys_and_values(cached):
    """Logits at ``rows`` match the full pass's rows to 1e-12, and the
    caches hold the same key and value bytes as after the full pass."""
    model, _ = _cache_setup(6)
    lm, tok = model.lm, model.tokenizer
    emb = lm.embed(np.random.default_rng(6).integers(0, len(tok), 50))
    rows = [40, 3, 20]  # into the 41 or 50 rows of the second call
    results = []
    with T.no_grad():
        for ask in (rows, None):
            caches = _fresh_caches(lm)
            if cached:
                lm.forward_embeddings(Tensor(emb.data[:cached]), caches)
            logits = lm.forward_embeddings(Tensor(emb.data[cached:]), caches, ask).data
            results.append((logits, [[a.data.tobytes() for a in c] for c in caches]))
    (got, got_caches), (full, want_caches) = results
    want = full[rows]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert got_caches == want_caches


@pytest.mark.parametrize("setup, seed", [
    *(("small", s) for s in (0, 3, 7, 11)), *(("larger", s) for s in (0, 5)),
])
def test_generate_matches_the_full_prefill_text(setup, seed):
    if setup == "small":
        model, _, speech = _fusion_setup(seed=seed)
    else:
        model, speech = _cache_setup(seed)
    got = generate(model, speech, "transcribe", max_tokens=30)
    assert (got.text, got.truncated) == _full_pass_generate(
        model.lm, model.aligner, speech, "transcribe", model.tokenizer, 30)


def test_lm_causality_future_tokens_do_not_change_past_logits():
    tok = _tok(["abcdef"])
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16, n_layers=2,
                                 n_heads=2), seed=5)
    from slmforge import tensor as T

    base = tok.encode("abcdef")
    changed = list(base)
    changed[-1] = tok.encode("a")[0]
    with T.no_grad():
        la = lm.forward_embeddings(lm.embed(base)).data
        lb = lm.forward_embeddings(lm.embed(changed)).data
    assert np.array_equal(la[:-1], lb[:-1])


def test_train_lm_reduces_loss():
    texts = ["FINAL: waaw<|end|>", "FINAL: deedeet<|end|>"]
    tok = _tok(texts)
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16, n_layers=1,
                                 n_heads=2), seed=0)
    history = train_lm(lm, [tok.encode(t) for t in texts], steps=60, lr=3e-3, seed=0)
    assert history[-1][1] < history[0][1]


class _FusionBundle(FusionModel):
    """``FusionModel`` as it was before it built its aligner: the caller
    sized and drew the aligner and passed it in."""

    def __init__(self, encoder, lm, aligner, tokenizer):
        Module.__init__(self)
        self.encoder = encoder
        self.lm = lm
        self.aligner = aligner
        self.tokenizer = tokenizer


@pytest.mark.parametrize("hidden, seed", [(8, 1), (None, 4)])
def test_a_fusion_model_builds_the_aligner_its_callers_built(hidden, seed):
    """``FusionModel(encoder, lm, tokenizer, hidden, seed)`` writes the
    checkpoint bytes of the bundle around ``SpeechAligner(width, dim, hidden,
    seed=seed)`` that it replaced: the same parameter order, record and
    aligner draws."""
    tok = _tok(["waaw deedeet"])
    encoder = SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=6, n_layers=2), 3, seed=2)
    lm = CausalLM(CausalLMConfig(vocab_size=len(tok), dim=16, n_layers=1), seed=3)
    # two stacked frames of two 6-wide layers
    old = _FusionBundle(encoder, lm, SpeechAligner(2 * 2 * 6, 16, hidden, seed=seed), tok)
    new = FusionModel(encoder, lm, tok, hidden, seed=seed)
    assert [name for name, _ in new.named_parameters()] == [
        name for name, _ in old.named_parameters()]
    assert checkpoint_bytes(new.state_arrays(), new.record()) == checkpoint_bytes(
        old.state_arrays(), old.record())


def test_a_fusion_model_rejects_a_tokenizer_without_the_chat_markers_first():
    """The LM's callers take the chat markers' ids as constants, so its
    tokenizer must reserve ``ChatTemplate.specials``; a CTC vocabulary,
    which reserves the blank, is refused."""
    ctc = Vocab.from_texts(["waaw"], (BLANK_SYMBOL,))
    lm = CausalLM(CausalLMConfig(vocab_size=len(ctc), dim=16, n_layers=1), seed=3)
    with pytest.raises(ConfigError, match="must reserve the chat markers .*, not <blank>$"):
        FusionModel(SpeechEncoder(WIDTH_12, 3), lm, ctc)
    tok = _tok(["waaw"])
    assert [tok.encode(m) for m in (ChatTemplate.assistant_marker, ChatTemplate.end_marker,
                                    ChatTemplate.audio_marker)] == [[ASSISTANT_ID], [END_ID],
                                                                    [AUDIO_ID]]


def test_train_aligner_freezes_the_encoder_and_lm_and_trains_the_aligner_alone():
    model, examples, speech = _fusion_setup(seed=6)
    for p in [*model.encoder.parameters(), *model.lm.parameters()]:
        p.requires_grad = True
    frozen = {name: p.data.tobytes() for name, p in model.named_parameters()
              if not name.startswith("aligner.")}
    aligner_before = checkpoint_bytes(model.aligner.state_arrays())
    history = train_aligner(model, [(speech, ex) for ex in examples],
                            FusionTrainConfig(steps=3, lr=1e-2), seed=1)
    assert [step for step, _ in history] == [1, 2, 3]
    for name, p in model.named_parameters():
        if name.startswith("aligner."):
            assert p.requires_grad and p.grad is not None, name
        else:
            assert not p.requires_grad and p.grad is None, name
            assert p.data.tobytes() == frozen[name], name
    assert checkpoint_bytes(model.aligner.state_arrays()) != aligner_before


# ---------------------------------------------------------------------------
# Generation and parsing


def test_generate_max_tokens_zero_sets_truncation():
    model, examples, speech = _fusion_setup()
    out = generate(model, speech, "transcribe", max_tokens=0)
    assert out.text == ""
    assert out.truncated


def test_generate_deterministic():
    model, examples, speech = _fusion_setup(seed=7)
    a = generate(model, speech, "transcribe", max_tokens=10)
    b = generate(model, speech, "transcribe", max_tokens=10)
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
    assert detect_repetition_loop("so a b c a b c a b c")
    assert not detect_repetition_loop("the quick brown fox")
    assert not detect_repetition_loop("a b c a b d a b c")


def test_repetition_loop_boundary_exactly_k():
    assert detect_repetition_loop(" ".join(["x y z"] * 3))  # a 3-gram three times
    assert not detect_repetition_loop(" ".join(["x y z"] * 2))


# ---------------------------------------------------------------------------
# Fusion checkpoints


def test_fusion_save_load_round_trip(tmp_path):
    model, examples, speech = _fusion_setup(seed=11)
    path = tmp_path / "fusion.ckpt"
    save_checkpoint(model, path, {})
    back = load_checkpoint(path, FusionModel)
    assert back.tokenizer.symbols == model.tokenizer.symbols
    assert checkpoint_bytes(back.state_arrays(), back.record()) == checkpoint_bytes(
        model.state_arrays(), model.record())
    a = generate(model, speech, "transcribe", max_tokens=8)
    b = generate(back, speech, "transcribe", max_tokens=8)
    assert a.text == b.text
