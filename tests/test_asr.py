"""CTC loss against exhaustive path enumeration, decoders, normalization."""

import itertools

import numpy as np
import pytest

from conftest import finite_diff_grad, max_rel_error

from slmforge import asr
from slmforge.asr import (
    BLANK,
    CtcModel,
    FinetuneConfig,
    NormalizationRules,
    Vocab,
    builtin_rules,
    collapse_path,
    ctc_beam_decode,
    ctc_greedy_decode,
    ctc_loss,
    ctc_required_frames,
    finetune_ctc,
    normalize_text,
)
from slmforge.errors import ConfigError
from slmforge.nn import load_checkpoint, save_checkpoint
from slmforge.pretrain import SpeechEncoder, SpeechEncoderConfig
from slmforge.tensor import Tensor


# ---------------------------------------------------------------------------
# Oracle: exhaustive enumeration over all V^T paths


def exhaustive_ctc_nll(logp, target):
    t_len, v = logp.shape
    target = list(target)
    total = -np.inf
    for path in itertools.product(range(v), repeat=t_len):
        if collapse_path(path) == target:
            total = np.logaddexp(total, sum(logp[t, path[t]] for t in range(t_len)))
    return -total


def random_lattice(rng, t_len, v):
    logits = rng.standard_normal((t_len, v))
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


# ---------------------------------------------------------------------------
# CTC loss


def test_ctc_single_frame_uniform():
    logp = np.full((1, 2), np.log(0.5))
    loss = ctc_loss(Tensor(logp), [1])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_ctc_two_frames_uniform_three_paths():
    # paths (a,a), (a,-), (-,a): P = 3 * 0.25, loss = -ln 0.75
    logp = np.full((2, 2), np.log(0.5))
    loss = ctc_loss(Tensor(logp), [1])
    assert loss.item() == pytest.approx(-np.log(0.75), abs=1e-12)
    assert loss.item() == pytest.approx(0.2877, abs=5e-5)


def test_ctc_matches_exhaustive_oracle_small_grid():
    rng = np.random.default_rng(0)
    for v in (2, 3, 4):
        for t_len in (1, 2, 3, 4):
            logp = random_lattice(rng, t_len, v)
            for length in (1, 2, 3):
                for target in itertools.product(range(1, v), repeat=length):
                    if ctc_required_frames(target) > t_len:
                        continue
                    got = ctc_loss(Tensor(logp), list(target)).item()
                    want = exhaustive_ctc_nll(logp, list(target))
                    assert got == pytest.approx(want, abs=1e-9)


def test_ctc_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    logp = random_lattice(rng, 4, 3)
    target = [1, 2]

    x = Tensor(logp.copy(), requires_grad=True)
    loss = ctc_loss(x, target)
    loss.backward()

    numeric = finite_diff_grad(
        lambda arr: ctc_loss(Tensor(arr), target).item(), logp.copy()
    )
    assert max_rel_error(x.grad, numeric) < 1e-4


def test_ctc_probability_conservation_exhaustive():
    # exp of the CTC total over every label sequence of length <= T sums to 1
    rng = np.random.default_rng(2)
    t_len, v = 3, 3
    logp = random_lattice(rng, t_len, v)
    total = 0.0
    for length in range(0, t_len + 1):
        for target in itertools.product(range(1, v), repeat=length):
            if ctc_required_frames(target) > t_len:
                continue
            total += np.exp(-ctc_loss(Tensor(logp), list(target)).item())
    assert total == pytest.approx(1.0, abs=1e-6)


def test_ctc_too_short_is_error_not_infinity():
    logp = np.full((2, 3), np.log(1 / 3))
    with pytest.raises(ConfigError):
        ctc_loss(Tensor(logp), [1, 1])  # repeat needs a separator: min 3 frames


def test_ctc_rejects_blank_in_target():
    logp = np.full((3, 3), np.log(1 / 3))
    with pytest.raises(ConfigError):
        ctc_loss(Tensor(logp), [BLANK, 1])


# ---------------------------------------------------------------------------
# Vectorised recursion against the scalar per-(frame, state) loops it replaced


def scalar_ctc_alpha(logp, ext):
    t_len, s_len = logp.shape[0], len(ext)
    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, 0] = logp[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = logp[0, ext[1]]
    for t in range(1, t_len):
        for s in range(s_len):
            acc = alpha[t - 1, s]
            if s >= 1:
                acc = np.logaddexp(acc, alpha[t - 1, s - 1])
            if s >= 2 and ext[s] != BLANK and ext[s] != ext[s - 2]:
                acc = np.logaddexp(acc, alpha[t - 1, s - 2])
            alpha[t, s] = acc + logp[t, ext[s]]
    return alpha


def scalar_ctc_beta(logp, ext):
    t_len, s_len = logp.shape[0], len(ext)
    beta = np.full((t_len, s_len), -np.inf)
    beta[t_len - 1, s_len - 1] = 0.0
    if s_len > 1:
        beta[t_len - 1, s_len - 2] = 0.0
    for t in range(t_len - 2, -1, -1):
        for s in range(s_len):
            acc = beta[t + 1, s] + logp[t + 1, ext[s]]
            if s + 1 < s_len:
                acc = np.logaddexp(acc, beta[t + 1, s + 1] + logp[t + 1, ext[s + 1]])
            if s + 2 < s_len and ext[s + 2] != BLANK and ext[s + 2] != ext[s]:
                acc = np.logaddexp(acc, beta[t + 1, s + 2] + logp[t + 1, ext[s + 2]])
            beta[t, s] = acc
    return beta


def _loss_and_grad(logp, target):
    x = Tensor(logp.copy(), requires_grad=True)
    loss = ctc_loss(x, target)
    loss.backward()
    return loss.data, x.grad


def assert_bit_identical_to_scalar(monkeypatch, logp, target):
    ext = asr._extend_with_blanks(target)
    assert np.array_equal(asr._ctc_alpha(logp, ext), scalar_ctc_alpha(logp, ext))
    assert np.array_equal(asr._ctc_beta(logp, ext), scalar_ctc_beta(logp, ext))
    loss, grad = _loss_and_grad(logp, target)
    monkeypatch.setattr(asr, "_ctc_alpha", scalar_ctc_alpha)
    monkeypatch.setattr(asr, "_ctc_beta", scalar_ctc_beta)
    ref_loss, ref_grad = _loss_and_grad(logp, target)
    assert np.array_equal(loss, ref_loss)
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize(
    "t_len, v, target",
    [
        (5, 4, []),  # empty target: a single blank state
        (1, 4, [2]),  # one frame
        (1, 3, []),
        (9, 2, [1, 1, 1]),  # two-symbol vocab, repeats
        (7, 2, [1]),
        (12, 5, [1, 1, 2, 2, 3]),  # adjacent repeats disable the skip
        (6, 6, [1, 2, 2, 3, 1]),  # exactly ctc_required_frames
        (3, 4, [3, 3]),
        (40, 8, [1, 2, 3, 1, 2, 3, 7, 7, 6]),
    ],
)
def test_ctc_recursion_bit_identical_to_scalar_loops(monkeypatch, t_len, v, target):
    assert t_len >= ctc_required_frames(target)
    rng = np.random.default_rng(1000 * t_len + 10 * v + len(target))
    assert_bit_identical_to_scalar(monkeypatch, random_lattice(rng, t_len, v), target)


def test_ctc_recursion_bit_identical_to_scalar_loops_large(monkeypatch):
    rng = np.random.default_rng(7)
    target = [int(c) for c in rng.integers(1, 30, size=60)]
    target[10:13] = [5, 5, 5]  # some skips disabled
    assert_bit_identical_to_scalar(monkeypatch, random_lattice(rng, 200, 30), target)


# ---------------------------------------------------------------------------
# Decoders


def test_greedy_collapse_rule():
    # frames argmax a, a, -, b  ->  "ab"
    logp = np.log(np.array([
        [0.1, 0.8, 0.1],
        [0.1, 0.8, 0.1],
        [0.8, 0.1, 0.1],
        [0.1, 0.1, 0.8],
    ]))
    assert ctc_greedy_decode(logp) == [1, 2]


def test_greedy_all_blank_empty():
    logp = np.log(np.array([[0.9, 0.05, 0.05]] * 4))
    assert ctc_greedy_decode(logp) == []


def test_greedy_blank_separates_repeats():
    logp = np.log(np.array([
        [0.1, 0.9],
        [0.9, 0.1],
        [0.1, 0.9],
    ]))
    assert ctc_greedy_decode(logp) == [1, 1]


def test_greedy_output_never_contains_blank():
    rng = np.random.default_rng(3)
    for _ in range(20):
        out = ctc_greedy_decode(random_lattice(rng, 6, 4))
        assert BLANK not in out


def test_greedy_recollapse_identity_without_separated_repeats():
    # re-collapse changes nothing unless the path used blank-separated
    # repeats (those legitimately yield adjacent duplicates, see the
    # [a, -, a] -> "aa" case above)
    rng = np.random.default_rng(30)
    checked = 0
    while checked < 20:
        lattice = random_lattice(rng, 6, 4)
        path = list(lattice.argmax(axis=1))
        out = ctc_greedy_decode(lattice)
        separated_repeat = any(
            a == c and b == BLANK for a, b, c in zip(path, path[1:], path[2:])
        )
        if separated_repeat:
            continue
        assert collapse_path(out) == out
        checked += 1


def test_beam_width_one_equals_greedy():
    rng = np.random.default_rng(4)
    for _ in range(10):
        logp = random_lattice(rng, 5, 3)
        assert ctc_beam_decode(logp, 1) == ctc_greedy_decode(logp)


def test_beam_full_width_matches_exhaustive_argmax_labeling():
    rng = np.random.default_rng(5)
    for trial in range(5):
        t_len, v = 4, 3
        logp = random_lattice(rng, t_len, v)

        scores = {}
        for length in range(0, t_len + 1):
            for target in itertools.product(range(1, v), repeat=length):
                if ctc_required_frames(target) > t_len:
                    continue
                scores[target] = -exhaustive_ctc_nll(logp, list(target))
        best = max(scores.items(), key=lambda kv: (kv[1], [-x for x in kv[0]]))

        got = tuple(ctc_beam_decode(logp, beam_width=v**t_len))
        assert scores[got] == pytest.approx(best[1], abs=1e-9)


def test_beam_tie_breaks_to_lexicographically_smaller_prefix():
    # uniform single frame: labelings (), (1,), (2,) all tie at P = 1/3
    logp = np.full((1, 3), np.log(1.0 / 3.0))
    assert ctc_beam_decode(logp, beam_width=8) == []
    # force non-empty candidates to tie: frame can't be blank
    logp2 = np.log(np.array([[1e-300, 0.5, 0.5]]))
    assert ctc_beam_decode(logp2, beam_width=8) == [1]


def _reference_ctc_beam_decode(log_probs, beam_width):
    """ctc_beam_decode as it grew prefixes in dicts, one symbol at a time."""
    data = np.asarray(log_probs)
    t_len, v = data.shape
    beams = {(): (0.0, -np.inf)}
    for t in range(t_len):
        nxt = {}

        def bump(prefix, pb=None, pnb=None):
            old_pb, old_pnb = nxt.get(prefix, (-np.inf, -np.inf))
            if pb is not None:
                old_pb = np.logaddexp(old_pb, pb)
            if pnb is not None:
                old_pnb = np.logaddexp(old_pnb, pnb)
            nxt[prefix] = (old_pb, old_pnb)

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            bump(prefix, pb=total + data[t, BLANK])
            if prefix:
                bump(prefix, pnb=pnb + data[t, prefix[-1]])
            for c in range(1, v):
                if prefix and c == prefix[-1]:
                    bump(prefix + (c,), pnb=pb + data[t, c])
                else:
                    bump(prefix + (c,), pnb=total + data[t, c])

        ranked = sorted(
            nxt.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0])
        )
        beams = dict(ranked[:beam_width])

    best = min(beams.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]))
    return list(best[0])


def _tied_lattice(rng, t_len, v, scale):
    """A log-softmax lattice of logits rounded to whole numbers, so symbols,
    paths and prefixes tie often."""
    logits = np.round(rng.standard_normal((t_len, v)) * scale)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(8))
def test_beam_equals_the_dict_reference_on_tied_random_lattices(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        t_len, v = int(rng.integers(1, 201)), int(rng.integers(2, 31))
        width = int(rng.integers(2, 9))
        logp = _tied_lattice(rng, t_len, v, scale=float(rng.choice([0.5, 1.0, 3.0])))
        assert ctc_beam_decode(logp, width) == _reference_ctc_beam_decode(logp, width), \
            (t_len, v, width)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_len, v, width", [
    (1, 2, 2), (1, 30, 8), (200, 2, 8), (3, 5, 125), (40, 30, 2), (7, 4, 4),
])
def test_beam_equals_the_dict_reference_at_the_edges(t_len, v, width):
    rng = np.random.default_rng(t_len * 1000 + v * 10 + width)
    for logp in (random_lattice(rng, t_len, v), _tied_lattice(rng, t_len, v, 1.0),
                 np.full((t_len, v), -np.log(v))):
        assert ctc_beam_decode(logp, width) == _reference_ctc_beam_decode(logp, width)


def test_beam_rejects_zero_width():
    with pytest.raises(ConfigError):
        ctc_beam_decode(np.zeros((2, 2)), 0)


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_lowercase_and_punctuation():
    rules = NormalizationRules()
    assert normalize_text("Hello, World!", rules) == "hello world"


def test_normalize_digits_via_lexicon():
    rules = NormalizationRules(lexicon={"23": "twenty three", "2": "two", "3": "three"})
    assert normalize_text("23", rules) == "twenty three"


def test_normalize_digit_fallback_digit_by_digit():
    rules = NormalizationRules(lexicon={"4": "four", "7": "seven"})
    assert normalize_text("47", rules) == "four seven"


def test_normalize_uncovered_digit_run_errors_naming_run():
    rules = NormalizationRules(lexicon={})
    with pytest.raises(ConfigError, match="404"):
        normalize_text("got 404 here", rules)


def test_normalize_idempotent():
    rules = builtin_rules("en")
    texts = ["Hello, World!", "We saw 23 birds.", "  spaced   out  ", "MiXeD 7"]
    for text in texts:
        once = normalize_text(text, rules)
        assert normalize_text(once, rules) == once


def test_builtin_english_lexicon_composites():
    rules = builtin_rules("en")
    assert normalize_text("42", rules) == "forty two"
    assert normalize_text("107", rules) == "ten seven"  # greedy longest then fallback


def test_vocab_round_trip_and_blank(tmp_path):
    vocab = Vocab.from_texts(["abc", "cow"])
    assert vocab.symbols[0] == "<blank>"
    path = tmp_path / "vocab.txt"
    vocab.to_file(path)
    assert Vocab.from_file(path).symbols == vocab.symbols


def test_vocab_encode_unknown_symbol_names_it():
    vocab = Vocab.from_texts(["abc"])
    with pytest.raises(ConfigError, match="'q'"):
        vocab.encode("aqc")


# ---------------------------------------------------------------------------
# Fine-tuning (small smoke; the full overfit run lives in acceptance)


def _tone_features(freqs, seg_frames=8, dim=8, seed=0):
    """Synthetic separable features: one block per symbol frequency."""
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((5, dim)) * 2.0
    rows = []
    for f in freqs:
        rows.extend([protos[f]] * seg_frames)
    return np.array(rows) + 0.05 * rng.standard_normal((len(rows), dim))


def _toy_asr_set(n=4, seed=0):
    rng = np.random.default_rng(seed)
    alphabet = "abcde"
    seen = set()
    examples = []
    while len(examples) < n:
        idx = tuple(rng.integers(0, 5, size=3))
        if idx in seen:
            continue
        seen.add(idx)
        text = "".join(alphabet[i] for i in idx)
        examples.append((_tone_features(idx, seed=seed + len(examples)), text))
    return examples


def test_finetune_epochs_zero_keeps_encoder_bits():
    enc = SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=16), n_classes=4, seed=0)
    before = {n: p.data.copy() for n, p in enc.named_parameters()}
    examples = _toy_asr_set(2)
    vocab = Vocab.from_texts([t for _, t in examples])
    model, history = finetune_ctc(enc, examples, vocab, FinetuneConfig(steps=0))
    assert history == []
    for name, p in model.encoder.named_parameters():
        assert p.data.tobytes() == before[name].tobytes()


def test_finetune_rejects_out_of_vocab_transcript():
    enc = SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=16), n_classes=4, seed=0)
    vocab = Vocab(["<blank>", "a", "b"])
    with pytest.raises(ConfigError, match="'q'"):
        finetune_ctc(enc, [(np.zeros((20, 8)), "aq")], vocab, FinetuneConfig(steps=1))


def test_finetune_small_overfit_reaches_zero_wer(tmp_path):
    examples = _toy_asr_set(4, seed=1)
    vocab = Vocab.from_texts([t for _, t in examples])
    enc = SpeechEncoder(SpeechEncoderConfig(input_dim=8, dim=16), n_classes=4, seed=1)
    cfg = FinetuneConfig(steps=800, lr=3e-3, batch_size=2, eval_every=25)
    model, history = finetune_ctc(enc, examples, vocab, cfg, stop_at_zero_wer=True, seed=1)
    evals = [w for _, _, w in history if w is not None]
    assert evals[-1] == 0.0, f"train WER stuck at {evals[-1]}"

    path = tmp_path / "asr.ckpt"
    save_checkpoint(model, path, {})
    back = load_checkpoint(path, CtcModel)
    feats, text = examples[0]
    assert back.transcribe(feats) == text
