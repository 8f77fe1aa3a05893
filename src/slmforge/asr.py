"""CTC fine-tuning, CTC decoding, and transcription normalization.

The CTC loss is the standard forward algorithm in log space over the
blank-interleaved target; its gradient with respect to the log-probability
lattice is the negated state-posterior, computed by the alpha-beta
recursion, so it plugs directly into the autodiff graph as a custom op.
Both recursions (Graves et al., ICML 2006) step over frames and are
vectorised over the lattice states: each frame is a few array operations on
the previous row, with the states that may skip a blank found once. Each
state adds its stay/advance term first and its skip term second, the
association order of a scalar per-state loop, so alpha, beta, the loss and
its gradient are bit-identical to that loop's (the tests keep it as the
reference).

A fine-tuned ``CtcModel`` is saved and loaded by ``nn.save_checkpoint`` and
``nn.load_checkpoint(path, CtcModel)``; its checkpoint record is the
encoder's followed by the vocabulary.
"""

from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, GraphError
from .fileio import atomic_open, parse_field, read_json, read_text
from .metrics import wer
from .nn import Adam, Linear, Module, train_step
from .pretrain import SpeechEncoder
from .tensor import Tensor, _accumulate, _make

log = logging.getLogger(__name__)

BLANK = 0
BLANK_SYMBOL = "<blank>"

_NEG_INF = -np.inf


@dataclass
class Vocab:
    """Ordered symbol list with the blank reserved at index 0."""

    symbols: list

    def __post_init__(self):
        if not self.symbols or self.symbols[0] != BLANK_SYMBOL:
            raise ConfigError(f"vocab must start with {BLANK_SYMBOL!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("vocab symbols are not unique")
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    @classmethod
    def from_texts(cls, texts) -> "Vocab":
        chars = sorted({c for text in texts for c in text})
        return cls([BLANK_SYMBOL] + chars)

    @classmethod
    def from_file(cls, path) -> "Vocab":
        lines = read_text(path).removesuffix("\n").split("\n")
        try:
            return cls(lines)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def to_file(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.symbols) + "\n")

    def encode(self, text: str) -> list:
        out = []
        for ch in text:
            if ch not in self._index:
                raise ConfigError(f"symbol {ch!r} not in vocab")
            out.append(self._index[ch])
        return out

    def decode(self, ids) -> str:
        return "".join(self.symbols[i] for i in ids)


# ---------------------------------------------------------------------------
# CTC loss


def _extend_with_blanks(target):
    ext = [BLANK]
    for t in target:
        ext.append(int(t))
        ext.append(BLANK)
    return ext


def ctc_required_frames(target) -> int:
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def _skip_states(ext) -> np.ndarray:
    """Indices of the states that may also be entered from two states back:
    a symbol that differs from the symbol before the blank between them."""
    ext = np.asarray(ext)
    return np.flatnonzero((ext[2:] != BLANK) & (ext[2:] != ext[:-2])) + 2


def _ctc_alpha(logp: np.ndarray, ext) -> np.ndarray:
    lp = logp[:, ext]
    t_len, s_len = lp.shape
    skip = _skip_states(ext)
    alpha = np.full((t_len, s_len), _NEG_INF)
    alpha[0, :2] = lp[0, :2]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(prev[1:], prev[:-1])
        acc[skip] = np.logaddexp(acc[skip], prev[skip - 2])
        alpha[t] = acc + lp[t]
    return alpha


def _ctc_beta(logp: np.ndarray, ext) -> np.ndarray:
    lp = logp[:, ext]
    t_len, s_len = lp.shape
    skip = _skip_states(ext)
    beta = np.full((t_len, s_len), _NEG_INF)
    beta[t_len - 1, -2:] = 0.0
    for t in range(t_len - 2, -1, -1):
        nxt = beta[t + 1] + lp[t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(nxt[:-1], nxt[1:])
        acc[skip - 2] = np.logaddexp(acc[skip - 2], nxt[skip])
        beta[t] = acc
    return beta


def ctc_loss(log_probs: Tensor, target) -> Tensor:
    """Negative log probability of ``target`` under the CTC path sum.

    ``log_probs`` is a (T, V) lattice with blank at column 0; the target
    must contain no blanks. Raises (rather than returning infinity) when T
    is too short to emit the target.
    """
    target = [int(t) for t in target]
    if not isinstance(log_probs, Tensor):
        log_probs = Tensor(log_probs)
    if log_probs.data.ndim != 2:
        raise GraphError(f"log_probs must be (T, V), got {log_probs.data.shape}")
    t_len, v = log_probs.data.shape
    if any(t == BLANK for t in target):
        raise ConfigError("target contains the blank symbol")
    if any(not (0 < t < v) for t in target):
        raise ConfigError(f"target symbol out of range for vocab of {v}")
    required = ctc_required_frames(target)
    if t_len < max(required, 1):
        raise ConfigError(
            f"{t_len} frames cannot emit a target needing at least {required}"
        )

    ext = _extend_with_blanks(target)
    logp = log_probs.data
    alpha = _ctc_alpha(logp, ext)
    s_len = len(ext)
    total = alpha[t_len - 1, s_len - 1]
    if s_len > 1:
        total = np.logaddexp(total, alpha[t_len - 1, s_len - 2])
    loss = -total

    def backward(grad):
        beta = _ctc_beta(logp, ext)
        occupancy = alpha + beta - total  # log posterior per (t, state)
        gamma = np.zeros_like(logp)
        for s, sym in enumerate(ext):
            gamma[:, sym] += np.exp(occupancy[:, s])
        _accumulate(log_probs, grad * (-gamma))

    return _make(np.asarray(loss), (log_probs,), backward, "ctc_loss")


# ---------------------------------------------------------------------------
# Decoding


def collapse_path(path) -> list:
    out = []
    prev = None
    for p in path:
        if p != prev and p != BLANK:
            out.append(int(p))
        prev = p
    return out


def ctc_greedy_decode(log_probs) -> list:
    """Per-frame argmax, collapse adjacent repeats, drop blanks."""
    data = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    return collapse_path(data.argmax(axis=1))


def ctc_beam_decode(log_probs, beam_width: int) -> list:
    """Prefix beam search over labelings; probabilities sum over all paths.

    beam_width = 1 is defined as the greedy decode of the collapsed best
    path. Each frame scores every live beam staying as it is and every
    extension of every beam by every non-blank symbol in a few array
    operations over (beams, symbols) (Hannun et al., arXiv:1408.2873). An
    extension that is itself a live beam merges into that beam: each
    probability is then the log-sum of at most two terms, and logaddexp is
    symmetric, so the order of the merges does not matter. The candidates
    whose total reaches the beam_width-th best are sorted by (-total,
    prefix), so ties at any pruning or at the end go to the
    lexicographically smaller prefix.
    """
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if beam_width == 1:
        return ctc_greedy_decode(log_probs)
    data = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    symbols = np.arange(1, data.shape[1])

    # live beams, best first: prefix, log P ending in blank, in its last symbol
    prefixes = [()]
    pb = np.zeros(1)
    pnb = np.full(1, _NEG_INF)
    for row in data:
        last = np.array([p[-1] if p else BLANK for p in prefixes])
        total = np.logaddexp(pb, pnb)
        stay_pb = total + row[BLANK]
        stay_pnb = np.where(last != BLANK, pnb + row[last], _NEG_INF)
        # extending by the beam's last symbol needs a blank in between
        ext = np.where(symbols == last[:, None], pb[:, None], total[:, None]) + row[1:]
        fresh = np.ones(ext.shape, dtype=bool)
        index = {p: i for i, p in enumerate(prefixes)}
        for i, p in enumerate(prefixes):
            j = index.get(p[:-1]) if p else None
            if j is not None:
                stay_pnb[i] = np.logaddexp(stay_pnb[i], ext[j, p[-1] - 1])
                fresh[j, p[-1] - 1] = False

        n_live = len(prefixes)
        ext_beam, ext_col = np.nonzero(fresh)
        cand_pb = np.concatenate([stay_pb, np.full(ext_beam.size, _NEG_INF)])
        cand_pnb = np.concatenate([stay_pnb, ext[fresh]])
        cost = -np.logaddexp(cand_pb, cand_pnb)
        keep = np.arange(cost.size)
        if cost.size > beam_width:
            keep = np.flatnonzero(cost <= np.partition(cost, beam_width - 1)[beam_width - 1])

        def prefix(k):
            if k < n_live:
                return prefixes[k]
            e = k - n_live
            return prefixes[ext_beam[e]] + (int(ext_col[e]) + 1,)

        ranked = sorted((cost[k], prefix(k), k) for k in keep.tolist())[:beam_width]
        prefixes = [p for _, p, _ in ranked]
        kept = [k for _, _, k in ranked]
        pb, pnb = cand_pb[kept], cand_pnb[kept]
    return list(prefixes[0])


# ---------------------------------------------------------------------------
# Transcription normalization


DEFAULT_PUNCTUATION = string.punctuation + "¡¿‘’“”…«»"


@dataclass
class NormalizationRules:
    lowercase: bool = True
    punctuation: str = DEFAULT_PUNCTUATION
    lexicon: dict = field(default_factory=dict)


def load_lexicon(path) -> NormalizationRules:
    """Load a digit-string -> words lexicon (plain JSON object); errors name
    the file and the offending keys."""
    entries = read_json(path)
    if not isinstance(entries, dict):
        raise ConfigError(f"lexicon {path} must hold a JSON object, got {json.dumps(entries)}")
    bad = [k for k, words in entries.items() if not (k.isdigit() and isinstance(words, str))]
    if bad:
        raise ConfigError(f"lexicon {path}: entries must map digit strings to words, "
                          f"got {bad[:3]}")
    return NormalizationRules(lexicon=entries)


def builtin_rules(language: str = "en") -> NormalizationRules:
    path = Path(__file__).parent / "data" / f"number_lexicon_{language}.json"
    if not path.exists():
        raise ConfigError(f"no built-in lexicon for language {language!r}")
    return load_lexicon(path)


def _verbalize_run(run: str, lexicon: dict) -> str:
    words = []
    i = 0
    while i < len(run):
        match = None
        for j in range(len(run), i, -1):
            if run[i:j] in lexicon:
                match = run[i:j]
                break
        if match is None:
            raise ConfigError(f"digit run {run!r} has no lexicon coverage")
        words.append(lexicon[match])
        i += len(match)
    return " ".join(words)


def normalize_text(text: str, rules: NormalizationRules) -> str:
    """Lowercase, strip punctuation, verbalize digit runs, collapse whitespace.

    Digit runs are replaced greedily by the longest lexicon key, falling
    back digit by digit; a run that cannot be covered at all raises an
    error naming it. The function is idempotent.
    """
    if rules.lowercase:
        text = text.lower()
    if rules.punctuation:
        text = text.translate(str.maketrans("", "", rules.punctuation))

    def sub(match):
        return " " + _verbalize_run(match.group(0), rules.lexicon) + " "

    text = re.sub(r"\d+", sub, text)
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Fine-tuning


class CtcModel(Module):
    """Pretrained speech encoder with a linear CTC head on its final layer.

    The pretraining-only parameters (mask embedding and masked-prediction
    head) take no part in fine-tuning and stay frozen.
    """

    kind = "asr"

    def __init__(self, encoder: SpeechEncoder, vocab: Vocab, seed: int = 0):
        super().__init__()
        self.encoder = encoder
        self.head = Linear(encoder.cfg.dim, len(vocab), np.random.default_rng(seed + 17))
        self.vocab = vocab
        encoder.mask_embed.freeze()
        encoder.head.freeze()

    def log_probs(self, features: np.ndarray) -> Tensor:
        states = self.encoder.forward(features, mask=None)
        return T.log_softmax(self.head(self.encoder.final_norm(states[-1])))

    def transcribe(self, features: np.ndarray, beam_width: int = 1) -> str:
        with T.no_grad():
            lattice = self.log_probs(features)
        return self.vocab.decode(ctc_beam_decode(lattice, beam_width))

    def record(self) -> dict:
        """The encoder's checkpoint record, then ``vocab``, the CTC symbol list."""
        return {**self.encoder.record(),
                "vocab": json.dumps(self.vocab.symbols, ensure_ascii=False)}

    @classmethod
    def from_record(cls, path, meta: dict) -> "CtcModel":
        return cls(SpeechEncoder.from_record(path, meta),
                   parse_field(path, meta, "vocab", lambda v: Vocab(json.loads(v))))


@dataclass
class FinetuneConfig:
    steps: int = 2000
    lr: float = 3e-3
    batch_size: int = 2
    eval_every: int = 50


def finetune_ctc(encoder: SpeechEncoder, examples, vocab: Vocab,
                 cfg: FinetuneConfig = FinetuneConfig(), heldout=None,
                 stop_at_zero_wer: bool = False, seed: int = 0):
    """CTC fine-tuning over (features, transcript) pairs.

    Transcripts must already be normalized; a symbol outside the vocab is an
    error naming it. ``heldout`` pairs, when given, are scored with WER at
    every evaluation point. ``seed`` draws the CTC head and the batches.
    Returns (model, history) with history rows of (step, loss,
    train_wer_or_None).
    """
    encoded = []
    for features, transcript in examples:
        ids = vocab.encode(transcript)  # raises naming any unknown symbol
        encoded.append((np.asarray(features, dtype=np.float64), transcript, ids))

    model = CtcModel(encoder, vocab, seed=seed)
    opt = Adam(model, lr=cfg.lr)
    rng = np.random.default_rng(seed)
    history = []
    for step in range(1, cfg.steps + 1):
        picks = rng.choice(len(encoded), size=min(cfg.batch_size, len(encoded)),
                           replace=False)
        loss = train_step(opt, [ctc_loss(model.log_probs(encoded[i][0]), encoded[i][2])
                                for i in picks])

        if step % cfg.eval_every == 0 or step == cfg.steps:
            refs = [t for _, t, _ in encoded]
            hyps = [model.transcribe(f) for f, _, _ in encoded]
            train_wer = wer(refs, hyps)
            if heldout:
                held_refs = [t for _, t in heldout]
                held_hyps = [model.transcribe(np.asarray(f)) for f, _ in heldout]
                log.info("step %d heldout WER %.3f", step, wer(held_refs, held_hyps))
            history.append((step, loss, train_wer))
            if stop_at_zero_wer and train_wer == 0.0:
                break
        else:
            history.append((step, loss, None))
    return model, history
