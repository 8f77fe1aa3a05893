"""CTC fine-tuning, CTC decoding, transcription normalization, and
``Vocab``, the one character vocabulary of the CTC head and of the LM.

The CTC loss takes the CTC head's logits, normalises them to a
log-probability lattice itself, and runs the standard forward algorithm in
log space over the blank-interleaved target. Its gradient with respect to
the logits is the softmax minus the state posterior, so it plugs directly
into the autodiff graph as one custom op. One recursion (Graves et al.,
ICML 2006) gives the path log-sums into every state before each frame's
emission: on the lattice it is alpha less the emission, and on the lattice
reversed in time and state it is beta. It steps over frames and is
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
import re
import string
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import require_at_least
from .errors import ConfigError, GraphError
from .fileio import parse_field, read_json, read_text
from .metrics import wer
from .nn import Adam, Linear, Module, fit
from .pretrain import SpeechEncoder
from .tensor import Tensor, _accumulate, _make

BLANK = 0
BLANK_SYMBOL = "<blank>"

_NEG_INF = -np.inf


@dataclass
class Vocab:
    """A list of symbols: the ``reserved`` ones in order, each read as one
    token, then single characters, none twice. CTC reserves
    ``(BLANK_SYMBOL,)``, the LM ``slm.ChatTemplate.specials``."""

    symbols: list
    reserved: tuple

    def __post_init__(self):
        if not isinstance(self.symbols, list):
            raise ConfigError(f"vocab must be a list of symbols, not a "
                              f"{type(self.symbols).__name__}")
        n = len(self.reserved)
        if self.symbols[:n] != list(self.reserved):
            raise ConfigError(f"vocab must start with {', '.join(map(repr, self.reserved))}")
        # encode reads a text one character at a time between reserved
        # symbols, so no other symbol is emitted
        wide = [s for s in self.symbols[n:] if not (isinstance(s, str) and len(s) == 1)]
        if wide:
            raise ConfigError(f"vocab symbol {wide[0]!r} after {self.reserved[-1]!r} is not "
                              "one character")
        self._index = {}
        for i, s in enumerate(self.symbols):
            if self._index.setdefault(s, i) != i:
                raise ConfigError(f"vocab symbol {s!r} appears twice")
        # one token of a text: a reserved symbol, tried in order, else one character
        self._token = re.compile("|".join([*map(re.escape, self.reserved), "."]), re.DOTALL)

    def __len__(self):
        return len(self.symbols)

    @classmethod
    def from_texts(cls, texts, reserved) -> "Vocab":
        """``reserved``, then every other character of ``texts``, sorted."""
        token = cls(list(reserved), reserved)._token
        chars = {t for text in texts for t in token.findall(text)}.difference(reserved)
        return cls([*reserved, *sorted(chars)], reserved)

    @classmethod
    def from_file(cls, path) -> "Vocab":
        """The CTC vocabulary in ``path``: one symbol per line, the blank first."""
        lines = read_text(path).removesuffix("\n").split("\n")
        try:
            return cls(lines, (BLANK_SYMBOL,))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def encode(self, text: str) -> list:
        try:
            return [self._index[token] for token in self._token.findall(text)]
        except KeyError as exc:
            raise ConfigError(f"character {exc.args[0]!r} not in vocab") from None

    def decode(self, ids) -> str:
        return "".join(self.symbols[i] for i in ids)

    def charset(self) -> str:
        """The characters after the reserved symbols, in vocabulary order."""
        return "".join(self.symbols[len(self.reserved):])


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


def _ctc_paths(lp: np.ndarray, ext) -> np.ndarray:
    """Log-sum of the paths into each state of ``ext`` before frame t's
    emission, over the (T, states) emission lattice ``lp``."""
    t_len, s_len = lp.shape
    # the states that may also be entered from two states back: a symbol
    # that differs from the symbol before the blank between them
    ext = np.asarray(ext)
    skip = np.flatnonzero((ext[2:] != BLANK) & (ext[2:] != ext[:-2])) + 2
    paths = np.full((t_len, s_len), _NEG_INF)
    paths[0, :2] = 0.0
    for t in range(1, t_len):
        prev = paths[t - 1] + lp[t - 1]
        acc = paths[t]
        acc[0] = prev[0]
        np.logaddexp(prev[1:], prev[:-1], out=acc[1:])
        acc[skip] = np.logaddexp(acc[skip], prev[skip - 2])
    return paths


def ctc_loss(logits: Tensor, target) -> Tensor:
    """Negative log probability of ``target`` under the CTC path sum.

    ``logits`` is the (T, V) output of a CTC head with blank at column 0;
    its log-softmax is the lattice. The target must contain no blanks.
    Raises (rather than returning infinity) when T is too short to emit the
    target.
    """
    target = [int(t) for t in target]
    if logits.data.ndim != 2:
        raise GraphError(f"logits must be (T, V), got {logits.data.shape}")
    t_len, v = logits.data.shape
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
    logp = T.log_softmax(logits.data)
    lp = logp[:, ext]
    alpha = _ctc_paths(lp, ext) + lp
    total = alpha[-1, -1]
    if len(ext) > 1:
        total = np.logaddexp(total, alpha[-1, -2])

    def backward(grad):
        # beta is the same recursion on the lattice reversed in time and state
        beta = _ctc_paths(np.ascontiguousarray(lp[::-1, ::-1]), ext[::-1])[::-1, ::-1]
        occupancy = alpha + beta - total  # log posterior per (t, state)
        gamma = np.zeros_like(logp)
        for s, sym in enumerate(ext):
            gamma[:, sym] += np.exp(occupancy[:, s])
        # d loss / d logp is -gamma; through the log-softmax to the logits
        g = grad * (-gamma)
        _accumulate(logits, g - np.exp(logp) * g.sum(axis=-1, keepdims=True))

    return _make(np.asarray(-total), (logits,), backward, "ctc_loss")


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
    return collapse_path(np.asarray(log_probs).argmax(axis=1))


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
    data = np.asarray(log_probs)
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


# deletes ASCII punctuation and the common typographic marks
_PUNCTUATION_TABLE = str.maketrans("", "", string.punctuation + "¡¿‘’“”…«»")


def load_lexicon(path) -> dict:
    """Load a digit-string -> words lexicon (plain JSON object); errors name
    the file and the offending keys."""
    entries = read_json(path)
    if not isinstance(entries, dict):
        raise ConfigError(f"lexicon {path} must hold a JSON object, got {json.dumps(entries)}")
    bad = [k for k, words in entries.items() if not (k.isdigit() and isinstance(words, str))]
    if bad:
        raise ConfigError(f"lexicon {path}: entries must map digit strings to words, "
                          f"got {bad[:3]}")
    return entries


def builtin_rules(language: str = "en") -> dict:
    """The built-in digit lexicon of ``language``."""
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


def normalize_text(text: str, lexicon: dict) -> str:
    """Lowercase, strip punctuation, verbalize digit runs, collapse whitespace.

    Digit runs are replaced greedily by the longest ``lexicon`` key, falling
    back digit by digit; a run that cannot be covered at all raises an
    error naming it. The function is idempotent.
    """
    text = text.lower().translate(_PUNCTUATION_TABLE)

    def sub(match):
        return " " + _verbalize_run(match.group(0), lexicon) + " "

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

    def __init__(self, encoder: SpeechEncoder, vocab: Vocab, seed: int | None = 0):
        super().__init__()
        self.encoder = encoder
        self.head = Linear(encoder.cfg.dim, len(vocab),
                           None if seed is None else np.random.default_rng(seed + 17))
        self.vocab = vocab
        encoder.mask_embed.freeze()
        encoder.head.freeze()

    def logits(self, features: np.ndarray) -> Tensor:
        """The CTC head's (frames, vocab) logits, which ``ctc_loss`` takes."""
        states = self.encoder.forward(features, mask=None)
        return self.head(self.encoder.final_norm(states[-1]))

    def loss(self, features: np.ndarray, target) -> Tensor:
        """``ctc_loss`` of ``target`` on the logits of ``features``."""
        return ctc_loss(self.logits(features), target)

    def log_probs(self, features: np.ndarray) -> np.ndarray:
        """The decoding lattice: log-softmax of the logits, with no graph."""
        with T.no_grad():
            return T.log_softmax(self.logits(features).data)

    def transcribe(self, features: np.ndarray, beam_width: int = 1) -> str:
        return self.vocab.decode(ctc_beam_decode(self.log_probs(features), beam_width))

    def record(self) -> dict:
        """The encoder's checkpoint record, then ``vocab``, the CTC symbol list."""
        return {**self.encoder.record(),
                "vocab": json.dumps(self.vocab.symbols, ensure_ascii=False)}

    @classmethod
    def from_record(cls, path, meta: dict) -> "CtcModel":
        return cls(SpeechEncoder.from_record(path, meta),
                   parse_field(path, meta, "vocab",
                               lambda v: Vocab(json.loads(v), (BLANK_SYMBOL,))), seed=None)


@dataclass
class FinetuneConfig:
    steps: int = 2000
    lr: float = 3e-3
    batch_size: int = 2
    eval_every: int = 50

    def __post_init__(self):
        require_at_least(self, steps=0, batch_size=1, eval_every=1)
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")


def finetune_ctc(encoder: SpeechEncoder, examples, vocab: Vocab,
                 cfg: FinetuneConfig = FinetuneConfig(), stop_at_zero_wer: bool = False,
                 seed: int = 0):
    """CTC fine-tuning over (features, transcript) pairs.

    Transcripts must already be normalized; a symbol outside the vocab is an
    error naming it. ``seed`` draws the CTC head and the batches. Returns
    (model, history) with history rows of (step, loss, train_wer_or_None),
    the training-set WER after every ``cfg.eval_every``-th step and the
    last; with ``stop_at_zero_wer``, a WER of 0 ends training.
    """
    encoded = []
    for features, transcript in examples:
        ids = vocab.encode(transcript)  # raises naming any unknown symbol
        encoded.append((np.asarray(features, dtype=np.float64), transcript, ids))

    model = CtcModel(encoder, vocab, seed=seed)
    train_wer = {}  # step -> training-set WER after it

    def batches():
        rng = np.random.default_rng(seed)
        for step in range(1, cfg.steps + 1):
            picks = rng.choice(len(encoded), size=min(cfg.batch_size, len(encoded)),
                               replace=False)
            yield [partial(model.loss, encoded[i][0], encoded[i][2]) for i in picks]
            if step % cfg.eval_every == 0 or step == cfg.steps:
                train_wer[step] = wer([t for _, t, _ in encoded],
                                      [model.transcribe(f) for f, _, _ in encoded])
                if stop_at_zero_wer and train_wer[step] == 0.0:
                    return

    history = fit(Adam(model, lr=cfg.lr), batches())
    return model, [(step, loss, train_wer.get(step)) for step, loss in history]
