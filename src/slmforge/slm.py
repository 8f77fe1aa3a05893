"""Late-fusion speech LM: frozen toy causal LM, trainable MLP aligner,
chain-of-thought instruction data, generation, and output parsing.

Speech enters the LM as a block of aligner-projected embeddings spliced in
place of a single audio-placeholder token; the fused sequence is therefore
text_tokens - 1 + T' positions long, and ``_fused_sequence`` builds it for
both the fusion loss and generation. The speech features are the hidden
states of every encoder transformer layer, concatenated per frame. The chat
markers are fixed (``ChatTemplate``), so instruction sets and fusion
checkpoints store only the tokenizer's charset. During fusion training the
encoder and LM stay frozen and the loss covers assistant-completion tokens
only. ``FusionModel`` bundles the encoder, LM, aligner and tokenizer into
the one model that ``nn.save_checkpoint`` and ``nn.load_checkpoint`` store.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .config import read_config
from .errors import ConfigError, GraphError
from .fileio import parse_field, read_jsonl, write_jsonl
from .nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    TransformerLayer,
    sinusoidal_positions,
    train_step,
)
from .pretrain import SpeechEncoder
from .tensor import Tensor

log = logging.getLogger(__name__)

# the record field each CoT step restates
_STEP_FIELDS = {"phonemize": "transcript", "translate": "translation",
                "transcribe": "transcript", "paraphrase": "transcript"}

# (instruction text, CoT step names, final-answer source field)
_MODE_TABLE = {
    "transcribe": ("Transcribe the audio.", (), "transcript"),
    "phonemize_transcribe": (
        "Phonemize the audio, then transcribe it.", ("phonemize",), "transcript"),
    "translate_transcribe": (
        "Translate the audio, then transcribe it.", ("translate",), "transcript"),
    "translate": ("Translate the audio.", (), "translation"),
    "transcribe_translate": (
        "Transcribe the audio, then translate it.", ("transcribe",), "translation"),
    "paraphrase_translate": (
        "Paraphrase the audio, then translate it.", ("paraphrase",), "translation"),
}

MODES = tuple(_MODE_TABLE)


# ---------------------------------------------------------------------------
# Tokenizer and chat template


class ChatTemplate:
    """The package's one fixed set of chat markers."""

    user_marker = "<|user|>"
    assistant_marker = "<|assistant|>"
    end_marker = "<|end|>"
    audio_marker = "<|audio|>"
    specials = (user_marker, assistant_marker, end_marker, audio_marker)


class CharTokenizer:
    """Character tokenizer whose chat markers are single atomic tokens, the
    first ids of its vocabulary."""

    def __init__(self, charset: str):
        self.chars = sorted(set(charset))
        self.symbols = list(ChatTemplate.specials) + self.chars
        self._index = {s: i for i, s in enumerate(self.symbols)}

    @classmethod
    def from_texts(cls, texts) -> "CharTokenizer":
        stripped = []
        for text in texts:
            for marker in ChatTemplate.specials:
                text = text.replace(marker, "")
            stripped.append(text)
        return cls("".join(stripped))

    @property
    def vocab_size(self) -> int:
        return len(self.symbols)

    def token_id(self, symbol: str) -> int:
        return self._index[symbol]

    def encode(self, text: str) -> list:
        ids = []
        pos = 0
        while pos < len(text):
            for marker in ChatTemplate.specials:
                if text.startswith(marker, pos):
                    ids.append(self._index[marker])
                    pos += len(marker)
                    break
            else:
                ch = text[pos]
                if ch not in self._index:
                    raise ConfigError(f"character {ch!r} not in tokenizer charset")
                ids.append(self._index[ch])
                pos += 1
        return ids

    def decode(self, ids) -> str:
        return "".join(self.symbols[i] for i in ids)

    def charset(self) -> str:
        return "".join(self.chars)


# ---------------------------------------------------------------------------
# Instruction data


@dataclass
class InstructionExample:
    audio_id: str
    mode: str
    text: str
    loss_mask: list
    final: str


def chat_prompt(instruction: str) -> str:
    """User turn and assistant marker: the prefix of every example, and the
    prompt generation continues."""
    return (f"{ChatTemplate.user_marker}{ChatTemplate.audio_marker} {instruction}"
            f"{ChatTemplate.assistant_marker}")


def render_chat(instruction: str, steps, final: str) -> str:
    """Assemble one chat example; exactly one audio placeholder, FINAL last."""
    body = "".join(f"STEP[{name}]: {text}\n" for name, text in steps)
    return f"{chat_prompt(instruction)}{body}FINAL: {final}{ChatTemplate.end_marker}"


def completion_mask(ids, tokenizer: CharTokenizer) -> list:
    """1 exactly on assistant-completion positions (after the assistant
    marker, through the end marker inclusive)."""
    assistant = tokenizer.token_id(ChatTemplate.assistant_marker)
    end = tokenizer.token_id(ChatTemplate.end_marker)
    mask = [0] * len(ids)
    try:
        start = ids.index(assistant) + 1
    except ValueError:
        return mask
    for i in range(start, len(ids)):
        mask[i] = 1
        if ids[i] == end:
            break
    return mask


def rule_table_phonemizer(table: dict):
    """Grapheme -> phoneme rewriting by longest-match table lookup."""

    def phonemize(text: str) -> str:
        out = []
        pos = 0
        keys = sorted(table, key=len, reverse=True)
        while pos < len(text):
            for key in keys:
                if key and text.startswith(key, pos):
                    out.append(table[key])
                    pos += len(key)
                    break
            else:
                out.append(text[pos])
                pos += 1
        return "".join(out)

    return phonemize


def build_instruction_dataset(records, modes, phonemizer=None):
    """Render one InstructionExample per record x mode.

    Records missing a field a mode requires are skipped with a logged
    reason, never fatally. Returns (examples, tokenizer, skipped); the
    tokenizer is built from the rendered texts. The paraphrase step (and the
    phonemize step without a ``phonemizer``) restates the transcript as it is.
    """

    def step_text(name, rec):
        text = getattr(rec, _STEP_FIELDS[name])
        return phonemizer(text) if name == "phonemize" and phonemizer else text

    rendered = []
    skipped = []
    for rec in records:
        for mode in modes:
            if mode not in _MODE_TABLE:
                raise ConfigError(f"unknown mode {mode!r}")
            instruction, step_names, final_field = _MODE_TABLE[mode]
            needed = {final_field} | {_STEP_FIELDS[name] for name in step_names}
            missing = [name for name in sorted(needed) if not getattr(rec, name)]
            if missing:
                skipped.append((rec.id, mode, f"missing {missing[0]}"))
                log.info("skipping %s/%s: missing %s", rec.id, mode, missing[0])
                continue
            steps = [(name, step_text(name, rec)) for name in step_names]
            final = getattr(rec, final_field)
            text = render_chat(instruction, steps, final)
            rendered.append((rec.id, mode, text, final))

    tokenizer = CharTokenizer.from_texts([text for _, _, text, _ in rendered])
    examples = []
    for audio_id, mode, text, final in rendered:
        try:
            ids = tokenizer.encode(text)
        except ConfigError as exc:
            skipped.append((audio_id, mode, str(exc)))
            log.info("skipping %s/%s: %s", audio_id, mode, exc)
            continue
        examples.append(
            InstructionExample(audio_id, mode, text, completion_mask(ids, tokenizer),
                               final)
        )
    return examples, tokenizer, skipped


def write_instruction_dataset(path, examples, tokenizer: CharTokenizer,
                              header_extra: dict | None = None) -> None:
    header = {"charset": tokenizer.charset()}
    header.update(header_extra or {})
    write_jsonl(path, header, examples)


def read_instruction_dataset(path):
    header, examples = read_jsonl(path, InstructionExample)
    tokenizer = parse_field(path, header, "charset", CharTokenizer, CharTokenizer(""))
    return examples, tokenizer, header


# ---------------------------------------------------------------------------
# Toy causal LM


@dataclass(frozen=True)
class CausalLMConfig:
    vocab_size: int
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 2
    ff_mult: int = 4


class CausalLM(Module):
    """Decoder-only transformer over characters; greedy decoding is
    deterministic and attention is strictly causal."""

    def __init__(self, cfg: CausalLMConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size, cfg.dim, rng)
        self.blocks = ModuleList(
            TransformerLayer(cfg.dim, cfg.n_heads, cfg.ff_mult, causal=True, rng=rng)
            for _ in range(cfg.n_layers)
        )
        self.final_norm = LayerNorm(cfg.dim)
        self.head = Linear(cfg.dim, cfg.vocab_size, rng)

    def forward_embeddings(self, emb: Tensor, caches=None) -> Tensor:
        """Logits from raw input embeddings; positions are added here.

        ``caches``, one list per layer (empty at first), keeps each layer's
        keys and values across calls: the rows of ``emb`` then follow the
        rows of earlier calls, take the positions after theirs and attend to
        them, so a sequence fed in pieces gives the logits of the whole.
        """
        start = caches[0][0].data.shape[1] if caches and caches[0] else 0
        h = emb + Tensor(sinusoidal_positions(emb.data.shape[0], self.cfg.dim, start))
        for block, cache in zip(self.blocks, caches or [None] * self.cfg.n_layers):
            h = block(h, cache)
        return self.head(self.final_norm(h))

    def forward_tokens(self, ids) -> Tensor:
        return self.forward_embeddings(self.embed(ids))


def lm_stand_in_sequences(examples, tokenizer: CharTokenizer, t_prime_lookup) -> list:
    """Text-only pretraining corpus for the toy stand-in LM.

    Each example's audio placeholder is replaced by its final-answer tokens
    tiled to that audio's frame count, so the sequence geometry matches the
    fused one and the LM learns to read the block the aligner later fills.
    ``t_prime_lookup`` maps an example's audio_id to its frame count.
    """
    audio_id = tokenizer.token_id(ChatTemplate.audio_marker)
    seqs = []
    for ex in examples:
        t_prime = int(t_prime_lookup(ex.audio_id))
        fill = tokenizer.encode(ex.final) or [audio_id]
        tiled = (fill * (t_prime // len(fill) + 1))[:t_prime]
        ids = tokenizer.encode(ex.text)
        out = []
        for t in ids:
            out.extend(tiled if t == audio_id else [t])
        seqs.append(out)
    return seqs


def train_lm(lm: CausalLM, token_seqs, steps: int, lr: float = 1e-3,
             seed: int = 0) -> list:
    """Next-token pretraining of the toy LM on raw token sequences."""
    opt = Adam(lm, lr=lr)
    rng = np.random.default_rng(seed)
    history = []
    seqs = [np.asarray(s, dtype=np.int64) for s in token_seqs if len(s) >= 2]
    if not seqs:
        raise ConfigError("train_lm needs sequences of at least two tokens")
    for step in range(steps):
        ids = seqs[rng.integers(len(seqs))]
        loss = train_step(opt, [T.cross_entropy(lm.forward_tokens(ids[:-1]), ids[1:])])
        history.append((step + 1, loss))
    return history


# ---------------------------------------------------------------------------
# Aligner and fusion


class SpeechAligner(Module):
    """Single-hidden-layer MLP with ReLU mapping concatenated encoder-layer
    features into the LM embedding space. The only trainable piece during
    fusion training."""

    def __init__(self, d_in: int, d_lm: int, hidden: int | None = None, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        hidden = hidden or 4 * d_lm
        self.fc1 = Linear(d_in, hidden, rng)
        self.fc2 = Linear(hidden, d_lm, rng)
        self.d_in = d_in

    def align(self, features) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(np.asarray(features))
        if x.data.ndim != 2 or x.data.shape[1] != self.d_in:
            raise GraphError(
                f"aligner expects (T, {self.d_in}) features, got {x.data.shape}"
            )
        return self.fc2(T.relu(self.fc1(x)))


def extract_multilayer_features(encoder: SpeechEncoder, features: np.ndarray) -> np.ndarray:
    """Concatenate the hidden states of every encoder transformer layer
    (1..L, not the conv front-end) per frame. No further time downsampling
    is applied."""
    with T.no_grad():
        states = encoder.forward(np.asarray(features, dtype=np.float64), mask=None)
    return np.concatenate([state.data for state in states[1:]], axis=1)


def _fused_sequence(lm: CausalLM, speech: Tensor, ids, placeholder_id: int):
    """Return ([embed(before), speech, embed(after)], placeholder position)
    for the one audio placeholder in ``ids``, empty text parts left out."""
    positions = [i for i, t in enumerate(ids) if t == placeholder_id]
    if len(positions) != 1:
        raise GraphError(
            f"example must contain exactly one audio placeholder, found {len(positions)}"
        )
    p = positions[0]
    before, after = ids[:p], ids[p + 1 :]
    parts = [lm.embed(np.asarray(before, dtype=np.int64))] if before else []
    parts.append(speech)
    if after:
        parts.append(lm.embed(np.asarray(after, dtype=np.int64)))
    return T.concat(parts, axis=0), p


def fusion_loss(lm: CausalLM, aligner: SpeechAligner, speech_features,
                ids, loss_mask, tokenizer: CharTokenizer,
                targets_override=None) -> Tensor:
    """Next-token loss of the fused sequence over assistant-completion tokens.

    The aligned speech block replaces the placeholder token, shifting
    positions of everything after it by T' - 1. Targets are the original
    token ids (or ``targets_override``, which must agree wherever the mask
    is 1); predictions come from the fused lattice rows immediately before
    each target. Loss and gradients are bit-invariant to target values at
    mask-0 positions.
    """
    ids = list(ids)
    if len(ids) != len(loss_mask):
        raise GraphError("ids and loss_mask lengths differ")
    speech = aligner.align(speech_features)
    t_prime = speech.data.shape[0]
    fused, p = _fused_sequence(lm, speech, ids,
                               tokenizer.token_id(ChatTemplate.audio_marker))
    logits = lm.forward_embeddings(fused)

    targets = np.asarray(targets_override if targets_override is not None else ids,
                         dtype=np.int64)
    if len(targets) != len(ids):
        raise GraphError("targets length differs from ids")

    # every position but the first and the placeholder is predicted by the
    # fused row before it; rows after the placeholder sit T' - 1 further on
    j = np.arange(1, len(ids))
    j = j[j != p]
    rows = np.where(j < p, j - 1, j + t_prime - 2)
    picked = T.embedding_lookup(logits, rows)
    return T.cross_entropy(picked, targets[j], np.asarray(loss_mask, dtype=np.float64)[j])


@dataclass
class FusionTrainConfig:
    steps: int = 3000
    lr: float = 1e-4
    batch_size: int = 2
    # read by the train-aligner command around train_aligner: stand-in LM
    # pretraining steps and rate, and the aligner width (None -> 4 * LM dim)
    lm_steps: int = 300
    lm_lr: float = 3e-3
    aligner_hidden: int | None = None


def train_aligner(lm: CausalLM, aligner: SpeechAligner, examples,
                  tokenizer: CharTokenizer,
                  cfg: FusionTrainConfig = FusionTrainConfig(), seed: int = 0):
    """Aligner-only fusion training; the LM must already be frozen.

    ``examples`` are (speech_features, InstructionExample) pairs with
    speech features precomputed by extract_multilayer_features; ``seed``
    draws the batches. Returns a history of (step, loss).
    """
    trainable = [name for name, p in lm.named_parameters() if p.requires_grad]
    if trainable:
        raise ConfigError(f"LM must be frozen during fusion training: {trainable[:3]}")
    prepared = []
    for features, ex in examples:
        prepared.append((np.asarray(features), tokenizer.encode(ex.text), ex.loss_mask))

    opt = Adam(aligner, lr=cfg.lr)
    rng = np.random.default_rng(seed)
    history = []
    for step in range(cfg.steps):
        picks = rng.choice(len(prepared), size=min(cfg.batch_size, len(prepared)),
                           replace=False)
        loss = train_step(opt, [fusion_loss(lm, aligner, *prepared[i], tokenizer)
                                for i in picks])
        history.append((step + 1, loss))
    return history


# ---------------------------------------------------------------------------
# Generation and CoT parsing


class FusionModel(Module):
    """The Speech LLM: encoder, LM, the aligner between them, and the tokenizer
    that reads the LM's ids, so all four serialize into one checkpoint."""

    kind = "fusion"

    def __init__(self, encoder: SpeechEncoder, lm: CausalLM, aligner: SpeechAligner,
                 tokenizer: CharTokenizer):
        super().__init__()
        self.encoder = encoder
        self.lm = lm
        self.aligner = aligner
        self.tokenizer = tokenizer

    def record(self) -> dict:
        """The encoder's checkpoint record, then ``lm_cfg``, ``charset`` and
        ``aligner_hidden``."""
        return {
            **self.encoder.record(),
            "lm_cfg": json.dumps(asdict(self.lm.cfg), sort_keys=True),
            "charset": self.tokenizer.charset(),
            "aligner_hidden": str(self.aligner.fc1.bias.data.shape[0]),
        }

    @classmethod
    def from_record(cls, path, meta: dict) -> "FusionModel":
        """An untrained bundle whose aligner maps the encoder's layers into the
        LM's width and whose tokenizer has the LM's ``vocab_size`` symbols."""
        if "encoder_cfg" not in meta:
            raise ConfigError(f"{path}: missing key 'encoder_cfg'; re-run train-aligner to "
                              "write a fusion checkpoint that holds its encoder")
        encoder = SpeechEncoder.from_record(path, meta)
        lm = CausalLM(parse_field(path, meta, "lm_cfg",
                                  lambda blob: read_config(CausalLMConfig, json.loads(blob))))
        aligner = SpeechAligner(encoder.cfg.dim * encoder.cfg.n_layers, lm.cfg.dim,
                                hidden=parse_field(path, meta, "aligner_hidden", int))
        tokenizer = parse_field(path, meta, "charset", CharTokenizer)
        if tokenizer.vocab_size != lm.cfg.vocab_size:
            raise ConfigError(f"{path}: bad value for 'charset': its tokenizer has "
                              f"{tokenizer.vocab_size} symbols, but lm_cfg has vocab_size "
                              f"{lm.cfg.vocab_size}")
        return cls(encoder, lm, aligner, tokenizer)


@dataclass
class GenerationResult:
    text: str
    truncated: bool


def generate(lm: CausalLM, aligner: SpeechAligner, speech_features,
             mode: str, tokenizer: CharTokenizer, max_tokens: int = 200) -> GenerationResult:
    """Greedy decoding of the assistant turn until the end marker.

    The first step runs the LM over the fused prompt (the prefill) and
    keeps every layer's keys and values; each later step runs it over the
    last generated token's embedding alone, against that cache, so a
    generated audio marker is an ordinary token. Deterministic for fixed
    inputs. Returns the raw assistant text; the truncated flag is set when
    max_tokens ran out before the end marker.
    """
    if mode not in _MODE_TABLE:
        raise ConfigError(f"unknown mode {mode!r}")
    prompt_ids = tokenizer.encode(chat_prompt(_MODE_TABLE[mode][0]))
    placeholder = tokenizer.token_id(ChatTemplate.audio_marker)
    end_id = tokenizer.token_id(ChatTemplate.end_marker)

    with T.no_grad():
        speech = aligner.align(np.asarray(speech_features))
        rows, _ = _fused_sequence(lm, speech, prompt_ids, placeholder)
        caches = [[] for _ in lm.blocks]
        generated = []
        truncated = True
        for _ in range(max_tokens):
            nxt = int(np.argmax(lm.forward_embeddings(rows, caches).data[-1]))
            if nxt == end_id:
                truncated = False
                break
            generated.append(nxt)
            rows = lm.embed([nxt])
    return GenerationResult(tokenizer.decode(generated), truncated)


@dataclass
class ParsedCot:
    steps: dict
    final: str
    malformed: bool


_STEP_RE = re.compile(r"^STEP\[(.+?)\]:\s?(.*)$")
_FINAL_RE = re.compile(r"^FINAL:\s?(.*)$")


def parse_cot_output(text: str) -> ParsedCot:
    """Parse STEP/FINAL lines; diagnostics instead of exceptions.

    The final answer is the content of the last FINAL line; with no FINAL
    line the result is flagged malformed and falls back to the last
    non-empty line (or "" for empty text).
    """
    steps = {}
    final = None
    for line in text.split("\n"):
        m = _STEP_RE.match(line.strip())
        if m:
            steps[m.group(1)] = m.group(2)
            continue
        m = _FINAL_RE.match(line.strip())
        if m:
            final = m.group(1)
    if final is not None:
        return ParsedCot(steps, final, malformed=False)
    non_empty = [line.strip() for line in text.split("\n") if line.strip()]
    return ParsedCot(steps, non_empty[-1] if non_empty else "", malformed=True)


def detect_repetition_loop(text: str, n: int = 3, k: int = 3) -> bool:
    """True iff the last n*k whitespace tokens are one n-gram repeated k times."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    tokens = text.split()
    if len(tokens) < n * k:
        return False
    gram = tokens[-n:]
    for i in range(2, k + 1):
        lo = len(tokens) - i * n
        if tokens[lo : lo + n] != gram:
            return False
    return True
