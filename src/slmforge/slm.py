"""Late-fusion speech LM: frozen toy causal LM, trainable MLP aligner,
chain-of-thought instruction data, generation, and output parsing.

Speech enters the LM as a block of aligner-projected embeddings spliced in
place of a single audio-placeholder token; the fused sequence is therefore
text_tokens - 1 + T' positions long, T' being the number of speech rows, and
``_fused_sequence`` builds it for both the fusion loss and generation. A
speech row holds the hidden states of every encoder transformer layer for
``FRAME_STACK`` consecutive encoder frames, so T' is the encoder's frame
count divided by ``FRAME_STACK``, rounded down. The LM's tokenizer is an
``asr.Vocab``, the class CTC uses, whose reserved symbols are the fixed chat
markers (``ChatTemplate``), so each marker's id is a constant
(``ASSISTANT_ID``, ``END_ID``, ``AUDIO_ID``) and instruction sets and fusion
checkpoints store only the characters after them, as the ``charset`` string.
``completion_start`` is the one rule for which tokens of an example are
trained on, checked as an instruction set is read; fusion training scores
those completion tokens only, with the encoder and LM frozen. ``FusionModel`` is the Speech LLM:
the encoder, the LM, the aligner it builds between them and the tokenizer.
``train_aligner``, ``fusion_loss`` and ``generate`` take it, and
``nn.save_checkpoint`` and ``nn.load_checkpoint`` store it.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from . import tensor as T
from .asr import Vocab
from .config import read_config, require_at_least
from .errors import ConfigError, GraphError
from .fileio import parse_count, parse_field, read_jsonl, write_jsonl
from .nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    TransformerLayer,
    fit,
    sinusoidal_positions,
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
# Chat template and vocabulary


class ChatTemplate:
    """The package's one fixed set of chat markers."""

    user_marker = "<|user|>"
    assistant_marker = "<|assistant|>"
    end_marker = "<|end|>"
    audio_marker = "<|audio|>"
    specials = (user_marker, assistant_marker, end_marker, audio_marker)


# every LM vocabulary starts with ``ChatTemplate.specials``, so each marker's
# id is its place there
ASSISTANT_ID, END_ID, AUDIO_ID = (ChatTemplate.specials.index(marker) for marker in (
    ChatTemplate.assistant_marker, ChatTemplate.end_marker, ChatTemplate.audio_marker))


def chat_vocab(charset: str) -> Vocab:
    """The LM's vocabulary: the chat markers, each one token and the first
    ids, then the characters of the string ``charset``, sorted."""
    if not isinstance(charset, str):
        raise ConfigError(f"must be a string, got {json.dumps(charset)}")
    return Vocab([*ChatTemplate.specials, *sorted(set(charset))], ChatTemplate.specials)


# ---------------------------------------------------------------------------
# Instruction data


@dataclass
class InstructionExample:
    audio_id: str
    mode: str
    text: str
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


def completion_start(ids) -> int:
    """Index of the first completion token of the encoded example ``ids``.

    The example holds exactly one audio placeholder and exactly one
    assistant marker, and the completion is every token after that marker:
    some text, then the end marker, and no other chat marker (so the
    placeholder comes before it). Anything else is a ConfigError naming the
    cause.
    """
    for marker_id in (AUDIO_ID, ASSISTANT_ID):
        n = ids.count(marker_id)
        if n != 1:
            raise ConfigError(f"holds {n} {ChatTemplate.specials[marker_id]} markers, not one")
    completion = ids[ids.index(ASSISTANT_ID) + 1 :]
    if completion in ([], [END_ID]):
        raise ConfigError(f"its completion after {ChatTemplate.assistant_marker} is empty")
    if completion[-1] != END_ID:
        raise ConfigError(f"its completion does not end with {ChatTemplate.end_marker}")
    held = [ChatTemplate.specials[t] for t in completion[:-1] if t < len(ChatTemplate.specials)]
    if held:
        raise ConfigError(f"its completion holds the chat marker {held[0]}")
    return len(ids) - len(completion)


def build_instruction_dataset(records, modes):
    """Render one InstructionExample per record x mode.

    A record x mode is skipped with a logged reason, never fatally, when a
    field the mode needs is missing or holds a chat marker, which the
    tokenizer would read as the marker. Returns (examples, tokenizer,
    skipped); the tokenizer is built from the rendered texts and encodes
    each, since the template puts ``": "`` before a field and a newline or
    the end marker after it, so no marker forms across a boundary. The
    phonemize and paraphrase steps restate the transcript as it is: no
    grapheme-to-phoneme table or paraphraser ships with the package.
    """

    examples = []
    skipped = []
    for rec in records:
        for mode in modes:
            if mode not in _MODE_TABLE:
                raise ConfigError(f"unknown mode {mode!r}")
            instruction, step_names, final_field = _MODE_TABLE[mode]
            needed = {final_field} | {_STEP_FIELDS[name] for name in step_names}
            missing = [name for name in sorted(needed) if not getattr(rec, name)]
            if missing:
                reason = f"missing {missing[0]}"
            else:
                steps = [(name, getattr(rec, _STEP_FIELDS[name])) for name in step_names]
                final = getattr(rec, final_field)
                texts = [text for _, text in steps] + [final]
                held = [m for m in ChatTemplate.specials if any(m in t for t in texts)]
                reason = f"holds chat marker {held[0]!r}" if held else None
            if reason:
                skipped.append((rec.id, mode, reason))
                log.info("skipping %s/%s: %s", rec.id, mode, reason)
                continue
            examples.append(InstructionExample(
                rec.id, mode, render_chat(instruction, steps, final), final))
    tokenizer = Vocab.from_texts([ex.text for ex in examples], ChatTemplate.specials)
    return examples, tokenizer, skipped


def write_instruction_dataset(path, examples, tokenizer: Vocab,
                              header_extra: dict | None = None) -> None:
    header = {"charset": tokenizer.charset()}
    header.update(header_extra or {})
    write_jsonl(path, header, examples)


def read_instruction_dataset(path):
    """(examples, tokenizer, header) of an instruction-set file; a header
    without ``charset``, or whose ``charset`` is not a string, is a
    ConfigError naming the file and the key. Every
    example's text is encoded and checked by ``completion_start``, and its
    ``final`` encoded: an unknown character or a broken completion is a
    ConfigError naming the file, the example's ``audio_id`` and ``mode``,
    and the cause."""
    header, examples = read_jsonl(path, InstructionExample)
    tokenizer = parse_field(path, header, "charset", chat_vocab)
    for ex in examples:
        try:
            completion_start(tokenizer.encode(ex.text))
            tokenizer.encode(ex.final)
        except ConfigError as exc:
            raise ConfigError(f"{path}: example {ex.audio_id!r} ({ex.mode}): {exc}") from None
    return examples, tokenizer, header


# ---------------------------------------------------------------------------
# Toy causal LM


@dataclass(frozen=True)
class CausalLMConfig:
    vocab_size: int
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 2

    def __post_init__(self):
        require_at_least(self, dim=1, n_layers=1, n_heads=1)
        if self.dim % self.n_heads:
            raise ConfigError(f"dim {self.dim} is not divisible by n_heads {self.n_heads}")


class CausalLM(Module):
    """Decoder-only transformer over characters; greedy decoding is
    deterministic and attention is strictly causal."""

    def __init__(self, cfg: CausalLMConfig, seed: int | None = 0):
        super().__init__()
        rng = None if seed is None else np.random.default_rng(seed)
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size, cfg.dim, rng)
        self.blocks = ModuleList(
            TransformerLayer(cfg.dim, cfg.n_heads, causal=True, rng=rng)
            for _ in range(cfg.n_layers)
        )
        self.final_norm = LayerNorm(cfg.dim)
        self.head = Linear(cfg.dim, cfg.vocab_size, rng)

    def forward_embeddings(self, emb: Tensor, caches=None, rows=None) -> Tensor:
        """Logits from raw input embeddings; positions are added here.

        ``caches``, one list per layer (empty at first), keeps each layer's
        keys and values across calls: the rows of ``emb`` then follow the
        rows of earlier calls, take the positions after theirs and attend to
        them, so a sequence fed in pieces gives the logits of the whole.
        ``rows``, indices into ``emb``, asks for the logits of those rows
        only, in that order: every block still computes keys and values at
        every row, but the last one computes its queries, residual and FFN,
        and then the final norm and head, at ``rows`` alone.
        """
        start = caches[0][0].data.shape[0] if caches and caches[0] else 0
        h = emb + Tensor(sinusoidal_positions(emb.data.shape[0], self.cfg.dim, start))
        *early, last = self.blocks
        caches = caches or [None] * self.cfg.n_layers
        for block, cache in zip(early, caches):
            h = block(h, cache)
        h = last(h, caches[-1], rows)
        return self.head(self.final_norm(h))


def lm_stand_in_sequences(examples, tokenizer: Vocab, speech) -> list:
    """Text-only pretraining corpus for the toy stand-in LM.

    Each example's audio placeholder is replaced by its final-answer tokens
    tiled to that audio's speech-row count, so the sequence geometry matches
    the fused one and the LM learns to read the block the aligner later
    fills. ``speech`` maps an example's audio_id to its speech rows, as
    ``extract_multilayer_features`` returns them.
    """
    seqs = []
    for ex in examples:
        t_prime = len(speech[ex.audio_id])
        fill = tokenizer.encode(ex.final) or [AUDIO_ID]
        tiled = (fill * (t_prime // len(fill) + 1))[:t_prime]
        ids = tokenizer.encode(ex.text)
        out = []
        for t in ids:
            out.extend(tiled if t == AUDIO_ID else [t])
        seqs.append(out)
    return seqs


def train_lm(lm: CausalLM, token_seqs, steps: int, lr: float = 1e-3,
             seed: int = 0) -> list:
    """Next-token pretraining of the toy LM on raw token sequences, one
    drawn per step; returns a history of (step, loss)."""
    rng = np.random.default_rng(seed)
    seqs = [np.asarray(s, dtype=np.int64) for s in token_seqs if len(s) >= 2]
    if not seqs:
        raise ConfigError("train_lm needs sequences of at least two tokens")

    def batches():
        for _ in range(steps):
            ids = seqs[rng.integers(len(seqs))]
            # ``fit`` builds this loss before it draws the next ``ids``
            yield [lambda: T.cross_entropy(lm.forward_embeddings(lm.embed(ids[:-1])), ids[1:])]

    return fit(Adam(lm, lr=lr), batches())


# ---------------------------------------------------------------------------
# Aligner and fusion


# encoder output frames per aligner input row: frames 2j and 2j + 1 side by
# side, the projector input stacking of SLAM-ASR (arXiv:2402.08846)
FRAME_STACK = 2


class SpeechAligner(Module):
    """Single-hidden-layer MLP with ReLU mapping concatenated encoder-layer
    features into the LM embedding space. The only trainable piece during
    fusion training."""

    def __init__(self, d_in: int, d_lm: int, hidden: int | None = None,
                 seed: int | None = 0):
        super().__init__()
        rng = None if seed is None else np.random.default_rng(seed)
        hidden = hidden or 4 * d_lm
        self.fc1 = Linear(d_in, hidden, rng)
        self.fc2 = Linear(hidden, d_lm, rng)
        self.d_in = d_in

    def align(self, features) -> Tensor:
        x = Tensor(np.asarray(features))
        if x.data.ndim != 2 or x.data.shape[1] != self.d_in:
            raise GraphError(
                f"aligner expects (T, {self.d_in}) features, got {x.data.shape}"
            )
        return self.fc2(T.relu(self.fc1(x)))


def extract_multilayer_features(encoder: SpeechEncoder, features: np.ndarray) -> np.ndarray:
    """The aligner's speech rows: per encoder output frame, the hidden states
    of every transformer layer (1..L, not the front end) side by side, and
    row j holds frames 2j and 2j + 1 (``FRAME_STACK``) side by side. The rows
    therefore come at half the encoder's frame rate; as in the encoder's
    front end, an odd last frame is dropped. Fewer than ``FRAME_STACK``
    output frames is a GraphError."""
    with T.no_grad():
        states = encoder.forward(np.asarray(features, dtype=np.float64), mask=None)
    frames = np.concatenate([state.data for state in states[1:]], axis=1)
    rows = len(frames) // FRAME_STACK
    if not rows:
        raise GraphError(f"the speech aligner needs at least {FRAME_STACK} encoder "
                         f"frames, got {len(frames)}")
    return frames[: FRAME_STACK * rows].reshape(rows, -1)


class FusionModel(Module):
    """The Speech LLM: the encoder, the LM, the speech aligner it builds
    between them, and the tokenizer that reads the LM's ids; all four
    serialize into one checkpoint.

    The aligner reads an ``extract_multilayer_features`` row, the encoder's
    ``dim`` per transformer layer for each of ``FRAME_STACK`` frames, and
    writes the LM's ``dim``; its hidden layer is ``aligner_hidden`` wide
    (None: 4 x the LM's ``dim``), and ``seed`` draws its weights (None draws
    none). The marker ids are constants, so a tokenizer that does not
    reserve exactly ``ChatTemplate.specials`` is a ConfigError.
    """

    kind = "fusion"

    def __init__(self, encoder: SpeechEncoder, lm: CausalLM, tokenizer: Vocab,
                 aligner_hidden: int | None = None, seed: int | None = 0):
        super().__init__()
        if tokenizer.reserved != ChatTemplate.specials:
            raise ConfigError(f"the LM's tokenizer must reserve the chat markers "
                              f"{', '.join(ChatTemplate.specials)}, not "
                              f"{', '.join(tokenizer.reserved)}")
        self.encoder = encoder
        self.lm = lm
        self.aligner = SpeechAligner(FRAME_STACK * encoder.cfg.dim * encoder.cfg.n_layers,
                                     lm.cfg.dim, aligner_hidden, seed)
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
        """A model, with no weights drawn, whose tokenizer has the LM's
        ``vocab_size`` symbols and whose ``aligner_hidden`` is at least 1."""
        encoder = SpeechEncoder.from_record(path, meta)
        lm = CausalLM(parse_field(path, meta, "lm_cfg",
                                  lambda blob: read_config(CausalLMConfig, json.loads(blob))),
                      seed=None)
        hidden = parse_field(path, meta, "aligner_hidden", parse_count)
        tokenizer = parse_field(path, meta, "charset", chat_vocab)
        if len(tokenizer) != lm.cfg.vocab_size:
            raise ConfigError(f"{path}: bad value for 'charset': its tokenizer has "
                              f"{len(tokenizer)} symbols, but lm_cfg has vocab_size "
                              f"{lm.cfg.vocab_size}")
        return cls(encoder, lm, tokenizer, hidden, seed=None)


def _fused_sequence(lm: CausalLM, speech: Tensor, ids) -> Tensor:
    """The embeddings of ``ids`` with ``speech`` in place of its first
    audio placeholder."""
    p = ids.index(AUDIO_ID)
    return T.concat([lm.embed(np.asarray(ids[:p], dtype=np.int64)), speech,
                     lm.embed(np.asarray(ids[p + 1 :], dtype=np.int64))])


def fusion_loss(model: FusionModel, speech_rows, ids) -> Tensor:
    """Next-token loss of ``model``'s fused sequence over the example's
    completion.

    The aligned ``speech_rows`` replace the placeholder token, shifting
    positions of everything after it by T' - 1. The targets are
    ``ids[start:]``, ``start`` being ``completion_start`` of ``ids`` (which
    rejects an example that breaks the completion rule), and each is
    predicted from the fused row before it, rows ``start - 1 + T' - 1``
    onwards: the LM computes logits at those rows only, and cross-entropy
    gets those rows alone.
    """
    ids = list(ids)
    lm = model.lm
    start = completion_start(ids)
    speech = model.aligner.align(speech_rows)
    fused = _fused_sequence(lm, speech, ids)
    rows = np.arange(start - 1, len(ids) - 1) + speech.data.shape[0] - 1
    return T.cross_entropy(lm.forward_embeddings(fused, rows=rows),
                           np.asarray(ids[start:], dtype=np.int64))


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

    def __post_init__(self):
        require_at_least(self, steps=0, batch_size=1, lm_steps=0, aligner_hidden=1)
        for name in ("lr", "lm_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")


def train_aligner(model: FusionModel, pairs, cfg: FusionTrainConfig = FusionTrainConfig(),
                  seed: int = 0):
    """Fusion training of ``model``'s aligner alone: its encoder and LM are
    frozen first.

    ``pairs`` are (speech rows, InstructionExample), the rows precomputed by
    extract_multilayer_features; each example's encoded text is scored by
    ``fusion_loss`` over its completion. ``seed`` draws the batches. Returns
    a history of (step, loss).
    """
    model.encoder.freeze()
    model.lm.freeze()
    prepared = [(rows, model.tokenizer.encode(ex.text)) for rows, ex in pairs]

    rng = np.random.default_rng(seed)
    batches = ([partial(fusion_loss, model, *prepared[i])
                for i in rng.choice(len(prepared), size=min(cfg.batch_size, len(prepared)),
                                    replace=False)]
               for _ in range(cfg.steps))
    return fit(Adam(model.aligner, lr=cfg.lr), batches)


# ---------------------------------------------------------------------------
# Generation and CoT parsing


@dataclass
class GenerationResult:
    text: str
    truncated: bool


def generate(model: FusionModel, speech_rows, mode: str,
             max_tokens: int = 200) -> GenerationResult:
    """Greedy decoding by ``model`` of the assistant turn until the end marker.

    The first step runs the LM over the fused prompt (the prefill) and
    keeps every layer's keys and values, computing logits at the prompt's
    last row only; each later step runs it over the last generated token's
    embedding alone, against that cache, so a generated audio marker is an
    ordinary token. Deterministic for fixed inputs. Returns the raw
    assistant text; the truncated flag is set when max_tokens ran out
    before the end marker.
    """
    if mode not in _MODE_TABLE:
        raise ConfigError(f"unknown mode {mode!r}")
    tokenizer, lm = model.tokenizer, model.lm
    prompt_ids = tokenizer.encode(chat_prompt(_MODE_TABLE[mode][0]))

    with T.no_grad():
        speech = model.aligner.align(speech_rows)
        emb = _fused_sequence(lm, speech, prompt_ids)
        caches = [[] for _ in lm.blocks]
        last = [emb.data.shape[0] - 1]  # the prefill's one scored row
        generated = []
        truncated = True
        for _ in range(max_tokens):
            nxt = int(np.argmax(lm.forward_embeddings(emb, caches, last).data[-1]))
            if nxt == END_ID:
                truncated = False
                break
            generated.append(nxt)
            emb, last = lm.embed([nxt]), None
    return GenerationResult(tokenizer.decode(generated), truncated)


@dataclass
class ParsedCot:
    steps: dict
    final: str
    malformed: bool


_STEP_RE = re.compile(r"^STEP\[(.+?)\]:\s?(.*)$")
_FINAL_RE = re.compile(r"^FINAL:\s?(.*)$")

# a generation ends in a loop when its last LOOP_NGRAM tokens repeat
# LOOP_REPEATS times in a row
LOOP_NGRAM = 3
LOOP_REPEATS = 3


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


def detect_repetition_loop(text: str) -> bool:
    """True iff the last ``LOOP_NGRAM`` * ``LOOP_REPEATS`` whitespace tokens
    are one ``LOOP_NGRAM``-gram repeated ``LOOP_REPEATS`` times."""
    tokens = text.split()
    span = LOOP_NGRAM * LOOP_REPEATS
    if len(tokens) < span:
        return False
    gram = tokens[-LOOP_NGRAM:]
    return all(tokens[lo : lo + LOOP_NGRAM] == gram
               for lo in range(len(tokens) - span, len(tokens), LOOP_NGRAM))
