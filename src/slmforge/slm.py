"""Late-fusion speech LM: frozen toy causal LM, trainable MLP aligner,
chain-of-thought instruction data, generation, and output parsing.

Speech enters the LM as a block of aligner-projected embeddings spliced in
place of a single audio-placeholder token; the fused sequence is therefore
text_tokens - 1 + T' positions long. During fusion training the encoder and
LM stay frozen and the loss covers assistant-completion tokens only.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .errors import ConfigError, GraphError
from .nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    TransformerLayer,
    sinusoidal_positions,
)
from .pretrain import SpeechEncoder
from .tensor import Tensor

log = logging.getLogger(__name__)

MODES = (
    "transcribe",
    "phonemize_transcribe",
    "translate_transcribe",
    "translate",
    "transcribe_translate",
    "paraphrase_translate",
)

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


# ---------------------------------------------------------------------------
# Tokenizer and chat template


@dataclass(frozen=True)
class ChatTemplate:
    user_marker: str = "<|user|>"
    assistant_marker: str = "<|assistant|>"
    end_marker: str = "<|end|>"
    audio_marker: str = "<|audio|>"

    @property
    def specials(self):
        return (self.user_marker, self.assistant_marker, self.end_marker,
                self.audio_marker)


class CharTokenizer:
    """Character tokenizer whose special markers are single atomic tokens."""

    def __init__(self, charset: str, template: ChatTemplate = ChatTemplate()):
        self.template = template
        self.specials = list(template.specials)
        self.chars = sorted(set(charset))
        self.symbols = self.specials + self.chars
        self._index = {s: i for i, s in enumerate(self.symbols)}

    @classmethod
    def from_texts(cls, texts, template: ChatTemplate = ChatTemplate()) -> "CharTokenizer":
        stripped = []
        for text in texts:
            for marker in template.specials:
                text = text.replace(marker, "")
            stripped.append(text)
        return cls("".join(stripped), template)

    @property
    def vocab_size(self) -> int:
        return len(self.symbols)

    def token_id(self, symbol: str) -> int:
        return self._index[symbol]

    def encode(self, text: str) -> list:
        ids = []
        pos = 0
        while pos < len(text):
            for marker in self.specials:
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_dict(cls, d: dict) -> "InstructionExample":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


def render_chat(template: ChatTemplate, instruction: str, steps, final: str) -> str:
    """Assemble one chat example; exactly one audio placeholder, FINAL last."""
    body = "".join(f"STEP[{name}]: {text}\n" for name, text in steps)
    return (
        f"{template.user_marker}{template.audio_marker} {instruction}"
        f"{template.assistant_marker}{body}FINAL: {final}{template.end_marker}"
    )


def completion_mask(ids, tokenizer: CharTokenizer) -> list:
    """1 exactly on assistant-completion positions (after the assistant
    marker, through the end marker inclusive)."""
    assistant = tokenizer.token_id(tokenizer.template.assistant_marker)
    end = tokenizer.token_id(tokenizer.template.end_marker)
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


def identity_phonemizer(text: str) -> str:
    return text


def identity_paraphraser(text: str) -> str:
    return text


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


def build_instruction_dataset(records, modes, template: ChatTemplate = ChatTemplate(),
                              tokenizer: CharTokenizer | None = None,
                              phonemizer=None, paraphraser=None):
    """Render one InstructionExample per record x mode.

    Records missing a field a mode requires are skipped with a logged
    reason, never fatally. Returns (examples, tokenizer, skipped); the
    tokenizer is built from the rendered texts when not supplied.
    """
    phonemizer = phonemizer or identity_phonemizer
    paraphraser = paraphraser or identity_paraphraser
    step_tools = {
        "phonemize": lambda rec: phonemizer(rec.transcript),
        "translate": lambda rec: rec.translation,
        "transcribe": lambda rec: rec.transcript,
        "paraphrase": lambda rec: paraphraser(rec.transcript),
    }

    rendered = []
    skipped = []
    for rec in records:
        for mode in modes:
            if mode not in _MODE_TABLE:
                raise ConfigError(f"unknown mode {mode!r}")
            instruction, step_names, final_field = _MODE_TABLE[mode]
            needs_transcript = final_field == "transcript" or any(
                s in ("phonemize", "transcribe", "paraphrase") for s in step_names
            )
            needs_translation = final_field == "translation" or "translate" in step_names
            if needs_transcript and not rec.transcript:
                skipped.append((rec.id, mode, "missing transcript"))
                log.info("skipping %s/%s: missing transcript", rec.id, mode)
                continue
            if needs_translation and not rec.translation:
                skipped.append((rec.id, mode, "missing translation"))
                log.info("skipping %s/%s: missing translation", rec.id, mode)
                continue
            steps = [(name, step_tools[name](rec)) for name in step_names]
            final = getattr(rec, final_field)
            text = render_chat(template, instruction, steps, final)
            rendered.append((rec.id, mode, text, final))

    if tokenizer is None:
        tokenizer = CharTokenizer.from_texts([text for _, _, text, _ in rendered],
                                             template)
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
    header = {
        "__header__": True,
        "charset": tokenizer.charset(),
        "template": asdict(tokenizer.template),
    }
    header.update(header_extra or {})
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
    lines.extend(ex.to_json() for ex in examples)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instruction_dataset(path):
    examples = []
    header = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if i == 0 and d.get("__header__"):
                header = d
            else:
                examples.append(InstructionExample.from_dict(d))
    template = ChatTemplate(**header.get("template", {}))
    tokenizer = CharTokenizer(header.get("charset", ""), template)
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "CausalLMConfig":
        return cls(**json.loads(blob))


class CausalLM(Module):
    """Decoder-only transformer over characters; greedy decoding is
    deterministic and attention is strictly causal."""

    def __init__(self, cfg: CausalLMConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        object.__setattr__(self, "cfg", cfg)
        self.embed = Embedding(cfg.vocab_size, cfg.dim, rng)
        self.blocks = ModuleList(
            TransformerLayer(cfg.dim, cfg.n_heads, cfg.ff_mult, causal=True, rng=rng)
            for _ in range(cfg.n_layers)
        )
        self.final_norm = LayerNorm(cfg.dim)
        self.head = Linear(cfg.dim, cfg.vocab_size, rng)

    def forward_embeddings(self, emb: Tensor) -> Tensor:
        """Logits from raw input embeddings; positions are added here."""
        h = emb + Tensor(sinusoidal_positions(emb.data.shape[0], self.cfg.dim))
        for block in self.blocks:
            h = block(h)
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
    audio_id = tokenizer.token_id(tokenizer.template.audio_marker)
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
        logits = lm.forward_tokens(ids[:-1])
        loss = T.cross_entropy(logits, ids[1:])
        opt.zero_grad()
        loss.backward()
        opt.step()
        history.append((step + 1, loss.item()))
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
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_lm", d_lm)

    def align(self, features) -> Tensor:
        x = features if isinstance(features, Tensor) else Tensor(np.asarray(features))
        if x.data.ndim != 2 or x.data.shape[1] != self.d_in:
            raise GraphError(
                f"aligner expects (T, {self.d_in}) features, got {x.data.shape}"
            )
        return self.fc2(T.relu(self.fc1(x)))

    def __call__(self, features) -> Tensor:
        return self.align(features)


def extract_multilayer_features(encoder: SpeechEncoder, features: np.ndarray,
                                layer_sel=None) -> np.ndarray:
    """Concatenate hidden states of the selected encoder layers per frame.

    Default selection is every transformer layer (1..L); layer 0 addresses
    the conv front-end output. No further time downsampling is applied.
    """
    n_layers = encoder.cfg.n_layers
    if layer_sel is None:
        layer_sel = list(range(1, n_layers + 1))
    for layer in layer_sel:
        if not (0 <= layer <= n_layers):
            raise ConfigError(f"layer index {layer} outside [0, {n_layers}]")
    with T.no_grad():
        states = encoder.forward(np.asarray(features, dtype=np.float64), mask=None)
    return np.concatenate([states[layer].data for layer in layer_sel], axis=1)


def _splice_positions(ids, placeholder_id: int):
    positions = [i for i, t in enumerate(ids) if t == placeholder_id]
    if len(positions) != 1:
        raise GraphError(
            f"example must contain exactly one audio placeholder, found {len(positions)}"
        )
    return positions[0]


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
    loss_mask = list(loss_mask)
    if len(ids) != len(loss_mask):
        raise GraphError("ids and loss_mask lengths differ")
    placeholder = tokenizer.token_id(tokenizer.template.audio_marker)
    p = _splice_positions(ids, placeholder)

    speech = aligner.align(speech_features)
    t_prime = speech.data.shape[0]
    before = lm.embed(np.asarray(ids[:p], dtype=np.int64)) if p else None
    after_ids = np.asarray(ids[p + 1 :], dtype=np.int64)
    after = lm.embed(after_ids) if len(after_ids) else None
    parts = [x for x in (before, speech, after) if x is not None]
    fused = T.concat(parts, axis=0)
    logits = lm.forward_embeddings(fused)

    targets = list(targets_override) if targets_override is not None else ids
    if len(targets) != len(ids):
        raise GraphError("targets length differs from ids")

    rows = []
    target_ids = []
    mask = []
    for j in range(1, len(ids)):
        if j == p:
            continue
        fused_index = j if j < p else j + t_prime - 1
        rows.append(fused_index - 1)
        target_ids.append(targets[j])
        mask.append(loss_mask[j])
    picked = T.embedding_lookup(logits, np.asarray(rows, dtype=np.int64))
    return T.cross_entropy(picked, np.asarray(target_ids, dtype=np.int64),
                           np.asarray(mask, dtype=np.float64))


def fusion_loss_on_example(lm: CausalLM, aligner: SpeechAligner,
                           encoder: SpeechEncoder, example: InstructionExample,
                           encoder_input: np.ndarray, tokenizer: CharTokenizer,
                           layer_sel=None) -> Tensor:
    """Fusion loss straight from encoder-input features for one example."""
    speech = extract_multilayer_features(encoder, encoder_input, layer_sel)
    return fusion_loss(lm, aligner, speech, tokenizer.encode(example.text),
                       example.loss_mask, tokenizer)


def generate_from_encoder(lm: CausalLM, aligner: SpeechAligner,
                          encoder: SpeechEncoder, encoder_input: np.ndarray,
                          mode: str, tokenizer: CharTokenizer,
                          max_tokens: int = 200, layer_sel=None) -> "GenerationResult":
    speech = extract_multilayer_features(encoder, encoder_input, layer_sel)
    return generate(lm, aligner, speech, mode, tokenizer, max_tokens)


@dataclass
class FusionTrainConfig:
    steps: int = 3000
    lr: float = 1e-4
    batch_size: int = 2
    seed: int = 0
    # read by the train-aligner command around train_aligner: stand-in LM
    # pretraining steps and rate, and the aligner width (None -> 4 * LM dim)
    lm_steps: int = 300
    lm_lr: float = 3e-3
    aligner_hidden: int | None = None


def train_aligner(lm: CausalLM, aligner: SpeechAligner, examples,
                  tokenizer: CharTokenizer,
                  cfg: FusionTrainConfig = FusionTrainConfig()):
    """Aligner-only fusion training; the LM must already be frozen.

    ``examples`` are (speech_features, InstructionExample) pairs with
    speech features precomputed by extract_multilayer_features. Returns a
    history of (step, loss).
    """
    frozen = [name for name, p in lm.named_parameters() if not p.frozen]
    if frozen:
        raise ConfigError(f"LM must be frozen during fusion training: {frozen[:3]}")
    prepared = []
    for features, ex in examples:
        prepared.append((np.asarray(features), tokenizer.encode(ex.text), ex.loss_mask))

    opt = Adam(aligner, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    history = []
    for step in range(cfg.steps):
        picks = rng.choice(len(prepared), size=min(cfg.batch_size, len(prepared)),
                           replace=False)
        losses = []
        for i in picks:
            features, ids, mask = prepared[i]
            losses.append(fusion_loss(lm, aligner, features, ids, mask, tokenizer))
        loss = losses[0]
        for extra in losses[1:]:
            loss = loss + extra
        loss = loss / len(losses)
        opt.zero_grad()
        loss.backward()
        opt.step()
        history.append((step + 1, loss.item()))
    return history


# ---------------------------------------------------------------------------
# Generation and CoT parsing


class FusionModel(Module):
    """LM + aligner bundle so both serialize into one checkpoint."""

    def __init__(self, lm: CausalLM, aligner: SpeechAligner):
        super().__init__()
        self.lm = lm
        self.aligner = aligner


def save_fusion(lm: CausalLM, aligner: SpeechAligner, tokenizer: CharTokenizer,
                path, layer_sel=None, metadata_extra: dict | None = None) -> None:
    from .nn import save_checkpoint

    meta = {
        "kind": "fusion",
        "lm_cfg": lm.cfg.to_json(),
        "charset": tokenizer.charset(),
        "template": json.dumps(asdict(tokenizer.template), sort_keys=True),
        "aligner_d_in": str(aligner.d_in),
        "aligner_d_lm": str(aligner.d_lm),
        "aligner_hidden": str(aligner.fc1.bias.data.shape[0]),
        "layer_sel": json.dumps(list(layer_sel) if layer_sel is not None else None),
    }
    meta.update(metadata_extra or {})
    save_checkpoint(FusionModel(lm, aligner), path, meta)


def load_fusion(path):
    """Return (lm, aligner, tokenizer, layer_sel) from a fusion checkpoint."""
    from .nn import load_checkpoint, read_checkpoint

    _, meta = read_checkpoint(path)
    if meta.get("kind") != "fusion":
        raise ConfigError(f"checkpoint kind {meta.get('kind')!r} is not a fusion model")
    lm = CausalLM(CausalLMConfig.from_json(meta["lm_cfg"]))
    aligner = SpeechAligner(
        int(meta["aligner_d_in"]), int(meta["aligner_d_lm"]),
        hidden=int(meta["aligner_hidden"]),
    )
    bundle = FusionModel(lm, aligner)
    load_checkpoint(path, bundle, strict=True)
    template = ChatTemplate(**json.loads(meta["template"]))
    tokenizer = CharTokenizer(meta["charset"], template)
    layer_sel = json.loads(meta["layer_sel"])
    return lm, aligner, tokenizer, layer_sel


@dataclass
class GenerationResult:
    text: str
    truncated: bool


def generate(lm: CausalLM, aligner: SpeechAligner, speech_features,
             mode: str, tokenizer: CharTokenizer, max_tokens: int = 200) -> GenerationResult:
    """Greedy decoding of the assistant turn until the end marker.

    Deterministic for fixed inputs. Returns the raw assistant text; the
    truncated flag is set when max_tokens ran out before the end marker.
    """
    if mode not in _MODE_TABLE:
        raise ConfigError(f"unknown mode {mode!r}")
    instruction = _MODE_TABLE[mode][0]
    template = tokenizer.template
    prompt = (f"{template.user_marker}{template.audio_marker} {instruction}"
              f"{template.assistant_marker}")
    prompt_ids = tokenizer.encode(prompt)
    placeholder = tokenizer.token_id(template.audio_marker)
    end_id = tokenizer.token_id(template.end_marker)
    p = _splice_positions(prompt_ids, placeholder)

    with T.no_grad():
        speech = aligner.align(np.asarray(speech_features))
        before = lm.embed(np.asarray(prompt_ids[:p], dtype=np.int64))
        after_ids = list(prompt_ids[p + 1 :])
        generated = []
        truncated = True
        for _ in range(max_tokens):
            parts = [before, speech]
            tail = after_ids + generated
            if tail:
                parts.append(lm.embed(np.asarray(tail, dtype=np.int64)))
            fused = T.concat(parts, axis=0)
            logits = lm.forward_embeddings(fused)
            nxt = int(np.argmax(logits.data[-1]))
            if nxt == end_id:
                truncated = False
                break
            generated.append(nxt)
    return GenerationResult(tokenizer.decode(generated), truncated)


@dataclass
class ParsedCot:
    steps: dict
    final: str
    malformed: bool


_STEP_RE = re.compile(r"^STEP\[(.+?)\]:\s?(.*)$")
_FINAL_RE = re.compile(r"^FINAL:\s?(.*)$")


def parse_cot_output(text: str, mode: str | None = None) -> ParsedCot:
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
