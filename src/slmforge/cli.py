"""The ``slmforge`` command line: one executable, nine subcommands.

Workflow order: curate -> pretrain -> finetune-asr -> transcribe ->
build-sft -> train-aligner -> infer -> eval / report.

Exit codes: 0 success, 1 usage error, 2 runtime error. ``curate``,
``pretrain``, ``finetune-asr`` and ``train-aligner`` read a flat JSON
``--config`` whose keys are listed per subcommand in ``CONFIG_KEYS``; each
key sets one dataclass field, whose default applies when the key is absent.
Any other key, or a value whose JSON type does not fit the field, is an
error naming the file, key and field (``config.config_fields``), and a value
a dataclass rule rejects is an error naming the file and the key. The audio
front end is fixed: ``_encoder_input`` resamples audio to the encoder's
sample rate and standardizes its ``audio.log_mel``, a plain (T, n_mels)
array per utterance. The encoder's record holds both numbers: ``pretrain``
takes the mel count from the ``n_mels`` key and the rate from the manifest,
whose records must share one, and every later subcommand takes both from
the checkpoint holding the encoder. Every checkpoint is written by
``nn.save_checkpoint`` and read by ``nn.load_checkpoint``; the encoder that
``pretrain --init`` loads must have exactly the model config and class count
(``k``) the config and manifest resolve to. ``train-aligner`` stores the
encoder it was given in the fusion checkpoint, which ``infer`` runs; an
``infer --encoder`` file must hold that same encoder. A training subcommand
reads only the manifest records it uses, chosen before any WAV is read:
``pretrain`` all, ``train-aligner`` those its SFT examples name, and
``finetune-asr`` the transcribed ones, holding out and scoring the
``split == "test"`` ones and, without ``--vocab``, taking the CTC vocabulary
from the others. The training subcommands take their seed from ``--seed``,
else SLMFORGE_SEED, else 0. Every artifact-producing subcommand embeds the
fully resolved config and its hash in the output, so identical config + seed
reproduce outputs byte-for-byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import re
import sys
from dataclasses import asdict, fields, replace

from . import __version__
from .audio import log_mel, read_wav, resample, standardize
from .config import config_fields, config_hash
from .curate import Manifest, PipelineConfig, run_pipeline, trim_to_speech
from .errors import ConfigError, SlmforgeError
from .fileio import atomic_open, read_json, read_text
from .nn import checkpoint_bytes, load_checkpoint, save_checkpoint
from .metrics import MetricRow, cer, compute_report, render_report, wer
from .pretrain import PretrainConfig, SpeechEncoder, SpeechEncoderConfig, continued_pretrain
from . import asr as asr_mod
from . import slm as slm_mod

log = logging.getLogger("slmforge")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _same_names(cls, *names) -> dict:
    return {name: (cls, name) for name in names}


# Config-file keys per subcommand: key -> (dataclass, field it sets).
CONFIG_KEYS = {
    "curate": _same_names(PipelineConfig, *(f.name for f in fields(PipelineConfig))),
    "pretrain": {
        "n_mels": (SpeechEncoderConfig, "input_dim"),
        **_same_names(SpeechEncoderConfig, "dim", "n_layers", "n_heads"),
        **_same_names(PretrainConfig, "epochs", "lr", "batch_seconds", "target_layer",
                      "k", "refresh_schedule", "max_steps", "mask_prob", "span_len"),
    },
    "finetune-asr": _same_names(asr_mod.FinetuneConfig, "steps", "lr", "batch_size",
                                "eval_every"),
    "train-aligner": {
        "d_lm": (slm_mod.CausalLMConfig, "dim"),
        "lm_layers": (slm_mod.CausalLMConfig, "n_layers"),
        "lm_heads": (slm_mod.CausalLMConfig, "n_heads"),
        **_same_names(slm_mod.FusionTrainConfig, "lm_steps", "lm_lr", "aligner_hidden",
                      "steps", "lr", "batch_size"),
    },
}


@contextlib.contextmanager
def _config_fields(args):
    """Read ``args.config`` into {dataclass: {field: value}}, each key routed
    by ``CONFIG_KEYS`` and its value checked by ``config_fields``, and yield
    it to the ``with`` block that builds the dataclasses. A ConfigError that
    block raises, such as a dataclass rule, names the config file, and each
    field it names is written as the key that sets it."""
    keys = CONFIG_KEYS[args.command]
    fields_by_class = {cls: {} for cls, _ in keys.values()}
    raw = {} if args.config is None else read_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError(f"config {args.config} must hold a JSON object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {', '.join(map(repr, unknown))} in {args.config}; "
            f"{args.command} accepts {', '.join(sorted(keys))}"
        )
    for cls in fields_by_class:
        routed = {key: name for key, (owner, name) in keys.items() if owner is cls}
        try:
            fields_by_class[cls] = config_fields(
                cls, {key: value for key, value in raw.items() if key in routed}, routed)
        except ConfigError as exc:
            raise ConfigError(f"config {args.config}: {exc}") from None
    try:
        yield fields_by_class
    except ConfigError as exc:
        key_of = {name: key for key, (_, name) in keys.items()}
        message = "".join(key_of.get(word, word) for word in re.split(r"(\W+)", str(exc)))
        raise ConfigError(f"config {args.config}: {message}") from None


def _resolve_seed(args) -> int:
    """``--seed``, else SLMFORGE_SEED, else 0; a value that is not a
    non-negative integer is a ConfigError naming its source and the value."""
    source = "SLMFORGE_SEED" if args.seed is None else "--seed"
    value = (os.environ.get(source) or "0") if args.seed is None else str(args.seed)
    if not (value.isascii() and value.isdigit()):
        raise ConfigError(f"{source} must be a non-negative integer, got {value!r}")
    return int(value)


def _resolved_metadata(seed: int, *configs) -> dict:
    """Checkpoint metadata holding every field of ``configs`` plus the seed."""
    resolved = {type(cfg).__name__: asdict(cfg) for cfg in configs}
    resolved["seed"] = seed
    return {"config": json.dumps(resolved, sort_keys=True),
            "config_hash": config_hash(resolved)}


def _encoder_input(buf, cfg: SpeechEncoderConfig, source: str, span=None, min_frames=1):
    """The encoder's input from audio, a standardized (T, ``input_dim``)
    log-mel array: ``buf`` resampled to the encoder's ``sample_rate`` and cut
    to ``span`` (start_s, end_s), or without a span to its speech extent, so
    that a decoded file matches the curated segments models trained on.
    Audio that gives the encoder no output frame, or fewer than the speech
    aligner's ``min_frames``, is a ConfigError naming ``source``."""
    buf = resample(buf, cfg.sample_rate)
    buf = trim_to_speech(buf) if span is None else buf.slice_seconds(*span)
    features = standardize(log_mel(buf, cfg.input_dim))
    frames = SpeechEncoder.output_len(len(features))
    if not frames:
        raise ConfigError(f"{source} gives {len(features)} log-mel frames at "
                          f"{cfg.sample_rate} Hz; the encoder needs at least 2")
    if frames < min_frames:
        raise ConfigError(f"{source} gives {len(features)} log-mel frames at "
                          f"{cfg.sample_rate} Hz, {frames} encoder frame(s); the speech "
                          f"aligner needs at least {min_frames}")
    return features


def _records_with_audio(path, records, cfg: SpeechEncoderConfig, min_frames=1):
    """Yield (record, encoder input) per record of ``records``, from manifest
    ``path``, reading and resampling each source WAV once, not once per
    record; a record whose span gives the encoder no output frame, or fewer
    than ``min_frames``, is a ConfigError naming the manifest and the record."""
    wavs = {}
    for rec in records:
        if rec.source_path not in wavs:
            wavs[rec.source_path] = resample(read_wav(rec.source_path), cfg.sample_rate)
        yield rec, _encoder_input(wavs[rec.source_path], cfg,
                                  f"manifest {path}: record {rec.id!r}",
                                  (rec.offset_s, rec.offset_s + rec.duration_s), min_frames)


def _normalization_lexicon(args) -> dict:
    """The digit lexicon of ``--lexicon``, else the built-in ``--language``
    one (English when neither is given); the parser makes them exclusive."""
    if args.lexicon:
        return asr_mod.load_lexicon(args.lexicon)
    return asr_mod.builtin_rules(args.language or "en")


def _choices(flag: str, value: str, choices) -> list:
    """The names that ``value``, the comma-separated list given to ``flag``,
    holds. None, one not in ``choices`` or one named twice is a ConfigError
    naming the flag (and listing the choices, or the repeated name); the
    flag's name less its final "s" names one."""
    names = [name.strip() for name in value.split(",") if name.strip()]
    noun, listed = flag[2:-1], ", ".join(choices)
    if not names:
        raise ConfigError(f"{flag} names no {noun}; choose from {listed}")
    unknown = [name for name in names if name not in choices]
    if unknown:
        raise ConfigError(f"{flag}: unknown {noun}s: {unknown}; choose from {listed}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"{flag}: {noun}s named more than once: {repeated}")
    return names


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_curate(args) -> int:
    with _config_fields(args) as given:
        cfg = PipelineConfig(**given[PipelineConfig])
    manifest = run_pipeline(args.paths, cfg)
    manifest.write(args.out)
    h = manifest.header
    print(
        f"curate: {h['n_kept']}/{h['n_candidates']} segments kept "
        f"({h['total_hours']:.4f} h), rejected {h['rejected']}, "
        f"{len(h['warnings'])} warnings -> {args.out}"
    )
    return 0


def cmd_pretrain(args) -> int:
    seed = _resolve_seed(args)
    with _config_fields(args) as given:
        train_cfg = PretrainConfig(**given[PretrainConfig])
        # here, not in PretrainConfig: continued_pretrain with no epochs is a no-op
        if train_cfg.epochs < 1:
            raise ConfigError(f"'epochs' must be >= 1, got {train_cfg.epochs}")
        encoder_cfg = SpeechEncoderConfig(**given[SpeechEncoderConfig])
        if encoder_cfg.input_dim < train_cfg.n_mfcc:
            raise ConfigError(f"'n_mels' {encoder_cfg.input_dim} is below the "
                              f"{train_cfg.n_mfcc} MFCCs the pretraining targets need")
        if not 0 <= train_cfg.target_layer <= encoder_cfg.n_layers:
            raise ConfigError(f"'target_layer' {train_cfg.target_layer} is outside "
                              f"[0, {encoder_cfg.n_layers}], the encoder's layers")
    manifest = Manifest.read(args.manifest)
    if not manifest.records:
        raise ConfigError(f"manifest {args.manifest} has no records")
    rate = manifest.records[0].sample_rate
    other = next((rec for rec in manifest.records if rec.sample_rate != rate), None)
    if other is not None:
        raise ConfigError(f"manifest {args.manifest}: record {other.id!r} is at "
                          f"{other.sample_rate} Hz, record {manifest.records[0].id!r} at "
                          f"{rate} Hz; an encoder is trained at one sample rate")
    try:
        encoder_cfg = replace(encoder_cfg, sample_rate=rate)
    except ConfigError as exc:
        raise ConfigError(f"manifest {args.manifest}: {exc}") from None
    if args.init is None:
        encoder = SpeechEncoder(encoder_cfg, train_cfg.k, seed=seed)
    else:
        encoder = load_checkpoint(args.init, SpeechEncoder)
        loaded = {**asdict(encoder.cfg), "n_classes": encoder.n_classes}
        for name, want in {**asdict(encoder_cfg), "n_classes": train_cfg.k}.items():
            if loaded[name] != want:
                source = f"manifest {args.manifest}'s" if name == "sample_rate" else "config's"
                raise ConfigError(f"{args.init}: encoder {name} {loaded[name]!r} differs "
                                  f"from the {source} {want!r}")
    dataset = [features for _, features in
               _records_with_audio(args.manifest, manifest.records, encoder_cfg)]

    encoder, history = continued_pretrain(dataset, train_cfg, encoder, seed=seed)
    save_checkpoint(encoder, args.out, _resolved_metadata(seed, encoder_cfg, train_cfg))
    last = history[-1][1] if history else float("nan")
    print(f"pretrain: {len(history)} steps, final loss {last:.4f} -> {args.out}")
    return 0


def cmd_finetune_asr(args) -> int:
    seed = _resolve_seed(args)
    with _config_fields(args) as given:
        cfg = asr_mod.FinetuneConfig(**given[asr_mod.FinetuneConfig])
    encoder = load_checkpoint(args.encoder, SpeechEncoder)
    records = [rec for rec in Manifest.read(args.manifest).records if rec.transcript]

    lexicon = _normalization_lexicon(args)
    vocab = asr_mod.Vocab.from_file(args.vocab) if args.vocab else None
    # record id -> normalized transcript, checked before any WAV is read
    train, heldout = {}, {}
    for rec in records:
        text = asr_mod.normalize_text(rec.transcript, lexicon)
        if rec.split == "test":
            if not text:
                raise ConfigError(f"manifest {args.manifest}: test record {rec.id!r} has a "
                                  f"transcript with no text once normalized: "
                                  f"{rec.transcript!r}; held-out scores need one")
        elif vocab is not None:
            try:
                vocab.encode(text)
            except ConfigError as exc:
                raise ConfigError(f"{args.vocab}: {exc}, in the transcript of record "
                                  f"{rec.id!r}") from None
        (heldout if rec.split == "test" else train)[rec.id] = text
    # fine-tuning needs a word to learn, and the training WER one to score
    if not any(train.values()):
        raise ConfigError(f"manifest {args.manifest}: no training record has a transcript "
                          f"with words once normalized")
    if vocab is None:
        vocab = asr_mod.Vocab.from_texts(train.values(), (asr_mod.BLANK_SYMBOL,))
    features = {rec.id: f for rec, f in _records_with_audio(args.manifest, records, encoder.cfg)}
    # CTC emits at most one symbol per encoder frame, and a repeat needs a
    # blank between; a record too short for its transcript cannot be trained on
    for i, text in train.items():
        frames = SpeechEncoder.output_len(len(features[i]))
        needed = asr_mod.ctc_required_frames(vocab.encode(text))
        if frames < needed:
            raise ConfigError(f"manifest {args.manifest}: record {i!r} gives {frames} encoder "
                              f"frames, but CTC needs at least {needed} for its transcript")
    model, history = asr_mod.finetune_ctc(
        encoder, [(features[i], text) for i, text in train.items()], vocab, cfg, seed=seed)
    save_checkpoint(model, args.out, _resolved_metadata(seed, cfg))
    evals = [w for _, _, w in history if w is not None]
    tail = f", train WER {evals[-1]:.3f}" if evals else ""
    if heldout:
        refs = list(heldout.values())
        hyps = [model.transcribe(features[i]) for i in heldout]
        tail += f", held-out CER {cer(refs, hyps):.3f} WER {wer(refs, hyps):.3f}"
    print(f"finetune-asr: {len(history)} steps{tail} -> {args.out}")
    return 0


def cmd_transcribe(args) -> int:
    model = load_checkpoint(args.ckpt, asr_mod.CtcModel)
    features = _encoder_input(read_wav(args.wav), model.encoder.cfg, f"--wav {args.wav}")
    print(model.transcribe(features, beam_width=args.beam))
    return 0


def cmd_build_sft(args) -> int:
    modes = _choices("--modes", args.modes, slm_mod.MODES)
    manifest = Manifest.read(args.manifest)
    examples, tokenizer, skipped = slm_mod.build_instruction_dataset(
        manifest.records, modes
    )
    resolved = {"modes": modes}
    slm_mod.write_instruction_dataset(
        args.out, examples, tokenizer,
        {"config_hash": config_hash(resolved), "modes": modes},
    )
    print(f"build-sft: {len(examples)} examples, {len(skipped)} skipped -> {args.out}")
    return 0


def cmd_train_aligner(args) -> int:
    seed = _resolve_seed(args)
    with _config_fields(args) as given:
        fusion_cfg = slm_mod.FusionTrainConfig(**given[slm_mod.FusionTrainConfig])
        # the vocabulary size comes from the SFT file; the LM's shape is
        # checked before that file is read
        lm_cfg = slm_mod.CausalLMConfig(vocab_size=1, **given[slm_mod.CausalLMConfig])
    examples, tokenizer, _header = slm_mod.read_instruction_dataset(args.sft)
    if not examples:
        raise ConfigError(f"no examples in {args.sft}")
    # the only records read: those the examples name, by id in manifest order
    named = {ex.audio_id for ex in examples}
    records = {rec.id: rec for rec in Manifest.read(args.manifest).records if rec.id in named}
    unknown = next((ex for ex in examples if ex.audio_id not in records), None)
    if unknown is not None:
        raise ConfigError(f"{args.sft}: example {unknown.audio_id!r} ({unknown.mode}): "
                          f"audio id not in manifest {args.manifest}")
    lm_cfg = replace(lm_cfg, vocab_size=len(tokenizer))
    encoder = load_checkpoint(args.encoder, SpeechEncoder)
    model = slm_mod.FusionModel(encoder, slm_mod.CausalLM(lm_cfg, seed=seed), tokenizer,
                                fusion_cfg.aligner_hidden, seed=seed + 1)

    # every named record's audio is read and checked before the encoder runs on any
    feature_cache = {rec.id: features for rec, features in _records_with_audio(
        args.manifest, records.values(), encoder.cfg, slm_mod.FRAME_STACK)}
    for rec_id, features in feature_cache.items():
        feature_cache[rec_id] = slm_mod.extract_multilayer_features(encoder, features)
    pairs = [(feature_cache[ex.audio_id], ex) for ex in examples]

    if fusion_cfg.lm_steps:
        corpus = slm_mod.lm_stand_in_sequences(examples, tokenizer, feature_cache)
        slm_mod.train_lm(model.lm, corpus, steps=fusion_cfg.lm_steps,
                         lr=fusion_cfg.lm_lr, seed=seed)
    history = slm_mod.train_aligner(model, pairs, fusion_cfg, seed=seed)
    save_checkpoint(model, args.out, _resolved_metadata(seed, lm_cfg, fusion_cfg))
    last = history[-1][1] if history else float("nan")
    print(f"train-aligner: {len(history)} steps, final loss {last:.4f} -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    if args.max_tokens < 1:
        raise ConfigError(f"--max-tokens must be at least 1, got {args.max_tokens}")
    if args.cot in (None, "", "none"):
        mode = args.task
    else:
        mode = f"{args.cot}_{args.task}"
    if mode not in slm_mod.MODES:
        raise ConfigError(
            f"no mode for task {args.task!r} with CoT step {args.cot!r}"
        )
    fusion = load_checkpoint(args.fusion, slm_mod.FusionModel)
    if args.encoder is not None:
        given = load_checkpoint(args.encoder, SpeechEncoder)
        if checkpoint_bytes(given.state_arrays(), given.record()) != checkpoint_bytes(
                fusion.encoder.state_arrays(), fusion.encoder.record()):
            raise ConfigError(f"{args.encoder} is not the encoder in {args.fusion}")
    features = _encoder_input(read_wav(args.wav), fusion.encoder.cfg, f"--wav {args.wav}",
                              min_frames=slm_mod.FRAME_STACK)
    speech = slm_mod.extract_multilayer_features(fusion.encoder, features)
    result = slm_mod.generate(fusion, speech, mode, max_tokens=args.max_tokens)
    parsed = slm_mod.parse_cot_output(result.text)
    looping = slm_mod.detect_repetition_loop(result.text)
    print(f"RAW: {result.text!r}")
    for name, text in parsed.steps.items():
        print(f"STEP[{name}]: {text}")
    print(f"FINAL: {parsed.final}")
    flags = []
    if parsed.malformed:
        flags.append("malformed")
    if result.truncated:
        flags.append("truncated")
    if looping:
        flags.append("repetition-loop")
    if flags:
        print(f"FLAGS: {','.join(flags)}")
    return 0


def cmd_eval(args) -> int:
    metrics = _choices("--metrics", args.metrics, ("wer", "cer", "chrf"))
    texts = [read_text(path) for path in (args.refs, args.hyps)]
    # "\n" is the one line break read_text leaves; U+2028 and the like are text
    refs, hyps = (text.removesuffix("\n").split("\n") if text else [] for text in texts)
    if len(refs) != len(hyps):
        raise ConfigError(
            f"refs ({len(refs)} lines) and hyps ({len(hyps)} lines) differ"
        )
    if not args.no_normalize:
        lexicon = _normalization_lexicon(args)
        refs = [asr_mod.normalize_text(t, lexicon) for t in refs]
        hyps = [asr_mod.normalize_text(t, lexicon) for t in hyps]

    row = compute_report(args.name, refs, hyps, metrics)
    if args.external_scores:
        scores = read_json(args.external_scores)
        bs_f1 = scores.get("bs_f1") if isinstance(scores, dict) else None
        if type(bs_f1) not in (int, float):
            raise ConfigError(f"{args.external_scores}: external scores must be a JSON "
                              f"object with a number 'bs_f1', got {json.dumps(scores)}")
        if not abs(bs_f1) <= sys.float_info.max:  # NaN, infinite, or an int too big
            raise ConfigError(f"{args.external_scores}: 'bs_f1' must be finite, got {bs_f1!r}")
        row.bs_f1 = float(bs_f1)

    print(render_report([row]), end="")
    if args.out:
        resolved = {"metrics": metrics, "normalize": not args.no_normalize}
        payload = {
            "config": resolved,
            "config_hash": config_hash(resolved),
            "rows": [row.to_dict()],
        }
        with atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_report(args) -> int:
    raw = read_json(args.rows)
    if not isinstance(raw, list):
        raise ConfigError(f"{args.rows}: rows file must hold a JSON array of row objects")
    rows = []
    for i, d in enumerate(raw):
        try:
            rows.append(MetricRow.from_dict(d))
        except ConfigError as exc:
            raise ConfigError(f"{args.rows} row {i}: {exc}") from None
    text = render_report(rows, fmt=args.format)
    if args.out:
        with atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser


# built at the first call, not at import; main reuses it for every later call
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="slmforge", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"slmforge {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def config_flag(p):
        p.add_argument("--config", default=None,
                       help="JSON config file; unknown keys are an error")

    def normalization_flags(p):
        # one source of normalization rules; eval adds --no-normalize here
        group = p.add_mutually_exclusive_group()
        group.add_argument("--lexicon", default=None, help="digit verbalization lexicon JSON")
        group.add_argument("--language", default=None,
                           help="built-in number lexicon (default en)")
        return group

    def training_flags(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override SLMFORGE_SEED (default 0)")
        config_flag(p)

    p = sub.add_parser("curate", help="filter raw audio into a manifest of utterances")
    config_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("paths", nargs="+", metavar="WAV")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("pretrain", help="masked-prediction pretraining of the encoder")
    training_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--init", default=None, help="checkpoint for continued pretraining")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune-asr", help="CTC fine-tuning on transcribed segments")
    training_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--vocab", default=None, help="symbol-per-line vocab file")
    normalization_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune_asr)

    p = sub.add_parser("transcribe", help="decode one WAV with a fine-tuned model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--beam", type=int, default=1)
    p.set_defaults(func=cmd_transcribe)

    p = sub.add_parser("build-sft", help="render chain-of-thought instruction data")
    p.add_argument("--manifest", required=True)
    p.add_argument("--modes", default="transcribe")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_sft)

    p = sub.add_parser("train-aligner", help="fusion training of the speech aligner")
    training_flags(p)
    p.add_argument("--sft", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_aligner)

    p = sub.add_parser("infer", help="run the fused speech LM on one WAV")
    p.add_argument("--fusion", required=True)
    p.add_argument("--encoder", help="optional; must equal the encoder --fusion holds")
    p.add_argument("--wav", required=True)
    p.add_argument("--task", required=True, choices=["transcribe", "translate"])
    p.add_argument("--cot", default="none",
                   help="CoT step before the task: none|phonemize|translate|transcribe|paraphrase")
    p.add_argument("--max-tokens", type=int, default=200)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score hypothesis lines against references")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--metrics", default="wer,cer,chrf")
    p.add_argument("--external-scores", default=None,
                   help="JSON file supplying a bs_f1 value")
    p.add_argument("--out", default=None, help="write a JSON report here")
    normalization_flags(p).add_argument("--no-normalize", action="store_true")
    p.add_argument("--name", default="system")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render a metric table from row data")
    p.add_argument("--rows", required=True, help="JSON array of row objects")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SLMFORGE_LOGLEVEL", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (SlmforgeError, OSError, ValueError) as exc:
        print(f"slmforge {args.command}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
