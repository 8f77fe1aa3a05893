"""The ``slmforge`` command line: one executable, nine subcommands.

Workflow order: curate -> pretrain -> finetune-asr -> transcribe ->
build-sft -> train-aligner -> infer -> eval / report.

Exit codes: 0 success, 1 usage error, 2 runtime error. ``curate``,
``pretrain``, ``finetune-asr`` and ``train-aligner`` read a flat JSON
``--config`` whose keys are listed per subcommand in ``CONFIG_KEYS``; each
key sets one dataclass field, whose default applies when the key is absent.
Any other key, or a value whose JSON type does not fit the field, is an
error naming the file, key and field (``config.config_fields``). The audio
front end is fixed (``audio.log_mel``, a plain (T, n_mels) array per
utterance); its mel count is the encoder's input width, which ``pretrain``
takes from the ``n_mels`` key and every later subcommand from the checkpoint
holding the encoder. Every checkpoint is written by ``nn.save_checkpoint``
and read by ``nn.load_checkpoint``; the encoder that ``pretrain --init``
loads must have exactly the model config and class count (``k``) the config
resolves to. ``train-aligner`` stores the encoder it was given in the fusion
checkpoint, which ``infer`` runs; an ``infer --encoder`` file must hold that
same encoder. The training subcommands take their seed from ``--seed``, else
SLMFORGE_SEED, else 0. Every artifact-producing subcommand embeds the fully
resolved config and its hash in the output, so identical config + seed
reproduce outputs byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields

from . import __version__
from .audio import analysis_frame, log_mel, read_wav, resample, standardize
from .config import config_fields, config_hash
from .curate import Manifest, PipelineConfig, run_pipeline, trim_to_speech
from .errors import ConfigError, SlmforgeError
from .fileio import atomic_open, read_json, read_text
from .nn import checkpoint_bytes, load_checkpoint, save_checkpoint
# wer stays bound here although cmd_eval scores through compute_report:
# bench/test_bench.py checks that span patching reaches from-imported names
from .metrics import MetricRow, compute_report, render_report, wer  # noqa: F401
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


def _config_fields(args) -> dict:
    """Read ``args.config`` into {dataclass: {field: value}}: each key is
    routed by ``CONFIG_KEYS`` and its value checked by ``config_fields``."""
    keys = CONFIG_KEYS[args.command]
    fields_by_class = {cls: {} for cls, _ in keys.values()}
    if args.config is None:
        return fields_by_class
    raw = read_json(args.config)
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
    return fields_by_class


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SLMFORGE_SEED")
    return int(env) if env else 0


def _resolved_metadata(seed: int, *configs) -> dict:
    """Checkpoint metadata holding every field of ``configs`` plus the seed."""
    resolved = {type(cfg).__name__: asdict(cfg) for cfg in configs}
    resolved["seed"] = seed
    return {"config": json.dumps(resolved, sort_keys=True),
            "config_hash": config_hash(resolved)}


def _records_with_audio(manifest: Manifest, n_mels: int):
    """Yield (record, standardized (T, ``n_mels``) log-mel array) per manifest
    record."""
    cache = {}
    for rec in manifest.records:
        if rec.source_path not in cache:
            cache[rec.source_path] = read_wav(rec.source_path)
        buf = resample(cache[rec.source_path], rec.sample_rate)
        seg = buf.slice_seconds(rec.offset_s, rec.offset_s + rec.duration_s)
        yield rec, standardize(log_mel(seg, n_mels))


def _normalization_rules(args):
    """The rules of ``--lexicon``, else of the built-in ``--language`` table
    (English when neither is given); the parser makes them exclusive."""
    if args.lexicon:
        return asr_mod.load_lexicon(args.lexicon)
    return asr_mod.builtin_rules(args.language or "en")


def _check_sample_rate(sample_rate: int) -> None:
    """Reject a ``--sample-rate`` the analysis frame cannot use, before any
    file is opened."""
    try:
        analysis_frame(sample_rate)
    except ConfigError as exc:
        raise ConfigError(f"--sample-rate: {exc}") from None


def _wav_features(path, sample_rate: int, n_mels: int):
    """Standardized (T, ``n_mels``) log-mel array of one WAV trimmed to its
    speech extent, so decode-time features match the curated segments models
    were trained on."""
    buf = trim_to_speech(resample(read_wav(path), sample_rate))
    return standardize(log_mel(buf, n_mels))


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_curate(args) -> int:
    manifest = run_pipeline(args.paths, PipelineConfig(**_config_fields(args)[PipelineConfig]))
    manifest.write(args.out)
    h = manifest.header
    print(
        f"curate: {h['n_kept']}/{h['n_candidates']} segments kept "
        f"({h['total_hours']:.4f} h), rejected {h['rejected']}, "
        f"{len(h['warnings'])} warnings -> {args.out}"
    )
    return 0


def cmd_pretrain(args) -> int:
    given = _config_fields(args)
    seed = _resolve_seed(args)
    encoder_cfg = SpeechEncoderConfig(**given[SpeechEncoderConfig])
    train_cfg = PretrainConfig(**given[PretrainConfig])
    if encoder_cfg.input_dim < train_cfg.n_mfcc:
        raise ConfigError(f"config {args.config}: 'n_mels' {encoder_cfg.input_dim} is below "
                          f"the {train_cfg.n_mfcc} MFCCs the pretraining targets need")
    if args.init is None:
        encoder = SpeechEncoder(encoder_cfg, train_cfg.k, seed=seed)
    else:
        encoder = load_checkpoint(args.init, SpeechEncoder)
        loaded = {**asdict(encoder.cfg), "n_classes": encoder.n_classes}
        for name, want in {**asdict(encoder_cfg), "n_classes": train_cfg.k}.items():
            if loaded[name] != want:
                raise ConfigError(f"{args.init}: encoder {name} {loaded[name]!r} differs "
                                  f"from the config's {want!r}")
    manifest = Manifest.read(args.manifest)
    if not manifest.records:
        raise ConfigError(f"manifest {args.manifest} has no records")
    dataset = [features for _, features in
               _records_with_audio(manifest, encoder_cfg.input_dim)]

    encoder, history = continued_pretrain(dataset, train_cfg, encoder, seed=seed)
    save_checkpoint(encoder, args.out, _resolved_metadata(seed, encoder_cfg, train_cfg))
    last = history[-1][1] if history else float("nan")
    print(f"pretrain: {len(history)} steps, final loss {last:.4f} -> {args.out}")
    return 0


def cmd_finetune_asr(args) -> int:
    seed = _resolve_seed(args)
    cfg = asr_mod.FinetuneConfig(**_config_fields(args)[asr_mod.FinetuneConfig])
    encoder = load_checkpoint(args.encoder, SpeechEncoder)
    manifest = Manifest.read(args.manifest)

    rules = _normalization_rules(args)
    train, heldout, train_ids = [], [], []
    for rec, features in _records_with_audio(manifest, encoder.cfg.input_dim):
        if not rec.transcript:
            continue
        text = asr_mod.normalize_text(rec.transcript, rules)
        if rec.split == "test":
            heldout.append((features, text))
        else:
            train.append((features, text))
            train_ids.append(rec.id)
    if not train:
        raise ConfigError("no records with transcripts to fine-tune on")

    if args.vocab:
        vocab = asr_mod.Vocab.from_file(args.vocab)
        for rec_id, (_, text) in zip(train_ids, train):
            try:
                vocab.encode(text)
            except ConfigError as exc:
                raise ConfigError(f"{args.vocab}: {exc}, in the transcript of record "
                                  f"{rec_id!r}") from None
    else:
        vocab = asr_mod.Vocab.from_texts([t for _, t in train + heldout])
    model, history = asr_mod.finetune_ctc(encoder, train, vocab, cfg,
                                          heldout=heldout or None, seed=seed)
    save_checkpoint(model, args.out, _resolved_metadata(seed, cfg))
    evals = [(s, w) for s, _, w in history if w is not None]
    tail = f", train WER {evals[-1][1]:.3f}" if evals else ""
    print(f"finetune-asr: {len(history)} steps{tail} -> {args.out}")
    return 0


def cmd_transcribe(args) -> int:
    _check_sample_rate(args.sample_rate)
    model = load_checkpoint(args.ckpt, asr_mod.CtcModel)
    features = _wav_features(args.wav, args.sample_rate, model.encoder.cfg.input_dim)
    print(model.transcribe(features, beam_width=args.beam))
    return 0


def cmd_build_sft(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    choices = ", ".join(slm_mod.MODES)
    if not modes:
        raise ConfigError(f"--modes names no mode; choose from {choices}")
    unknown = [m for m in modes if m not in slm_mod.MODES]
    if unknown:
        raise ConfigError(f"--modes: unknown modes: {unknown}; choose from {choices}")
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
    given = _config_fields(args)
    seed = _resolve_seed(args)
    fusion_cfg = slm_mod.FusionTrainConfig(**given[slm_mod.FusionTrainConfig])
    examples, tokenizer, _header = slm_mod.read_instruction_dataset(args.sft)
    if not examples:
        raise ConfigError(f"no examples in {args.sft}")
    encoder = load_checkpoint(args.encoder, SpeechEncoder)
    manifest = Manifest.read(args.manifest)

    feature_cache = {}
    for rec, features in _records_with_audio(manifest, encoder.cfg.input_dim):
        feature_cache[rec.id] = slm_mod.extract_multilayer_features(encoder, features)
    pairs = []
    for ex in examples:
        if ex.audio_id not in feature_cache:
            raise ConfigError(f"sft example references unknown audio id {ex.audio_id!r}")
        pairs.append((feature_cache[ex.audio_id], ex))

    lm_cfg = slm_mod.CausalLMConfig(vocab_size=tokenizer.vocab_size,
                                    **given[slm_mod.CausalLMConfig])
    lm = slm_mod.CausalLM(lm_cfg, seed=seed)
    if fusion_cfg.lm_steps:
        corpus = slm_mod.lm_stand_in_sequences(
            examples, tokenizer, lambda aid: feature_cache[aid].shape[0]
        )
        slm_mod.train_lm(lm, corpus, steps=fusion_cfg.lm_steps,
                         lr=fusion_cfg.lm_lr, seed=seed)
    lm.freeze()

    aligner = slm_mod.SpeechAligner(encoder.cfg.dim * encoder.cfg.n_layers, lm_cfg.dim,
                                    hidden=fusion_cfg.aligner_hidden, seed=seed + 1)
    history = slm_mod.train_aligner(lm, aligner, pairs, tokenizer, fusion_cfg, seed=seed)
    save_checkpoint(slm_mod.FusionModel(encoder, lm, aligner, tokenizer), args.out,
                    _resolved_metadata(seed, lm_cfg, fusion_cfg))
    last = history[-1][1] if history else float("nan")
    print(f"train-aligner: {len(history)} steps, final loss {last:.4f} -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    _check_sample_rate(args.sample_rate)
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
    features = _wav_features(args.wav, args.sample_rate, fusion.encoder.cfg.input_dim)
    speech = slm_mod.extract_multilayer_features(fusion.encoder, features)
    result = slm_mod.generate(fusion.lm, fusion.aligner, speech, mode, fusion.tokenizer,
                              max_tokens=args.max_tokens)
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
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ConfigError("--metrics names no metric; choose from wer, cer, chrf")
    unknown = [m for m in metrics if m not in ("wer", "cer", "chrf")]
    if unknown:
        raise ConfigError(f"--metrics: unknown metrics: {unknown}")
    refs = read_text(args.refs).splitlines()
    hyps = read_text(args.hyps).splitlines()
    if len(refs) != len(hyps):
        raise ConfigError(
            f"refs ({len(refs)} lines) and hyps ({len(hyps)} lines) differ"
        )
    if not args.no_normalize:
        rules = _normalization_rules(args)
        refs = [asr_mod.normalize_text(t, rules) for t in refs]
        hyps = [asr_mod.normalize_text(t, rules) for t in hyps]

    row = compute_report(args.name, refs, hyps, metrics)
    if args.external_scores:
        scores = read_json(args.external_scores)
        bs_f1 = scores.get("bs_f1") if isinstance(scores, dict) else None
        if type(bs_f1) not in (int, float):
            raise ConfigError(f"{args.external_scores}: external scores must be a JSON "
                              f"object with a number 'bs_f1', got {json.dumps(scores)}")
        row.bs_f1 = float(bs_f1)

    print(render_report([row]), end="")
    if args.out:
        resolved = {"metrics": metrics, "normalize": not args.no_normalize}
        payload = {
            "config": resolved,
            "config_hash": config_hash(resolved),
            "rows": json.loads(render_report([row], fmt="json")),
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
    p.add_argument("--sample-rate", type=int, default=16000)
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
    p.add_argument("--sample-rate", type=int, default=16000)
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
