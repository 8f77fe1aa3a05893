"""Benchmark of the slmforge command line on seeded synthetic inputs.

    python3 bench/run.py --workload {train,decode,data} --seed N --seconds S --trace {0,1}

One process, one caller, a closed loop: each CLI call starts when the last
one has returned, all through the public entry point
``slmforge.cli.main(argv)`` in process, pinned to one CPU. A *round* is one
pass of the workload's command sequence; rounds repeat until their measured
time reaches ``--seconds`` (at least one round). Timed intervals are scaled
to a reference host speed by a calibration kernel timed between calls
(``Calibrator``). See ``bench/README.md`` for the workloads, the metrics and
the layer each metric is meant to expose.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes the same
untraced measurement, then wraps the program's public functions
(``spans.py``), sets up once more and runs a fixed number of rounds traced,
so span call counts repeat exactly; it prints per-layer calls and self
time, the named counts and the tracing overhead (traced minus untraced).

Every CLI call is an operation; it fails when it does not exit 0 or its
output check fails. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, per-command timings, numerics fingerprint, failures) is
written to ``.bench_results/`` in the checkout.
"""

import bootstrap  # noqa: I001  (first: pins BLAS threads before numpy loads)

import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
import spans
from slmforge import cli
from slmforge.curate import Manifest
from slmforge.slm import ChatTemplate

ROOT = bootstrap.ROOT
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_REPEATS = 3
IMPORT_SAMPLES = 9
# Median time of Calibrator.kernel on the reference host: one core of a
# 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS on one thread.
CAL_REF_S = 0.0320
CAL_INTERVAL_S = 0.5
CAL_WINDOW_S = 5.0
MODES = ",".join(inputs.SFT_MODES)
INFER_MAX_TOKENS = "32"

# ---------------------------------------------------------------------------
# Spans of the traced run: (module, qualname, count, span name per call)


def _count_frames(rec, args, kwargs, result):
    rec.counts["pretrain.SpeechEncoder.forward.frames"] += np.shape(args[1])[0]


def _count_tokens(rec, args, kwargs, result):
    rec.counts["slm.generate.tokens"] += count_tokens(result.text)


def _count_kept(rec, args, kwargs, result):
    rec.counts["curate.kept"] += result.header["n_kept"]
    rec.counts["curate.candidates"] += result.header["n_candidates"]


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}"


CLI_COMMANDS = ("curate", "pretrain", "finetune-asr", "transcribe", "build-sft",
                "train-aligner", "infer", "eval", "report")
SPAN_TARGETS = [
    ("tensor", "Tensor.backward", None, None),
    ("nn", "Adam.step", None, None),
    ("nn", "save_checkpoint", None, None),
    ("nn", "load_checkpoint", None, None),
    ("audio", "read_wav", None, None),
    ("audio", "resample", None, None),
    ("audio", "log_mel", None, None),
    ("audio", "mfcc", None, None),
    ("curate", "run_pipeline", _count_kept, None),
    ("curate", "separate_sources", None, None),
    ("curate", "vad_segments", None, None),
    ("curate", "diarize", None, None),
    ("curate", "quality_score", None, None),
    ("curate", "trim_to_speech", None, None),
    ("pretrain", "continued_pretrain", None, None),
    ("pretrain", "kmeans_fit", None, None),
    ("pretrain", "refresh_targets", None, None),
    ("pretrain", "masked_prediction_loss", None, None),
    ("pretrain", "SpeechEncoder.forward", _count_frames, None),
    ("asr", "finetune_ctc", None, None),
    ("asr", "ctc_loss", None, None),
    ("asr", "CtcModel.transcribe", None, None),
    ("asr", "ctc_greedy_decode", None, None),
    ("asr", "ctc_beam_decode", None, None),
    ("asr", "normalize_text", None, None),
    ("slm", "build_instruction_dataset", None, None),
    ("slm", "extract_multilayer_features", None, None),
    ("slm", "train_lm", None, None),
    ("slm", "train_aligner", None, None),
    ("slm", "fusion_loss", None, None),
    ("slm", "generate", _count_tokens, None),
    ("metrics", "wer", None, None),
    ("metrics", "cer", None, None),
    ("metrics", "chrf", None, None),
    ("metrics", "render_report", None, None),
    ("cli", "main", None, _cli_span_name),
]
SPAN_NAMES = [f"{m}.{q}" for m, q, _, name_of in SPAN_TARGETS if name_of is None] + [
    f"cli.main.{c}" for c in CLI_COMMANDS]
COUNT_NAMES = ("pretrain.SpeechEncoder.forward.frames", "slm.generate.tokens",
               "curate.kept_ratio")
OVERHEAD_NAMES = ("setup_s", "round_s")


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "ratio" if name.endswith("ratio") else "count")
            for name in COUNT_NAMES]
    out += [(f"trace.overhead.{name}", "s") for name in OVERHEAD_NAMES]
    return out


END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("cli_import_s", "s"),
              ("round_s", "s"))


# ---------------------------------------------------------------------------
# Helpers


_SPECIALS = ChatTemplate().specials


def count_tokens(text: str) -> int:
    """Tokens in generated text: each special marker is one token, else one per char."""
    return len(text) - sum(text.count(m) * (len(m) - 1) for m in _SPECIALS)


def edit_distance(a, b) -> int:
    """Levenshtein distance; the benchmark's own, independent of the program's."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


def tail(samples):
    """(label, value) of the highest percentile with ten samples beyond it.

    None when that percentile would not lie above the median (under 20 samples).
    """
    n = len(samples)
    if n < 20:
        return None
    return f"p{100 * (n - 10) // n}", sorted(samples)[n - 11]


# The aligner trains a few minibatch steps against a barely trained stand-in
# LM; its loss stays flat within minibatch noise (no trend over 20 steps at
# lr 1e-2 to 1e-1), so only finiteness is checked there.
FLAT_LOSS_STAGES = ("aligner",)


def loss_problem(stage: str, losses) -> str | None:
    """None when the loss history is finite and, unless flat by design, fell."""
    if not losses:
        return f"{stage}: no loss recorded"
    if not all(math.isfinite(x) for x in losses):
        return f"{stage}: non-finite loss"
    if stage not in FLAT_LOSS_STAGES and not losses[-1] < losses[0]:
        return f"{stage}: loss went from {losses[0]:.4f} to {losses[-1]:.4f}"
    return None


class Run:
    """Operation counts, timing samples and loss taps of one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = defaultdict(list)
        self.losses = {}
        self.recorder = None
        self.after_call = None

    def call(self, label: str, argv, check=None) -> tuple:
        """Run one CLI command, check it and return its (start, end) times."""
        self.attempted += 1
        self.losses = {}
        if self.recorder is not None:
            self.recorder.request = f"{self.workload}/{label}"
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except Exception:  # the program crashed: count it, keep measuring
            traceback.print_exc()
            rc = "exception"
        end = time.perf_counter()
        out = buf.getvalue()
        problem = f"exit {rc}" if rc != 0 else None
        if problem is None:
            for stage, losses in self.losses.items():
                problem = problem or loss_problem(stage, losses)
        if problem is None and check is not None:
            try:
                problem = check(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError, SyntaxError) as exc:
                problem = f"output check raised {exc!r}"
        if problem is not None:
            self.fail(f"{label}: {problem}")
        if self.after_call is not None:
            self.after_call()
        return start, end

    def fail(self, message: str):
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def install_loss_taps(self):
        """Record each training loop's loss history; one wrapper call per stage."""
        def tap(stage, pick):
            def make(fn):
                def wrapper(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    self.losses[stage] = [row[1] for row in pick(result)]
                    return result
                return wrapper
            return make

        for module, name, stage, pick in (
            ("pretrain", "continued_pretrain", "pretrain", lambda r: r[1]),
            ("asr", "finetune_ctc", "finetune", lambda r: r[1]),
            ("slm", "train_lm", "lm", lambda r: r),
            ("slm", "train_aligner", "aligner", lambda r: r),
        ):
            spans.patch_everywhere(module, name, tap(stage, pick))


# ---------------------------------------------------------------------------
# Workloads

TRAINING_STAGES = (
    ("pretrain", ["pretrain", "--manifest", "manifest.jsonl", "--config", "pretrain.json",
                  "--seed", "0", "--out", "encoder.ckpt"]),
    ("finetune-asr", ["finetune-asr", "--manifest", "manifest.jsonl", "--encoder",
                      "encoder.ckpt", "--config", "finetune.json", "--seed", "0",
                      "--out", "asr.ckpt"]),
    ("build-sft", ["build-sft", "--manifest", "manifest.jsonl", "--modes", MODES,
                   "--out", "sft.jsonl"]),
    ("train-aligner", ["train-aligner", "--sft", "sft.jsonl", "--manifest", "manifest.jsonl",
                       "--encoder", "encoder.ckpt", "--config", "aligner.json",
                       "--seed", "0", "--out", "fusion.ckpt"]),
)
TRAINED = ("encoder.ckpt", "asr.ckpt", "sft.jsonl", "fusion.ckpt")


def sft_check(n_examples: int):
    want = f"build-sft: {n_examples} examples, 0 skipped"
    return lambda out: None if out.startswith(want) else f"unexpected output {out.strip()!r}"


def rate_check(path: str, key: str, oracle: float):
    """None when ``eval --out`` wrote ``key`` equal to the oracle at its 4 decimals."""
    value = json.loads(Path(path).read_text(encoding="utf-8"))["rows"][0][key]
    if value != round(oracle, 4):
        return f"{key} {value} differs from the oracle {oracle:.6f}"
    return None


class Workload:
    """Inputs from the seed, one round of CLI calls, and the run's checks."""

    traced_rounds = 1

    def __init__(self, run: Run, seed: int):
        self.run, self.seed = run, seed
        self.first_digest = None
        self.final_losses = {}

    def setup(self):
        self.expected = inputs.make_inputs(self.run.workload, Path("."), self.seed)

    def same_as_first(self, *paths):
        """None while the files hash the same as the first time they were checked."""
        digest = file_digest(*paths)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return "artifacts differ from their first build"
        return None

    def calls(self, steps, prefix: str = "") -> list:
        """Run (label, argv, check) steps in order; returns their (start, end) times."""
        intervals = []
        for label, argv, check in steps:
            start, end = self.run.call(prefix + label, argv, check)
            self.run.samples[prefix + label].append(end - start)
            self.final_losses.update({s: l[-1] for s, l in self.run.losses.items()})
            intervals.append((start, end))
        return intervals

    def train(self, prefix: str = "") -> list:
        """The training stages through the CLI, each checked."""
        checks = {
            "build-sft": sft_check(self.expected["n_records"] * len(inputs.SFT_MODES)),
            "train-aligner": lambda out: self.same_as_first(*TRAINED),
        }
        return self.calls([(label, argv, checks.get(label))
                           for label, argv in TRAINING_STAGES], prefix)

    def finish(self):
        pass


class Train(Workload):
    """pretrain -> finetune-asr -> build-sft -> train-aligner at fixed step counts."""

    def round(self) -> list:
        return self.train()

    def report(self) -> dict:
        s = self.run.samples
        return {
            "pretrain_s": (s["pretrain"], "s"),
            "finetune_asr_s": (s["finetune-asr"], "s"),
            "build_sft_s": (s["build-sft"], "s"),
            "train_aligner_s": (s["train-aligner"], "s"),
        }

    def fingerprint(self) -> dict:
        return {"final_loss": self.final_losses, "artifacts": self.first_digest}


class Decode(Workload):
    """Per held-out WAV: transcribe, transcribe --beam 4, infer with a CoT step."""

    traced_rounds = len(inputs.HELDOUT_DURATIONS)  # each held-out WAV once

    def __init__(self, run: Run, seed: int):
        super().__init__(run, seed)
        self.outputs = {}
        self.position = 0
        self.tokens = []  # generated tokens per infer call

    def setup(self):
        super().setup()
        self.train("setup/")

    def _repeatable(self, key, value):
        seen = self.outputs.setdefault(key, value)
        return None if seen == value else f"output changed: {seen!r} -> {value!r}"

    def _infer_check(self, wav):
        def check(out):
            lines = out.splitlines()
            if not lines or not lines[0].startswith("RAW: ") or not any(
                    line.startswith("FINAL:") for line in lines):
                return f"malformed infer output {out[:80]!r}"
            self.tokens.append(count_tokens(ast.literal_eval(lines[0][len("RAW: "):])))
            return self._repeatable(("infer", wav), out)
        return check

    def round(self) -> list:
        heldout = self.expected["heldout"]
        wav = heldout[self.position % len(heldout)]["wav"]
        self.position += 1
        greedy = ["transcribe", "--ckpt", "asr.ckpt", "--wav", wav]
        return self.calls([
            ("transcribe", greedy, lambda out: self._repeatable(("greedy", wav), out)),
            ("transcribe-beam", greedy + ["--beam", "4"],
             lambda out: self._repeatable(("beam", wav), out)),
            ("infer", ["infer", "--fusion", "fusion.ckpt", "--encoder", "encoder.ckpt",
                       "--wav", wav, "--task", "transcribe", "--cot", "phonemize",
                       "--max-tokens", INFER_MAX_TOKENS], self._infer_check(wav)),
        ])

    def finish(self):
        """eval over the decoded hypotheses, checked against the benchmark's own WER."""
        decoded = [h for h in self.expected["heldout"] if ("greedy", h["wav"]) in self.outputs]
        refs = [h["transcript"] for h in decoded]
        Path("refs.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
        words = sum(len(ref.split()) for ref in refs)
        for kind in ("greedy", "beam"):
            hyps = [self.outputs[(kind, h["wav"])].strip() for h in decoded]
            Path(f"hyps-{kind}.txt").write_text("\n".join(hyps) + "\n", encoding="utf-8")
            oracle = sum(edit_distance(r.split(), h.split()) for r, h in zip(refs, hyps)) / words
            self.calls([(f"eval-{kind}", ["eval", "--refs", "refs.txt", "--hyps",
                                          f"hyps-{kind}.txt", "--out", f"eval-{kind}.json"],
                         lambda out, kind=kind, oracle=oracle:
                             rate_check(f"eval-{kind}.json", "wer", oracle))])

    def report(self) -> dict:
        s = self.run.samples
        infer_s = sum(s["infer"])
        return {
            "transcribe_ms": ([x * 1e3 for x in s["transcribe"]], "ms"),
            "beam_transcribe_ms": ([x * 1e3 for x in s["transcribe-beam"]], "ms"),
            "infer_ms": ([x * 1e3 for x in s["infer"]], "ms"),
            "infer_tokens_per_s": ([sum(self.tokens) / infer_s] if infer_s else [], "tok/s"),
        }

    def fingerprint(self) -> dict:
        blob = json.dumps(sorted((k[0], k[1], v) for k, v in self.outputs.items()))
        return {"final_loss": self.final_losses, "checkpoints": self.first_digest,
                "decoded": hashlib.sha256(blob.encode()).hexdigest()[:16],
                "tokens_per_infer": statistics.mean(self.tokens) if self.tokens else 0}


class Data(Workload):
    """curate -> build-sft (six modes) -> eval on edited pairs -> report."""

    def _curate_check(self, out):
        want = self.expected["curate"]
        manifest = Manifest.read("curated.jsonl")
        header = manifest.header
        if header["n_kept"] != len(want["kept"]) or header["rejected"] != want["rejected"]:
            return (f"kept {header['n_kept']} rejected {header['rejected']}, expected "
                    f"{len(want['kept'])} and {want['rejected']}")
        unmatched = list(want["kept"])
        for rec in manifest.records:
            match = next((w for w in unmatched if w["path"] == rec.source_path
                          and abs(w["offset_s"] - rec.offset_s) < 0.1
                          and abs(w["duration_s"] - rec.duration_s) < 0.15), None)
            if match is None:
                return f"unexpected segment {rec.id} at {rec.offset_s} s"
            unmatched.remove(match)
            # the annotation step: attach the known text to the curated segment
            rec.transcript = match["transcript"]
            rec.translation = inputs.translate(match["transcript"])
        manifest.write("annotated.jsonl")
        return None

    def _report_check(self, out):
        lines = out.splitlines()
        names = self.expected["report"]["names"]
        if len(lines) != len(names) + 2 or any(n not in out for n in names):
            return f"report has {len(lines)} lines, expected {len(names) + 2}"
        return self.same_as_first("curated.jsonl", "annotated.jsonl", "sft.jsonl", "eval.json")

    def round(self) -> list:
        ev, cur = self.expected["eval"], self.expected["curate"]
        return self.calls([
            ("curate", ["curate", "--out", "curated.jsonl", *cur["paths"]], self._curate_check),
            ("build-sft", ["build-sft", "--manifest", "annotated.jsonl", "--modes", MODES,
                           "--out", "sft.jsonl"],
             sft_check(len(cur["kept"]) * len(inputs.SFT_MODES))),
            ("eval", ["eval", "--refs", ev["refs"], "--hyps", ev["hyps"], "--out", "eval.json"],
             lambda out: rate_check("eval.json", "wer", ev["wer"])
             or rate_check("eval.json", "cer", ev["cer"])),
            ("report", ["report", "--rows", self.expected["report"]["rows"]],
             self._report_check),
        ])

    def report(self) -> dict:
        s = self.run.samples
        audio_s = self.expected["curate"]["audio_s"]
        lines = self.expected["eval"]["lines"]
        return {
            "curate_x_realtime": ([audio_s / x for x in s["curate"]], "audio_s/s"),
            "build_sft_s": (s["build-sft"], "s"),
            "eval_lines_per_s": ([lines / x for x in s["eval"]], "lines/s"),
            "report_s": (s["report"], "s"),
        }

    def fingerprint(self) -> dict:
        return {"artifacts": self.first_digest}


WORKLOADS = {"train": Train, "decode": Decode, "data": Data}


# ---------------------------------------------------------------------------
# Measurement


def timed(fn) -> tuple:
    start = time.perf_counter()
    fn()
    return start, time.perf_counter()


def wall(intervals) -> float:
    return sum(end - start for start, end in intervals)


def closed_loop(workload, seconds: float) -> list:
    """Run rounds back to back until their measured time reaches ``seconds``.

    At least one round; each round is the list of its calls' (start, end).
    Checks, import samples and calibration between calls are not measured.
    """
    rounds = []
    while sum(wall(r) for r in rounds) < seconds:
        rounds.append(workload.round())
    return rounds


class Calibrator:
    """Times a fixed kernel, owned by the benchmark, between CLI calls.

    The shared host runs at speeds that differ by up to a third for minutes
    at a time and flips between speeds within a second, slowing the program
    and this kernel alike (measured: decode rounds 0.174-0.216 s over 20 s
    windows while their ratio to the kernel stayed within 3.5%). A single
    sample only catches one speed, so each timed interval is scaled by
    CAL_REF_S over the kernel's mean time in the samples taken within
    CAL_WINDOW_S of it: seconds at the reference host speed. Raw wall times
    are printed and recorded next to them.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((8, 8))
        self.wide = rng.standard_normal((200, 64))
        self.samples = []
        self.due = time.perf_counter()

    def kernel(self):
        """Interpreter loop, small numpy ops and a BLAS product: the program's mix."""
        acc = 0
        for k in range(90000):
            acc += k * k % 7
        for _ in range(2400):
            self.small.mean()
            np.exp(self.small)
        for _ in range(90):
            (self.wide @ self.wide.T).sum()
        return acc

    def sample(self):
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self.due = end + CAL_INTERVAL_S

    def when_due(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the kernel's mean time near [start, end]."""
        near = [d for t, d in self.samples
                if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return CAL_REF_S / statistics.mean(near)

    def scaled(self, intervals) -> float:
        return sum((end - start) * self.scale(start, end) for start, end in intervals)


class ImportTimer:
    """``import slmforge.cli`` timed in fresh interpreters, spread over the run.

    The host's speed drifts over seconds, so samples taken back to back
    share one speed. One sample is due every ``seconds / IMPORT_SAMPLES``
    of wall time and is taken after the next CLI call; the caller takes
    any still missing at the end.
    """

    CODE = ("import time; t = time.perf_counter(); import slmforge.cli; "
            "print(time.perf_counter() - t)")

    def __init__(self, run: Run, seconds: float):
        self.run = run
        self.samples = []
        self.taken = 0
        self.interval = seconds / IMPORT_SAMPLES
        self.due = time.perf_counter()

    def sample(self):
        """One import; keeps (start, end, import seconds) of its interpreter."""
        self.taken += 1
        self.run.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(bootstrap.SRC))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.CODE], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        end = time.perf_counter()
        if proc.returncode != 0:
            self.run.fail(f"import slmforge.cli: exit {proc.returncode}: "
                          f"{proc.stderr[-200:]}")
        else:
            self.samples.append((start, end, float(proc.stdout)))

    def when_due(self):
        if self.taken < IMPORT_SAMPLES and time.perf_counter() >= self.due:
            self.sample()
            self.due = time.perf_counter() + self.interval



def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ((ROOT / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") else ref)
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "blas_threads": {v: os.environ[v] for v in bootstrap.THREAD_VARS},
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def summary_lines(report: dict) -> list:
    """Median, highest percentile with ten samples beyond it, and sample count."""
    lines = []
    for name, (samples, unit) in report.items():
        if not samples:
            lines.append(f"  {name:<22} no samples")
            continue
        text = f"  {name:<22} p50 {_fmt(statistics.median(samples))} {unit}"
        t = tail(samples)
        if t is not None:
            text += f", {t[0]} {_fmt(t[1])} {unit}"
        lines.append(text + f" (n={len(samples)})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one core, the paper's target; the import children inherit it, so the
    # calibration kernel times the same core as everything it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    home = os.getcwd()
    os.chdir(work)  # inputs and artifacts use paths relative to the work dir
    try:
        run = Run(args.workload)
        run.install_loss_taps()
        workload = WORKLOADS[args.workload](run, args.seed)
        cal = Calibrator()
        run.after_call = cal.when_due
        cal.sample()
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(timed(workload.setup))
            cal.sample()
        first_op_s = time.perf_counter() - bootstrap.STARTED
        imports, traced = [], {}
        if args.trace == 0:
            importer = ImportTimer(run, args.seconds)

            def between_calls():
                cal.when_due()
                importer.when_due()

            run.after_call = between_calls
            rounds = closed_loop(workload, args.seconds)
            workload.finish()
            run.after_call = None
            report = workload.report()
            while importer.taken < IMPORT_SAMPLES:
                importer.sample()
                cal.sample()
            imports = importer.samples
            values = {
                "setup_s": statistics.median(cal.scaled([i]) for i in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                # a failed import is already counted; 0 keeps the line valid JSON
                "cli_import_s": statistics.median(
                    d * cal.scale(s, e) for s, e, d in imports) if imports else 0.0,
                "round_s": statistics.median(cal.scaled(r) for r in rounds),
            }
            units = dict(END_TO_END)
        else:
            rounds = closed_loop(workload, args.seconds)
            run.after_call = None
            report = workload.report()
            run.samples = defaultdict(list)  # keep traced timings out of the report
            recorder = spans.Recorder()
            run.recorder = recorder
            recorder.install(SPAN_TARGETS)
            try:
                recorder.request = f"{args.workload}/setup"
                traced_setup = timed(workload.setup)
                traced_rounds = [workload.round() for _ in range(workload.traced_rounds)]
                workload.finish()
            finally:
                recorder.uninstall()
                run.recorder = None
            traced = {"setup_s": wall([traced_setup]),
                      "round_s": statistics.median(wall(r) for r in traced_rounds),
                      "rounds": [wall(r) for r in traced_rounds]}
            values, units = layer_metrics(recorder, traced, [wall([i]) for i in setups],
                                          [wall(r) for r in rounds])
            with open(RESULTS_DIR / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
                for name, start, end, parent, request in recorder.spans:
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")
        fingerprint = workload.fingerprint()
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "samples_s": {"setup": [wall([i]) for i in setups],
                      "round": [wall(r) for r in rounds],
                      "cli_import": [d for _, _, d in imports],
                      "calibration": [d for _, d in cal.samples]},
        "first_op_after_start_s": first_op_s,
        "commands": {k: {"samples": v, "unit": u} for k, (v, u) in report.items()},
        "traced": traced, "fingerprint": fingerprint, "metrics": metrics,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
    }
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")

    print(f"slmforge bench: workload {args.workload}, seed {args.seed}, "
          f"{len(rounds)} untraced rounds, {run.attempted} operations, "
          f"{run.failed} failed")
    if args.trace == 0:
        kernel_ms = statistics.median(d for _, d in cal.samples) * 1e3
        print(f"host speed: calibration kernel median {_fmt(kernel_ms)} ms against "
              f"{_fmt(CAL_REF_S * 1e3)} ms on the reference host; end-to-end times are "
              f"scaled to the reference (raw wall medians: setup "
              f"{_fmt(statistics.median(wall([i]) for i in setups))} s, round "
              f"{_fmt(statistics.median(wall(r) for r in rounds))} s)")
    print("per command (untraced, raw wall time):")
    print("\n".join(summary_lines(report)))
    print(f"numerics fingerprint (not gated): {json.dumps(fingerprint, sort_keys=True)}")
    if args.trace:
        print(f"tracing overhead: setup {_fmt(values['trace.overhead.setup_s'])} s, "
              f"round {_fmt(values['trace.overhead.round_s'])} s "
              "(traced minus untraced; import time and RSS are not traced)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def layer_metrics(recorder, traced, setups, rounds):
    """Per-layer calls and self time, named counts, and the tracing overhead."""
    summary = spans.summarize(recorder.spans)
    values, units = {}, {}
    for name, unit in per_layer_names():
        units[name] = unit
        if name.endswith(".calls"):
            values[name] = summary.get(name[:-len(".calls")], (0, 0.0))[0]
        elif name.endswith(".self_s"):
            values[name] = summary.get(name[:-len(".self_s")], (0, 0.0))[1]
        elif name == "curate.kept_ratio":
            cand = recorder.counts["curate.candidates"]
            values[name] = recorder.counts["curate.kept"] / cand if cand else 0.0
        elif name.startswith("trace.overhead."):
            key = name[len("trace.overhead."):]
            base = statistics.median(setups if key == "setup_s" else rounds)
            values[name] = traced[key] - base
        else:
            values[name] = recorder.counts[name]
    return values, units


if __name__ == "__main__":
    sys.exit(main())
