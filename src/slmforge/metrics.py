"""WER / CER / chrF metrics and report tables.

WER and CER are corpus-level: total edit distance over total reference
length, not an average of per-utterance rates. chrF is the character
n-gram F-beta score (n = 1..6, beta = 2) on whitespace-stripped
text, aggregated over the corpus by summing n-gram counts.

chrF counts in integer arrays over the whole corpus at once. Each character
gets a dense code; each order-n key is the order-(n-1) key times the
alphabet size plus the next code, renumbered densely so that it stays below
the corpus length. The n-grams that fit inside their line are tagged with
their pair and side (hypothesis or reference) and sorted once per order;
each (n-gram, pair) run gives its two counts, and the matches are the sum of
their minima. These are the integer counts that per-line counters give.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

METRIC_COLUMNS = (
    ("wer", "WER", "down"),
    ("cer", "CER", "down"),
    ("chrf", "ChRF", "up"),
    ("bs_f1", "BS-F1", "up"),
)

_ARROWS = {"down": "↓", "up": "↑"}


def edit_distance(ref, hyp) -> int:
    """Unit-cost Levenshtein distance between two token sequences.

    Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's Levenshtein form:
    bit ``i`` of a Python int stands for reference token ``i``, and each
    hypothesis token updates one column of the dynamic-programming table
    as positive and negative vertical deltas (``pv``, ``mv``). ``peq`` maps
    each reference token to the bitmask of its positions, so tokens must be
    hashable (callers pass ``str`` characters or words).
    """
    m = len(ref)
    if m == 0:
        return len(hyp)
    peq = {}
    for i, token in enumerate(ref):
        peq[token] = peq.get(token, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for token in hyp:
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # row 0 of the table is 0, 1, 2, ...: a +1 horizontal delta enters at the top
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _check_paired(refs, hyps):
    if len(refs) != len(hyps):
        raise ValueError(f"got {len(refs)} references but {len(hyps)} hypotheses")


def _corpus_rate(refs, hyps, tokens, unit: str) -> float:
    """Sum of edit distances over the sum of reference lengths, both counted
    in the tokens ``tokens(text)`` returns; ``unit`` names them in errors."""
    _check_paired(refs, hyps)
    total_dist = 0
    total_len = 0
    for ref, hyp in zip(refs, hyps):
        r, h = tokens(ref), tokens(hyp)
        total_dist += edit_distance(r, h)
        total_len += len(r)
    if total_len == 0:
        raise ValueError(f"references contain no {unit}")
    return total_dist / total_len


def wer(refs, hyps) -> float:
    """Corpus word error rate: sum of word edit distances / total ref words."""
    return _corpus_rate(refs, hyps, str.split, "words")


def _char_tokens(text: str):
    # collapse whitespace runs to single spaces; space itself counts as a char
    return list(" ".join(text.split()))


def cer(refs, hyps) -> float:
    """Corpus character error rate over whitespace-collapsed character tokens."""
    return _corpus_rate(refs, hyps, _char_tokens, "characters")


def chrf(refs, hyps) -> float:
    """Character n-gram F-beta score in [0, 100].

    Whitespace is stripped before counting. Corpus aggregation sums match /
    hypothesis / reference counts per order; orders where neither side has
    any n-grams are skipped, so identical pairs score exactly 100.
    """
    _check_paired(refs, hyps)
    max_n, beta = 6, 2.0  # chrF2 over character orders 1..6
    # segment 2i is reference i and 2i + 1 hypothesis i, so a segment's low
    # bit is its side (1 = hypothesis) and the rest of it is its pair
    texts = []
    for ref, hyp in zip(refs, hyps):
        texts += ["".join(ref.split()), "".join(hyp.split())]
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)
    alphabet, codes = np.unique(points, return_inverse=True)
    segment = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    # characters from each position to the end of its segment, itself included
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
    matches = [0] * (max_n + 1)
    hyp_total = [0] * (max_n + 1)
    ref_total = [0] * (max_n + 1)
    keys = codes.astype(np.int64)
    for n in range(1, max_n + 1):
        if n > 1:
            # extend each (n-1)-gram key by one character and renumber densely,
            # so keys stay below the position count and the product cannot overflow
            keys = np.unique(keys[:-1] * len(alphabet) + codes[n - 1:], return_inverse=True)[1]
        inside = room[: len(keys)] >= n
        comp = np.sort(keys[inside] * len(texts) + segment[: len(keys)][inside])
        if comp.size == 0:
            continue
        side = comp & 1
        group = comp >> 1  # (n-gram, pair)
        starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
        hyp_count = np.add.reduceat(side, starts)
        ref_count = np.diff(np.append(starts, comp.size)) - hyp_count
        matches[n] = int(np.minimum(hyp_count, ref_count).sum())
        hyp_total[n] = int(side.sum())
        ref_total[n] = comp.size - hyp_total[n]

    precisions = []
    recalls = []
    for n in range(1, max_n + 1):
        if hyp_total[n] == 0 and ref_total[n] == 0:
            continue
        precisions.append(matches[n] / hyp_total[n] if hyp_total[n] else 0.0)
        recalls.append(matches[n] / ref_total[n] if ref_total[n] else 0.0)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    denom = beta * beta * p + r
    if denom == 0.0:
        return 0.0
    return 100.0 * (1.0 + beta * beta) * p * r / denom


# ---------------------------------------------------------------------------
# Reports


@dataclass
class MetricRow:
    name: str
    wer: float | None = None
    cer: float | None = None
    chrf: float | None = None
    bs_f1: float | None = None
    n_utterances: int | None = None
    n_ref_words: int | None = None
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d) -> "MetricRow":
        """Row from one report JSON object: ``name`` and the metric columns
        are typed fields, every other key goes to ``extra``. A non-finite
        number in any key is a ConfigError naming the key."""
        if not isinstance(d, dict) or not isinstance(d.get("name"), str):
            raise ConfigError("not a JSON object with a string 'name'")
        metrics = {key: d[key] for key, _, _ in METRIC_COLUMNS if key in d}
        for key, value in metrics.items():
            # exact types, as config_fields checks them: a JSON true is no number
            if value is not None and type(value) not in (int, float):
                raise ConfigError(f"{key} must be a number or null, got {value!r}")
            # NaN and the infinities fail this, and so do ints no float holds
            if value is not None and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{key} must be finite, got {value!r}")
        extra = {k: v for k, v in d.items() if k != "name" and k not in metrics}
        for key, value in extra.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise ConfigError(f"{key} must hold finite numbers only, got {value!r}") from None
        return cls(name=d["name"], extra=extra, **metrics)

    def to_dict(self) -> dict:
        """The row as one report JSON object: ``name``, the ``extra`` keys,
        each set metric rounded to 4 decimals and each set count."""
        entry = {"name": self.name, **self.extra}
        for key, _, _ in METRIC_COLUMNS:
            if getattr(self, key) is not None:
                entry[key] = round(float(getattr(self, key)), 4)
        for key in ("n_utterances", "n_ref_words"):
            if getattr(self, key) is not None:
                entry[key] = getattr(self, key)
        return entry


def compute_report(name: str, refs, hyps, metrics=("wer", "cer", "chrf")) -> MetricRow:
    row = MetricRow(name=name)
    row.n_utterances = len(refs)
    row.n_ref_words = sum(len(r.split()) for r in refs)
    if "wer" in metrics:
        row.wer = wer(refs, hyps)
    if "cer" in metrics:
        row.cer = cer(refs, hyps)
    if "chrf" in metrics:
        row.chrf = chrf(refs, hyps)
    return row


def render_report(rows, fmt: str = "text") -> str:
    """Render metric rows as an aligned text table or canonical JSON.

    Metric columns appear only when at least one row populates them, each
    headed with its improvement direction arrow. Values print with two
    decimals; absent cells print "-".
    """
    rows = list(rows)
    if fmt == "json":
        return json.dumps([row.to_dict() for row in rows], indent=2, sort_keys=True,
                          ensure_ascii=False)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    extra_keys = []
    for row in rows:
        for key in row.extra:
            if key not in extra_keys:
                extra_keys.append(key)
    active = [
        (key, f"{label} ({_ARROWS[direction]})")
        for key, label, direction in METRIC_COLUMNS
        if any(getattr(row, key) is not None for row in rows)
    ]

    header = ["name"] + extra_keys + [label for _, label in active]
    body = []
    for row in rows:
        cells = [row.name] + [str(row.extra.get(k, "-")) for k in extra_keys]
        for key, _ in active:
            value = getattr(row, key)
            cells.append("-" if value is None else f"{value:.2f}")
        body.append(cells)

    widths = [len(h) for h in header]
    for cells in body:
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    n_left = 1 + len(extra_keys)

    def render_line(cells):
        out = []
        for i, (cell, width) in enumerate(zip(cells, widths)):
            out.append(cell.ljust(width) if i < n_left else cell.rjust(width))
        return "  ".join(out).rstrip()

    lines = [render_line(header), render_line(["-" * w for w in widths])]
    lines.extend(render_line(cells) for cells in body)
    return "\n".join(lines) + "\n"
