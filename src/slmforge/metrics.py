"""WER / CER / chrF metrics and report tables.

WER and CER are corpus-level: total edit distance over total reference
length, not an average of per-utterance rates. chrF is the character
n-gram F-beta score (n = 1..6, beta = 2) on whitespace-stripped
text, aggregated over the corpus by summing n-gram counts.

Each metric scores the whole corpus in array passes. WER and CER give each
token an integer code (a word's first position in the corpus, a character's
code point) and run one bit-parallel Levenshtein pass over every line at
once (``_corpus_rate``). Its distances are the integers a per-line dynamic
program gives.

chrF counts in integer arrays over the whole corpus at once. Each character
gets a dense code; each order-n key is the order-(n-1) key times the
alphabet size plus the next code. The n-grams that fit inside their line
are tagged with their pair and side (hypothesis or reference) and sorted
once per order; each (n-gram, pair) run gives its two counts, and the
matches are the sum of their minima. Keys are renumbered densely, with a
second sort, only in an order where a packed key could pass 2**62. These
are the integer counts that per-line counters give.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np

from .errors import ConfigError

METRIC_COLUMNS = (
    ("wer", "WER", "down"),
    ("cer", "CER", "down"),
    ("chrf", "ChRF", "up"),
    ("bs_f1", "BS-F1", "up"),
)

_ARROWS = {"down": "↓", "up": "↑"}


def _check_paired(refs, hyps):
    if len(refs) != len(hyps):
        raise ValueError(f"got {len(refs)} references but {len(hyps)} hypotheses")


def _match_masks(ref_codes, rows, cell_key):
    """Sorted ``cell_key + code`` keys and, for each, the uint64 mask of the
    rows where that code stands in that cell's block of ``rows`` reference
    codes; a last key above every lookup, with mask 0, keeps lookups in range."""
    # one sort of (cell, code, row) packed in an int64 groups the rows; in
    # place, as a long corpus makes these the largest arrays of the pass
    packed = np.repeat(cell_key, rows)
    packed += ref_codes
    packed <<= 6
    packed |= np.arange(len(ref_codes)) - np.repeat(np.cumsum(rows) - rows, rows)
    packed.sort()
    keys = packed >> 6
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))[packed & 63]
    return (np.append(keys[starts], np.iinfo(np.int64).max),
            np.append(np.bitwise_or.reduceat(bits, starts), np.uint64(0)))


def _corpus_rate(codes, lengths) -> float:
    """Sum over lines of the unit-cost Levenshtein distance between each
    reference and its hypothesis, over the sum of reference lengths.
    ``codes`` holds the tokens of every reference, then of every hypothesis,
    as non-negative integer codes, and ``lengths`` their count per line.

    Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's block form (2003),
    on every line at once in uint64 words. A reference of m tokens takes
    ceil(m / 64) blocks. A (line, block) pair is a *cell*, and bit i of its
    words stands for reference token 64 * block + i. Each step updates one
    hypothesis column of every busy cell as positive and negative vertical
    deltas (``pv``, ``mv``). The horizontal delta leaving a block's bit 63
    enters its line's next block at the next step, so cell (line, b) runs
    column j at step j + b. Before that it spends b steps on a code that
    matches nothing with no delta entering, which leaves its words as they
    are.
    Cells are ordered by the step of their last column, latest first, so a
    step's busy cells are a prefix and no step touches a finished line.
    The match masks are held per ``(cell, code)`` key, sorted and looked up
    once per step, so no table spans the alphabet.
    """
    ref_lengths, hyp_lengths = np.split(np.asarray(lengths, dtype=np.int64), 2)
    if not ref_lengths.any():
        # no reference words is no reference characters either
        raise ValueError("references contain no words")
    ref_codes, hyp_codes = np.split(codes, [ref_lengths.sum()])
    no_match = int(codes.max()) + 1
    blocks = -(-ref_lengths // 64)
    line = np.repeat(np.arange(len(ref_lengths)), blocks)
    block = np.arange(len(line)) - np.repeat(np.cumsum(blocks) - blocks, blocks)
    rows = np.minimum(ref_lengths[line] - 64 * block, 64)
    cells = len(line)
    cell_key = np.arange(cells) * (no_match + 1)
    peq_keys, peq_masks = _match_masks(ref_codes, rows, cell_key)

    # each line's hypothesis codes after blocks - 1 copies of ``no_match``,
    # for the steps its later blocks wait
    pad = np.maximum(blocks - 1, 0)
    stream_lengths = pad + hyp_lengths
    stream_starts = np.cumsum(stream_lengths) - stream_lengths + pad
    stream = np.full(int(stream_lengths.sum()), no_match, dtype=np.int64)
    stream[np.repeat(stream_starts - (np.cumsum(hyp_lengths) - hyp_lengths), hyp_lengths)
           + np.arange(len(hyp_codes))] = hyp_codes

    ends = hyp_lengths[line] + block
    order = np.argsort(-ends, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(cells)
    # the cell of each cell's previous block, whose horizontal delta enters
    # its bit 0; block 0 reads the sentinel ``cells``, the +1 of row 0 of the
    # table (0, 1, 2, ...)
    prev = np.where(block > 0, rank[np.arange(cells) - 1], cells)[order]
    column = (stream_starts[line] - block)[order]
    cell_key, rows, ends = cell_key[order], rows[order], ends[order]
    busy = np.searchsorted(-ends, -np.arange(ends[0]))

    pv = np.full(cells, np.iinfo(np.uint64).max, dtype=np.uint64)
    mv = np.zeros(cells, dtype=np.uint64)
    hp = np.zeros(cells + 1, dtype=np.uint64)  # horizontal delta +1 out of each cell's bit 63
    hm = np.zeros(cells + 1, dtype=np.uint64)  # horizontal delta -1 out of each cell's bit 63
    hp[cells] = 1
    for step, k in enumerate(busy.tolist()):
        query = cell_key[:k] + stream[column[:k] + step]
        at = np.searchsorted(peq_keys, query)
        eq = np.where(peq_keys[at] == query, peq_masks[at], 0)
        p, m = pv[:k], mv[:k]
        hin_p, hin_m = hp[prev[:k]], hm[prev[:k]]
        xv = eq | m
        eq |= hin_m
        xh = (((eq & p) + p) ^ p) | eq
        ph = m | ~(xh | p)
        mh = p & xh
        hp[:k] = ph >> 63
        hm[:k] = mh >> 63
        ph = (ph << 1) | hin_p
        mh = (mh << 1) | hin_m
        pv[:k] = mh | ~(xv | ph)
        mv[:k] = ph & xv
    # a line's distance is its last column's row 0, the hypothesis length,
    # plus the vertical deltas of its m rows; bits above them are left out
    valid = np.right_shift(np.iinfo(np.uint64).max, (64 - rows).astype(np.uint64))
    rises, falls = (int(np.unpackbits((v & valid).view(np.uint8)).sum()) for v in (pv, mv))
    return (int(hyp_lengths.sum()) + rises - falls) / int(ref_lengths.sum())


def wer(refs, hyps) -> float:
    """Corpus word error rate: sum of word edit distances / total ref words.

    One dict over the corpus codes each word by the position where it first
    occurs, and one batched bit-vector pass scores every line.
    """
    _check_paired(refs, hyps)
    lines = [text.split() for text in [*refs, *hyps]]
    words = list(chain.from_iterable(lines))
    codes = np.fromiter(map({}.setdefault, words, count()), np.int64, len(words))
    return _corpus_rate(codes, list(map(len, lines)))


def cer(refs, hyps) -> float:
    """Corpus character error rate over whitespace-collapsed characters.

    Whitespace runs collapse to one space, which counts as a character. The
    codes are the lines' UTF-32 code points, and one batched bit-vector
    pass scores every line.
    """
    _check_paired(refs, hyps)
    lines = [" ".join(text.split()) for text in [*refs, *hyps]]
    points = np.frombuffer("".join(lines).encode("utf-32-le", "surrogatepass"), np.uint32)
    return _corpus_rate(points, list(map(len, lines)))


def _renumber(keys):
    """``keys`` renumbered densely in their order, and the number of distinct keys."""
    distinct, keys = np.unique(keys, return_inverse=True)
    return keys, len(distinct)


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
    keys, bound = codes.astype(np.int64), len(alphabet)  # keys < bound
    for n in range(1, max_n + 1):
        # extend each (n-1)-gram key by one character, then pack it with the
        # segment; renumber densely (a second sort) only where either product
        # could pass 2**62
        if n > 1:
            if bound * len(alphabet) > 2 ** 62:
                keys, bound = _renumber(keys)
            keys, bound = keys[:-1] * len(alphabet) + codes[n - 1:], bound * len(alphabet)
        if bound * len(texts) > 2 ** 62:
            keys, bound = _renumber(keys)
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
