"""Metrics against independent oracles: memoized recursive edit distance
and a brute-force n-gram counter for chrF."""

import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from slmforge.metrics import (
    MetricRow,
    cer,
    chrf,
    render_report,
    wer,
)


# ---------------------------------------------------------------------------
# Oracles (written first, independent of the implementations they check)


def recursive_edit_distance(ref, hyp):
    """Memoized top-down Levenshtein."""
    ref, hyp = tuple(ref), tuple(hyp)

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
        )

    return go(len(ref), len(hyp))


def brute_force_chrf(refs, hyps, max_n=6, beta=2.0):
    """Direct n-gram counting with dictionaries; mirrors the published
    definition: whitespace stripped, per-order corpus totals, arithmetic
    mean over orders with any n-grams, F-beta * 100."""
    m = {n: 0 for n in range(1, max_n + 1)}
    h_tot = {n: 0 for n in range(1, max_n + 1)}
    r_tot = {n: 0 for n in range(1, max_n + 1)}
    for ref, hyp in zip(refs, hyps):
        r = "".join(ref.split())
        h = "".join(hyp.split())
        for n in range(1, max_n + 1):
            rc = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
            hc = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            for gram, count in hc.items():
                m[n] += min(count, rc.get(gram, 0))
            h_tot[n] += sum(hc.values())
            r_tot[n] += sum(rc.values())
    ps, rs = [], []
    for n in range(1, max_n + 1):
        if h_tot[n] == 0 and r_tot[n] == 0:
            continue
        ps.append(m[n] / h_tot[n] if h_tot[n] else 0.0)
        rs.append(m[n] / r_tot[n] if r_tot[n] else 0.0)
    if not ps:
        return 0.0
    p = sum(ps) / len(ps)
    r = sum(rs) / len(rs)
    if beta * beta * p + r == 0:
        return 0.0
    return 100.0 * (1 + beta * beta) * p * r / (beta * beta * p + r)


def random_string(rng, max_len=8, alphabet="abcd"):
    n = int(rng.integers(0, max_len + 1))
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))


def reference_edit_distance(ref, hyp) -> int:
    """The row-by-row dynamic program edit_distance used before the
    bit-vector form (kept verbatim as the equivalence reference)."""
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[m]


def edit_distance(ref, hyp) -> int:
    """Unit-cost Levenshtein distance between two token sequences: the scalar
    reference that the batched corpus pass behind ``wer`` and ``cer`` is
    checked against.

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


# ---------------------------------------------------------------------------
# WER


def test_wer_identical_is_zero():
    assert wer(["a b c", "hello"], ["a b c", "hello"]) == 0.0


def test_wer_single_substitution():
    assert wer(["a b c"], ["a x c"]) == pytest.approx(1.0 / 3.0)


def test_wer_deletion_of_only_word():
    assert wer(["a"], [""]) == 1.0


def test_wer_empty_reference_is_error():
    with pytest.raises(ValueError, match="^references contain no words$"):
        wer([""], ["a"])
    # no reference words is no reference characters either: cer says the same
    with pytest.raises(ValueError, match="^references contain no words$"):
        cer([" \t", ""], ["a", "b"])


def test_wer_mismatched_lengths_error():
    with pytest.raises(ValueError):
        wer(["a"], ["a", "b"])


def test_cer_identical_and_one_sub():
    assert cer(["abc"], ["abc"]) == 0.0
    assert cer(["abc"], ["abd"]) == pytest.approx(1.0 / 3.0)


def test_cer_swap_value_decided_by_oracle():
    # ref "ab" vs hyp "ba": oracle says the cheapest edit script costs 2
    oracle = recursive_edit_distance("ab", "ba")
    assert oracle == 2
    assert cer(["ab"], ["ba"]) == pytest.approx(oracle / 2.0)


def test_edit_distance_matches_memoized_recursive_oracle():
    rng = np.random.default_rng(123)
    for _ in range(500):
        a = random_string(rng)
        b = random_string(rng)
        assert edit_distance(list(a), list(b)) == recursive_edit_distance(a, b)


EDIT_LENGTHS = (0, 1, 63, 64, 65, 200)
WORDS = ("the", "a", "cat", "sat", "on", "mat", "ünïcode", "日本")


def _token_sequences(kind, rng, n_ref, n_hyp):
    """A (ref, hyp) pair of ``kind`` tokens with ``n_ref`` and ``n_hyp`` tokens.
    Small alphabets make matches, and so ties between edit scripts, common."""
    pools = {"char": list("abc "), "word": list(WORDS), "non_ascii": list("éßж中😀a"),
             "repeated": ["a", "b"]}
    pool = pools[kind]
    ref = ["a"] * n_ref if kind == "repeated" else [
        pool[i] for i in rng.integers(0, len(pool), size=n_ref)]
    hyp = [pool[i] for i in rng.integers(0, len(pool), size=n_hyp)]
    return ref, hyp


@pytest.mark.parametrize("kind", ["char", "word", "non_ascii", "repeated"])
def test_edit_distance_equals_the_dynamic_program(kind):
    rng = np.random.default_rng(len(kind))
    for n_ref in EDIT_LENGTHS:
        for n_hyp in EDIT_LENGTHS:
            ref, hyp = _token_sequences(kind, rng, n_ref, n_hyp)
            got = edit_distance(ref, hyp)
            assert type(got) is int
            assert got == reference_edit_distance(ref, hyp), (n_ref, n_hyp)


def test_edit_distance_equals_the_dynamic_program_on_strings_and_near_copies():
    rng = np.random.default_rng(7)
    for n in EDIT_LENGTHS:
        ref = random_string(rng, max_len=n, alphabet="ab c")
        for hyp in (ref, ref[1:], ref[::-1], ref + "x", ref.replace("a", "b", 3)):
            assert edit_distance(ref, hyp) == reference_edit_distance(ref, hyp)
            assert edit_distance(ref.split(), hyp.split()) == reference_edit_distance(
                ref.split(), hyp.split())


# ---------------------------------------------------------------------------
# The batched corpus pass behind wer and cer against per-line edit_distance


def char_tokens(text):
    """CER's tokens: the characters of ``text`` with whitespace runs collapsed."""
    return list(" ".join(text.split()))


def scalar_rate(refs, hyps, tokens):
    """A corpus rate from per-line ``edit_distance`` sums over ``tokens(text)``."""
    dist = sum(edit_distance(tokens(ref), tokens(hyp)) for ref, hyp in zip(refs, hyps))
    return dist / sum(len(tokens(ref)) for ref in refs)


def _mutated(rng, tokens, pool):
    """``tokens`` after up to five random insertions, deletions or substitutions."""
    tokens = list(tokens)
    for _ in range(int(rng.integers(6))):
        i = int(rng.integers(len(tokens) + 1))
        new = pool[int(rng.integers(len(pool)))]
        op = int(rng.integers(3))
        if op == 0:
            tokens.insert(i, new)
        elif i < len(tokens) and op == 1:
            del tokens[i]
        elif i < len(tokens):
            tokens[i] = new
    return tokens


def _corpus(rng, lengths, pool, sep):
    """Reference lines of ``lengths`` tokens from ``pool`` joined by ``sep``,
    with hypotheses that are near copies, unrelated lines or empty."""
    refs, hyps = [], []
    for n in lengths:
        ref = [pool[i] for i in rng.integers(0, len(pool), size=n)]
        kind = int(rng.integers(4))
        hyp = (_mutated(rng, ref, pool) if kind < 2 else [] if kind == 2 else
               [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(200)))])
        refs.append(sep.join(ref))
        hyps.append(sep.join(hyp))
    return refs, hyps


CHAR_POOL = list("abcd") + ["\U0001d11e", "\u00e9"]  # a non-BMP character among them
WORD_POOL = ["the", "a", "cat", "sat", "\U0001d11e", "mat"]


def test_batched_rates_equal_per_line_edit_distance_sums_on_random_corpora():
    rng = np.random.default_rng(42)
    for _ in range(60):
        # lines in no particular length order, up to five 64-token blocks long
        lengths = rng.integers(0, 300, size=int(rng.integers(1, 12)))
        refs, hyps = _corpus(rng, lengths, CHAR_POOL + [" "], "")
        if any(ref.strip() for ref in refs):
            assert cer(refs, hyps) == scalar_rate(refs, hyps, char_tokens)
        refs, hyps = _corpus(rng, lengths, WORD_POOL, " ")
        if any(lengths):
            assert wer(refs, hyps) == scalar_rate(refs, hyps, str.split)


@pytest.mark.parametrize("unit", ["chars", "words"])
@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 128, 129, 300])
def test_batched_rates_equal_the_scalar_reference_at_block_edges(unit, m):
    """References of m tokens, m on both sides of each 64-token block edge,
    against hypotheses of every kind, including empty lines."""
    rng = np.random.default_rng(m)
    pool, sep, rate, tokens = ((CHAR_POOL, "", cer, char_tokens) if unit == "chars"
                               else (WORD_POOL, " ", wer, str.split))
    refs, hyps = _corpus(rng, [m] * 24 + [1], pool, sep)
    ref = refs[0]
    refs += [ref] * 4
    hyps += [ref, "", sep.join(tokens(ref)[::-1]), sep.join(tokens(ref) * 2)]
    assert [len(tokens(r)) for r in refs[:24]] == [m] * 24
    assert rate(refs, hyps) == scalar_rate(refs, hyps, tokens)


def test_batched_rates_do_not_depend_on_line_order():
    rng = np.random.default_rng(3)
    refs, hyps = _corpus(rng, rng.integers(0, 150, size=40), CHAR_POOL + [" "], "")
    perm = rng.permutation(len(refs))
    shuffled = [refs[i] for i in perm], [hyps[i] for i in perm]
    assert cer(refs, hyps) == cer(*shuffled) == scalar_rate(refs, hyps, char_tokens)
    assert wer(refs, hyps) == wer(*shuffled) == scalar_rate(refs, hyps, str.split)


def test_cer_counts_a_non_bmp_character_as_one_token():
    assert cer(["\U0001d11ea"], ["a"]) == 0.5
    assert cer(["\U0001d11e\U0001d122"], ["\U0001d122\U0001d11e"]) == 1.0
    assert wer(["\U0001d11e x"], ["\U0001d122 x"]) == 0.5


def test_batched_cer_builds_no_array_of_lines_by_longest_line():
    """3000 short lines and one of 5000 characters: the pass's peak memory
    stays a small multiple of the corpus's codes as int64 (0.8 MB), where
    one byte per (line, position of the longest line) would be 15 MB."""
    rng = np.random.default_rng(9)
    refs, hyps = ([random_string(rng, 30, "abcdefgh ") for _ in range(3000)] for _ in "rh")
    long = "".join(rng.choice(list("abcdefgh"), size=5000))
    refs.append(long)
    hyps.append(long[:2500] + "x" + long[2501:])
    code_bytes = 8 * sum(len(char_tokens(text)) for text in refs + hyps)
    tracemalloc.start()
    try:
        got = cer(refs, hyps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == scalar_rate(refs, hyps, char_tokens)
    assert 3001 * 5000 > 15 * code_bytes
    assert peak < 5 * code_bytes, (peak, code_bytes)


def test_wer_symmetry_in_edit_units():
    # wer(a,b) * |a| equals wer(b,a) * |b|: same edit distance both ways
    refs = ["a b c d", "x y"]
    hyps = ["a c d", "x z y"]
    n_ref = sum(len(r.split()) for r in refs)
    n_hyp = sum(len(h.split()) for h in hyps)
    assert wer(refs, hyps) * n_ref == pytest.approx(wer(hyps, refs) * n_hyp)


def test_metrics_ignore_leading_trailing_whitespace():
    assert wer(["  a b  "], ["a b"]) == 0.0
    assert cer(["  ab  "], ["ab"]) == 0.0
    assert chrf(["  ab  "], ["ab"]) == 100.0


# ---------------------------------------------------------------------------
# chrF


def test_chrf_identical_is_100():
    assert chrf(["abcd"], ["abcd"]) == pytest.approx(100.0)
    assert chrf(["hi"], ["hi"]) == pytest.approx(100.0)  # shorter than max_n


def test_chrf_disjoint_is_zero():
    assert chrf(["aaaa"], ["bbbb"]) == 0.0


def test_chrf_empty_hyp_nonempty_ref_is_zero():
    assert chrf(["abcd"], [""]) == 0.0


def test_chrf_small_pair_matches_brute_force_oracle():
    got = chrf(["abcd"], ["abce"])
    want = brute_force_chrf(["abcd"], ["abce"])
    assert got == pytest.approx(want, abs=1e-6)


def test_chrf_random_pairs_match_brute_force_oracle():
    rng = np.random.default_rng(321)
    for _ in range(100):
        refs = [random_string(rng, 12) for _ in range(3)]
        hyps = [random_string(rng, 12) for _ in range(3)]
        assert chrf(refs, hyps) == pytest.approx(
            brute_force_chrf(refs, hyps), abs=1e-6
        )


def test_chrf_permutation_invariant_over_pairs():
    refs = ["abcd", "efgh", "ijkl"]
    hyps = ["abce", "efgx", "ijkl"]
    base = chrf(refs, hyps)
    assert chrf(refs[::-1], hyps[::-1]) == pytest.approx(base, abs=1e-12)


def _counter_ngrams(chars, n):
    return Counter(chars[i : i + n] for i in range(len(chars) - n + 1))


def counter_chrf(refs, hyps):
    """chrF as it was computed with one ``Counter`` per line, order and side;
    the array counting must give the very same float."""
    max_n, beta = 6, 2.0
    matches = [0] * (max_n + 1)
    hyp_total = [0] * (max_n + 1)
    ref_total = [0] * (max_n + 1)
    for ref, hyp in zip(refs, hyps):
        r = "".join(ref.split())
        h = "".join(hyp.split())
        for n in range(1, max_n + 1):
            rc = _counter_ngrams(r, n)
            hc = _counter_ngrams(h, n)
            matches[n] += sum(min(c, rc[g]) for g, c in hc.items())
            hyp_total[n] += sum(hc.values())
            ref_total[n] += sum(rc.values())
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


def _edited(rng, line, alphabet):
    """``line`` with one character replaced, deleted or inserted, or as is."""
    i = int(rng.integers(len(line) + 1))
    c = alphabet[int(rng.integers(len(alphabet)))]
    return (line, line[:i] + c + line[i + 1:], line[:i] + line[i + 1:],
            line[:i] + c + line[i:])[int(rng.integers(4))]


@pytest.mark.parametrize("alphabet", ["ab", "abcd ", "aé字 \t\n", "xyzé中\U0001F600 \u00a0",
                                      "a\ud800 b"],
                         ids=["ab", "ascii", "cjk", "astral", "lone-surrogate"])
def test_chrf_equals_the_counter_chrf_on_random_corpora(alphabet):
    # empty lines and lines shorter than the top order (6) included
    rng = np.random.default_rng(len(alphabet))
    for _ in range(150):
        lines = int(rng.integers(1, 9))
        refs = [random_string(rng, 14, alphabet) for _ in range(lines)]
        hyps = [_edited(rng, ref, alphabet) if rng.random() < 0.5
                else random_string(rng, 14, alphabet) for ref in refs]
        assert chrf(refs, hyps) == counter_chrf(refs, hyps)


def test_chrf_equals_the_counter_chrf_on_a_corpus_of_edited_sentences():
    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "eta", "theta", "iota", "kappa"]
    refs = [" ".join(rng.choice(words, int(rng.integers(1, 12)))) for _ in range(400)]
    hyps = [_edited(rng, ref, "abcdegiklmpt ") for ref in refs]
    assert chrf(refs, hyps) == counter_chrf(refs, hyps)


def test_chrf_of_an_empty_corpus_is_zero_as_before():
    assert chrf([], []) == counter_chrf([], []) == 0.0


def test_chrf_of_all_whitespace_lines_equals_the_counter_chrf():
    refs, hyps = [" ", "\t\n", "", "  \u3000 "], ["", "   ", "\n", " "]
    assert chrf(refs, hyps) == counter_chrf(refs, hyps) == 0.0
    assert chrf(refs + ["ab c"], hyps + ["a bc"]) == counter_chrf(refs + ["ab c"], hyps + ["a bc"])


def test_chrf_over_a_3000_code_point_alphabet_equals_the_counter_chrf():
    # six codes packed in base 3000 alone exceed int64; renumbering the keys
    # where a product could pass 2**62 keeps them in range
    alphabet = "".join(chr(0x4E00 + i) for i in range(3000))
    assert 3000 ** 6 > 2 ** 63
    rng = np.random.default_rng(11)
    refs = [random_string(rng, 40, alphabet) for _ in range(600)]
    hyps = [_edited(rng, ref, alphabet) if rng.random() < 0.7
            else random_string(rng, 40, alphabet) for ref in refs]
    assert len(set("".join(refs + hyps))) > 2900
    assert chrf(refs, hyps) == counter_chrf(refs, hyps)


def test_chrf_finds_no_false_match_where_packed_keys_would_wrap():
    # 2048 codes: six packed without renumbering reach 2048 ** 6 = 2 ** 66, so
    # two 6-grams whose first codes differ by 512 would wrap to one int64 key
    alphabet = "".join(chr(0x4E00 + i) for i in range(2048))
    tail = alphabet[1:6]
    refs, hyps = [alphabet, alphabet[0] + tail], ["", alphabet[512] + tail]
    assert 512 * 2048 ** 5 == 2 ** 64
    assert chrf(refs, hyps) == counter_chrf(refs, hyps)


def test_chrf_finds_no_false_match_where_packing_with_the_segment_would_wrap():
    # 1200 codes: a 6-gram key stays below 2**62, so no renumbering is needed to
    # extend it, but times the 8 segments of four pairs it passes 2**62; a
    # hypothesis 6-gram whose key is 2**61 above the reference's would then
    # share its (n-gram, pair) group
    alphabet = "".join(chr(0x4E00 + i) for i in range(1200))
    assert 1200 ** 6 <= 2 ** 62 < 8 * 1200 ** 6
    far = "".join(alphabet[2 ** 61 // 1200 ** i % 1200] for i in range(5, -1, -1))
    refs, hyps = [alphabet[0] * 6, alphabet[:600], alphabet[600:], ""], [far, "", "", ""]
    assert chrf(refs, hyps) == counter_chrf(refs, hyps)


# ---------------------------------------------------------------------------
# Reports


def test_render_report_single_value():
    row = MetricRow(name="Ours", wer=35.65)
    out = render_report([row])
    assert "35.65" in out
    assert "WER (↓)" in out


def test_render_report_directions_and_missing_cells():
    rows = [MetricRow(name="a", wer=1.0), MetricRow(name="b", chrf=50.0)]
    out = render_report(rows)
    assert "ChRF (↑)" in out
    assert "-" in out


def test_render_report_empty_rows_header_only():
    out = render_report([])
    lines = out.strip().split("\n")
    assert lines[0] == "name"
    assert len(lines) == 2  # header + rule, no data rows


def test_render_report_json_round_trips():
    import json

    rows = [MetricRow(name="sys", wer=0.5, cer=0.25)]
    payload = json.loads(render_report(rows, fmt="json"))
    assert payload[0]["name"] == "sys"
    assert payload[0]["wer"] == 0.5
