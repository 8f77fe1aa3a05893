"""Metrics against independent oracles: memoized recursive edit distance
and a brute-force n-gram counter for chrF."""

import functools
from collections import Counter

import numpy as np
import pytest

from slmforge.metrics import (
    MetricRow,
    cer,
    chrf,
    edit_distance,
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


# ---------------------------------------------------------------------------
# WER


def test_wer_identical_is_zero():
    assert wer(["a b c", "hello"], ["a b c", "hello"]) == 0.0


def test_wer_single_substitution():
    assert wer(["a b c"], ["a x c"]) == pytest.approx(1.0 / 3.0)


def test_wer_deletion_of_only_word():
    assert wer(["a"], [""]) == 1.0


def test_wer_empty_reference_is_error():
    with pytest.raises(ValueError):
        wer([""], ["a"])


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
