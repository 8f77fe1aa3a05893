"""Tests of the benchmark's own machinery: seeded inputs and span arithmetic."""

from pathlib import Path

import pytest

import inputs
import spans


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    first = inputs.make_inputs(workload, tmp_path / "a", 3)
    again = inputs.make_inputs(workload, tmp_path / "b", 3)
    other = inputs.make_inputs(workload, tmp_path / "c", 4)
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a and a == b and first == again
    assert a.keys() == c.keys() and a != c


def test_eval_oracle_matches_an_independent_count(tmp_path):
    expected = inputs.make_eval_pairs(tmp_path, 5, n_lines=200)
    refs = (tmp_path / "refs.txt").read_text().splitlines()
    hyps = (tmp_path / "hyps.txt").read_text().splitlines()

    def lev(a, b):
        prev = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            cur = [i]
            for j, y in enumerate(b, 1):
                cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
            prev = cur
        return prev[-1]

    words = sum(lev(r.split(), h.split()) for r, h in zip(refs, hyps))
    chars = sum(lev(r, h) for r, h in zip(refs, hyps))
    assert expected["wer"] == words / sum(len(r.split()) for r in refs)
    assert expected["cer"] == chars / sum(len(r) for r in refs)


def _span(name, start, end, parent=None):
    return (name, start, end, parent, "test")


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),   # overlaps a on [3, 4]
        _span("c", 8.0, 12.0, parent=0),  # sticks out of root past 10
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 7.0, 7.5),             # a second, unrelated root
    ]
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7; a: 3 - 1; b: 3; c: 4
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 0.5])
    summary = spans.summarize(tree)
    assert summary["b"] == (2, pytest.approx(3.5))
    assert summary["root"] == (1, pytest.approx(3.0))


@pytest.mark.parametrize("intervals, expected", [
    ([], 0.0),
    ([(0.0, 1.0), (2.0, 3.0)], 2.0),
    ([(0.0, 5.0), (1.0, 2.0)], 5.0),     # nested
    ([(-1.0, 0.5), (4.5, 9.0)], 1.0),    # clipped at both ends of [0, 5]
    ([(6.0, 7.0)], 0.0),                 # outside
])
def test_covered_length(intervals, expected):
    assert spans.covered_length(intervals, 0.0, 5.0) == pytest.approx(expected)


def test_patch_reaches_names_bound_by_from_import():
    from slmforge import asr, cli, metrics

    original = metrics.wer
    recorder = spans.Recorder()
    recorder.install([("metrics", "wer", None, None)])
    try:
        assert cli.wer is asr.wer is metrics.wer is not original
        assert cli.wer(["a b"], ["a c"]) == 0.5
    finally:
        recorder.uninstall()
    assert cli.wer is asr.wer is metrics.wer is original
    assert [s[0] for s in recorder.spans] == ["metrics.wer"]
