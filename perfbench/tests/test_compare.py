"""Compare-mode verdicts on synthetic numbers."""

import json

import numpy as np

import compare


def _noisy(center, rel, n=10, seed=0):
    return list(center * (1 + rel * np.random.default_rng(seed).uniform(-1, 1, n)))


def test_clear_gain_is_improved():
    parent = _noisy(1.0, 0.01)
    assert compare.verdict(parent, _noisy(0.8, 0.01, seed=1), "lower", 0.1) == "improved"
    assert compare.verdict(parent, _noisy(1.2, 0.01, seed=1), "higher", 0.1) == "improved"


def test_worse_beyond_bound_is_regressed():
    parent = _noisy(1.0, 0.01)
    assert compare.verdict(parent, _noisy(1.2, 0.01, seed=1), "lower", 0.1) == "regressed"
    assert compare.verdict(parent, _noisy(0.8, 0.01, seed=1), "higher", 0.1) == "regressed"


def test_small_moves_are_unchanged():
    parent = _noisy(1.0, 0.01)
    assert compare.verdict(parent, _noisy(1.05, 0.01, seed=1), "lower", 0.1) == "unchanged"
    # a gain inside the parent's own spread is not claimed
    assert compare.verdict(parent, [p - 0.001 for p in parent], "lower", 0.1) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    parent = _noisy(1.0, 0.5)
    assert compare.verdict(parent, _noisy(1.0, 0.5, seed=1), "lower", 0.1) == "unresolved"
    # unless every change run reads better than every parent run
    change = [min(parent) * 0.5] * 10
    assert compare.verdict(parent, change, "lower", 0.1) == "improved"


def test_gain_needs_nine_of_ten_wins_and_ten_pairs():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.1] * 2
    assert compare.verdict(parent, change, "lower", 0.25) == "unchanged"
    change = [0.8] * 9 + [1.1]
    assert compare.verdict(parent, change, "lower", 0.25) == "improved"
    assert compare.verdict([1.0] * 5, [0.8] * 5, "lower", 0.1) == "unchanged"


def test_ties_count_for_neither_side():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.0] * 2
    assert compare.verdict(parent, change, "lower", 0.1) == "unchanged"


def test_more_failures_or_unalternated_pairs_block_a_gain():
    parent = _noisy(1.0, 0.01)
    change = _noisy(0.8, 0.01, seed=1)
    assert compare.verdict(parent, change, "lower", 0.1, may_claim=False) == "unchanged"


def _record(workload, seed, started, value, failures=()):
    return {"workload": workload, "seed": seed, "trace": 0, "started": started,
            "failures": list(failures),
            "metrics": {"op_p50_s": {"value": value, "unit": "s"}}}


def test_compare_reads_result_sets(tmp_path):
    parent_dir, change_dir = tmp_path / "parent", tmp_path / "change"
    parent_dir.mkdir()
    change_dir.mkdir()
    for seed in range(10):
        t = 100.0 * seed
        parent_first = seed % 2 == 0
        p = _record("w", seed, t if parent_first else t + 1, 1.0 + 0.001 * seed)
        c = _record("w", seed, t + 1 if parent_first else t, 0.7 + 0.001 * seed)
        (parent_dir / f"p{seed}.json").write_text(json.dumps(p))
        (change_dir / f"c{seed}.json").write_text(json.dumps(c))
    traced = dict(_record("w", 0, 0.0, 99.0), trace=1)
    (change_dir / "traced.json").write_text(json.dumps(traced))
    spec = [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1}]
    rows = compare.compare(compare.load(parent_dir), compare.load(change_dir), spec)
    assert len(rows) == 1
    row = rows[0]
    assert row["verdict"] == "improved" and row["pairs"] == 10 and row["alternated"]


def test_alternation_is_checked():
    same_side_first = [({"started": 2.0 * i}, {"started": 2.0 * i + 1}) for i in range(4)]
    assert not compare.alternated(same_side_first)


def test_failures_at_the_change_block_a_gain_in_compare(tmp_path):
    parent_dir, change_dir = tmp_path / "parent", tmp_path / "change"
    parent_dir.mkdir()
    change_dir.mkdir()
    for seed in range(10):
        t = 100.0 * seed
        first, second = (t, t + 1) if seed % 2 else (t + 1, t)
        failures = [{"op": 0, "reason": "x"}] if seed == 3 else []
        (parent_dir / f"p{seed}.json").write_text(json.dumps(_record("w", seed, first, 1.0)))
        (change_dir / f"c{seed}.json").write_text(
            json.dumps(_record("w", seed, second, 0.5, failures)))
    spec = [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1}]
    rows = compare.compare(compare.load(parent_dir), compare.load(change_dir), spec)
    assert rows[0]["alternated"] and rows[0]["verdict"] == "unchanged"
