import pytest

import stats


def test_p95_needs_ten_samples_beyond_it():
    assert not stats.tail_defined(199, 95)
    assert stats.tail_defined(200, 95)
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    values = list(range(200))
    p95 = stats.percentile(values, 95)
    assert sum(1 for v in values if v > p95) == 10


def test_median_is_always_defined():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_quartiles_match_the_standard_library():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert stats.quartiles(values) == (2.75, 8.25)
    assert stats.relative_iqr(values) == pytest.approx(5.5 / 5.5)
    assert stats.quartiles([4.0]) == (4.0, 4.0)


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    change = [v * 0.9 for v in PARENT]
    assert stats.verdict(PARENT, change, "lower", 0.05) == ("gain", 10)
    # Nine wins of ten still count; eight do not.
    nine = change[:9] + [PARENT[9] + 1]
    assert stats.verdict(PARENT, nine, "lower", 0.05)[0] == "gain"
    eight = change[:8] + [PARENT[8] + 1, PARENT[9] + 1]
    assert stats.verdict(PARENT, eight, "lower", 0.05)[0] == "unchanged"


def test_win_inside_the_parent_spread_is_no_gain():
    change = [v - 0.01 for v in PARENT]
    assert stats.verdict(PARENT, change, "lower", 0.05) == ("unchanged", 10)


def test_ties_count_for_neither_side():
    assert stats.verdict(PARENT, list(PARENT), "lower", 0.05) == \
        ("unchanged", 0)


def test_regression_beyond_the_bound():
    change = [v * 1.2 for v in PARENT]
    assert stats.verdict(PARENT, change, "lower", 0.05)[0] == "regression"
    # Higher-is-better metrics regress downwards.
    assert stats.verdict(PARENT, [v * 0.8 for v in PARENT], "higher",
                         0.05)[0] == "regression"


def test_noisy_parent_is_unresolved_not_unchanged():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = list(reversed(noisy))
    assert stats.verdict(noisy, change, "lower", 0.05)[0] == "unresolved"


def test_every_change_run_beating_every_parent_run_resolves_noise():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    # Better in every pairing, but by less than the parent's IQR: no
    # gain to claim, and no longer unresolved.
    change = [7.9 - i * 0.01 for i in range(10)]
    assert stats.verdict(noisy, change, "lower", 0.05) == ("unchanged", 10)
    assert stats.verdict(noisy, [5.0] * 10, "lower", 0.05) == ("gain", 10)


def test_unpaired_samples_are_refused():
    with pytest.raises(ValueError):
        stats.verdict(PARENT, PARENT[:5], "lower", 0.05)
