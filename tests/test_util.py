"""Tests for utilities: tables, stats, RNG policy, bounded memos."""

import pytest
from hypothesis import given, strategies as st

from repro.util.memo import Memo
from repro.util.rng import rng_for
from repro.util.stats import (
    describe,
    mean_absolute_error,
    mode,
    normalize,
    percentile,
    sum_squared_error,
)
from repro.util.tables import ascii_bar_chart, ascii_histogram, ascii_table


class TestStats:
    def test_mae(self):
        assert mean_absolute_error([1, 2], [2, 4]) == pytest.approx(1.5)

    def test_mae_validates(self):
        with pytest.raises(ValueError):
            mean_absolute_error([1], [1, 2])
        with pytest.raises(ValueError):
            mean_absolute_error([], [])

    def test_sse(self):
        assert sum_squared_error([1, 2], [2, 4]) == pytest.approx(5.0)

    def test_mode_ties_break_small(self):
        assert mode([3, 3, 1, 1, 2]) == 1

    def test_mode_empty(self):
        with pytest.raises(ValueError):
            mode([])

    def test_percentile(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_normalize_constant(self):
        assert normalize([5, 5, 5]).tolist() == [0, 0, 0]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_normalize_range_property(self, vals):
        out = normalize(vals)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_describe_keys(self):
        d = describe([1.0, 2.0, 2.0, 9.0])
        assert d["mode"] == 2.0
        assert set(d) == {"mean", "std", "mode", "p25", "p50", "p75"}


class TestTables:
    def test_ascii_table_alignment(self):
        out = ascii_table(["A", "BB"], [[1, 2.5], [30, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("+")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows equal width

    def test_row_arity_checked(self):
        with pytest.raises(ValueError, match="cells"):
            ascii_table(["A"], [[1, 2]])

    def test_bar_chart(self):
        out = ascii_bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        assert "##########" in out
        assert "yy" in out

    def test_bar_chart_validates(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["x"], [1.0, 2.0])

    def test_histogram(self):
        out = ascii_histogram([1, 1, 2, 9], bins=[0, 5, 10])
        assert "3" in out and "1" in out


class TestRng:
    def test_deterministic_per_scope(self):
        assert rng_for("a", 1).random() == rng_for("a", 1).random()

    def test_different_scopes_differ(self):
        assert rng_for("a").random() != rng_for("b").random()

    def test_seed_override(self):
        assert (rng_for("a", seed=1).random()
                != rng_for("a", seed=2).random())


class TestMemo:
    def test_full_memo_is_emptied_by_the_next_put_and_refills(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo == {"a": 1, "b": 2}
        assert memo.put("c", 3) == 3
        assert memo == {"c": 3}
        memo.put("d", 4)
        assert memo == {"c": 3, "d": 4}

    def test_put_keeps_the_entry_already_there(self):
        memo = Memo(2)
        first, second = [1], [1]
        assert memo.put("k", first) is first
        assert memo.put("k", second) is first
        assert memo["k"] is first and len(memo) == 1
