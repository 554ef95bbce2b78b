"""Set-style, sampling and histogram operators."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import EngineError
from repro.engine import Context

_settings = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestIntersection:
    def test_basic(self, ctx):
        a = ctx.parallelize([1, 2, 3, 3], 2)
        b = ctx.parallelize([2, 3, 4], 2)
        assert sorted(a.intersection(b).collect()) == [2, 3]

    def test_empty_result(self, ctx):
        a = ctx.parallelize([1], 1)
        b = ctx.parallelize([2], 1)
        assert a.intersection(b).collect() == []

    def test_distinct_semantics(self, ctx):
        a = ctx.parallelize([1, 1, 1], 2)
        b = ctx.parallelize([1, 1], 1)
        assert a.intersection(b).collect() == [1]

    @_settings
    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_matches_set_intersection(self, xs, ys):
        with Context(backend="serial") as ctx:
            got = sorted(
                ctx.parallelize(xs, 3).intersection(ctx.parallelize(ys, 2)).collect()
            )
        assert got == sorted(xs & ys)


class TestSubtract:
    def test_basic(self, ctx):
        a = ctx.parallelize([1, 2, 2, 3], 2)
        b = ctx.parallelize([2], 1)
        assert sorted(a.subtract(b).collect()) == [1, 3]

    def test_keeps_duplicates_of_survivors(self, ctx):
        a = ctx.parallelize([1, 1, 2], 2)
        b = ctx.parallelize([2], 1)
        assert sorted(a.subtract(b).collect()) == [1, 1]

    @_settings
    @given(st.lists(st.integers(0, 20), max_size=30), st.sets(st.integers(0, 20)))
    def test_matches_list_filter(self, xs, ys):
        with Context(backend="serial") as ctx:
            got = sorted(
                ctx.parallelize(xs, 3).subtract(ctx.parallelize(ys, 2)).collect()
            )
        assert got == sorted(x for x in xs if x not in ys)


class TestTakeSample:
    def test_exact_size(self, ctx):
        got = ctx.parallelize(range(100), 4).take_sample(10, seed=1)
        assert len(got) == 10
        assert len(set(got)) == 10  # without replacement

    def test_n_larger_than_rdd(self, ctx):
        assert sorted(ctx.parallelize(range(5), 2).take_sample(10)) == list(range(5))

    def test_zero(self, ctx):
        assert ctx.parallelize(range(5), 2).take_sample(0) == []

    def test_deterministic(self, ctx):
        rdd = ctx.parallelize(range(1000), 4)
        assert rdd.take_sample(20, seed=3) == rdd.take_sample(20, seed=3)

    def test_members_of_source(self, ctx):
        got = ctx.parallelize(range(50), 3).take_sample(7, seed=2)
        assert all(0 <= x < 50 for x in got)


class TestHistogram:
    def test_even_buckets(self, ctx):
        edges, counts = ctx.parallelize([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 3).histogram(2)
        assert edges == [0, 4.5, 9]
        assert counts == [5, 5]

    def test_explicit_edges(self, ctx):
        edges, counts = ctx.parallelize([1, 2, 3, 10, 20], 2).histogram([0, 5, 25])
        assert counts == [3, 2]

    def test_out_of_range_ignored(self, ctx):
        _, counts = ctx.parallelize([-5, 1, 99], 2).histogram([0, 2])
        assert counts == [1]

    def test_right_closed_last_bucket(self, ctx):
        _, counts = ctx.parallelize([10], 1).histogram([0, 5, 10])
        assert counts == [0, 1]

    def test_constant_data(self, ctx):
        edges, counts = ctx.parallelize([4, 4, 4], 2).histogram(3)
        assert edges == [4, 4]
        assert sum(counts) == 3

    def test_invalid_buckets(self, ctx):
        with pytest.raises(EngineError):
            ctx.parallelize([1], 1).histogram(0)
        with pytest.raises(EngineError):
            ctx.parallelize([1], 1).histogram([3, 1])

    @_settings
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=60), st.integers(1, 8))
    def test_total_count_preserved(self, xs, n_buckets):
        with Context(backend="serial") as ctx:
            _, counts = ctx.parallelize(xs, 3).histogram(n_buckets)
        assert sum(counts) == len(xs)
