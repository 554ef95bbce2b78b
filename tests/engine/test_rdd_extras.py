"""Set-style operators: intersection and subtract."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
