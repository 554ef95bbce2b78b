"""Property-based tests: the engine must agree with plain-Python semantics."""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Context

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run(f):
    with Context(backend="serial") as ctx:
        return f(ctx)


class TestAgainstPython:
    @_settings
    @given(st.lists(st.integers(-100, 100), max_size=60), st.integers(1, 7))
    def test_collect_identity(self, xs, n):
        assert run(lambda ctx: ctx.parallelize(xs, n).collect()) == xs

    @_settings
    @given(st.lists(st.integers(-100, 100), max_size=60), st.integers(1, 7))
    def test_count(self, xs, n):
        assert run(lambda ctx: ctx.parallelize(xs, n).count()) == len(xs)

    @_settings
    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=3), max_size=50), st.integers(1, 5))
    def test_wordcount_matches_counter(self, words, n):
        got = run(
            lambda ctx: dict(
                ctx.parallelize(words, n)
                .map(lambda w: (w, 1))
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
        )
        assert got == dict(Counter(words))

    @_settings
    @given(st.lists(st.integers(-50, 50), max_size=50), st.integers(1, 5))
    def test_distinct_matches_set(self, xs, n):
        got = run(lambda ctx: sorted(ctx.parallelize(xs, n).distinct().collect()))
        assert got == sorted(set(xs))

    @_settings
    @given(st.lists(st.integers(-1000, 1000), max_size=60), st.integers(1, 6), st.integers(1, 6))
    def test_sort_by_matches_sorted(self, xs, n, m):
        got = run(lambda ctx: ctx.parallelize(xs, n).sort_by(lambda x: x, num_partitions=m).collect())
        assert got == sorted(xs)

    @_settings
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(-10, 10)), max_size=50),
        st.integers(1, 5),
    )
    def test_group_by_key_complete(self, pairs, n):
        got = run(
            lambda ctx: {
                k: sorted(v)
                for k, v in ctx.parallelize(pairs, n).group_by_key().collect()
            }
        )
        want: dict[int, list[int]] = {}
        for k, v in pairs:
            want.setdefault(k, []).append(v)
        assert got == {k: sorted(v) for k, v in want.items()}

    @_settings
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50), st.integers(1, 5))
    def test_reduce_max(self, xs, n):
        got = run(lambda ctx: ctx.parallelize(xs, n).reduce(max))
        assert got == max(xs)

    @_settings
    @given(st.lists(st.integers(-20, 20), max_size=40), st.integers(1, 4), st.integers(0, 10))
    def test_take_prefix(self, xs, n, k):
        assert run(lambda ctx: ctx.parallelize(xs, n).take(k)) == xs[:k]

    @_settings
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.text(alphabet="xy", max_size=2)), max_size=30),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=30),
    )
    def test_join_matches_nested_loop(self, left, right):
        got = run(lambda ctx: sorted(
            ctx.parallelize(left, 3).join(ctx.parallelize(right, 2)).collect()
        ))
        want = sorted((k, (a, b)) for k, a in left for k2, b in right if k == k2)
        assert got == want
