"""RDD transformations and actions (single-key-free surface)."""

import pytest

from repro.common.errors import EngineError
from repro.hdfs import MiniDfs


class TestCreation:
    def test_parallelize_partition_count(self, ctx):
        rdd = ctx.parallelize(range(10), 4)
        assert rdd.num_partitions == 4
        assert rdd.collect() == list(range(10))

    def test_parallelize_preserves_order(self, ctx):
        data = [5, 3, 9, 1]
        assert ctx.parallelize(data, 3).collect() == data

    def test_parallelize_more_slices_than_items(self, ctx):
        rdd = ctx.parallelize([1, 2], 5)
        assert rdd.num_partitions == 5
        assert rdd.collect() == [1, 2]

    def test_parallelize_invalid_slices(self, ctx):
        with pytest.raises(EngineError):
            ctx.parallelize([1], 0)

    def test_empty_rdd(self, ctx):
        assert ctx.empty_rdd().collect() == []
        assert ctx.empty_rdd().is_empty()


class TestNarrowTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * 2).collect() == [2, 4, 6]

    def test_flat_map(self, ctx):
        got = ctx.parallelize(["a b", "c"], 2).flat_map(str.split).collect()
        assert got == ["a", "b", "c"]

    def test_filter(self, ctx):
        got = ctx.parallelize(range(10), 3).filter(lambda x: x % 2 == 0).collect()
        assert got == [0, 2, 4, 6, 8]

    def test_map_partitions(self, ctx):
        got = ctx.parallelize(range(8), 4).map_partitions(lambda it: [sum(it)]).collect()
        assert got == [1, 5, 9, 13]

    def test_map_partitions_with_index(self, ctx):
        got = (
            ctx.parallelize(range(4), 2)
            .map_partitions_with_index(lambda i, it: [(i, list(it))])
            .collect()
        )
        assert got == [(0, [0, 1]), (1, [2, 3])]

    def test_glom(self, ctx):
        assert ctx.parallelize(range(4), 2).glom().collect() == [[0, 1], [2, 3]]

    def test_key_by(self, ctx):
        assert ctx.parallelize([3], 1).key_by(lambda x: x % 2).collect() == [(1, 3)]

    def test_distinct(self, ctx):
        got = sorted(ctx.parallelize([1, 2, 1, 3, 2], 3).distinct().collect())
        assert got == [1, 2, 3]

    def test_sample_deterministic(self, ctx):
        rdd = ctx.parallelize(range(1000), 4)
        a = rdd.sample(0.3, seed=5).collect()
        b = rdd.sample(0.3, seed=5).collect()
        assert a == b
        assert 150 < len(a) < 450

    def test_sample_bounds(self, ctx):
        rdd = ctx.parallelize(range(10), 2)
        assert rdd.sample(0.0).collect() == []
        assert rdd.sample(1.0).collect() == list(range(10))
        with pytest.raises(ValueError):
            rdd.sample(1.5)

    def test_zip_with_index(self, ctx):
        got = ctx.parallelize(["a", "b", "c", "d"], 3).zip_with_index().collect()
        assert got == [("a", 0), ("b", 1), ("c", 2), ("d", 3)]

    def test_repartition(self, ctx):
        rdd = ctx.parallelize(range(20), 2).repartition(5)
        assert rdd.num_partitions == 5
        assert sorted(rdd.collect()) == list(range(20))

    def test_sort_by_ascending(self, ctx):
        data = [5, 3, 8, 1, 9, 2, 7, 0, 6, 4]
        assert ctx.parallelize(data, 3).sort_by(lambda x: x).collect() == sorted(data)

    def test_sort_by_descending(self, ctx):
        data = [5, 3, 8, 1]
        got = ctx.parallelize(data, 2).sort_by(lambda x: x, ascending=False).collect()
        assert got == sorted(data, reverse=True)

    def test_sort_by_key_func(self, ctx):
        data = ["bbb", "a", "cc"]
        got = ctx.parallelize(data, 2).sort_by(len).collect()
        assert got == ["a", "cc", "bbb"]

    def test_laziness(self, ctx):
        calls = []

        def record(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize([1, 2], 1).map(record)
        assert calls == []  # nothing ran yet
        rdd.collect()
        assert calls == [1, 2]


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(17), 4).count() == 17

    def test_first(self, ctx):
        assert ctx.parallelize([9, 1], 2).first() == 9

    def test_first_empty_raises(self, ctx):
        with pytest.raises(EngineError):
            ctx.empty_rdd().first()

    def test_take_spans_partitions(self, ctx):
        assert ctx.parallelize(range(10), 5).take(7) == list(range(7))

    def test_take_more_than_size(self, ctx):
        assert ctx.parallelize([1, 2], 2).take(10) == [1, 2]

    def test_take_zero(self, ctx):
        assert ctx.parallelize([1], 1).take(0) == []

    def test_reduce(self, ctx):
        assert ctx.parallelize(range(1, 6), 3).reduce(lambda a, b: a * b) == 120

    def test_reduce_with_empty_partitions(self, ctx):
        assert ctx.parallelize([4], 3).reduce(lambda a, b: a + b) == 4

    def test_reduce_empty_raises(self, ctx):
        with pytest.raises(EngineError):
            ctx.empty_rdd().reduce(lambda a, b: a + b)

    def test_fold(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).fold(0, lambda a, b: a + b) == 6

    def test_fold_zero_not_shared(self, ctx):
        got = ctx.parallelize([[1], [2]], 2).fold([], lambda a, b: a + b)
        assert sorted(got) == [1, 2]

    def test_aggregate(self, ctx):
        total, n = ctx.parallelize(range(10), 3).aggregate(
            (0, 0), lambda acc, x: (acc[0] + x, acc[1] + 1), lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        assert (total, n) == (45, 10)

    def test_count_by_value(self, ctx):
        got = ctx.parallelize(list("abca"), 2).count_by_value()
        assert got == {"a": 2, "b": 1, "c": 1}

    def test_top_and_take_ordered(self, ctx):
        rdd = ctx.parallelize([5, 1, 9, 3, 7], 3)
        assert rdd.top(2) == [9, 7]
        assert rdd.take_ordered(2) == [1, 3]
        assert rdd.top(2, key=lambda x: -x) == [1, 3]

    def test_is_empty(self, ctx):
        assert not ctx.parallelize([1], 1).is_empty()
        assert ctx.parallelize([], 3).is_empty()


class TestTextFileIntegration:
    def test_text_file_roundtrip(self, ctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2, block_size=32) as dfs:
            lines = [f"row {i} {'x' * (i % 5)}" for i in range(30)]
            dfs.write_lines("/in.txt", lines)
            rdd = ctx.text_file(dfs, "/in.txt")
            assert rdd.num_partitions > 1  # small blocks -> several splits
            assert rdd.collect() == lines

    def test_save_as_text_file(self, ctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2) as dfs:
            ctx.parallelize(range(6), 3).save_as_text_file(dfs, "/out")
            parts = dfs.list_files("/out")
            assert len(parts) == 3
            all_lines = [ln for p in parts for ln in dfs.read_lines(p)]
            assert sorted(map(int, all_lines)) == list(range(6))

    def test_text_file_records_input_bytes(self, ctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=1, block_size=16) as dfs:
            dfs.write_lines("/f", ["abc"] * 20)
            ctx.text_file(dfs, "/f").count()
            total_input = sum(t.input_bytes for t in ctx.event_log.tasks)
            assert total_input == dfs.file_length("/f")
