"""MapReduce runtime tests: wordcount, combiner, counters, errors."""

from collections import Counter as PyCounter

import pytest

from repro.common.errors import JobConfigError, MapReduceError
from repro.hdfs import MiniDfs
from repro.mapreduce import (
    GROUP_TASK,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    FunctionMapper,
    FunctionReducer,
    JobRunner,
    JobSpec,
    Mapper,
    Reducer,
    read_job_output,
)


@pytest.fixture()
def dfs(tmp_path):
    with MiniDfs(root_dir=str(tmp_path), n_datanodes=3, block_size=64, replication=1) as d:
        yield d


class WordCountMapper(Mapper):
    def map(self, key, value, emit):
        for word in value.split():
            emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, emit):
        emit(key, sum(values))


def wordcount_spec(output="/out", combiner=False, reducers=3):
    return JobSpec(
        name="wordcount",
        input_paths=["/in.txt"],
        output_path=output,
        mapper_factory=WordCountMapper,
        reducer_factory=SumReducer,
        combiner_factory=SumReducer if combiner else None,
        num_reducers=reducers,
    )


TEXT = ["the quick brown fox", "jumps over the lazy dog", "the fox again"] * 4


class TestWordCount:
    def expected(self):
        return dict(PyCounter(w for line in TEXT for w in line.split()))

    def parse(self, lines):
        out = {}
        for line in lines:
            k, v = line.split("\t")
            out[k] = int(v)
        return out

    def test_basic(self, dfs):
        dfs.write_lines("/in.txt", TEXT)
        runner = JobRunner(dfs)
        result = runner.run(wordcount_spec())
        got = self.parse(read_job_output(dfs, "/out"))
        assert got == self.expected()

    def test_with_combiner_same_answer(self, dfs):
        dfs.write_lines("/in.txt", TEXT)
        runner = JobRunner(dfs)
        result = runner.run(wordcount_spec(output="/out2", combiner=True))
        got = self.parse(read_job_output(dfs, "/out2"))
        assert got == self.expected()

    def test_one_part_file_per_reducer(self, dfs):
        dfs.write_lines("/in.txt", TEXT)
        JobRunner(dfs).run(wordcount_spec(reducers=4))
        assert len(dfs.list_files("/out")) == 4

    def test_counters(self, dfs):
        dfs.write_lines("/in.txt", TEXT)
        result = JobRunner(dfs).run(wordcount_spec())
        n_words = sum(len(line.split()) for line in TEXT)
        assert result.counters.value(GROUP_TASK, MAP_INPUT_RECORDS) == len(TEXT)
        assert result.counters.value(GROUP_TASK, MAP_OUTPUT_RECORDS) == n_words
        assert result.counters.value(GROUP_TASK, REDUCE_OUTPUT_RECORDS) == len(self.expected())

    def test_combiner_shrinks_shuffle(self, dfs):
        dfs.write_lines("/in.txt", TEXT)
        plain = JobRunner(dfs).run(wordcount_spec(output="/p"))
        combined = JobRunner(dfs).run(wordcount_spec(output="/c", combiner=True))
        assert combined.metrics.shuffle_bytes < plain.metrics.shuffle_bytes

    def test_metrics_measured(self, dfs):
        dfs.write_lines("/in.txt", TEXT)
        result = JobRunner(dfs).run(wordcount_spec())
        m = result.metrics
        assert len(m.map_task_durations) >= 1  # one per split
        assert len(m.reduce_task_durations) == 3
        assert m.hdfs_read_bytes > 0
        assert m.hdfs_write_bytes > 0
        assert m.wall_seconds > 0

    def test_multiple_inputs(self, dfs):
        dfs.write_lines("/a.txt", ["x y"])
        dfs.write_lines("/b.txt", ["y z"])
        spec = wordcount_spec()
        spec.input_paths = ["/a.txt", "/b.txt"]
        JobRunner(dfs).run(spec)
        assert self.parse(read_job_output(dfs, "/out")) == {"x": 1, "y": 2, "z": 1}


class TestJobValidation:
    def test_existing_output_rejected(self, dfs):
        dfs.write_lines("/in.txt", ["a"])
        dfs.write_lines("/out/part-r-00000", ["stale"])
        with pytest.raises(MapReduceError):
            JobRunner(dfs).run(wordcount_spec())

    def test_empty_input_rejected(self, dfs):
        dfs.write_text("/in.txt", "")
        with pytest.raises(MapReduceError):
            JobRunner(dfs).run(wordcount_spec())

    def test_no_input_paths(self, dfs):
        spec = wordcount_spec()
        spec.input_paths = []
        with pytest.raises(JobConfigError):
            spec.validate()

    def test_bad_reducer_count(self, dfs):
        spec = wordcount_spec(reducers=0)
        with pytest.raises(JobConfigError):
            spec.validate()


class TestDistributedCacheAndConfig:
    def test_cache_visible_in_setup(self, dfs):
        dfs.write_lines("/in.txt", ["a b"])
        seen = {}

        class CacheMapper(Mapper):
            def setup(self, config):
                seen["cache"] = config["__cache__"]["lookup"]
                seen["param"] = config["threshold"]

            def map(self, key, value, emit):
                emit("k", 1)

        spec = JobSpec(
            name="cache",
            input_paths=["/in.txt"],
            output_path="/out",
            mapper_factory=CacheMapper,
            reducer_factory=SumReducer,
            num_reducers=1,
            config={"threshold": 3},
            distributed_cache={"lookup": {"a", "b"}},
        )
        JobRunner(dfs).run(spec)
        assert seen == {"cache": {"a", "b"}, "param": 3}

    def test_function_adapters(self, dfs):
        dfs.write_lines("/in.txt", ["1 2", "3"])
        spec = JobSpec(
            name="fn",
            input_paths=["/in.txt"],
            output_path="/out",
            mapper_factory=lambda: FunctionMapper(
                lambda k, v: [(int(tok) % 2, int(tok)) for tok in v.split()]
            ),
            reducer_factory=lambda: FunctionReducer(lambda k, vs: [(k, sum(vs))]),
            num_reducers=2,
        )
        JobRunner(dfs).run(spec)
        got = dict(
            tuple(map(int, line.split("\t"))) for line in read_job_output(dfs, "/out")
        )
        assert got == {0: 2, 1: 4}

