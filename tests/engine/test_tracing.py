"""Tracing subsystem tests: spans, Chrome-trace export, engine metrics."""

import json

import pytest

from repro.engine import Context
from repro.engine.tracing import (
    EngineMetrics,
    Tracer,
    chrome_trace_document,
    collect_engine_metrics,
    export_chrome_trace,
    export_text_trace,
)


class TestTracer:
    def test_span_contextmanager_measures(self):
        tracer = Tracer(label="t")
        with tracer.span("outer", "driver", answer=42):
            with tracer.span("inner", "driver"):
                pass
        assert len(tracer) == 2
        outer = next(s for s in tracer.spans_in("driver") if s.name == "outer")
        inner = next(s for s in tracer.spans_in("driver") if s.name == "inner")
        assert outer.duration_s >= inner.duration_s >= 0.0
        assert outer.args["answer"] == 42
        # containment: inner starts/ends within outer
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_a_tracer_pickles_without_its_lock(self):
        import pickle

        tracer = Tracer(label="t")
        with tracer.span("outer", "driver", answer=42):
            tracer.instant("mark", "driver")
        clone = pickle.loads(pickle.dumps(tracer))
        assert (clone.label, clone.enabled, clone.origin_s) == ("t", True, tracer.origin_s)
        assert clone.spans == tracer.spans and clone.instants == tracer.instants
        clone.add_span("after", "driver", 0.0, 1.0)  # a working lock came back
        assert len(clone) == 3 and len(tracer) == 2

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x", "driver"):
            pass
        tracer.add_span("y", "driver", 0.0, 1.0)
        tracer.instant("z", "driver")
        assert len(tracer) == 0

    def test_clear(self):
        tracer = Tracer()
        tracer.add_span("a", "driver", 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", "driver"):
                raise ValueError("x")
        assert len(tracer) == 1


class TestEngineSpans:
    def test_job_stage_task_hierarchy(self, ctx):
        rdd = ctx.parallelize(range(100), 4).map(lambda x: (x % 5, 1)).reduce_by_key(
            lambda a, b: a + b
        )
        assert rdd.count() == 5
        cats = ctx.tracer.categories()
        assert {"job", "stage", "task"} <= cats
        jobs = ctx.tracer.spans_in("job")
        stages = ctx.tracer.spans_in("stage")
        tasks = ctx.tracer.spans_in("task")
        assert len(jobs) == 1
        assert len(stages) == 2  # shuffle-map + result
        assert len(tasks) == 8  # 4 map + 4 reduce partitions
        job = jobs[0]
        for stage in stages:
            assert job.start_s <= stage.start_s
            assert stage.end_s <= job.end_s
        # shuffle spans carry byte counts
        shuffle = ctx.tracer.spans_in("shuffle")
        assert shuffle
        assert any(s.args.get("bytes", 0) > 0 for s in shuffle)

    def test_broadcast_and_cache_spans(self, ctx):
        bc = ctx.broadcast(list(range(50)))
        rdd = ctx.parallelize(range(20), 2).map(lambda x: x in bc.value).cache()
        rdd.collect()
        rdd.collect()
        publishes = ctx.tracer.spans_in("broadcast")
        assert any(s.name == f"broadcast_publish b{bc.id}" for s in publishes)
        assert any(s.args.get("size_bytes", 0) > 0 for s in publishes)
        assert ctx.tracer.spans_in("cache")

    def test_tracing_can_be_disabled(self):
        with Context(backend="serial", tracing=False) as ctx:
            ctx.parallelize(range(10), 2).count()
            assert len(ctx.tracer) == 0


class TestChromeExport:
    def test_document_schema(self, ctx):
        ctx.parallelize(range(20), 2).map(lambda x: (x % 2, x)).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        doc = chrome_trace_document([ctx.tracer])
        assert isinstance(doc["traceEvents"], list)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "M" in phases and "X" in phases
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
                assert ev["ts"] >= 0
        # one process-name metadata record per tracer
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M" and e["name"] == "process_name"]
        assert len(meta) == 1

    def test_export_writes_loadable_json(self, ctx, tmp_path):
        ctx.parallelize(range(10), 2).count()
        path = tmp_path / "trace.json"
        export_chrome_trace([ctx.tracer], path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_none_tracers_filtered(self, tmp_path):
        tracer = Tracer(label="solo")
        tracer.add_span("a", "driver", 0.0, 0.5)
        path = tmp_path / "t.json"
        export_chrome_trace([tracer, None], path)
        assert json.loads(path.read_text())["traceEvents"]

    def test_text_export(self, ctx, tmp_path):
        ctx.parallelize(range(10), 2).count()
        text = ctx.tracer.to_text()
        assert "job-0" in text
        path = tmp_path / "t.txt"
        export_text_trace(ctx.tracer, path)
        assert "job-0" in path.read_text()


class TestEngineMetrics:
    def test_collect_after_shuffled_cached_job(self, ctx):
        rdd = ctx.parallelize(range(100), 4).cache()
        rdd.count()
        rdd.map(lambda x: (x % 3, 1)).reduce_by_key(lambda a, b: a + b).collect()
        m = collect_engine_metrics(ctx)
        assert m.n_jobs == 2
        assert m.n_tasks >= 8
        assert m.total_task_seconds > 0
        assert m.shuffle_bytes_written > 0
        assert m.shuffle_bytes_fetched > 0
        assert m.cache_memory_hits > 0  # second job reads the cached blocks
        assert 0.0 < m.cache_hit_rate <= 1.0
        assert "jobs=2" in m.summary()

    def test_hit_rate_zero_without_cache_traffic(self):
        m = EngineMetrics()
        assert m.cache_hit_rate == 0.0
