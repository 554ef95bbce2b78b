"""The counting fast path: dictionary encoding, in-store weighted
counting, and cross-pass transaction compaction.

The contract under test everywhere: the fast path is a *performance*
feature — switching between it and the paper dataflow must never change
the mined itemsets, on any backend.
"""

import random

import pytest

from repro.algorithms import apriori, fpgrowth
from repro.common.encoding import ItemDictionary
from repro.core import HashTree, LinearStore, RApriori, Yafim
from repro.core.one_phase import OnePhaseMR, SubsetEnumerationMapper
from repro.datasets import mushroom_like, t10i4d100k_like
from repro.engine import Context
from repro.engine.executors import BACKENDS
from repro.hdfs import MiniDfs
from repro.mapreduce import JobRunner
from repro.mapreduce.counters import GROUP_TASK, MAP_OUTPUT_RECORDS

TXNS = [
    ["bread", "milk"],
    ["bread", "diaper", "beer", "eggs"],
    ["milk", "diaper", "beer", "cola"],
    ["bread", "milk", "diaper", "beer"],
    ["bread", "milk", "diaper", "cola"],
] * 6

#: Seed shape: the paper's literal Fig. 1-2 dataflow.
PAPER_SHAPE = dict(paper_dataflow=True)


def random_transactions(n=120, n_items=14, seed=11):
    rng = random.Random(seed)
    return [
        rng.sample(range(n_items), rng.randint(2, min(8, n_items)))
        for _ in range(n)
    ]


@pytest.fixture()
def ctx():
    with Context(backend="serial") as c:
        yield c


# ---------------------------------------------------------------------------
# ItemDictionary
# ---------------------------------------------------------------------------
class TestItemDictionary:
    COUNTS = {"a": 5, "b": 9, "c": 5, "d": 2}

    def test_codes_ordered_by_descending_support(self):
        d = ItemDictionary.from_counts(self.COUNTS)
        # b(9) -> 0, then the a/c tie breaks on the item itself, then d(2)
        assert [d.code("b"), d.code("a"), d.code("c"), d.code("d")] == [0, 1, 2, 3]
        assert len(d) == 4
        assert "b" in d and "z" not in d

    def test_code_item_round_trip(self):
        d = ItemDictionary.from_counts(self.COUNTS)
        for item in self.COUNTS:
            assert d.item(d.code(item)) == item

    def test_encode_transaction_drops_infrequent_and_sorts(self):
        d = ItemDictionary.from_counts(self.COUNTS)
        codes = d.encode_transaction(["d", "z", "b", "a"])  # z unknown
        assert list(codes) == sorted(codes)
        assert list(codes) == [d.code("b"), d.code("a"), d.code("d")]

    def test_itemset_round_trip_restores_canonical_order(self):
        d = ItemDictionary.from_counts(self.COUNTS)
        enc = d.encode_itemset(("a", "c", "d"))
        assert enc == tuple(sorted(enc))
        assert d.decode_itemset(enc) == ("a", "c", "d")

    def test_encode_itemset_rejects_infrequent_member(self):
        d = ItemDictionary.from_counts(self.COUNTS)
        with pytest.raises(KeyError):
            d.encode_itemset(("a", "zzz"))


# ---------------------------------------------------------------------------
# In-tree counting kernels
# ---------------------------------------------------------------------------
def _matchers(candidates):
    return [
        HashTree(candidates, fanout=4, max_leaf_size=2),
        LinearStore(candidates),
    ]


class TestCountInto:
    CANDS = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]

    def test_matches_subset_semantics(self):
        txns = [sorted(t) for t in random_transactions(n=60, n_items=6, seed=3)]
        for matcher in _matchers(self.CANDS):
            counted: dict = {}
            expected: dict = {}
            for txn in txns:
                matcher.count_into(counted, txn)
                for c in matcher.subset(txn):
                    expected[c] = expected.get(c, 0) + 1
            assert counted == expected

    def test_weight_multiplies(self):
        for matcher in _matchers(self.CANDS):
            once: dict = {}
            matcher.count_into(once, [0, 1, 2])
            thrice: dict = {}
            matcher.count_into(thrice, [0, 1, 2], weight=3)
            assert thrice == {c: 3 * n for c, n in once.items()}

    def test_candidate_index_is_insertion_order(self):
        for matcher in _matchers(self.CANDS):
            index = matcher.candidate_index()
            assert index == {c: i for i, c in enumerate(self.CANDS)}
            assert matcher.candidate_index() is index  # built once


# ---------------------------------------------------------------------------
# Output equivalence across dataflows and backends
# ---------------------------------------------------------------------------
#: (miner knobs, backend): the two dataflows on every backend, with and
#: without closure shipping (A1) — under the paper dataflow the only runs
#: where the store and R-Apriori's keep-set ride in task closures, which
#: on ``processes`` are really pickled
KNOB_GRID = [
    (dict(paper_dataflow=paper, **extra), backend)
    for paper in (False, True)
    for extra in ({}, dict(use_broadcast=False))
    for backend in BACKENDS
]


def _mine(miner_cls, knobs, txns, min_support):
    options, backend = knobs
    with Context(backend=backend, parallelism=2) as c:
        return miner_cls(c, num_partitions=4, **options).run(txns, min_support)


class TestKnobEquivalence:
    @pytest.fixture(scope="class")
    def oracle(self):
        return apriori(TXNS, 0.3)

    @pytest.mark.parametrize("knobs", KNOB_GRID)
    def test_every_knob_combination_matches_oracle(self, knobs, oracle):
        assert _mine(Yafim, knobs, TXNS, 0.3).itemsets == oracle

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fastpath_identical_across_backends(self, backend, oracle):
        txns = random_transactions()
        with Context(backend=backend, parallelism=2) as c:
            fast = Yafim(c, num_partitions=4).run(txns, 0.2)
        with Context(backend=backend, parallelism=2) as c:
            base = Yafim(c, num_partitions=4, **PAPER_SHAPE).run(txns, 0.2)
        assert fast.itemsets == base.itemsets
        assert fast.itemsets == apriori(txns, 0.2)

    @pytest.mark.parametrize("knobs", KNOB_GRID)
    def test_rapriori_matches_oracle_under_every_knob(self, knobs, oracle):
        assert _mine(RApriori, knobs, TXNS, 0.3).itemsets == oracle

    def test_max_length_respected_on_fastpath(self, ctx, oracle):
        result = Yafim(ctx, num_partitions=4).run(TXNS, 0.3, max_length=2)
        assert result.itemsets == {k: v for k, v in oracle.items() if len(k) <= 2}


# ---------------------------------------------------------------------------
# CompactionStats and metrics plumbing
# ---------------------------------------------------------------------------
class TestCompactionStats:
    def test_encode_round_recorded_on_pass_one(self, ctx):
        result = Yafim(ctx, num_partitions=4).run(TXNS, 0.3)
        stats = result.iterations[0].compaction
        assert stats is not None and stats.kind == "encode"
        assert stats.txns_before == len(TXNS)
        assert stats.dict_items == result.iterations[0].n_frequent
        assert stats.dict_broadcast_bytes > 0
        # dedupe collapsed the x6 repetition but conserved total weight
        assert stats.txns_after < stats.txns_before
        assert stats.weight_after == len(TXNS)

    def test_compact_rounds_shrink_monotonically(self, ctx):
        result = Yafim(ctx, num_partitions=4).run(TXNS, 0.3)
        compacts = [
            it.compaction for it in result.iterations[1:] if it.compaction is not None
        ]
        assert compacts, "no between-pass compaction recorded"
        for stats in compacts:
            assert stats.kind == "compact"
            assert stats.txns_after <= stats.txns_before
            assert stats.items_after <= stats.items_before

    def test_engine_metrics_fold_and_summary(self, ctx):
        result = Yafim(ctx, num_partitions=4).run(TXNS, 0.3)
        m = result.engine_metrics
        n_rounds = sum(1 for it in result.iterations if it.compaction is not None)
        assert m.compaction_rounds == n_rounds > 0
        assert m.compaction_txns_dropped > 0
        assert "compaction=" in m.summary()

    def test_paper_shape_records_no_compaction(self, ctx):
        result = Yafim(ctx, num_partitions=4, **PAPER_SHAPE).run(TXNS, 0.3)
        assert all(it.compaction is None for it in result.iterations)
        assert result.engine_metrics.compaction_rounds == 0
        assert "compaction=" not in result.engine_metrics.summary()

    def test_trace_has_compaction_spans(self, ctx):
        result = Yafim(ctx, num_partitions=4).run(TXNS, 0.3)
        spans = [s for s in result.trace.spans if s.category == "compaction"]
        assert any(s.name == "encode k=1" for s in spans)
        assert any(s.name.startswith("compact k=") for s in spans)
        for s in spans:
            assert s.args["txns_after"] <= s.args["txns_before"]
        # the spans survive the chrome export
        doc = result.trace.to_chrome_trace()
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "compaction" in cats


# ---------------------------------------------------------------------------
# Laid out once: what a run builds, and how many jobs it takes
# ---------------------------------------------------------------------------
class TestLaidOutOnce:
    """Host-independent structure of a fast-path run: a store class with
    a layout of its own gets the rows laid out once per partition, in the
    round before the first pass it counts; after that a pass is a job
    and nothing else."""

    def rounds(self, result):
        return [
            it.compaction.kind if it.compaction is not None else None
            for it in result.iterations
        ]

    def test_bitmap_tid_bitmap_builds_once_per_partition_and_never_compacts(self, ctx, tid_bitmap_builds):
        txns = random_transactions(n_items=8)  # six levels deep at 0.2
        result = Yafim(ctx, num_partitions=4, candidate_store="bitmap").run(txns, 0.2)
        assert len(result.iterations) >= 4  # several passes read the one block
        assert len(tid_bitmap_builds) == 4
        assert self.rounds(result) == ["encode"] + [None] * (len(result.iterations) - 1)
        # Phase I + the encode round + one job per pass
        assert result.engine_metrics.n_jobs == len(result.iterations) + 1
        assert result.engine_metrics.compaction_rounds == 1
        # the encode round still reports the rows it laid out
        encode = result.iterations[0].compaction
        assert sum(tid_bitmap_builds) == encode.txns_after > 0
        assert encode.weight_after == len(txns) and encode.bytes_after > 0
        assert encode.items_after > 2 * encode.txns_after

    def test_hashtree_keeps_its_rows_and_its_rounds(self, ctx, tid_bitmap_builds):
        txns = random_transactions(n_items=8)  # six levels deep at 0.2
        result = Yafim(ctx, num_partitions=4).run(txns, 0.2)
        n = len(result.iterations)
        assert not tid_bitmap_builds
        # a row rewrite (and its job) after every pass that found anything
        rounds = self.rounds(result)
        assert rounds[:-1] == ["encode"] + ["compact"] * (n - 2)
        assert result.engine_metrics.n_jobs == n + len(list(filter(None, rounds)))
        same = Yafim(ctx, num_partitions=4, candidate_store="bitmap").run(txns, 0.2)
        assert same.itemsets == result.itemsets

    def test_rapriori_lays_out_after_its_pair_pass(self, ctx, tid_bitmap_builds):
        txns = random_transactions(n_items=8)  # six levels deep at 0.2
        result = RApriori(ctx, num_partitions=4, candidate_store="bitmap").run(txns, 0.2)
        n = len(result.iterations)
        assert n >= 4 and len(tid_bitmap_builds) == 4
        # pass 2 reads rows; the round after it compacts them and lays out
        assert self.rounds(result) == ["encode", "compact"] + [None] * (n - 2)
        assert sum(tid_bitmap_builds) == result.iterations[1].compaction.txns_after
        assert result.engine_metrics.n_jobs == n + 2
        capped = RApriori(ctx, num_partitions=4, candidate_store="bitmap").run(
            txns, 0.2, max_length=2
        )
        assert len(tid_bitmap_builds) == 4  # no store-counted pass: never laid out

    def test_uncached_block_is_recomputed_per_pass(self, ctx, tid_bitmap_builds):
        txns = random_transactions(n_items=8)  # six levels deep at 0.2
        result = Yafim(
            ctx, num_partitions=4, candidate_store="bitmap", cache_transactions=False
        ).run(txns, 0.2)
        # A2: nothing is resident — the encode round's job and every pass
        # after it rebuild the block, exactly as uncached rows are re-encoded
        assert len(tid_bitmap_builds) == 4 * len(result.iterations)
        assert result.itemsets == apriori(txns, 0.2)

    def test_paper_dataflow_never_lays_out(self, ctx, tid_bitmap_builds):
        result = Yafim(ctx, num_partitions=4, candidate_store="bitmap", **PAPER_SHAPE).run(
            TXNS, 0.3
        )
        assert not tid_bitmap_builds and result.itemsets == apriori(TXNS, 0.3)


# ---------------------------------------------------------------------------
# Pass 2 off the rows: no C2 built, broadcast or walked
# ---------------------------------------------------------------------------
def _pass_two(result):
    return next(it for it in result.iterations if it.k == 2)


def _span_names(result):
    return {span.name for span in result.trace.spans}


def _with_duplicates(rows):
    """Every third row twice in a row, so a partition holds the pair and
    the encode round weighs it 2."""
    return [row for i, row in enumerate(rows) for _ in range(1 + (i % 3 == 0))]


@pytest.fixture(scope="module")
def pair_inputs():
    """``name -> (rows, support, fpgrowth answer)``: one sparse input and
    one dense one."""
    inputs = {
        "sparse": (t10i4d100k_like(scale=0.004, seed=7).transactions, 0.01),
        "dense": (mushroom_like(scale=0.03, seed=7).transactions, 0.4),
    }
    return {
        name: (rows, support, fpgrowth(rows, support))
        for name, (base, support) in inputs.items()
        for rows in [_with_duplicates(base)]
    }


class TestPairPass:
    @pytest.mark.parametrize("store", ["hashtree", "linear"])
    def test_a_row_store_builds_and_ships_nothing_at_pass_two(self, ctx, store):
        result = Yafim(ctx, num_partitions=4, candidate_store=store).run(TXNS, 0.3)
        names = _span_names(result)
        assert _pass_two(result).broadcast_bytes == 0
        assert "store_build k=2" not in names and "apriori_gen k=2" not in names
        assert "store_build k=3" in names  # later passes count through the store
        m = len(result.level(1))
        assert _pass_two(result).n_candidates == m * (m - 1) // 2
        assert result.itemsets == apriori(TXNS, 0.3)

    def test_paper_dataflow_still_broadcasts_the_pass_two_hash_tree(self, ctx):
        result = Yafim(ctx, num_partitions=4, **PAPER_SHAPE).run(TXNS, 0.3)
        assert _pass_two(result).broadcast_bytes > 0
        assert "store_build k=2" in _span_names(result)
        assert result.itemsets == apriori(TXNS, 0.3)

    def test_the_bitmap_store_counts_pass_two(self, ctx):
        result = Yafim(ctx, num_partitions=4, candidate_store="bitmap").run(TXNS, 0.3)
        assert _pass_two(result).broadcast_bytes > 0
        assert "store_build k=2" in _span_names(result)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["sparse", "dense"])
    @pytest.mark.parametrize("max_length", [1, 2, 3, None])
    def test_matches_fpgrowth(self, pair_inputs, backend, name, max_length):
        rows, support, oracle = pair_inputs[name]
        with Context(backend=backend, parallelism=2) as c:
            result = Yafim(c, num_partitions=3).run(rows, support, max_length=max_length)
        want = {k: v for k, v in oracle.items() if max_length is None or len(k) <= max_length}
        assert result.itemsets == want
        if max_length != 1:
            encode = result.iterations[0].compaction
            assert encode.weight_after > encode.txns_after  # some weights above 1
            assert _pass_two(result).broadcast_bytes == 0


class TestShuffleAccounting:
    def test_fastpath_ships_fewer_records_and_bytes(self, ctx):
        fast = Yafim(ctx, num_partitions=4).run(TXNS, 0.3)
        with Context(backend="serial") as c2:
            base = Yafim(c2, num_partitions=4, **PAPER_SHAPE).run(TXNS, 0.3)
        assert fast.itemsets == base.itemsets
        # Phase I merges on the driver: nothing crosses a shuffle at all.
        assert fast.iterations[0].shuffle_bytes == 0
        assert base.iterations[0].shuffle_bytes > 0
        # ... and so does every Phase II pass: the driver sums the partials.
        for f_it, b_it in zip(fast.iterations[1:], base.iterations[1:]):
            assert f_it.shuffle_bytes == 0 < b_it.shuffle_bytes
        total = lambda r, field: sum(getattr(it, field) for it in r.iterations)  # noqa: E731
        assert total(fast, "shuffle_records") == 0 < total(base, "shuffle_records")
        # What the fast path moves instead: one record per distinct
        # candidate per partition, returned to the driver — fewer than the
        # pairs the paper dataflow allocates before its map-side combine
        # (one per match).
        phase2 = lambda r, field: sum(getattr(it, field) for it in r.iterations[1:])  # noqa: E731
        assert 0 < phase2(fast, "result_records") < phase2(base, "counting_records")
        assert all(it.result_bytes > 0 for it in fast.iterations[1:])


# ---------------------------------------------------------------------------
# One-phase in-mapper combine (satellite of the same fast path)
# ---------------------------------------------------------------------------
class TestOnePhaseInMapperCombine:
    @pytest.fixture()
    def dfs(self, tmp_path):
        with MiniDfs(
            root_dir=str(tmp_path), n_datanodes=2, block_size=512, replication=1
        ) as d:
            d.write_lines("/t.txt", (" ".join(sorted(set(t))) for t in TXNS))
            yield d

    def test_mapper_emits_one_record_per_distinct_subset(self):
        def run(combine):
            mapper = SubsetEnumerationMapper(2, in_mapper_combine=combine)
            mapper.setup({})
            out = []
            emit = lambda k, v: out.append((k, v))  # noqa: E731
            for t in TXNS:
                mapper.map(0, " ".join(sorted(set(t))), emit)
            mapper.cleanup(emit)
            totals: dict = {}
            for k, v in out:
                totals[k] = totals.get(k, 0) + v
            return out, totals

        combined, combined_totals = run(True)
        plain, plain_totals = run(False)
        assert combined_totals == plain_totals  # same counts either way
        assert len(combined) < len(plain)  # far fewer physical records
        assert len(combined) == len(combined_totals)  # one per distinct key

    def test_combine_parity_and_map_output_records_reduced(self, dfs):
        from repro.core.mrapriori import SumCombiner, SumReducer, _format_itemset_line
        from repro.mapreduce.job import JobSpec

        runner = JobRunner(dfs)
        itemsets, records = {}, {}
        for combine in (True, False):
            one = OnePhaseMR(
                runner,
                max_length=2,
                in_mapper_combine=combine,
                work_dir=f"/onephase-{combine}",
            )
            itemsets[combine] = one.run("/t.txt", 0.4).itemsets
            spec = JobSpec(
                name=f"onephase-{combine}",
                input_paths=["/t.txt"],
                output_path=f"/out-{combine}",
                mapper_factory=lambda c=combine: SubsetEnumerationMapper(
                    2, in_mapper_combine=c
                ),
                reducer_factory=SumReducer,
                combiner_factory=SumCombiner,
                num_reducers=2,
                output_formatter=_format_itemset_line,
            )
            records[combine] = runner.run(spec).counters.value(
                GROUP_TASK, MAP_OUTPUT_RECORDS
            )
        assert itemsets[True] == itemsets[False]
        assert records[True] < records[False]
