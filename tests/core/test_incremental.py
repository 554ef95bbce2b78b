"""IncrementalMiner: delta maintenance must be invisible in the output.

The contract under test: after ANY sequence of appends and retires, the
mined itemsets (and their exact counts) equal a cold re-mine of the
current window by the sequential Apriori oracle.  On top of parity, the
update-path tests pin *which* mechanism handled each update — pure delta
pass, border-bounded level re-mine, or the full re-encode fallback —
since a miner that silently full-rebuilds on every append would pass
parity while defeating the point.
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import fpgrowth
from repro.common.errors import MiningError
from repro.core.candidates import apriori_gen
from repro.core.candidatestore import build_tid_bitmaps, count_bitmaps
from repro.core.incremental import (
    PHASES, FamilyDiff, IncrementalMiner, run_incremental,
)
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig, run_algorithm
from repro.datasets import mushroom_like, quest_generator
from tests.core.test_store_parity import DEGENERATE_INPUTS

STORES = ["hashtree", "trie", "flatdict", "bitmap", "linear"]


def oracle(txns, min_support, max_length=None):
    cfg = MiningConfig(
        min_support=min_support, algorithm="apriori", max_length=max_length
    )
    return run_algorithm(txns, cfg).itemsets


@pytest.fixture(scope="module")
def sparse_pool():
    ds = quest_generator(
        n_transactions=220, n_items=30, avg_transaction_size=6.0,
        n_patterns=12, seed=7,
    )
    return [tuple(t) for t in ds.transactions]


# Hand-built window where every count is easy to reason about:
# a=8, b=8, c=12 of 12; at min_support=0.5 (threshold 6) the level-2
# family is {ac, bc} with {ab} (count 4) on the negative border.
BORDER_BASE = (
    [("a", "b", "c")] * 4 + [("a", "c")] * 4 + [("b", "c")] * 4
)


class TestColdBuild:
    @pytest.mark.parametrize("store", STORES)
    def test_build_matches_oracle(self, sparse_pool, store):
        window = sparse_pool[:120]
        miner = IncrementalMiner(window, 0.08, candidate_store=store)
        assert miner.itemsets() == oracle(window, 0.08)

    def test_build_update_stats(self):
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        upd = miner.last_update
        assert upd.kind == "build"
        assert upd.n_transactions == len(BORDER_BASE)
        assert upd.version == 1
        assert upd.threshold == miner.threshold == 6
        assert upd.levels_remined >= 1 and upd.levels_delta == 0
        assert miner.negative_border(2) and not miner.full_rebuilds

    def test_max_length_respected(self, sparse_pool):
        window = sparse_pool[:120]
        miner = IncrementalMiner(window, 0.08, max_length=2)
        assert miner.itemsets() == oracle(window, 0.08, max_length=2)
        assert all(len(s) <= 2 for s in miner.itemsets())

    def test_empty_window_rejected(self):
        with pytest.raises(MiningError):
            IncrementalMiner([], 0.5)

    def test_bad_support_rejected(self):
        with pytest.raises(MiningError):
            IncrementalMiner(BORDER_BASE, 0.0)


class TestUpdateMechanisms:
    def test_pure_delta_append(self):
        """Re-appending existing rows shifts no family: every level must
        stay current via its warm store's delta pass alone."""
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        upd = miner.append(BORDER_BASE)
        assert miner.itemsets() == oracle(BORDER_BASE * 2, 0.5)
        assert not upd.full_rebuild
        assert upd.levels_remined == 0 and upd.levels_delta >= 1
        assert upd.delta_candidates > 0 and upd.full_candidates == 0
        assert all(e["mode"] == "delta" for e in upd.per_level)

    def test_border_crossing_remines_levels_above(self):
        """Pushing border itemset (a, b) over the threshold changes the
        level-2 family, so level 3 must be regenerated — and the newly
        reachable (a, b, c) must be counted over the full window."""
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        assert ("a", "b") not in miner.itemsets()
        upd = miner.append([("a", "b", "c")] * 4)
        got = miner.itemsets()
        assert got == oracle(BORDER_BASE + [("a", "b", "c")] * 4, 0.5)
        assert got[("a", "b")] == 8 and got[("a", "b", "c")] == 8
        assert not upd.full_rebuild
        assert upd.levels_delta >= 1  # level 2 rode its delta pass
        assert upd.levels_remined >= 1  # level 3 was regenerated
        assert upd.full_candidates > 0  # ...and (a,b,c) took a full pass

    def test_retire_lowers_threshold_and_crosses_border(self):
        """Retiring rows shrinks the window, so a border itemset whose
        count never moved can cross *upward* — retire must re-threshold."""
        window = (
            [("a",)] * 3 + [("b",)] * 3 + [("a", "b")] * 4
            + [("a",)] * 2 + [("b",)] * 2
        )
        miner = IncrementalMiner(window, 0.5)
        assert ("a", "b") not in miner.itemsets()  # 4 < ceil(14/2)
        upd = miner.retire(6)
        assert upd.kind == "retire" and not upd.full_rebuild
        got = miner.itemsets()
        assert got == oracle(window[6:], 0.5)
        assert got[("a", "b")] == 4  # count unchanged, threshold now 4
        assert miner.n_transactions == 8

    def test_new_frequent_singleton_forces_full_rebuild(self):
        """An item absent from the dictionary was dropped from every
        encoded row — once it turns frequent, only a re-encode can
        recover its co-occurrences (the acceptance-required fallback)."""
        base = [("a", "b")] * 6 + [("a",)] * 2
        miner = IncrementalMiner(base, 0.5)
        delta = [("z", "a")] * 8
        upd = miner.append(delta)
        assert upd.full_rebuild
        assert "z" in upd.rebuild_reason
        assert miner.full_rebuilds == 1
        got = miner.itemsets()
        assert got == oracle(base + delta, 0.5)
        assert got[("a", "z")] == 8

    def test_infrequent_dropout_needs_no_rebuild(self):
        """The reverse shift — a dictionary item going infrequent — must
        NOT rebuild: its codes simply leave level 1."""
        base = [("a", "b")] * 6 + [("a",)] * 2
        miner = IncrementalMiner(base, 0.5)
        upd = miner.append([("a",)] * 8)  # b: 6 of 16 < threshold 8
        assert not upd.full_rebuild
        got = miner.itemsets()
        assert got == oracle(base + [("a",)] * 8, 0.5)
        assert ("b",) not in got

    def test_noop_updates(self):
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        before = miner.itemsets()
        assert miner.append([]).n_delta == 0
        assert miner.retire(0).n_delta == 0
        assert miner.itemsets() == before
        with pytest.raises(MiningError):
            miner.retire(len(BORDER_BASE))

    def test_version_and_threshold_tracking(self):
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        v0 = miner.version
        upd = miner.append([("a", "c")] * 2)
        assert miner.version == v0 + 1 == upd.version
        assert upd.n_transactions == miner.n_transactions == 14
        assert upd.threshold == miner.threshold == 7

    def test_negative_border_level_one(self):
        miner = IncrementalMiner(BORDER_BASE + [("d",)], 0.5)
        assert ("d",) in miner.negative_border(1)
        assert miner.negative_border(2).isdisjoint(
            set(lvl for lvl in miner.itemsets() if len(lvl) == 2)
        )


class TestRandomizedOracleParity:
    """The acceptance grid: random append/retire sequences, every store,
    every backend, always byte-identical to a cold oracle re-mine."""

    @pytest.mark.parametrize("store", STORES)
    def test_random_sequences_every_store(self, sparse_pool, store):
        rng = random.Random(hash(store) & 0xFFFF)
        window = list(sparse_pool[:100])
        cursor = 100
        miner = IncrementalMiner(window, 0.08, candidate_store=store)
        for _ in range(6):
            if cursor < len(sparse_pool) and (len(window) < 40 or rng.random() < 0.6):
                n = rng.randint(1, min(20, len(sparse_pool) - cursor))
                delta = sparse_pool[cursor:cursor + n]
                cursor += n
                window.extend(delta)
                miner.append(delta)
            else:
                n = rng.randint(1, max(1, len(window) // 4))
                del window[:n]
                miner.retire(n)
            assert miner.itemsets() == oracle(window, 0.08)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_INPUTS))
    @pytest.mark.parametrize("store", STORES)
    def test_inputs_a_vertical_build_must_survive(self, store, name):
        """The layout grid's degenerate inputs, fed through a window: a
        slide per quarter of the rows, then a retire and an append (the
        threshold moves), each version against the oracle."""
        rows, support, _ = DEGENERATE_INPUTS[name]
        step = max(1, len(rows) // 4)
        window = list(rows)
        miner = IncrementalMiner(window, support, candidate_store=store)
        assert miner.itemsets() == oracle(window, support)
        for start in range(0, len(rows), step):
            delta = rows[start:start + step]
            miner.slide(delta, len(delta))
            window = window[len(delta):] + delta
            assert miner.itemsets() == oracle(window, support)
        if len(window) > step:
            miner.retire(step)
            window = window[step:]
            assert miner.itemsets() == oracle(window, support)
        miner.append(rows[:step])
        window += rows[:step]
        assert miner.itemsets() == oracle(window, support)

    def test_dense_dataset_parity(self):
        ds = mushroom_like(scale=0.02, seed=11)
        window = [tuple(t) for t in ds.transactions]
        base, delta = window[:-8], window[-8:]
        miner = IncrementalMiner(base, 0.4, max_length=3)
        miner.append(delta)
        assert miner.itemsets() == oracle(window, 0.4, max_length=3)


class TestResultAndRegistry:
    def test_result_shape(self):
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        miner.append(BORDER_BASE)
        result = miner.result()
        assert result.algorithm == "incremental"
        assert result.itemsets == miner.itemsets()
        assert result.n_transactions == miner.n_transactions
        assert result.iterations[0].k == 1
        assert result.iterations[0].n_candidates == 3  # a, b, c
        lvl2 = result.iterations[1]
        assert lvl2.delta_rows > 0 and lvl2.delta_candidates > 0

    def test_config_dispatch_matches_exact_miners(self, sparse_pool):
        window = sparse_pool[:120]
        cfg = MiningConfig(min_support=0.08, incremental=True, backend="serial")
        got = run_algorithm(window, cfg).itemsets
        assert got == oracle(window, 0.08)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_one_shot_ignores_backend(self, sparse_pool, backend, monkeypatch):
        """``backend`` is inert for this tier: the one-shot run answers
        the oracle's map from the calling thread, whatever it says."""
        import repro.engine.context as context

        def no_engine(*args, **kwargs):
            raise AssertionError("an incremental run started an engine context")

        monkeypatch.setattr(context.Context, "__init__", no_engine)
        window = sparse_pool[:120]
        cfg = MiningConfig(
            min_support=0.08, incremental=True, backend=backend, parallelism=2,
        )
        result = mine_frequent_itemsets(window, config=cfg)
        assert result.itemsets == fpgrowth(window, 0.08)
        assert result.engine_metrics is None and result.trace.spans

    def test_run_incremental_store_resolution(self, sparse_pool):
        window = sparse_pool[:60]
        cfg = MiningConfig(
            min_support=0.1, incremental=True,
            options={"candidate_store": "linear"},
        )
        assert run_incremental(window, cfg).itemsets == oracle(window, 0.1)
        cfg2 = MiningConfig(
            min_support=0.1, incremental=True, candidate_store="linear"
        )
        assert run_incremental(window, cfg2).itemsets == oracle(window, 0.1)


class TestFamilyDiff:
    """The change-feed primitive: diffs must be exact, composable, and
    replayable — applying the fold of any transition chain to the first
    family must land on the last one."""

    def test_between_partitions_the_change(self):
        old = {("a",): 8, ("b",): 8, ("a", "b"): 6}
        new = {("a",): 10, ("c",): 7, ("a", "b"): 6}
        diff = FamilyDiff.between(old, new)
        assert diff.added == {("c",): 7}
        assert diff.removed == {("b",): 8}
        assert diff.changed == {("a",): (8, 10)}
        assert diff.apply(old) == new

    def test_identical_families_diff_empty(self):
        fam = {("a",): 3}
        assert FamilyDiff.between(fam, fam).is_empty

    def test_compose_cancels_add_then_remove(self):
        a = {("x",): 5}
        b = {("x",): 5, ("y",): 4}
        d1 = FamilyDiff.between(a, b)      # adds y
        d2 = FamilyDiff.between(b, a)      # removes y
        folded = FamilyDiff.compose([d1, d2])
        assert folded.is_empty

    def test_compose_collapses_changed_chains(self):
        fams = [
            {("x",): 5},
            {("x",): 7},
            {("x",): 9, ("y",): 4},
            {("y",): 6},
        ]
        diffs = [
            FamilyDiff.between(fams[i], fams[i + 1])
            for i in range(len(fams) - 1)
        ]
        folded = FamilyDiff.compose(diffs)
        assert folded.apply(fams[0]) == fams[-1]
        assert folded.added == {("y",): 6}
        assert folded.removed == {("x",): 5}
        assert folded.changed == {}

    def test_miner_emits_diffs_on_append_and_retire(self):
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        assert miner.last_update.family_diff is None  # builds don't diff
        before = dict(miner.itemsets())
        miner.append([("a", "b")] * 4)
        diff = miner.last_update.family_diff
        assert diff is not None
        assert diff.apply(before) == miner.itemsets()
        mid = dict(miner.itemsets())
        miner.retire(4)
        rdiff = miner.last_update.family_diff
        assert rdiff is not None
        assert rdiff.apply(mid) == miner.itemsets()

    def test_diff_tracking_can_be_disabled(self):
        miner = IncrementalMiner(BORDER_BASE, 0.5, track_family_diff=False)
        miner.append([("a", "c")] * 2)
        assert miner.last_update.family_diff is None

    def test_randomized_transition_chain_replays(self, sparse_pool):
        rng = random.Random(11)
        window = list(sparse_pool[:80])
        miner = IncrementalMiner(window, 0.1)
        start = dict(miner.itemsets())
        diffs = []
        cursor = 80
        for _ in range(10):
            if rng.random() < 0.6 and cursor < len(sparse_pool):
                step = rng.randint(1, 12)
                miner.append(sparse_pool[cursor:cursor + step])
                cursor += step
            elif miner.n_transactions > 20:
                miner.retire(rng.randint(1, 8))
            else:
                continue
            diffs.append(miner.last_update.family_diff)
        assert all(d is not None for d in diffs)
        assert FamilyDiff.compose(diffs).apply(start) == miner.itemsets()


# ---------------------------------------------------------------------------
# The fused update: slide == append-then-retire == cold re-mine == fpgrowth
# ---------------------------------------------------------------------------
ITEMS = "abcdef"
rows_st = st.lists(
    st.lists(st.sampled_from(ITEMS), max_size=4, unique=True).map(tuple),
    max_size=8,
)
steps_st = st.lists(st.tuples(rows_st, st.integers(0, 10)), min_size=1, max_size=5)


def assert_tracked_is_apriori_gen(miner):
    """The invariant incremental candidate maintenance must keep: every
    level tracks exactly ``apriori_gen`` of the family below it — nothing
    stale, nothing missing, no empty level, no level past the last."""
    prev = miner._frequent1
    for k, lvl in enumerate(miner._levels, 2):
        assert lvl.k == k
        assert set(lvl.counts) == set(apriori_gen(sorted(prev))) != set()
        assert set(lvl.store) == set(lvl.counts)
        assert lvl.frequent == {
            c for c, n in lvl.counts.items() if n >= miner.threshold
        }
        prev = lvl.frequent
    if prev and (miner.max_length is None or miner.max_length > len(miner._levels) + 1):
        assert not apriori_gen(sorted(prev))


def assert_vertical_window_is_current(miner):
    """The maintained tid-bitmaps against a fresh build over the window:
    same support for every tracked candidate, and no bit past the end."""
    encode = miner._dictionary.encode_transaction
    rows = [encode(txn) for txn in miner._window]
    fresh = build_tid_bitmaps(rows, min_items=0)
    for lvl in miner._levels:
        cands = sorted(lvl.counts)
        assert count_bitmaps(miner._tids, cands) == count_bitmaps(fresh, cands)
        assert count_bitmaps(fresh, cands) == {c: n for c, n in lvl.counts.items() if n}
    for code, bitmap in miner._tids.items():
        assert bitmap.bit_length() <= len(rows)
        assert bitmap.bit_count() == fresh.get(code, 0).bit_count()


def assert_diff_is_exact(diff, before, after):
    """The diff the update emitted is *the* diff, not just one that
    replays: same three maps as the two-snapshot construction."""
    assert diff.apply(before) == after
    want = FamilyDiff.between(before, after)
    assert (diff.added, diff.removed, diff.changed) == (
        want.added, want.removed, want.changed
    )


class TestFusedSlide:
    @pytest.mark.parametrize("store", STORES)
    @settings(max_examples=60, deadline=None)
    @given(
        initial=rows_st.filter(bool), steps=steps_st,
        min_support=st.sampled_from([0.2, 0.34, 0.5]),
    )
    def test_slide_equals_two_steps_equals_cold_mine(
        self, store, initial, steps, min_support
    ):
        fused = IncrementalMiner(initial, min_support, candidate_store=store)
        twice = IncrementalMiner(initial, min_support, candidate_store=store)
        window = list(initial)
        for delta, n_oldest in steps:
            n_oldest = min(n_oldest, len(window) + len(delta) - 1)
            before = fused.itemsets()
            update = fused.slide(delta, n_oldest)
            two = [twice.append(delta), twice.retire(n_oldest)]
            window = (window + delta)[n_oldest:]
            after = fused.itemsets()
            assert after == twice.itemsets() == fpgrowth(window, min_support)
            assert after == IncrementalMiner(
                window, min_support, candidate_store=store
            ).itemsets()
            assert fused.n_transactions == len(window)
            assert update.threshold == twice.threshold
            for miner in (fused, twice):
                assert_tracked_is_apriori_gen(miner)
                assert_vertical_window_is_current(miner)
            if delta or n_oldest:
                assert_diff_is_exact(update.family_diff, before, after)
                folded = FamilyDiff.compose(
                    u.family_diff for u in two if u.family_diff is not None
                )
                assert folded.apply(before) == after

    def test_row_on_both_sides_cancels(self):
        # the oldest row comes back in the delta: nothing to count
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        before = miner.itemsets()
        upd = miner.slide([BORDER_BASE[0]], 1)
        assert upd.kind == "slide" and upd.n_delta == 2
        assert upd.delta_rows == 0 and upd.levels_remined == 0
        assert miner.itemsets() == before == oracle(
            BORDER_BASE[1:] + [BORDER_BASE[0]], 0.5
        )
        assert upd.family_diff.is_empty

    def test_empty_delta_with_a_retire_is_a_retire(self):
        fused = IncrementalMiner(BORDER_BASE, 0.5)
        plain = IncrementalMiner(BORDER_BASE, 0.5)
        before = fused.itemsets()
        upd = fused.slide([], 6)
        plain.retire(6)
        assert fused.itemsets() == plain.itemsets() == oracle(BORDER_BASE[6:], 0.5)
        assert upd.threshold == plain.threshold == 3
        assert_diff_is_exact(upd.family_diff, before, fused.itemsets())
        assert fused.slide([], 0).n_delta == 0 and fused.version == 2

    def test_slide_skips_the_intermediate_threshold(self):
        """The append raises the threshold past a (6 of 14 < 7) and the
        retire lowers it back: two steps re-mine levels 2 and 3 twice for
        a window nobody sees, the fused update re-mines nothing."""
        base = [("c",)] * 2 + [("a", "b", "c")] * 6 + [("b", "c")] * 4
        delta = [("b", "c")] * 2
        two = IncrementalMiner(base, 0.5)
        assert ("a", "b", "c") in two.itemsets()
        first, second = two.append(delta), two.retire(2)
        assert ("a",) in first.family_diff.removed
        assert ("a",) in second.family_diff.added
        fused = IncrementalMiner(base, 0.5)
        upd = fused.slide(delta, 2)
        assert fused.itemsets() == two.itemsets() == oracle((base + delta)[2:], 0.5)
        assert first.levels_remined + second.levels_remined >= 2
        assert upd.levels_remined == 0 and not upd.full_rebuild
        assert not upd.family_diff.added and not upd.family_diff.removed

    def test_slide_that_makes_an_outsider_frequent_rebuilds(self):
        base = BORDER_BASE + [("d",)]  # d is outside the dictionary
        miner = IncrementalMiner(base, 0.5)
        before = miner.itemsets()
        upd = miner.slide([("c", "d")] * 9, 4)
        window = (base + [("c", "d")] * 9)[4:]
        assert upd.full_rebuild and "'d'" in upd.rebuild_reason
        assert miner.full_rebuilds == 1
        assert miner.itemsets() == oracle(window, 0.5)
        assert ("c", "d") in miner.itemsets()
        assert_diff_is_exact(upd.family_diff, before, miner.itemsets())

    @pytest.mark.parametrize("n_oldest", [14, 15, 99])
    def test_slide_that_would_empty_the_window_changes_nothing(self, n_oldest):
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        before, version = miner.itemsets(), miner.version
        with pytest.raises(MiningError):
            miner.slide([("a", "b")] * 2, n_oldest)  # window 12 + delta 2
        assert miner.itemsets() == before and miner.version == version
        assert miner.n_transactions == len(BORDER_BASE)
        assert miner.last_update.kind == "build"
        miner.slide([("a", "b")] * 2, 13)  # one row left is still a window
        assert miner.itemsets() == oracle([("a", "b")], 0.5)

    def test_untracked_slide_emits_no_diff(self):
        miner = IncrementalMiner(BORDER_BASE, 0.5, track_family_diff=False)
        assert miner.slide([("a", "b")] * 4, 2).family_diff is None
        assert miner.slide([("c", "d")] * 30, 1).full_rebuild
        assert miner.last_update.family_diff is None

    def test_an_advance_builds_nothing_over_the_window(self, sparse_pool, tid_bitmap_builds):
        """However many levels an update re-mines, its fresh candidates
        read the maintained vertical window, and however many levels it
        touches, their delta passes read ONE layout of the signed delta:
        an advance makes one build, and it is the delta's."""
        builds = tid_bitmap_builds
        window = list(sparse_pool[:120])
        miner = IncrementalMiner(window, 0.05)
        levels_with_fresh = 0
        for start in range(120, 200, 20):
            del builds[:]
            upd = miner.slide(sparse_pool[start:start + 20], 20)
            window = window[20:] + list(sparse_pool[start:start + 20])
            fresh = [lvl for lvl in upd.per_level if lvl["full_candidates"]]
            levels_with_fresh = max(levels_with_fresh, len(fresh))
            assert builds == [upd.delta_rows] and upd.delta_rows <= 40
            assert len(upd.per_level) >= 2
            assert miner.itemsets() == oracle(window, 0.05)
        assert levels_with_fresh >= 2  # the case the vertical window exists for


class TestCandidateMaintenance:
    """Level k's tracked set follows level k-1's crossings, the vertical
    window follows the rows — on every store, and across the events that
    stress them: a retire deeper than the old window, a dictionary-shift
    rebuild, levels appearing and vanishing."""

    @pytest.mark.parametrize("store", STORES)
    def test_random_sequence_keeps_both_invariants(self, sparse_pool, store):
        rng = random.Random(STORES.index(store))
        window = list(sparse_pool[:60])
        cursor = 60
        miner = IncrementalMiner(window, 0.1, candidate_store=store)
        for step in range(12):
            n_new = rng.randint(0, 25) if cursor < len(sparse_pool) else 0
            delta = list(sparse_pool[cursor:cursor + n_new])
            cursor += len(delta)
            n_old = rng.randint(0, len(window) // 3)
            if step == 5:  # retire past the rows the window held before
                n_old = len(window) + len(delta) // 2
            if step == 8:  # an item outside the dictionary turns frequent
                delta += [(9001, 9002) + tuple(sparse_pool[0][:2])] * len(window)
            n_old = min(n_old, len(window) + len(delta) - 1)
            if not delta and not n_old:
                continue
            upd = miner.slide(delta, n_old)
            window = (window + delta)[n_old:]
            assert upd.full_rebuild or step != 8
            assert miner.itemsets() == oracle(window, 0.1)
            assert_tracked_is_apriori_gen(miner)
            assert_vertical_window_is_current(miner)
        assert miner.full_rebuilds >= 1

    @pytest.mark.parametrize("store", STORES)
    def test_slides_that_drop_and_readd_the_same_candidates(self, store):
        """Every slide moves a and b (and with them ab and abc) across the
        threshold, one way then back, so levels 2 and 3 lose and regain
        the same candidates each time while cd stays: a store kept warm
        across the crossings must count like a cold re-mine at every
        version, and the diffs must compose to the two-snapshot diff."""
        abc, c = ("a", "b", "c", "d"), ("c", "d")
        base = [abc, abc, c, c] * 4  # a = b = ab = abc = 8 of 16: threshold 8
        miner = IncrementalMiner(base, 0.5, candidate_store=store)
        first, window, diffs = miner.itemsets(), list(base), []
        dropped = added = 0
        for i in range(7):
            delta = [c, c] if i % 2 == 0 else [abc, abc]  # the oldest two are abc then c
            upd = miner.slide(delta, 2)
            window = window[2:] + delta
            assert miner.itemsets() == oracle(window, 0.5)
            assert_tracked_is_apriori_gen(miner)
            assert_vertical_window_is_current(miner)
            diffs.append(upd.family_diff)
            dropped += ("a", "b", "c") in upd.family_diff.removed
            added += ("a", "b", "c") in upd.family_diff.added
        assert dropped == 4 and added == 3
        composed = FamilyDiff.compose(diffs)
        want = FamilyDiff.between(first, miner.itemsets())
        assert (composed.added, composed.removed, composed.changed) == (
            want.added, want.removed, want.changed
        )

    def test_levels_vanish_and_return(self):
        """(a, b) falling out takes level 3 with it — its family reported
        removed with its last count — and coming back regenerates it."""
        miner = IncrementalMiner(BORDER_BASE + [("a", "b", "c")] * 4, 0.5)
        assert miner.itemsets()[("a", "b", "c")] == 8 and len(miner._levels) == 2
        upd = miner.slide([("c",)] * 4, 4)  # ab: 8 -> 4 of 16
        assert upd.family_diff.removed[("a", "b", "c")] == 8
        assert len(miner._levels) == 1 and not upd.full_rebuild
        assert_tracked_is_apriori_gen(miner)
        upd = miner.slide([("a", "b", "c")] * 6, 6)
        assert upd.family_diff.added[("a", "b", "c")] == 10
        assert upd.per_level[-1] == {
            "k": 3, "mode": "remine", "delta_candidates": 0, "full_candidates": 1,
            "candidates_added": 1, "candidates_dropped": 0,
            "seconds": upd.per_level[-1]["seconds"],
        }
        assert_tracked_is_apriori_gen(miner)
        assert_vertical_window_is_current(miner)

    def test_update_says_what_it_cost(self):
        """Added / dropped candidates per level, and per-phase seconds on
        the update, its span and the result's IterationStats."""
        miner = IncrementalMiner(BORDER_BASE, 0.5)
        assert set(miner.last_update.phase_seconds) == set(PHASES)
        upd = miner.append([("a", "b", "c")] * 4)  # (a, b) crosses: abc is new
        lvl2, lvl3 = upd.per_level
        assert (lvl2["mode"], lvl2["candidates_added"], lvl2["candidates_dropped"]) == (
            "delta", 0, 0)
        assert (lvl3["mode"], lvl3["candidates_added"]) == ("remine", 1)
        assert all(s >= 0.0 for s in upd.phase_seconds.values())
        assert 0.0 < sum(upd.phase_seconds.values()) <= upd.seconds
        result = miner.result()
        span = [s for s in result.trace.spans if s.name == "incremental_update"][-1]
        assert span.args["kind"] == "append"
        assert {f"{p}_s": upd.phase_seconds[p] for p in PHASES}.items() <= span.args.items()
        assert [it.candidates_added for it in result.iterations] == [0, 0, 1]
        assert sum(it.seconds for it in result.iterations) == pytest.approx(upd.seconds)
        # d (6 of 13 < 7) leaves level 1: its pairs and abd go with it
        miner = IncrementalMiner([("a", "b", "c")] * 6 + [("a", "b", "d")] * 6, 0.5)
        upd = miner.append([("a", "b", "c")])
        assert [lvl["candidates_dropped"] for lvl in upd.per_level] == [3, 1]
        assert [it.candidates_dropped for it in miner.result().iterations] == [0, 3, 1]
        assert upd.family_diff.removed[("a", "b", "d")] == 6
        assert_tracked_is_apriori_gen(miner)

    def test_a_warm_miner_keeps_one_span_however_long_it_lives(self):
        """A served miner takes an update per version for weeks: its trace
        is the last update's span alone, a result keeps the trace of the
        update that brought its window current, and after warm-up a slide
        leaves no memory behind."""
        block = mushroom_like(0.01, 7).transactions[:8]
        miner = IncrementalMiner(block * 10, 0.3, track_family_diff=False)

        def slide():  # the same rows in as out: only what a slide keeps can grow
            miner.slide([list(row) for row in block], len(block))

        first = miner.result()
        for _ in range(400):
            slide()
        assert len(first.trace.spans) == 1 and first.trace.spans[0].args["kind"] == "build"
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(600):
                slide()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        spans = miner.result().trace.spans
        assert [(s.name, s.args["kind"]) for s in spans] == [("incremental_update", "slide")]
        assert grown / 600 < 64, f"{grown / 600:.0f} bytes retained per slide"
