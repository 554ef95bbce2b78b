"""R-Apriori — the published YAFIM follow-up (Rathee, Kaul & Kashyap,
CIKM-PIKM 2015), implemented as a YAFIM extension.

R-Apriori's observation: YAFIM's second pass is its bottleneck — for
frequent-item count m, ``apriori_gen`` materialises all C(m, 2) pair
candidates and builds a hash tree over them, even though *counting pairs
needs no candidate set at all*: each transaction, filtered to its
frequent items, can emit its own pairs directly and summing the
per-partition pair counts does the rest.  The candidate structure only
pays for itself from pass 3 onward, where the prune step eliminates real
work.

This module subclasses :class:`~repro.core.yafim.Yafim` and overrides
only the pass-2 counting strategy (:meth:`Yafim._level_pass`); Phase I,
the level loop, the counting fast path and the compaction machinery are
all inherited.  On the fast path the working RDD is already projected
onto frequent items, so pass 2 ships *nothing* — not even the
frequent-item set — and the pair kernel aggregates per partition and
merges on the driver like every other pass
(:meth:`Yafim._count_level`); it reads rows, so the working set stays
rows through pass 2 whatever the store (``first_store_pass``: on the
sparse data this miner is for, emitting a row's own pairs beats
intersecting C(m, 2) candidates).  Under ``paper_dataflow`` it ships the
frequent-item set, filters the raw transactions and shuffles.  The
ablation benchmark quantifies the pass-2 saving on the sparse dataset
family where m (and hence C(m, 2)) is large.
"""

from __future__ import annotations

from repro.common.sizeof import estimate_size
from repro.core.counting import PairCounter
from repro.core.yafim import Yafim


class RApriori(Yafim):
    """YAFIM with R-Apriori's candidate-free second pass.

    All constructor knobs are inherited; ``candidate_store``/
    ``use_broadcast`` now apply only from pass 3 onward (pass 2 ships the
    frequent-item *set* at most, never a candidate structure).
    """

    algorithm_name = "rapriori"
    #: pass 2 counts pairs straight off the rows, so a store class with a
    #: layout of its own gets them laid out by the round after it
    first_store_pass = 3

    def _level_pass(self, k, enc_level, working, threshold):
        if k != 2:
            return super()._level_pass(k, enc_level, working, threshold)
        # ---- pass 2: candidate-free pair counting ------------------------
        m = len(enc_level)
        # The encoder already projected transactions onto frequent items;
        # only the paper dataflow's raw RDD still needs the frequent-item set.
        keep = bc = None
        bc_bytes = closure_bytes = 0
        if self.paper_dataflow:
            keep = frozenset(item for (item,) in enc_level)
            if self.use_broadcast:
                bc = self.ctx.broadcast(keep)
                bc_bytes = bc.size_bytes
            else:
                closure_bytes = estimate_size(keep) * working.num_partitions
        kernel = PairCounter(
            keep_bc=bc,
            keep=keep if bc is None else None,
            weighted=not self.paper_dataflow,
        )
        pairs = self._count_level(working, kernel, threshold)
        # report what YAFIM *would* have materialised; R-Apriori builds none
        return pairs, m * (m - 1) // 2, bc, bc_bytes, closure_bytes
