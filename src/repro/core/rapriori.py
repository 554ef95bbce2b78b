"""R-Apriori — the published YAFIM follow-up (Rathee, Kaul & Kashyap,
CIKM-PIKM 2015): pass 2 needs no candidate set, since each transaction,
filtered to its frequent items, names its own pairs.

YAFIM's fast path over rows already counts pass 2 that way
(:meth:`Yafim._pair_pass`).  This subclass keeps the rules where
R-Apriori still differs: pairs at pass 2 on *every* store — ``bitmap``
too, whose rows are then laid out by the round after pass 2 — and under
``paper_dataflow``, where it ships the frequent-item set and shuffles
instead of walking Fig. 2's pair hash tree.
"""

from __future__ import annotations

from repro.core.yafim import Yafim


class RApriori(Yafim):
    """YAFIM with R-Apriori's candidate-free pass 2 on every store and
    dataflow: ``candidate_store``/``use_broadcast`` apply from pass 3."""

    algorithm_name = "rapriori"

    def _counts_pairs(self, k) -> bool:
        return k == 2
