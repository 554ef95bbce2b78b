"""The paper's contribution: YAFIM, its baselines, and post-processing."""

from repro.core.api import MiningConfig, MiningResult, mine_frequent_itemsets
from repro.core.candidates import apriori_gen, join_step, prune_step
from repro.core.candidatestore import (
    BitmapStore,
    CandidateStore,
    LinearStore,
    make_store,
    register_store,
    store_names,
    unregister_store,
)
from repro.core.counting import count_exact
from repro.core.registry import (
    AlgorithmSpec,
    algorithm_names,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.dist_eclat import DistEclat
from repro.core.hashtree import HashTree
from repro.core.incremental import IncrementalMiner, IncrementalUpdate, run_incremental
from repro.core.one_phase import OnePhaseMR
from repro.core.rapriori import RApriori
from repro.core.toivonen import ToivonenResult, toivonen
from repro.core.topk import TopKResult, mine_top_k
from repro.core.mrapriori import (
    MRApriori,
    dpc_strategy,
    fpc_strategy,
    spc_strategy,
)
from repro.core.results import CompactionStats, IterationStats, MiningRunResult
from repro.core.rules import AssociationRule, generate_rules, generate_rules_parallel, top_rules
from repro.core.summaries import closed_itemsets, maximal_itemsets, negative_border, support_of
from repro.core.variants import DPC, FPC, SPC
from repro.core.yafim import Yafim, load_transactions_rdd

__all__ = [
    "DPC",
    "FPC",
    "SPC",
    "AlgorithmSpec",
    "AssociationRule",
    "BitmapStore",
    "CandidateStore",
    "CompactionStats",
    "DistEclat",
    "HashTree",
    "IncrementalMiner",
    "IncrementalUpdate",
    "LinearStore",
    "IterationStats",
    "MRApriori",
    "MiningConfig",
    "MiningResult",
    "RApriori",
    "MiningRunResult",
    "OnePhaseMR",
    "ToivonenResult",
    "TopKResult",
    "Yafim",
    "algorithm_names",
    "apriori_gen",
    "dpc_strategy",
    "fpc_strategy",
    "register_algorithm",
    "unregister_algorithm",
    "closed_itemsets",
    "count_exact",
    "generate_rules",
    "generate_rules_parallel",
    "join_step",
    "load_transactions_rdd",
    "make_store",
    "maximal_itemsets",
    "mine_frequent_itemsets",
    "mine_top_k",
    "negative_border",
    "prune_step",
    "register_store",
    "run_incremental",
    "spc_strategy",
    "store_names",
    "unregister_store",
    "support_of",
    "toivonen",
    "top_rules",
]
