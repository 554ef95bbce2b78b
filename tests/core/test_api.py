"""Unified API tests (`mine_frequent_itemsets`)."""

import pytest

from repro import mine_frequent_itemsets
from repro.algorithms import apriori
from repro.common.errors import MiningError

TXNS = [
    [1, 2],
    [1, 3, 4, 5],
    [2, 3, 4, 6],
    [1, 2, 3, 4],
    [1, 2, 3, 6],
] * 6

ORACLE = apriori(TXNS, 0.4)


class TestDispatch:
    @pytest.mark.parametrize(
        "algorithm", ["yafim", "apriori", "eclat", "fpgrowth", "mrapriori"]
    )
    def test_all_algorithms_agree(self, algorithm):
        got = mine_frequent_itemsets(TXNS, 0.4, algorithm=algorithm, backend="serial")
        assert got.itemsets == ORACLE
        assert got.algorithm == algorithm
        assert got.n_transactions == len(TXNS)

    def test_default_is_yafim(self):
        got = mine_frequent_itemsets(TXNS, 0.4, backend="serial")
        assert got.algorithm == "yafim"

    def test_unknown_algorithm(self):
        with pytest.raises(MiningError):
            mine_frequent_itemsets(TXNS, 0.4, algorithm="magic")

    def test_max_length_forwarded(self):
        got = mine_frequent_itemsets(TXNS, 0.4, algorithm="yafim", backend="serial", max_length=1)
        assert got.max_level == 1

    def test_mrapriori_restores_int_items(self):
        got = mine_frequent_itemsets(TXNS, 0.4, algorithm="mrapriori")
        assert all(isinstance(i, int) for k in got.itemsets for i in k)

    def test_num_itemsets_property(self):
        got = mine_frequent_itemsets(TXNS, 0.4, algorithm="apriori")
        assert got.num_itemsets == len(ORACLE)

    def test_processes_backend(self):
        got = mine_frequent_itemsets(TXNS, 0.4, backend="processes", parallelism=2)
        assert got.itemsets == ORACLE

    def test_package_level_reexport(self):
        import repro

        assert repro.mine_frequent_itemsets is mine_frequent_itemsets
        assert repro.MiningResult is not None


def test_mining_and_serving_import_neither_numpy_nor_networkx():
    """Both cost ~20 MiB and ~0.15 s to import and neither is touched by
    mining or serving: ``repro.common.rng`` and ``repro.engine.lineage``
    load them inside the functions that use them.  Every kind of bitmap
    count runs too — a ``bitmap`` mine, a window slide with its diff,
    Toivonen's exact counting pass (k = 1 included) — so an intersector that
    reached for numpy lazily would show here."""
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys\n"
        "import repro.core.api, repro.cli, repro.serve.service\n"
        "import repro.serve.http, repro.serve.router\n"
        "from repro import MiningConfig, mine_frequent_itemsets\n"
        "from repro.core.counting import count_exact\n"
        "from repro.core.incremental import IncrementalMiner\n"
        "rows = [[1, 2], [1, 2], [2, 3], [1, 2, 3]] * 4\n"
        "got = mine_frequent_itemsets([[1, 2], [1, 2], [2, 3]], 0.5, backend='serial')\n"
        "assert got.itemsets\n"
        "cfg = MiningConfig(min_support=0.5, backend='serial', candidate_store='bitmap')\n"
        "assert mine_frequent_itemsets(rows, config=cfg).itemsets\n"
        "miner = IncrementalMiner(rows, 0.5, track_family_diff=True)\n"
        "assert miner.slide([[1, 3], [1, 3], [1, 3]], 3).family_diff is not None\n"
        "assert count_exact(rows, [(1,), (3,), (1, 2), (1, 2, 3)], 'bitmap')[(1,)] == 12\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
