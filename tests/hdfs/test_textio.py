"""Tests for line-aligned input splits (TextInputFormat semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdfs import MiniDfs, compute_splits, read_all_lines_via_splits, read_split_lines


def make_dfs(tmp_path, block_size):
    return MiniDfs(root_dir=str(tmp_path), n_datanodes=3, block_size=block_size, replication=1)


class TestSplits:
    def test_one_split_per_block(self, tmp_path):
        with make_dfs(tmp_path, 32) as dfs:
            dfs.write_text("/f", "x" * 100)
            splits = compute_splits(dfs, "/f")
            assert len(splits) == 4
            assert [s.start for s in splits] == [0, 32, 64, 96]

    def test_split_carries_hosts(self, tmp_path):
        with make_dfs(tmp_path, 32) as dfs:
            dfs.write_text("/f", "x" * 40)
            for s in compute_splits(dfs, "/f"):
                assert len(s.hosts) == 1

    def test_lines_partitioned_exactly_once(self, tmp_path):
        lines = [f"line-{i}-{'p' * (i % 7)}" for i in range(50)]
        with make_dfs(tmp_path, 37) as dfs:  # awkward block size -> mid-line cuts
            dfs.write_lines("/f", lines)
            assert read_all_lines_via_splits(dfs, "/f") == lines

    def test_single_line_spanning_many_blocks(self, tmp_path):
        # the second line (108 889 bytes) runs past the 64 KiB a split
        # first reads beyond its end, so its reader must read on
        cases = [("z" * 300, 64), (" ".join(map(str, range(20000))), 8 * 1024)]
        for i, (long_line, block_size) in enumerate(cases):
            with make_dfs(tmp_path / str(i), block_size) as dfs:
                dfs.write_lines("/f", [long_line, "1 2 3"])
                got = read_all_lines_via_splits(dfs, "/f")
                assert got == [long_line, "1 2 3"]

    def test_interior_split_owning_no_line_start_is_empty(self, tmp_path):
        # One very long first line means blocks 1..n-1 own no line starts.
        with make_dfs(tmp_path, 16) as dfs:
            dfs.write_lines("/f", ["a" * 100])
            splits = compute_splits(dfs, "/f")
            non_empty = [s for s in splits if read_split_lines(dfs, s)]
            assert len(non_empty) == 1
            assert read_split_lines(dfs, non_empty[0]) == ["a" * 100]

    def test_file_without_trailing_newline(self, tmp_path):
        with make_dfs(tmp_path, 8) as dfs:
            dfs.write_text("/f", "ab\ncdef\nghi")
            assert read_all_lines_via_splits(dfs, "/f") == ["ab", "cdef", "ghi"]

    def test_empty_file_yields_no_splits(self, tmp_path):
        with make_dfs(tmp_path, 8) as dfs:
            dfs.write_text("/f", "")
            assert compute_splits(dfs, "/f") == []

    @settings(max_examples=30, deadline=None)
    @given(
        lines=st.lists(st.text(alphabet="abc XYZ09", max_size=25), max_size=40),
        block_size=st.integers(4, 50),
    )
    def test_property_reassembly(self, tmp_path_factory, lines, block_size):
        tmp = tmp_path_factory.mktemp("dfs")
        with make_dfs(tmp, block_size) as dfs:
            dfs.write_lines("/f", lines)
            got = read_all_lines_via_splits(dfs, "/f")
            assert got == lines


@pytest.fixture(scope="session")
def tmp_path_factory_alias(tmp_path_factory):
    return tmp_path_factory
