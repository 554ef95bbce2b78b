"""Unit tests for the mini-DFS: namespace, blocks, replication, faults."""

import pytest

from repro.common.errors import (
    BlockUnavailableError,
    FileAlreadyExists,
    FileNotFoundInDfs,
    HdfsError,
)
from repro.hdfs import MiniDfs, normalize_path


@pytest.fixture()
def dfs(tmp_path):
    with MiniDfs(root_dir=str(tmp_path), n_datanodes=3, block_size=64, replication=2) as d:
        yield d


class TestNamespace:
    def test_write_read_roundtrip(self, dfs):
        dfs.write_text("/data/a.txt", "hello world")
        assert dfs.read_text("/data/a.txt") == "hello world"

    def test_write_lines_read_lines(self, dfs):
        dfs.write_lines("/x", ["1 2 3", "4 5"])
        assert dfs.read_lines("/x") == ["1 2 3", "4 5"]

    def test_exists(self, dfs):
        assert not dfs.exists("/nope")
        dfs.write_text("/yes", "1")
        assert dfs.exists("/yes")

    def test_duplicate_create_raises(self, dfs):
        dfs.write_text("/a", "x")
        with pytest.raises(FileAlreadyExists):
            dfs.write_text("/a", "y")

    def test_missing_read_raises(self, dfs):
        with pytest.raises(FileNotFoundInDfs):
            dfs.read_text("/missing")

    def test_list_files_prefix(self, dfs):
        dfs.write_text("/out/part-0", "a")
        dfs.write_text("/out/part-1", "b")
        dfs.write_text("/in/x", "c")
        assert dfs.list_files("/out") == ["/out/part-0", "/out/part-1"]

    def test_relative_path_rejected(self, dfs):
        with pytest.raises(HdfsError):
            dfs.write_text("relative", "x")

    def test_normalize_path(self):
        assert normalize_path("//a///b/") == "/a/b"


class TestBlocks:
    def test_large_file_spans_blocks(self, dfs):
        payload = "A" * 200  # block_size=64 -> 4 blocks
        dfs.write_text("/big", payload)
        blocks = dfs.block_locations("/big")
        assert len(blocks) == 4
        assert [b.length for b in blocks] == [64, 64, 64, 8]
        assert dfs.read_text("/big") == payload

    def test_empty_file_allowed(self, dfs):
        dfs.write_text("/empty", "")
        assert dfs.read_text("/empty") == ""
        assert dfs.file_length("/empty") == 0

    def test_replication_factor(self, dfs):
        dfs.write_text("/r", "data")
        for b in dfs.block_locations("/r"):
            assert len(b.replicas) == 2
            assert len(set(b.replicas)) == 2

    def test_replication_capped_at_nodes(self, tmp_path):
        with MiniDfs(root_dir=str(tmp_path / "d"), n_datanodes=1, replication=3) as d:
            d.write_text("/a", "x")
            assert len(d.block_locations("/a")[0].replicas) == 1

    def test_block_range_read(self, dfs):
        payload = "".join(chr(ord("a") + i % 26) for i in range(200))
        dfs.write_text("/rng", payload)
        assert dfs.read_block_range("/rng", 60, 10).decode() == payload[60:70]
        assert dfs.read_block_range("/rng", 0, 200).decode() == payload

    def test_file_length(self, dfs):
        dfs.write_text("/len", "abcdef")
        assert dfs.file_length("/len") == 6


class TestFaults:
    def test_read_survives_one_replica_loss(self, dfs):
        dfs.write_text("/f", "important" * 30)
        victim = dfs.block_locations("/f")[0].replicas[0]
        dfs.fail_datanode(victim)
        assert "important" in dfs.read_text("/f")

    def test_read_fails_when_all_replicas_down(self, dfs):
        dfs.write_text("/f", "x")
        for node in dfs.block_locations("/f")[0].replicas:
            dfs.fail_datanode(node)
        with pytest.raises(BlockUnavailableError):
            dfs.read_text("/f")


class TestMetrics:
    def test_write_counts_replicated_bytes(self, dfs):
        dfs.write_text("/m", "12345678")  # 8 bytes * replication 2
        assert dfs.metrics.bytes_written == 16
        assert dfs.metrics.files_created == 1

    def test_read_counts_bytes_once(self, dfs):
        dfs.write_text("/m", "12345678")
        before = dfs.metrics.bytes_read
        dfs.read_text("/m")
        assert dfs.metrics.bytes_read - before == 8

    def test_snapshot_delta(self, dfs):
        snap = dfs.metrics.snapshot()
        dfs.write_text("/m", "abcd")
        d = dfs.metrics.delta(snap)
        assert d.files_created == 1
        assert d.bytes_written == 8  # 4 bytes x 2 replicas
