"""MiniDfs — the user-facing facade over namenode + datanodes.

Data really lands on the local filesystem (one subdirectory per datanode),
so every MapReduce iteration's read/write is a genuine disk round-trip.
The facade also keeps aggregate I/O metrics that the cluster cost model
replays when projecting multi-node timings.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from repro.common.errors import BlockUnavailableError, HdfsError
from repro.hdfs.blocks import DEFAULT_BLOCK_SIZE, BlockInfo, FileMeta
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode, normalize_path


@dataclass
class DfsMetrics:
    """Aggregate I/O counters across all datanodes plus namenode ops."""

    bytes_written: int = 0
    bytes_read: int = 0
    files_created: int = 0
    files_read: int = 0
    files_deleted: int = 0

    def snapshot(self) -> "DfsMetrics":
        return DfsMetrics(
            self.bytes_written, self.bytes_read,
            self.files_created, self.files_read, self.files_deleted,
        )

    def delta(self, earlier: "DfsMetrics") -> "DfsMetrics":
        return DfsMetrics(
            self.bytes_written - earlier.bytes_written,
            self.bytes_read - earlier.bytes_read,
            self.files_created - earlier.files_created,
            self.files_read - earlier.files_read,
            self.files_deleted - earlier.files_deleted,
        )


class MiniDfs:
    """An in-process distributed filesystem with real local-disk storage.

    Parameters
    ----------
    root_dir:
        Local directory holding one subdirectory per datanode. A temp dir
        is created (and owned by this instance) when omitted.
    n_datanodes:
        Number of simulated storage nodes.
    block_size:
        Split threshold in bytes; files larger than this span several
        blocks, which become separate MapReduce input splits.
    replication:
        Replica count per block (capped at ``n_datanodes``).
    """

    def __init__(
        self,
        root_dir: str | None = None,
        n_datanodes: int = 4,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = 2,
    ):
        if n_datanodes < 1:
            raise HdfsError("need at least one datanode")
        if block_size < 1:
            raise HdfsError("block_size must be positive")
        self._owns_root = root_dir is None
        if root_dir is None:
            # mkdtemp made it; making it again could bring back a name
            # removed meanwhile (see BlockManager)
            root_dir = tempfile.mkdtemp(prefix="minidfs_")
        else:
            os.makedirs(root_dir, exist_ok=True)
        self.root_dir = root_dir
        self.block_size = block_size
        node_ids = [f"dn{i}" for i in range(n_datanodes)]
        self.datanodes = {
            nid: DataNode(nid, os.path.join(self.root_dir, nid)) for nid in node_ids
        }
        self.namenode = NameNode(node_ids, replication=replication)
        self.metrics = DfsMetrics()

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Remove on-disk state when this instance created its root dir."""
        if self._owns_root and os.path.isdir(self.root_dir):
            import shutil

            shutil.rmtree(self.root_dir, ignore_errors=True)

    def __enter__(self) -> "MiniDfs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes -----------------------------------------------------------
    def write_bytes(self, path: str, data: bytes) -> FileMeta:
        meta = self.namenode.create_file(path)
        live = [nid for nid, node in self.datanodes.items() if node.alive]
        for offset in range(0, max(len(data), 1), self.block_size):
            chunk = data[offset : offset + self.block_size]
            if not chunk and offset > 0:
                break
            info = self.namenode.allocate_block(meta, offset, len(chunk), live=live)
            for node_id in info.replicas:
                self.datanodes[node_id].write_block(info.block_id, chunk)
                self.metrics.bytes_written += len(chunk)
        self.metrics.files_created += 1
        return meta

    def write_text(self, path: str, text: str) -> FileMeta:
        return self.write_bytes(path, text.encode("utf-8"))

    def write_lines(self, path: str, lines) -> FileMeta:
        return self.write_text(path, "".join(f"{line}\n" for line in lines))

    # -- reads ------------------------------------------------------------
    def _read_block(self, info: BlockInfo) -> bytes:
        last_err: Exception | None = None
        for node_id in info.replicas:
            node = self.datanodes[node_id]
            try:
                data = node.read_block(info.block_id)
                self.metrics.bytes_read += len(data)
                return data
            except BlockUnavailableError as err:
                last_err = err
        raise BlockUnavailableError(
            f"no live replica of block {info.block_id}: {last_err}"
        )

    def read_bytes(self, path: str) -> bytes:
        meta = self.namenode.get_file(path)
        self.metrics.files_read += 1
        return b"".join(self._read_block(b) for b in meta.blocks)

    def read_text(self, path: str) -> str:
        return self.read_bytes(path).decode("utf-8")

    def read_lines(self, path: str) -> list[str]:
        text = self.read_text(path)
        return text.splitlines()

    def read_block_range(self, path: str, offset: int, length: int) -> bytes:
        """Read an arbitrary byte range (used by line-aligned input splits)."""
        meta = self.namenode.get_file(path)
        out = bytearray()
        end = offset + length
        for info in meta.blocks:
            b_start, b_end = info.offset, info.offset + info.length
            if b_end <= offset or b_start >= end:
                continue
            data = self._read_block(info)
            lo = max(offset, b_start) - b_start
            hi = min(end, b_end) - b_start
            out += data[lo:hi]
        return bytes(out)

    # -- namespace ---------------------------------------------------------
    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def delete(self, path: str) -> None:
        meta = self.namenode.delete_file(path)
        for info in meta.blocks:
            for node_id in info.replicas:
                self.datanodes[node_id].delete_block(info.block_id)
        self.metrics.files_deleted += 1

    def file_length(self, path: str) -> int:
        return self.namenode.get_file(path).length

    def list_files(self, prefix: str = "/") -> list[str]:
        return self.namenode.list_files(prefix)

    def block_locations(self, path: str) -> list[BlockInfo]:
        return list(self.namenode.get_file(path).blocks)

    # -- fault injection ----------------------------------------------------
    def fail_datanode(self, node_id: str) -> None:
        self.datanodes[node_id].fail()

    def recover_datanode(self, node_id: str) -> None:
        self.datanodes[node_id].recover()

    # -- replication maintenance ------------------------------------------
    def under_replicated_blocks(self) -> list[tuple[str, "BlockInfo"]]:
        """(path, block) pairs with fewer live replicas than the target."""
        live = {nid for nid, node in self.datanodes.items() if node.alive}
        target = self.namenode.replication
        out = []
        for path in self.namenode.list_files("/"):
            for info in self.namenode.get_file(path).blocks:
                alive_replicas = [r for r in info.replicas if r in live]
                if 0 < len(alive_replicas) < min(target, len(live)):
                    out.append((path, info))
        return out

    def rereplicate(self) -> int:
        """Restore the replication factor of damaged blocks.

        What the HDFS namenode does continuously in the background: for
        every under-replicated block, copy a surviving replica onto live
        datanodes that don't hold one yet.  Returns the number of new
        replicas created.  Blocks with no live replica are unrecoverable
        and left untouched (reads raise BlockUnavailableError).
        """
        live = {nid for nid, node in self.datanodes.items() if node.alive}
        created = 0
        for _path, info in self.under_replicated_blocks():
            sources = [r for r in info.replicas if r in live]
            if not sources:
                continue
            data = self.datanodes[sources[0]].read_block(info.block_id)
            self.metrics.bytes_read += len(data)
            targets = sorted(live - set(info.replicas))
            need = min(self.namenode.replication, len(live)) - len(sources)
            for node_id in targets[:need]:
                self.datanodes[node_id].write_block(info.block_id, data)
                self.metrics.bytes_written += len(data)
                info.replicas.append(node_id)
                created += 1
            # drop dead replicas from metadata (the namenode's view)
            info.replicas = [r for r in info.replicas if r in live]
        return created


__all__ = ["MiniDfs", "DfsMetrics", "normalize_path"]
