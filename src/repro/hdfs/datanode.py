"""Datanode: stores block replicas as real files in a local directory.

Writes go through the OS so the MapReduce baseline pays genuine filesystem
cost per job, which is the structural overhead the paper attributes to
Hadoop's per-iteration HDFS round-trips.
"""

from __future__ import annotations

import os

from repro.common.errors import BlockUnavailableError
from repro.hdfs.blocks import BlockId


class DataNode:
    """One storage node. ``node_id`` doubles as the locality hint used by
    the MapReduce scheduler for map-task placement."""

    def __init__(self, node_id: str, root_dir: str):
        self.node_id = node_id
        self.root_dir = root_dir
        self.alive = True
        # its own directory only: a parent that is gone stays gone
        try:
            os.mkdir(root_dir)
        except FileExistsError:
            pass

    def _path(self, block_id: BlockId) -> str:
        return os.path.join(self.root_dir, block_id.filename())

    def write_block(self, block_id: BlockId, data: bytes) -> None:
        if not self.alive:
            raise BlockUnavailableError(f"datanode {self.node_id} is down")
        with open(self._path(block_id), "wb") as f:
            f.write(data)

    def read_block(self, block_id: BlockId) -> bytes:
        if not self.alive:
            raise BlockUnavailableError(f"datanode {self.node_id} is down")
        path = self._path(block_id)
        if not os.path.exists(path):
            raise BlockUnavailableError(
                f"datanode {self.node_id} has no replica of {block_id}"
            )
        with open(path, "rb") as f:
            return f.read()

    def fail(self) -> None:
        """Simulate a node crash; stored files remain but are unreachable."""
        self.alive = False
