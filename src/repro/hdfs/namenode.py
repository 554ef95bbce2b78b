"""Namenode: the mini-DFS namespace and block-placement policy.

Holds the path -> :class:`FileMeta` mapping and allocates replicas
round-robin across live datanodes (a simplification of HDFS's
rack-aware placement that still spreads load and exercises locality).
"""

from __future__ import annotations

import itertools

from repro.common.errors import FileAlreadyExists, FileNotFoundInDfs, HdfsError
from repro.hdfs.blocks import BlockId, BlockInfo, FileMeta


class NameNode:
    def __init__(self, datanode_ids: list[str], replication: int = 2):
        if not datanode_ids:
            raise HdfsError("a mini-DFS needs at least one datanode")
        if replication < 1:
            raise HdfsError("replication factor must be >= 1")
        self.datanode_ids = list(datanode_ids)
        self.replication = min(replication, len(datanode_ids))
        self._files: dict[str, FileMeta] = {}
        self._block_counter = itertools.count()
        self._placement = itertools.cycle(range(len(datanode_ids)))

    # -- namespace -------------------------------------------------------
    def create_file(self, path: str) -> FileMeta:
        path = normalize_path(path)
        if path in self._files:
            raise FileAlreadyExists(path)
        meta = FileMeta(path=path)
        self._files[path] = meta
        return meta

    def get_file(self, path: str) -> FileMeta:
        path = normalize_path(path)
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInDfs(path) from None

    def exists(self, path: str) -> bool:
        return normalize_path(path) in self._files

    def list_files(self, prefix: str = "/") -> list[str]:
        prefix = normalize_path(prefix)
        if not prefix.endswith("/"):
            prefix += "/"
        return sorted(
            p for p in self._files if p.startswith(prefix) or p == prefix.rstrip("/")
        )

    # -- block allocation --------------------------------------------------
    def allocate_block(
        self, meta: FileMeta, offset: int, length: int, live: list[str] | None = None
    ) -> BlockInfo:
        """Allocate a new block id and choose ``replication`` replica nodes.

        Placement is round-robin over the *live* datanodes (HDFS never
        places new replicas on dead nodes); replication degrades
        gracefully when fewer live nodes remain.
        """
        candidates = self.datanode_ids if live is None else [
            d for d in self.datanode_ids if d in live
        ]
        if not candidates:
            raise HdfsError("no live datanodes available for block placement")
        block_id = BlockId(next(self._block_counter))
        start = next(self._placement)
        n = len(candidates)
        replicas = list(dict.fromkeys(
            candidates[(start + i) % n] for i in range(min(self.replication, n))
        ))
        info = BlockInfo(block_id=block_id, offset=offset, length=length, replicas=replicas)
        meta.blocks.append(info)
        return info


def normalize_path(path: str) -> str:
    """Collapse repeated slashes and require absolute paths."""
    if not path.startswith("/"):
        raise HdfsError(f"mini-DFS paths must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)
