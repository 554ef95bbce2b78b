"""Block-level primitives for the mini-DFS.

A file in the mini-DFS is a sequence of fixed-size blocks; each block is
replicated onto ``replication`` distinct datanodes.  Block ids are globally
unique within a namenode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_BLOCK_SIZE = 1 << 20  # 1 MiB — scaled-down analogue of HDFS's 64 MB


@dataclass(frozen=True)
class BlockId:
    """Globally unique block identifier."""

    value: int

    def filename(self) -> str:
        return f"blk_{self.value:016d}"


@dataclass
class BlockInfo:
    """Namenode-side metadata for one block of one file."""

    block_id: BlockId
    offset: int  # byte offset of this block within the file
    length: int  # actual bytes stored (last block may be short)
    replicas: list[str] = field(default_factory=list)  # datanode ids


@dataclass
class FileMeta:
    """Namenode-side metadata for one file."""

    path: str
    blocks: list[BlockInfo] = field(default_factory=list)

    @property
    def length(self) -> int:
        return sum(b.length for b in self.blocks)
