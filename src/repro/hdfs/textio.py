"""Line-aligned input splits over mini-DFS files.

Implements Hadoop's ``TextInputFormat`` record-boundary rule: a split
covering bytes ``[start, end)`` yields every line that *begins* inside the
range.  A split that does not start at byte 0 discards the partial line it
lands in (the previous split owns it) and reads past ``end`` to finish its
final line.  This guarantees each line is processed exactly once even
though block boundaries fall mid-line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdfs.filesystem import MiniDfs

_OVERREAD = 1 << 16  # first look past the split end for the final newline


@dataclass(frozen=True)
class InputSplit:
    """One schedulable chunk of an input file."""

    path: str
    start: int
    length: int
    hosts: tuple[str, ...]  # datanodes holding the underlying block (locality)

    @property
    def end(self) -> int:
        return self.start + self.length


def compute_splits(dfs: MiniDfs, path: str) -> list[InputSplit]:
    """One split per block, carrying the block's replica hosts."""
    return [
        InputSplit(path=path, start=b.offset, length=b.length, hosts=tuple(b.replicas))
        for b in dfs.block_locations(path)
        if b.length > 0
    ]


def read_split_lines(dfs: MiniDfs, split: InputSplit) -> list[str]:
    """Decode the lines owned by ``split`` per the TextInputFormat rule.

    Hadoop's ``LineRecordReader`` trick: a split with ``start > 0`` begins
    reading at ``start - 1`` and discards everything up to (and including)
    the first newline it sees.  If byte ``start - 1`` is itself a newline,
    nothing real is discarded and the line beginning exactly at ``start``
    is correctly owned by this split.  A line beginning exactly at the
    split end belongs to the *next* split.
    """
    file_len = dfs.file_length(split.path)
    start = split.start
    read_from = start - 1 if start > 0 else 0
    stop = min(split.end + _OVERREAD, file_len)
    raw = dfs.read_block_range(split.path, read_from, stop - read_from)
    # Absolute file offset where owned content begins.
    if start > 0:
        nl = raw.find(b"\n")
        if nl < 0:
            return []  # the previous split's final line runs past our end
        first_owned = read_from + nl + 1
    else:
        first_owned = 0
    if first_owned >= split.end:
        return []  # no line starts inside [start, end)
    # The final owned line may run past the overread: read on to the first
    # newline at or after byte ``end - 1``, or to EOF.  Each read doubles
    # what is held, so a long line costs time linear in its length.
    scan = split.end - 1 - read_from
    while stop < file_len and raw.find(b"\n", scan) < 0:
        scan = len(raw)
        more = min(stop + len(raw), file_len)
        raw += dfs.read_block_range(split.path, stop, more - stop)
        stop = more
    data = raw[first_owned - read_from :]
    owned_span = split.end - first_owned  # lines must *start* before split.end
    lines: list[str] = []
    pos = 0
    while pos < owned_span and pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0:
            lines.append(data[pos:].decode("utf-8"))
            break
        lines.append(data[pos:nl].decode("utf-8"))
        pos = nl + 1
    return lines


def read_all_lines_via_splits(dfs: MiniDfs, path: str) -> list[str]:
    """Reassemble the whole file through its splits (testing helper)."""
    out: list[str] = []
    for split in compute_splits(dfs, path):
        out.extend(read_split_lines(dfs, split))
    return out
