"""Append-only segment log backing the index.

Layout on disk::

    <index dir>/manifest          one magic line + one JSON line listing segments
    <index dir>/segments/<n>.seg  magic line + JSON op records, one per line

Records are encoded here, once: ``encode`` turns an op into its log line,
``append`` writes a committed batch of lines to the active segment (which
rolls over at a size threshold), and ``replay`` yields every record together
with the line it was read from. Compaction writes a snapshot of given lines
into a fresh segment and atomically swaps the manifest, so a caller that
kept the lines of its live records copies them and encodes nothing again.

A line that does not parse or has no newline is a torn tail (a crash during
append); replay ignores it and the rest of its segment, and if it is in the
last segment the next append starts a fresh segment, so a later commit is
never written behind the torn bytes. With ``fsync`` on, every new segment and
every manifest swap is followed by an fsync of its directory. Unknown magic
fails fast so a future format bump cannot be misread.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from ..errors import StorageError

logger = logging.getLogger(__name__)

SEGMENT_MAGIC = "georocket-index-segment 1"
MANIFEST_MAGIC = "georocket-index-manifest 1"

_encode = json.JSONEncoder(separators=(",", ":")).encode


def encode(op) -> str:
    """The log line of one op record: compact JSON and a newline."""
    return _encode(op) + "\n"


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SegmentLog:
    def __init__(self, root, max_segment_bytes: int = 8 << 20, fsync: bool = True):
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.manifest_path = self.root / "manifest"
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        self._active = None  # open file handle for the last listed segment
        self._torn_tail = False  # the last segment ends in a partial record
        try:
            self.segments_dir.mkdir(parents=True, exist_ok=True)
            if self.manifest_path.exists():
                self._segments = self._read_manifest()
            else:
                self._segments: list[str] = []
                self._write_manifest()
        except OSError as e:
            raise StorageError(f"cannot open index directory {self.root}: {e}") from e

    def _read_manifest(self) -> list[str]:
        with open(self.manifest_path, "r", encoding="utf-8") as f:
            magic = f.readline().strip()
            if magic != MANIFEST_MAGIC:
                raise StorageError(f"unrecognised index manifest header {magic!r}")
            body = f.readline()
        return list(json.loads(body)["segments"]) if body.strip() else []

    def _write_manifest(self) -> None:
        tmp = self.manifest_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(MANIFEST_MAGIC + "\n")
            f.write(json.dumps({"segments": self._segments}) + "\n")
            f.flush()
            if self.fsync:
                os.fsync(f.fileno())
        os.replace(tmp, self.manifest_path)
        if self.fsync:
            _fsync_dir(self.root)

    def replay(self):
        """Yield ``(record, line)`` for every op record in commit order."""
        self._close_active()
        for name in self._segments:
            path = self.segments_dir / name
            try:
                with open(path, "r", encoding="utf-8") as f:
                    magic = f.readline().strip()
                    if magic != SEGMENT_MAGIC:
                        raise StorageError(f"unrecognised segment header in {name}")
                    for line in f:
                        if line.isspace():
                            continue
                        try:
                            if not line.endswith("\n"):
                                raise ValueError("record without its newline")
                            record = json.loads(line)
                        except ValueError:
                            logger.warning("ignoring partial record in segment %s", name)
                            self._torn_tail = name == self._segments[-1]
                            break
                        yield record, line
            except FileNotFoundError:
                logger.warning("segment %s listed but missing; skipping", name)

    def append(self, lines) -> None:
        """Durably append a batch of encoded lines as one commit."""
        try:
            f = self._active_file()
            f.write("".join(lines))
            f.flush()
            if self.fsync:
                os.fsync(f.fileno())
            if f.tell() >= self.max_segment_bytes:
                self._roll()
        except OSError as e:
            raise StorageError(f"cannot append to index segment: {e}") from e

    def _active_file(self):
        if self._active is None:
            if not self._segments or self._torn_tail:
                self._roll()
            else:
                self._active = open(
                    self.segments_dir / self._segments[-1], "a", encoding="utf-8"
                )
        return self._active

    def _next_name(self) -> str:
        last = int(self._segments[-1].split(".")[0]) if self._segments else -1
        return f"{last + 1:08d}.seg"

    def _new_segment(self, lines=()) -> str:
        """Write and sync a segment holding ``lines``; returns its name."""
        name = self._next_name()
        with open(self.segments_dir / name, "w", encoding="utf-8") as f:
            f.write(SEGMENT_MAGIC + "\n")
            f.writelines(lines)
            f.flush()
            if self.fsync:
                os.fsync(f.fileno())
        if self.fsync:
            _fsync_dir(self.segments_dir)
        return name

    def _roll(self) -> None:
        self._close_active()
        name = self._new_segment()
        self._segments.append(name)
        self._write_manifest()
        self._torn_tail = False
        self._active = open(self.segments_dir / name, "a", encoding="utf-8")

    def compact(self, lines) -> None:
        """Replace the whole log with one segment holding the encoded ``lines``."""
        self._close_active()
        old = list(self._segments)
        try:
            self._segments = [self._new_segment(lines)]
            self._write_manifest()
        except OSError as e:
            self._segments = old
            raise StorageError(f"cannot compact index: {e}") from e
        self._torn_tail = False
        for stale in old:
            try:
                os.unlink(self.segments_dir / stale)
            except OSError:
                pass

    def _close_active(self) -> None:
        if self._active is not None:
            self._active.close()
            self._active = None

    def close(self) -> None:
        self._close_active()
