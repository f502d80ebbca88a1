"""Append-only log backing the index: one file, rewritten by compaction.

Layout on disk::

    <index dir>/segments/log.seg  magic line + JSON op records, one per line

Records are encoded here, once: ``encode`` turns an op into its log line,
``append`` writes a committed batch of lines to the end of the log, and
``replay`` yields every record together with the line it was read from.
Compaction writes given lines to a temporary file beside the log, syncs it
and renames it over the log, so a caller that kept the lines of its live
records copies them and encodes nothing again. A crash before the rename
leaves the old log whole, and the next compaction overwrites the temporary
file. ``records`` counts the op lines in the log, so the caller can tell how
many of them are dead.

A line that does not parse or has no newline is a torn tail (a crash during
append); replay ignores it and the rest of the log and sets ``torn``, and
the caller compacts before it appends again, so a later commit is never
written behind the torn bytes. Appends and rewrites go through ``durable``,
so each is on disk when it returns. Unknown magic fails fast so a future
format bump cannot be misread, and so does a directory with a ``manifest``,
the layout of earlier versions.
"""

from __future__ import annotations

import itertools
import json
import logging
from pathlib import Path

from .. import durable
from ..errors import StorageError

logger = logging.getLogger(__name__)

SEGMENT_MAGIC = "georocket-index-segment 1"
_HEADER = (SEGMENT_MAGIC + "\n").encode()

_encode = json.JSONEncoder(separators=(",", ":")).encode


def encode(op) -> str:
    """The log line of one op record: compact JSON and a newline."""
    return _encode(op) + "\n"


class SegmentLog:
    def __init__(self, root):
        self.root = Path(root)
        self.path = self.root / "segments" / "log.seg"
        self.records = 0  # op lines in the log, as far as replay and appends saw
        self.torn = False  # replay stopped at a partial record
        self._file = None  # append handle, opened by the first append
        if (self.root / "manifest").exists():
            raise StorageError(
                f"index directory {self.root} has the layout of an earlier version; "
                "delete the directory to rebuild the index from the store")
        try:
            durable.mkdir(self.path.parent)
            if not self.path.exists():
                durable.write_atomic(self.path, _HEADER)
        except OSError as e:
            raise StorageError(f"cannot open index directory {self.root}: {e}") from e

    def replay(self):
        """Yield ``(record, line)`` for every op record in commit order."""
        self.close()
        self.records = 0
        with open(self.path, "r", encoding="utf-8") as f:
            magic = f.readline().strip()
            if magic != SEGMENT_MAGIC:
                raise StorageError(f"unrecognised index log header {magic!r} in {self.path}")
            for line in f:
                if line.isspace():
                    continue
                try:
                    if not line.endswith("\n"):
                        raise ValueError("record without its newline")
                    record = json.loads(line)
                except ValueError:
                    logger.warning("ignoring partial record at the end of %s", self.path)
                    self.torn = True
                    break
                self.records += 1
                yield record, line

    def append(self, lines: list[str]) -> None:
        """Durably append a batch of encoded lines as one commit."""
        try:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            durable.append(self._file, "".join(lines))
        except OSError as e:
            raise StorageError(f"cannot append to the index log: {e}") from e
        self.records += len(lines)

    def compact(self, lines: list[str]) -> None:
        """Replace the whole log with one holding the encoded ``lines``."""
        self.close()
        try:
            durable.write_atomic(self.path, itertools.chain((_HEADER,), map(str.encode, lines)))
        except OSError as e:
            raise StorageError(f"cannot write the index log: {e}") from e
        self.records = len(lines)
        self.torn = False

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
