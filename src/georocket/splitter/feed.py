"""Rolling buffer over a stream of byte blocks, for the GeoJSON scanner.

The scanner addresses the input by absolute byte offset while the feed keeps
only the bytes at or above a caller-controlled retention mark, so a single
forward pass over an arbitrarily large file buffers at most one chunk plus a
small constant. ``max_buffered`` records the high-water mark for memory tests.
"""

from __future__ import annotations

import re


class ByteFeed:
    def __init__(self, blocks, compact_threshold: int = 1 << 18):
        self._blocks = iter(blocks)
        self._buf = bytearray()
        self._base = 0  # absolute offset of _buf[0]
        self._eof = False
        self._retain = 0  # absolute offset below which bytes may be dropped
        self._compact_threshold = compact_threshold
        self.max_buffered = 0

    def _pull(self) -> bool:
        if self._eof:
            return False
        for block in self._blocks:
            if block:
                self._buf.extend(block)
                if len(self._buf) > self.max_buffered:
                    self.max_buffered = len(self._buf)
                return True
        self._eof = True
        return False

    def retain_from(self, abs_pos: int) -> None:
        """Allow the feed to discard everything below ``abs_pos``."""
        if abs_pos > self._retain:
            self._retain = abs_pos
            drop = min(self._retain, self._base + len(self._buf)) - self._base
            if drop >= self._compact_threshold:
                del self._buf[:drop]
                self._base += drop

    @property
    def eof(self) -> bool:
        return self._eof

    def end(self) -> int:
        """Total input length; only meaningful once EOF has been reached."""
        while self._pull():
            pass
        return self._base + len(self._buf)

    def byte_at(self, abs_pos: int):
        """Byte value at ``abs_pos`` or None past EOF."""
        if abs_pos < self._base:
            raise IndexError(f"offset {abs_pos} already released")
        while abs_pos >= self._base + len(self._buf):
            if not self._pull():
                return None
        return self._buf[abs_pos - self._base]

    def startswith(self, prefix: bytes, abs_pos: int) -> bool:
        while abs_pos + len(prefix) > self._base + len(self._buf):
            if not self._pull():
                return self._buf[abs_pos - self._base :].startswith(prefix)
        rel = abs_pos - self._base
        return self._buf[rel : rel + len(prefix)] == prefix

    def search(self, pattern: "re.Pattern[bytes]", abs_start: int) -> int:
        """Absolute index of the next match of a single-byte class pattern."""
        start = max(abs_start, self._base)
        while True:
            m = pattern.search(self._buf, start - self._base)
            if m:
                return self._base + m.start()
            old_end = self._base + len(self._buf)
            if not self._pull():
                return -1
            start = old_end

    def search_span(self, pattern: "re.Pattern[bytes]", abs_start: int):
        """Span (abs start, abs end) of the next match of a variable-length
        pattern, pulling more input whenever a match could be truncated at
        the buffer end. None once EOF is exhausted."""
        start = max(abs_start, self._base)
        while True:
            m = pattern.search(self._buf, start - self._base)
            if m and (m.end() < len(self._buf) or self._eof):
                return self._base + m.start(), self._base + m.end()
            if not self._pull():
                if m:
                    return self._base + m.start(), self._base + m.end()
                return None
            if m:
                start = self._base + m.start()

    def skip_ws(self, abs_start: int) -> int:
        """Absolute index of the first non-whitespace byte, or -1 at EOF."""
        return self.search(_NON_WS, abs_start)

    def slice(self, abs_a: int, abs_b: int) -> bytes:
        if abs_a < self._base:
            raise IndexError(f"offset {abs_a} already released")
        while abs_b > self._base + len(self._buf):
            if not self._pull():
                raise IndexError(f"offset {abs_b} beyond end of input")
        return bytes(self._buf[abs_a - self._base : abs_b - self._base])


_NON_WS = re.compile(rb"[^ \t\r\n]")
