"""Streaming GeoJSON splitter.

A top-level object carrying a ``features`` array is cut into one chunk per
array element. Any other top-level object (a single feature, a bare
geometry, or a geometry collection) becomes exactly one STANDALONE chunk
equal to the whole value. A legacy top-level ``crs`` member is used as a CRS
hint for all chunks when it precedes the features array.

The input is decoded incrementally, and every top-level key and value and
every feature is read with ``json.JSONDecoder.raw_decode``, which finds
where the value ends and validates it in one C call. Bytes that are not
UTF-8 become surrogate escapes in the text, so a chunk encoded back from
the text is the feature's verbatim byte range. Text before the feature
being read is released past a threshold, so the buffer holds the largest
feature (up to twice over while it is being read) plus a constant.
"""

from __future__ import annotations

import codecs
import json
import re

from ..errors import JsonMalformedError
from ..model import CollectionKind, GeoJsonParents
from .types import RawChunk

_FC_PARENTS = GeoJsonParents(CollectionKind.FEATURE_COLLECTION)
_STANDALONE_PARENTS = GeoJsonParents(CollectionKind.STANDALONE)
_NON_WS = re.compile(r"[^ \t\r\n]")
_RELEASE_THRESHOLD = 1 << 18
# A value that ends or fails within this many characters of the end of the
# text may have been cut by it: json reports a cut literal at its first
# character ("-Infinit" is the longest), and reads "1e+" as the number 1
# followed by "e+". Elsewhere only an unterminated string can be cut.
_CUT_TAIL = len("-Infinit")
_raw_decode = json.JSONDecoder().raw_decode


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogateescape")


class GeoJsonSplitter:
    """Splits one GeoJSON document; ``max_buffered`` reports peak buffered bytes."""

    def __init__(self):
        self.max_buffered = 0
        self._blocks = iter(())
        self._decoder = codecs.getincrementaldecoder("utf-8")("surrogateescape")
        self._text = ""  # the input decoded from byte offset _base on
        self._base = 0
        self._read = 0  # input bytes taken from the blocks
        self._eof = False

    def split(self, blocks):
        self._blocks = iter(blocks)
        while not self._text and not self._eof:
            self._more(1)
        doc = self._skip(1 if self._text.startswith("\ufeff") else 0)
        if doc == -1:
            raise JsonMalformedError("empty input", offset=0)
        if self._text[doc] != "{":
            raise self._error("top-level value must be an object", doc)

        crs_hint = None
        split = False
        pos = self._next(doc + 1, "inside object")
        if self._text[pos] != "}":
            while True:
                if self._text[pos] != '"':
                    raise self._error("expected an object key", pos)
                key, pos = self._value(pos)
                pos = self._next(pos, "after object key")
                if self._text[pos] != ":":
                    raise self._error("expected ':'", pos)
                pos = self._next(pos + 1, "after ':'")
                if key == "features" and not split and self._text[pos] == "[":
                    split = True
                    pos = yield from self._features(pos + 1, crs_hint)
                else:
                    value, pos = self._value(pos)
                    if key == "crs" and not split:
                        crs_hint = _crs_name(value) or crs_hint
                pos = self._next(pos, "after value")
                if self._text[pos] == "}":
                    break
                if self._text[pos] != ",":
                    raise self._error("expected ',' or '}'", pos)
                pos = self._next(pos + 1, "inside object")

        end = pos + 1
        tail = self._skip(end)
        if tail != -1:
            raise self._error("trailing data after top-level value", tail)
        if not split:
            yield RawChunk(content=_encode(self._text[doc:end]), parents=_STANDALONE_PARENTS,
                           sequence=0, crs_hint=crs_hint)

    def _features(self, pos: int, crs_hint):
        """Yield one chunk per array element; returns the position after ``]``."""
        pos = self._next(pos, "inside features array")
        if self._text[pos] == "]":
            return pos + 1
        sequence = 0
        while True:
            if pos >= _RELEASE_THRESHOLD:
                self._base += len(_encode(self._text[:pos]))
                self._text = self._text[pos:]
                pos = 0
            if self._text[pos] != "{":
                raise self._error("feature must be a JSON object", pos)
            _, end = self._value(pos)
            yield RawChunk(content=_encode(self._text[pos:end]), parents=_FC_PARENTS,
                           sequence=sequence, crs_hint=crs_hint)
            sequence += 1
            pos = self._next(end, "inside features array")
            if self._text[pos] == "]":
                return pos + 1
            if self._text[pos] != ",":
                raise self._error("expected ',' or ']'", pos)
            pos = self._next(pos + 1, "after ','")

    def _more(self, need: int) -> None:
        """Take at least ``need`` more bytes (and at least one block) of input."""
        parts = []
        for block in self._blocks:
            parts.append(block)
            need -= len(block)
            if need <= 0:
                break
        else:
            self._eof = True
        data = b"".join(parts)
        self._read += len(data)
        self._text += self._decoder.decode(data, self._eof)
        self.max_buffered = max(self.max_buffered, self._read - self._base)

    def _skip(self, pos: int) -> int:
        """Position of the next character that is not whitespace, or -1 at
        the end of the input."""
        while (m := _NON_WS.search(self._text, pos)) is None:
            if self._eof:
                return -1
            pos = len(self._text)
            self._more(1)
        return m.start()

    def _next(self, pos: int, where: str) -> int:
        nxt = self._skip(pos)
        if nxt == -1:
            raise JsonMalformedError(f"unexpected end of input {where}", offset=self._read)
        return nxt

    def _value(self, pos: int):
        """The JSON value starting at ``pos`` and the position after it.

        A value cut by the end of the text is read again with more input,
        which at least doubles the text from ``pos`` so that a large value is
        decoded a logarithmic number of times."""
        while True:
            text = self._text
            try:
                value, end = _raw_decode(text, pos)
            except json.JSONDecodeError as e:
                cut = e.pos >= len(text) - _CUT_TAIL or e.msg.startswith("Unterminated string")
                if self._eof or not cut:
                    raise self._error(e.msg, e.pos) from None
            except RecursionError:
                raise self._error("JSON value nested too deeply", pos) from None
            except ValueError:  # an integer longer than int() accepts
                raise self._error("integer with too many digits", pos) from None
            else:
                if self._eof or end < len(text) - _CUT_TAIL:
                    return value, end
            self._more(len(text) - pos)

    def _error(self, message: str, pos: int) -> JsonMalformedError:
        return JsonMalformedError(message, offset=self._base + len(_encode(self._text[:pos])))


def _crs_name(crs) -> str | None:
    """Name from a legacy crs member shaped {"properties": {"name": ...}}."""
    props = crs.get("properties") if isinstance(crs, dict) else None
    name = props.get("name") if isinstance(props, dict) else None
    if not isinstance(name, str):
        return None
    try:
        # bytes that are not UTF-8 read as U+FFFD, not as surrogate escapes
        return _encode(name).decode("utf-8", "replace")
    except UnicodeEncodeError:  # an escaped surrogate such as \ud800
        return name


def split_geojson(blocks):
    """Divide a GeoJSON byte stream into chunks (one per feature)."""
    return GeoJsonSplitter().split(blocks)
