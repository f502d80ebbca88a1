"""Streaming division of imported files into chunks.

The splitters make a single forward pass over a byte stream and buffer
about one chunk plus a constant (the GeoJSON splitter up to twice the chunk
it is reading), so arbitrarily large inputs can be processed. Format detection looks at the first non-whitespace byte.
"""

from __future__ import annotations

from itertools import chain

from ..errors import UnsupportedFormatError
from ..model import Format
from .geojson import GeoJsonSplitter, split_geojson
from .types import RawChunk
from .xmlsplit import XmlSplitter, split_xml

__all__ = [
    "RawChunk",
    "detect_format",
    "split_xml",
    "split_geojson",
    "split_auto",
    "XmlSplitter",
    "GeoJsonSplitter",
]

_BOM = b"\xef\xbb\xbf"


def detect_format(prefix: bytes) -> Format:
    """XML if the first non-whitespace byte is ``<``; GeoJSON for ``{``/``[``.

    Raises UnsupportedFormatError otherwise (including empty input).
    """
    if prefix.startswith(_BOM):
        prefix = prefix[3:]
    stripped = prefix.lstrip(b" \t\r\n")
    if not stripped:
        raise UnsupportedFormatError("cannot detect format: no content")
    first = stripped[:1]
    if first == b"<":
        return Format.XML
    if first in (b"{", b"["):
        return Format.GEOJSON
    raise UnsupportedFormatError(f"unsupported input starting with byte {stripped[0]:#04x}")


def split_auto(blocks):
    """Detect the stream's format and split it; returns (format, chunk iterator)."""
    it = iter(blocks)
    consumed = []
    prefix = b""
    for block in it:
        consumed.append(block)
        prefix += block
        probe = prefix[3:] if prefix.startswith(_BOM) else prefix
        if probe.lstrip(b" \t\r\n"):
            break
    fmt = detect_format(prefix)
    stream = chain(consumed, it)
    if fmt is Format.XML:
        return fmt, split_xml(stream)
    return fmt, split_geojson(stream)
