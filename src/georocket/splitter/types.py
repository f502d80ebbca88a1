"""Chunk record produced by the splitters."""

from __future__ import annotations

from dataclasses import dataclass

from ..model import GeoJsonParents, XmlParents


@dataclass(frozen=True, slots=True)
class RawChunk:
    """One syntactically complete feature fragment cut from the input.

    ``content`` is a verbatim byte range of the imported file; ``sequence``
    is the feature's position in source order; ``crs_hint`` is the nearest
    spatial reference system identifier found at or above the feature.
    ``projection`` is the ``(bbox, attributes, tokens)`` that extraction
    finds in ``content``, when the splitter found it while parsing (XML),
    and None otherwise.
    """

    content: bytes
    parents: "XmlParents | GeoJsonParents"
    sequence: int
    crs_hint: str | None = None
    projection: tuple | None = None

    def __post_init__(self):
        if not self.content:
            raise ValueError("chunk content must be non-empty")
