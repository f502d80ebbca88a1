"""Searchable projection of a chunk."""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from ..model import BoundingBox, ChunkMetadata, TypedValue


@dataclass(frozen=True, slots=True)
class IndexedAttribute:
    """A key-value pair extracted from chunk content during indexing.

    Unlike properties these are never user-supplied and never change after
    indexing.
    """

    key: str
    value: TypedValue


@dataclass(frozen=True, slots=True)
class IndexDocument:
    """Everything the index knows about one chunk.

    The metadata snapshot is the only part that changes after indexing
    (tags and properties); bbox, attributes, and tokens are derived from
    the immutable chunk content. ``tokens`` is a sorted tuple of distinct
    tokens, a sixth of a frozenset's size for a feature's ten; a tuple given
    for it must already be so, and any other collection is sorted into one.
    """

    chunk_id: str
    bbox: BoundingBox | None
    attributes: tuple[IndexedAttribute, ...]
    tokens: tuple[str, ...]
    metadata: ChunkMetadata
    sequence: int = 0

    def __post_init__(self):
        if type(self.tokens) is not tuple:
            object.__setattr__(self, "tokens", tuple(sorted(set(self.tokens))))

    def with_metadata(self, metadata: ChunkMetadata) -> "IndexDocument":
        return replace(self, metadata=metadata)

    def order_key(self) -> tuple:
        """Deterministic export order: import time, source position, id."""
        return (self.metadata.import_timestamp, self.sequence, self.chunk_id)

    def to_record(self) -> dict:
        rec = {
            "id": self.chunk_id,
            "bbox": [self.bbox.min_x, self.bbox.min_y, self.bbox.max_x, self.bbox.max_y]
            if self.bbox
            else None,
            "attrs": [[a.key, a.value.to_record()] for a in self.attributes],
            "tokens": list(self.tokens),
            "seq": self.sequence,
            "meta": self.metadata.to_record(),
        }
        return rec

    @classmethod
    def from_record(cls, rec: dict, parse_meta=ChunkMetadata.from_record) -> "IndexDocument":
        """Decode ``to_record`` output; ``parse_meta`` decodes the metadata
        record, so a caching one lets documents share their metadata."""
        bbox = BoundingBox(*rec["bbox"]) if rec.get("bbox") else None
        return cls(
            chunk_id=rec["id"],
            bbox=bbox,
            attributes=tuple(
                IndexedAttribute(sys.intern(k), TypedValue.from_record(v)) for k, v in rec["attrs"]
            ),
            tokens=tuple(rec["tokens"]),  # written sorted and distinct
            metadata=parse_meta(rec["meta"]),
            sequence=int(rec.get("seq", 0)),
        )
