"""Asynchronous chunk indexing: extraction, spatial tree, embedded index."""

from .documents import IndexDocument, IndexedAttribute
from .extract import build_document
from .index import ChunkIndex
from .spatial import SpatialIndex, StrTree

__all__ = [
    "IndexDocument",
    "IndexedAttribute",
    "build_document",
    "ChunkIndex",
    "SpatialIndex",
    "StrTree",
]
