"""Immutable chunk persistence behind a pluggable backend interface.

Both backends obey the same contract (tested black-box): put/get round-trip
bit-identical content, ids are never reused, deletes are idempotent, and
only tags/properties are mutable (atomically per entry). The backend is
selected by the configuration key ``store.backend``; unknown values fail
fast at startup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..model import ChunkMetadata, GeoJsonParents, LayerPath, MetadataDelta, XmlParents

__all__ = ["StoredEntry", "ChunkStore", "create_store", "MemoryStore", "FileSystemStore"]


@dataclass(frozen=True, slots=True)
class StoredEntry:
    """One chunk at rest: verbatim content, enclosing context, metadata."""

    id: str
    content: bytes
    parents: "XmlParents | GeoJsonParents"
    metadata: ChunkMetadata
    sequence: int = 0


class ChunkStore:
    """Contract for chunk storage backends.

    Content and parents never change after put; metadata mutation is
    confined to tags and properties. Operations on one id are linearizable;
    concurrent operations on distinct ids may interleave freely. "Durably"
    means: on return, the change survives a power loss (the memory store is exempt).
    """

    def put(self, entry: StoredEntry) -> None:
        """Durably store a new entry, whole or not at all. Raises DuplicateIdError."""
        raise NotImplementedError

    def get(self, chunk_id: str) -> StoredEntry:
        """Return the stored entry. Raises NotFoundError for unknown ids."""
        raise NotImplementedError

    def get_parents(self, chunk_id: str):
        """Return only the entry's parents (cheap; no content read)."""
        raise NotImplementedError

    def delete(self, ids) -> int:
        """Durably remove the listed ids; unknown ids are ignored. Returns count removed."""
        raise NotImplementedError

    def update_metadata(self, chunk_id: str, delta: MetadataDelta) -> None:
        """Atomically and durably update tags/properties. Raises NotFoundError."""
        raise NotImplementedError

    def scan(self):
        """Iterate every stored id exactly once, in unspecified order."""
        raise NotImplementedError

    def layer_exists(self, layer: LayerPath) -> bool:
        """True if the layer has ever held chunks (the root always exists)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def create_store(backend: str, path=None) -> ChunkStore:
    """Instantiate the configured backend: ``memory`` or ``filesystem``."""
    from .filesystem import FileSystemStore
    from .memory import MemoryStore

    if backend == "memory":
        return MemoryStore()
    if backend == "filesystem":
        if not path:
            raise ConfigError("filesystem store requires a path")
        return FileSystemStore(path)
    raise ConfigError(f"unknown store backend {backend!r}")


from .filesystem import FileSystemStore  # noqa: E402  (re-export)
from .memory import MemoryStore  # noqa: E402
