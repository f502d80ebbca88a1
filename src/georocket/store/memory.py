"""In-memory chunk store (tests, ephemeral deployments)."""

from __future__ import annotations

import threading

from ..errors import DuplicateIdError, NotFoundError
from ..model import LayerPath, MetadataDelta
from . import ChunkStore, StoredEntry


class MemoryStore(ChunkStore):
    def __init__(self):
        self._lock = threading.RLock()
        self._entries: dict[str, StoredEntry] = {}
        self._layers: set[str] = set()

    def put(self, entry: StoredEntry) -> None:
        with self._lock:
            if entry.id in self._entries:
                raise DuplicateIdError(f"chunk {entry.id} already stored")
            self._entries[entry.id] = entry
            self._layers.add(str(entry.metadata.layer))

    def get(self, chunk_id: str) -> StoredEntry:
        with self._lock:
            entry = self._entries.get(chunk_id)
            if entry is None:
                raise NotFoundError(f"chunk {chunk_id} not found")
            return entry

    def get_parents(self, chunk_id: str):
        return self.get(chunk_id).parents

    def delete(self, ids) -> int:
        with self._lock:
            return sum(1 for i in list(ids) if self._entries.pop(i, None) is not None)

    def update_metadata(self, chunk_id: str, delta: MetadataDelta) -> None:
        with self._lock:
            entry = self.get(chunk_id)
            metadata = entry.metadata.with_delta(delta)
            self._entries[chunk_id] = StoredEntry(
                id=entry.id,
                content=entry.content,
                parents=entry.parents,
                metadata=metadata,
                sequence=entry.sequence,
            )

    def scan(self):
        with self._lock:
            ids = list(self._entries)
        return iter(ids)

    def layer_exists(self, layer: LayerPath) -> bool:
        if layer.is_root:
            return True
        with self._lock:
            return any(_is_prefix(str(layer), text) for text in self._layers)


def _is_prefix(layer_text: str, stored_text: str) -> bool:
    return stored_text == layer_text or stored_text.startswith(layer_text + "/")
