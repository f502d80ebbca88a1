"""Filesystem chunk store.

Layout::

    <root>/layers/<layer segments as directories>/<id>.chunk   verbatim bytes
    <root>/layers/.../<id>.meta                                 sidecar record
    <root>/parents/<hash>.json                                  shared parents

Parents are deduplicated: all chunks of one import share a single parents
file, referenced from the sidecar by content hash. Every write goes through
``durable``; the chunk file, written after its parents file and sidecar, is
the commit point. Opening the store removes the ``*.tmp`` files and unpaired
chunks and sidecars that a power loss may leave. Opening a store that was
there also syncs each of its directories once: a process killed between a
rename or a mkdir and the sync of its directory leaves a name that is not
yet durable, and ``put`` takes an existing layer directory or parents file
as durable. The sidecar is a
line-delimited record versioned with a `v1` header::

    v1
    layer "/buildings/cologne"
    format "XML"
    sequence 7
    imported 1719849600123
    crs "EPSG:25832"
    parents "d0a1..."
    tag "lod2"
    prop ["deleted","2018-09-13"]
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from .. import durable
from ..errors import DuplicateIdError, NotFoundError, StorageError
from ..model import (
    ChunkMetadata,
    CollectionKind,
    Format,
    GeoJsonParents,
    LayerPath,
    MetadataDelta,
    XmlParents,
    parse_layer_path,
)
from . import ChunkStore, StoredEntry

_META_VERSION = "v1"


def _encode_parents(parents) -> bytes:
    if isinstance(parents, XmlParents):
        rec = {
            "format": "XML",
            "rootStart": parents.root_start.decode("utf-8", "surrogateescape"),
            "rootEnd": parents.root_end.decode("utf-8", "surrogateescape"),
            "declaration": parents.declaration.decode("utf-8", "surrogateescape")
            if parents.declaration is not None
            else None,
        }
    else:
        rec = {"format": "GEOJSON", "collectionKind": parents.collection_kind.value}
    return json.dumps(rec, sort_keys=True).encode("utf-8", "surrogatepass")


def _decode_parents(raw: bytes):
    rec = json.loads(raw.decode("utf-8", "surrogatepass"))
    if rec["format"] == "XML":
        return XmlParents(
            root_start=rec["rootStart"].encode("utf-8", "surrogateescape"),
            root_end=rec["rootEnd"].encode("utf-8", "surrogateescape"),
            declaration=rec["declaration"].encode("utf-8", "surrogateescape")
            if rec["declaration"] is not None
            else None,
        )
    return GeoJsonParents(CollectionKind(rec["collectionKind"]))


def _encode_meta(metadata: ChunkMetadata, sequence: int, parents_ref: str) -> bytes:
    lines = [_META_VERSION]
    lines.append("layer " + json.dumps(str(metadata.layer)))
    lines.append("format " + json.dumps(metadata.format.value))
    lines.append(f"sequence {sequence}")
    lines.append(f"imported {metadata.import_timestamp}")
    if metadata.crs is not None:
        lines.append("crs " + json.dumps(metadata.crs))
    lines.append("parents " + json.dumps(parents_ref))
    for tag in sorted(metadata.tags):
        lines.append("tag " + json.dumps(tag))
    for key in sorted(metadata.properties):
        lines.append("prop " + json.dumps([key, metadata.properties[key]]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _decode_meta(raw: bytes) -> tuple[ChunkMetadata, int, str]:
    lines = raw.decode("utf-8").splitlines()
    if not lines or lines[0] != _META_VERSION:
        raise StorageError(f"unrecognised sidecar version {lines[:1]!r}")
    fields: dict = {"tags": set(), "props": {}}
    for line in lines[1:]:
        if not line.strip():
            continue
        kind, _, rest = line.partition(" ")
        if kind == "tag":
            fields["tags"].add(json.loads(rest))
        elif kind == "prop":
            key, value = json.loads(rest)
            fields["props"][key] = value
        elif kind in ("layer", "format", "crs", "parents"):
            fields[kind] = json.loads(rest)
        elif kind in ("sequence", "imported"):
            fields[kind] = int(rest)
        else:
            raise StorageError(f"unrecognised sidecar field {kind!r}")
    metadata = ChunkMetadata(
        layer=parse_layer_path(fields["layer"]), tags=frozenset(fields["tags"]),
        properties=fields["props"], crs=fields.get("crs"),
        import_timestamp=fields["imported"], format=Format(fields["format"]))
    return metadata, fields["sequence"], fields["parents"]


class FileSystemStore(ChunkStore):
    def __init__(self, root):
        self.root = Path(root)
        self.layers_dir = self.root / "layers"
        self.parents_dir = self.root / "parents"
        self._lock = threading.RLock()
        self._paths: dict[str, Path] = {}  # id -> directory holding the pair
        try:
            fresh = not self.layers_dir.is_dir()  # made first, so nothing else is there
            durable.mkdir(self.layers_dir)
            durable.mkdir(self.parents_dir)
            self._load(fresh)
        except OSError as e:
            raise StorageError(f"cannot open store at {self.root}: {e}") from e

    def _load(self, fresh: bool) -> None:
        stray = list(self.parents_dir.glob("*.tmp"))
        walked = []
        for directory, _, files in os.walk(self.layers_dir):
            walked.append(directory)
            names = set(files)
            for name in files:
                stem, ext = os.path.splitext(name)
                if ext == ".chunk" and stem + ".meta" in names:
                    self._paths[stem] = Path(directory)
                elif ext in (".chunk", ".tmp") or (ext == ".meta" and stem + ".chunk" not in names):
                    stray.append(Path(directory, name))  # left by a cut put or delete
        if not fresh:  # its directories may hold names a killed process did not sync
            durable.sync_dirs([self.root, self.parents_dir, *walked])
        durable.remove(stray)

    def _layer_dir(self, layer: LayerPath) -> Path:
        return self.layers_dir.joinpath(*layer.segments)

    def _parents_ref(self, parents) -> str:
        encoded = _encode_parents(parents)
        ref = hashlib.sha256(encoded).hexdigest()[:24]
        path = self.parents_dir / f"{ref}.json"
        if not path.exists():
            durable.write_atomic(path, encoded)
        return ref

    def put(self, entry: StoredEntry) -> None:
        with self._lock:
            if entry.id in self._paths:
                raise DuplicateIdError(f"chunk {entry.id} already stored")
            directory = self._layer_dir(entry.metadata.layer)
            try:
                durable.mkdir(directory)
                ref = self._parents_ref(entry.parents)
                meta = _encode_meta(entry.metadata, entry.sequence, ref)
                durable.write_atomic(directory / f"{entry.id}.meta", meta)
                # the commit point: the parents file and sidecar are on disk
                durable.write_atomic(directory / f"{entry.id}.chunk", entry.content)
            except OSError as e:
                raise StorageError(f"cannot store chunk {entry.id}: {e}") from e
            self._paths[entry.id] = directory

    def _require(self, chunk_id: str) -> Path:
        directory = self._paths.get(chunk_id)
        if directory is None:
            raise NotFoundError(f"chunk {chunk_id} not found")
        return directory

    def get(self, chunk_id: str) -> StoredEntry:
        with self._lock:
            directory = self._require(chunk_id)
            try:
                content = (directory / f"{chunk_id}.chunk").read_bytes()
                meta = (directory / f"{chunk_id}.meta").read_bytes()
                metadata, sequence, ref = _decode_meta(meta)
                parents = self._read_parents(ref)
            except FileNotFoundError:
                raise NotFoundError(f"chunk {chunk_id} not found") from None
            except OSError as e:
                raise StorageError(f"cannot read chunk {chunk_id}: {e}") from e
            return StoredEntry(chunk_id, content, parents, metadata, sequence)

    def get_parents(self, chunk_id: str):
        with self._lock:
            directory = self._require(chunk_id)
            try:
                _, _, ref = _decode_meta((directory / f"{chunk_id}.meta").read_bytes())
                return self._read_parents(ref)
            except FileNotFoundError:
                raise NotFoundError(f"chunk {chunk_id} not found") from None
            except OSError as e:
                raise StorageError(f"cannot read chunk {chunk_id}: {e}") from e

    def _read_parents(self, ref: str):
        return _decode_parents((self.parents_dir / f"{ref}.json").read_bytes())

    def delete(self, ids) -> int:
        with self._lock:
            gone = [(i, self._paths.pop(i)) for i in list(ids) if i in self._paths]
            try:
                durable.remove(directory / f"{chunk_id}{suffix}"
                               for chunk_id, directory in gone for suffix in (".chunk", ".meta"))
            except OSError as e:
                raise StorageError(f"cannot delete chunks: {e}") from e
        return len(gone)

    def update_metadata(self, chunk_id: str, delta: MetadataDelta) -> None:
        with self._lock:
            directory = self._require(chunk_id)
            meta_path = directory / f"{chunk_id}.meta"
            try:
                metadata, sequence, ref = _decode_meta(meta_path.read_bytes())
                meta = _encode_meta(metadata.with_delta(delta), sequence, ref)
                durable.write_atomic(meta_path, meta)
            except FileNotFoundError:
                raise NotFoundError(f"chunk {chunk_id} not found") from None
            except OSError as e:
                raise StorageError(f"cannot update chunk {chunk_id}: {e}") from e

    def scan(self):
        with self._lock:
            ids = list(self._paths)
        return iter(ids)

    def layer_exists(self, layer: LayerPath) -> bool:
        return layer.is_root or self._layer_dir(layer).is_dir()
