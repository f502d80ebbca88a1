"""Application core tying splitter, store, indexer, and merger together.

An import streams through the splitter into the store; each written chunk
id is handed to the index worker through a bounded queue (back-pressure:
when the indexer lags, the splitter stalls). An XML chunk arrives from the
splitter with its index projection, which travels with the id, and the
worker builds its index document without reading the store; a GeoJSON chunk
is read back and extracted by the worker. The import is acknowledged once
all chunks are stored; indexing continues in the background and the task
reports both counters. Imports are all-or-nothing: the task keeps the
ids of its chunks until it ends, and when its split fails or a batch holding
any of its chunks fails to index, the worker removes every chunk the task
wrote, store first, then index, and fails the task. A batch that fails fails every task
in it. Chunks of a failed task still queued are deleted, not indexed, and the
split of a failed task stops at its next chunk.

Searches query the index, load matching chunks from the store, and stream
a merged document, skipping ids the store no longer holds. Deletions,
rollbacks and metadata updates go to the store first (source of truth),
then the index. A crash between the halves of a delete leaves index entries
without a stored chunk, which searches skip and reconcile drops at the next
start, so a deleted chunk never comes back; one between the halves of an
update leaves a stale snapshot, which reconcile resyncs.

Garbage collection: the index is most of the heap, and it is long-lived and
free of reference cycles, so the cyclic collector's full collections would
only rescan it. The app opens the index and reconciles with the collector
paused, then calls ``gc.freeze()``, which moves every object alive into a
generation the collector never scans. After an index write that compacted
the log, ``_settle_after_compaction`` collects once and freezes again,
outside the index lock. Full collections then scan what was made since
the last compaction instead of the whole index (index structures rebuilt
in between, such as the spatial tree, still count). A frozen object is
still freed when its last reference goes; only a reference cycle that was
alive at a freeze is never collected, and the server makes none at these
points (``tests/test_server.py`` checks it).
"""

from __future__ import annotations

import gc
import logging
import queue
import threading
import time

from ..errors import GeoRocketError, NotFoundError, ParseError, UnknownIdError
from ..indexer import ChunkIndex, build_document
from ..indexer.extract import projected_document
from ..merger import merge
from ..model import ChunkMetadata, Format, LayerPath, MetadataDelta
from ..ids import new_chunk_id
from ..query import parse_query
from ..splitter import split_auto
from ..store import StoredEntry, create_store
from .config import ServerConfig
from .reconcile import ReconcileReport, reconcile
from .tasks import ImportTask, TaskRegistry, TaskState

logger = logging.getLogger(__name__)

_STOP = object()


class GeoRocketApp:
    def __init__(self, config: ServerConfig):
        self.config = config.validate()
        self.store = create_store(config.store_backend, config.store_path)
        # replay and reconcile build the long-lived index: collecting while
        # they run would only rescan it
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.index = ChunkIndex(config.index_path)
            if config.reconcile_on_start:
                self.reconcile()
        finally:
            if collecting:
                gc.enable()
        gc.freeze()
        self._settled_compactions = self.index.compactions
        self._settle_lock = threading.Lock()
        self.tasks = TaskRegistry(config.task_retention_seconds)
        self.request_slots = threading.BoundedSemaphore(config.max_concurrent_requests)
        self._queue: queue.Queue = queue.Queue(maxsize=config.index_queue_size)
        self._closed = False
        self._worker = threading.Thread(target=self._index_worker, daemon=True,
                                        name="georocket-indexer")
        self._worker.start()

    # --- import -------------------------------------------------------------

    def import_stream(self, layer: LayerPath, blocks, tags=(), properties=None,
                      fallback_crs: str | None = None) -> ImportTask:
        """Split, store, and enqueue-for-indexing one uploaded file.

        Returns once every chunk is durably stored; indexing catches up
        asynchronously. Any failure rolls back this import's chunks and
        re-raises; so does a failure to index them while splitting.
        """
        task = self.tasks.create(layer)
        task.start_splitting()
        timestamp = time.time_ns() // 1_000_000
        try:
            fmt, chunks = split_auto(blocks)
            base_tags = frozenset(tags)
            base_props = dict(properties or {})
            # one metadata object per CRS: nothing changes metadata in place
            # (an update makes a new one with ``with_delta``), so chunks share it
            by_crs: dict[str | None, ChunkMetadata] = {}
            for chunk in chunks:
                if task.state is TaskState.FAILED:
                    raise GeoRocketError(f"import failed while indexing: {task.error}")
                crs = chunk.crs_hint or fallback_crs
                metadata = by_crs.get(crs)
                if metadata is None:
                    metadata = by_crs[crs] = ChunkMetadata(
                        layer=layer,
                        tags=base_tags,
                        properties=base_props,
                        crs=crs,
                        import_timestamp=timestamp,
                        format=fmt,
                    )
                chunk_id = new_chunk_id()
                self.store.put(
                    StoredEntry(
                        id=chunk_id,
                        content=chunk.content,
                        parents=chunk.parents,
                        metadata=metadata,
                        sequence=chunk.sequence,
                    )
                )
                task.add_written(chunk_id)
                # a chunk the splitter projected is indexed without a store read
                projected = (None if chunk.projection is None
                             else (chunk.projection, metadata, chunk.sequence))
                self._queue.put(("add", task, chunk_id, projected))
            task.splitting_done()
            return task
        except BaseException as e:
            message = str(e) if str(e) else type(e).__name__
            self._queue.put(("rollback", task, message))
            raise

    # --- queries ------------------------------------------------------------

    def search(self, layer: LayerPath, query_text: str,
               default_format: Format = Format.XML):
        """Merged export of all matching chunks; returns (format, byte iter).

        An empty query matches everything in the layer subtree. Raises
        NotFoundError when nothing matches and the layer never existed.
        """
        ids = self._query(layer, query_text)
        parents = []
        seen = set()
        live_ids = []
        for chunk_id in ids:
            try:
                p = self.store.get_parents(chunk_id)
            except NotFoundError:
                continue  # deleted while searching
            live_ids.append(chunk_id)
            if p not in seen:
                seen.add(p)
                parents.append(p)
        return merge(self._entries(live_ids), parents, default_format)

    def explain(self, layer: LayerPath, query_text: str) -> dict:
        """How the index evaluates a search, which reads no document: the
        entry of each node evaluated, in evaluation order (see
        ``ChunkIndex._eval``), and the number of hits. Raises as ``search``
        does."""
        trace: list[dict] = []
        ids = self._query(layer, query_text, trace)
        return {"query": query_text, "layer": str(layer), "hits": len(ids), "nodes": trace}

    def _query(self, layer: LayerPath, query_text: str, trace=None) -> list[str]:
        ids = self.index.query(parse_query(query_text), layer, trace)
        if not ids and not self.store.layer_exists(layer):
            raise NotFoundError(f"layer {layer} does not exist")
        return ids

    def _entries(self, ids):
        for chunk_id in ids:
            try:
                yield self.store.get(chunk_id)
            except NotFoundError:
                continue

    def delete(self, layer: LayerPath, query_text: str, allow_all: bool = False) -> int:
        """Delete matching chunks from store then index; returns the count.

        An empty query needs the explicit ``allow_all`` guard.
        """
        if not query_text.strip() and not allow_all:
            raise ParseError("refusing to delete with an empty query; pass all=true")
        ids = self.index.query(parse_query(query_text), layer)
        self.store.delete(ids)
        deleted = self.index.delete(ids)
        self._settle_after_compaction()
        return deleted

    def update_metadata(self, layer: LayerPath, query_text: str, delta: MetadataDelta) -> int:
        """Apply a tags/properties delta to every matching chunk.

        Returns the number of chunks whose metadata actually changed, so a
        removal of a tag nobody carries reports 0.
        """
        if delta.is_empty():
            raise ParseError("metadata update requires at least one change")
        ids = self.index.query(parse_query(query_text), layer)
        changed: dict[str, bool] = {}
        for chunk_id in ids:
            doc = self.index.get_document(chunk_id)
            try:
                self.store.update_metadata(chunk_id, delta)
            except NotFoundError:
                continue  # deleted while updating
            changed[chunk_id] = doc is not None and doc.metadata.with_delta(delta) != doc.metadata
        updated = list(changed)
        while updated:
            try:
                self.index.update_metadata(updated, delta)
                break
            except UnknownIdError:
                # a concurrent delete took some of them out of the index
                updated = [i for i in updated if self.index.get_document(i) is not None]
        self._settle_after_compaction()
        return sum(changed[i] for i in updated)

    def task(self, task_id: str) -> ImportTask | None:
        return self.tasks.get(task_id)

    def reconcile(self) -> ReconcileReport:
        return reconcile(self.store, self.index)

    def status(self) -> dict:
        return {
            "name": "georocket",
            "version": _version(),
            "backend": self.config.store_backend,
            "chunks": len(self.index),
        }

    # --- index worker ---------------------------------------------------------

    def _index_worker(self) -> None:
        pending = None  # an op taken from the queue while filling a batch
        while True:
            item = pending if pending is not None else self._queue.get()
            pending = None
            if item is _STOP:
                return
            ops = [item]
            while item[0] == "add" and len(ops) < self.config.index_batch_size:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP or nxt[0] != "add":
                    pending = nxt
                    break
                ops.append(nxt)
            try:
                if item[0] == "add":
                    self._handle_batch(ops)
                else:
                    self._rollback(item[1], item[2])
            except Exception:
                logger.exception("index worker: unexpected failure")
                for task in dict.fromkeys(op[1] for op in ops):
                    try:
                        self._rollback(task, "internal indexing failure")
                    except Exception:
                        logger.exception("index worker: cannot roll back import %s", task.id)
            self._settle_after_compaction()

    def _handle_batch(self, batch) -> None:
        docs = []
        tasks = []
        dead = []
        for _, task, chunk_id, projected in batch:
            if task.state is TaskState.FAILED:
                dead.append(chunk_id)  # written after its task was rolled back
                continue
            if projected is not None:
                docs.append(projected_document(chunk_id, *projected))
            else:
                try:
                    entry = self.store.get(chunk_id)
                except NotFoundError:
                    continue  # rolled back or deleted before indexing
                docs.append(build_document(entry))
            tasks.append(task)
        if dead:
            self.store.delete(dead)
        if docs:
            self.index.add_documents(docs)
            for task in tasks:
                task.add_indexed(1)

    def _rollback(self, task: ImportTask, message: str) -> None:
        """Fail ``task`` and remove every chunk it wrote, store first."""
        try:
            ids = task.chunk_ids  # empty if the task has already failed
            self.store.delete(ids)
            self.index.delete(ids)
        finally:
            task.fail(message)
        logger.warning("import %s failed and was rolled back (%d chunks): %s",
                       task.id, len(ids), message)

    # --- garbage collection ------------------------------------------------------

    def _settle_after_compaction(self) -> None:
        """If the index compacted since the last freeze, collect what was
        made since then and freeze what survives."""
        with self._settle_lock:
            compactions = self.index.compactions
            if compactions == self._settled_compactions:
                return
            self._settled_compactions = compactions
        gc.collect()
        gc.freeze()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        self._worker.join(timeout=30)
        self.index.close()
        self.store.close()


def _version() -> str:
    from .. import __version__

    return __version__
