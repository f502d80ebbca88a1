"""Embedded search index over chunk documents.

Combines an inverted token index (content tokens, tags, property-value
tokens), sorted typed columns of attribute and property values, a packed
spatial tree, and import timestamps, behind one object. Queries are answered
by set algebra over these structures and must return exactly the ids the
reference evaluator accepts; the test suite enforces that equivalence.

Comparisons are answered from the columns by binary search in O(log n +
matches) (see ``columns``): text EQ is case-insensitive while the ordering
operators compare code points, dates compare as intervals at their
granularity, and a NaN value satisfies only LTE and GTE. Date terms are
answered the same way from the import timestamps, sorted.

Memory: a posting held by one chunk (most content tokens of a feature:
its coordinates, its name) is the bare id string, and a set is made only
when a second chunk posts the token; the set turns back into the bare id
when it drops to one chunk. ``_post``, ``_unpost`` and ``_posted`` are the
only ways in, except the content-token loops of an add and a delete, which
are inline. Documents keep their tokens as one sorted tuple, and the
document, metadata and value dataclasses use slots. Together with the kept log line, a 243-byte GeoJSON
feature costs about 3.7-3.8 KB of index (tracemalloc, 10 000 and 40 000
features, log on), linear in the number of documents.

Durability: every committed batch is appended to a one-file log and
replayed on open. Once the log holds at least twice as many records as
there are live documents, the index compacts it after the commit: the log
is rewritten with one add record per live document. A compaction thus
writes at most as many records as it drops, and each record it drops was
appended, or made dead by an update or a delete, since the last one: what
compactions write stays proportional to the work done, and an add-only
ingest never compacts. A log whose replay stopped at a torn tail is
compacted on open. Each document's add record is encoded once, when it is
committed; an index with a log keeps that line (or the line replay read)
until an update or a delete drops it, and compaction copies the kept lines,
encoding again only documents updated since. That costs about one log line
of memory per document. Replay decodes each distinct metadata record once,
so the documents of one import share one ``ChunkMetadata`` after a restart too. ``compactions`` counts the
compactions since open: after one, the structures hold no garbage and their
objects are long-lived, which is when the server freezes them out of the
garbage collector's view (see ``server.app``). The store remains the source
of truth, so a lost index can always be rebuilt from stored chunks.

Concurrency: one writer at a time; all public methods take the instance
lock, so readers only ever observe fully committed batches.
"""

from __future__ import annotations

import functools
import threading

from ..errors import DuplicateIdError, UnknownIdError
from ..model import (
    ChunkMetadata,
    LayerPath,
    MetadataDelta,
    ROOT_LAYER,
    TypedValue,
    epoch_ms_from_key,
    parse_layer_path,
)
from ..query.ast import (
    BBoxTerm,
    Comparison,
    DateTerm,
    Logical,
    LogicalOp,
    MatchAll,
    QueryNode,
    TextTerm,
)
from ..text import tokenize
from .columns import _FEW, SortedEntries, TypedColumns
from .documents import IndexDocument
from .segments import SegmentLog, encode
from .spatial import SpatialIndex


class ChunkIndex:
    def __init__(self, path=None, *, fsync: bool = True):
        """Open (or create) an index; ``path=None`` keeps it in memory only."""
        self._lock = threading.RLock()
        self._docs: dict[str, IndexDocument] = {}
        # postings: token -> the one chunk id holding it, or a set of two or more
        self._content_tokens: dict[str, str | set[str]] = {}
        self._tag_ids: dict[str, str | set[str]] = {}
        self._prop_tokens: dict[str, str | set[str]] = {}
        self._columns = TypedColumns()
        self._layer_ids: dict[tuple, set[str]] = {}  # keyed by LayerPath.segments
        self._order: dict[str, tuple] = {}  # id -> order_key(); metadata never changes it
        self._timestamps = SortedEntries()  # the order keys, (import timestamp, sequence, id)
        self._spatial = SpatialIndex()
        self._lines: dict[str, str] = {}  # id -> its encoded add line, filled only with a log
        self.compactions = 0  # compactions run since open; read without the lock
        self._log = SegmentLog(path, fsync=fsync) if path is not None else None
        if self._log is not None:
            self._replay()
            self._maybe_compact()

    # --- persistence ------------------------------------------------------

    def _replay(self) -> None:
        parse_layer = functools.cache(parse_layer_path)  # one path per layer, shared
        shared: dict[tuple, ChunkMetadata] = {}

        def parse_meta(rec: dict) -> ChunkMetadata:
            # one object per distinct record, so the documents of one import
            # share their metadata as they did when they were added
            key = (rec["layer"], rec["ts"], rec["format"], rec.get("crs"),
                   tuple(rec.get("tags", ())), tuple(rec.get("props", {}).items()))
            meta = shared.get(key)
            if meta is None:
                meta = shared[key] = ChunkMetadata.from_record(rec, parse_layer)
            return meta

        for op, line in self._log.replay():
            kind = op["op"]
            if kind == "add":
                doc = IndexDocument.from_record(op["doc"], parse_meta)
                self._apply_add(doc)
                self._lines[doc.chunk_id] = line
            elif kind == "update":
                delta = MetadataDelta.from_record(op["delta"])
                self._apply_metadata([i for i in op["ids"] if i in self._docs], delta)
            elif kind == "delete":
                self._apply_delete(op["ids"])

    def _commit(self, ops) -> list[str]:
        lines = [encode(op) for op in ops]
        self._log.append(lines)
        return lines

    def _maybe_compact(self) -> None:
        # only after the committed batch is fully applied: the snapshot is
        # built from the live structures. An empty index compacts a log with
        # any record in it, and a new one has none.
        log = self._log
        if log is not None and (log.torn or log.records >= max(1, 2 * len(self._docs))):
            self.compact()

    def compact(self) -> None:
        """Rewrite the log as one add record per live document."""
        with self._lock:
            if self._log is None:
                return
            lines = self._lines
            for cid in self._docs.keys() - lines.keys():  # updated since their line was kept
                lines[cid] = encode({"op": "add", "doc": self._docs[cid].to_record()})
            # the order keys end in the id
            self._log.compact([lines[key[-1]] for key in self._timestamps.items()])
            self.compactions += 1

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()

    # --- mutation ----------------------------------------------------------

    def add_documents(self, docs) -> int:
        """Make a batch searchable atomically; all ids must be new."""
        docs = list(docs)
        with self._lock:
            for doc in docs:
                if doc.chunk_id in self._docs:
                    raise DuplicateIdError(f"chunk {doc.chunk_id} is already indexed")
            seen = {d.chunk_id for d in docs}
            if len(seen) != len(docs):
                raise DuplicateIdError("duplicate chunk id within one batch")
            if self._log is not None:
                lines = self._commit([{"op": "add", "doc": d.to_record()} for d in docs])
                self._lines.update(zip([d.chunk_id for d in docs], lines))
            for doc in docs:
                self._apply_add(doc)
            self._maybe_compact()
            return len(docs)

    def update_metadata(self, ids, delta: MetadataDelta) -> int:
        """Apply one tags/properties delta to every id; all ids must exist."""
        ids = list(ids)
        with self._lock:
            missing = [i for i in ids if i not in self._docs]
            if missing:
                raise UnknownIdError(f"cannot update unknown chunk {missing[0]}")
            if self._log is not None:
                self._commit([{"op": "update", "ids": ids, "delta": delta.to_record()}])
            self._apply_metadata(ids, delta)
            self._maybe_compact()
            return len(ids)

    def delete(self, ids) -> int:
        """Remove ids from all structures; unknown ids are ignored."""
        ids = list(ids)
        with self._lock:
            present = [i for i in ids if i in self._docs]
            if present:
                if self._log is not None:
                    self._commit([{"op": "delete", "ids": present}])
                self._apply_delete(present)
                self._maybe_compact()
            return len(present)

    def _apply_add(self, doc: IndexDocument) -> None:
        if doc.chunk_id in self._docs:
            raise DuplicateIdError(f"chunk {doc.chunk_id} is already indexed")
        cid = doc.chunk_id
        self._docs[cid] = doc
        content = self._content_tokens
        for token in doc.tokens:  # inline, as in _apply_delete; the tokens are distinct
            held = content.get(token)
            if held is None:
                content[token] = cid
            elif type(held) is str:
                content[token] = {held, cid}
            else:
                held.add(cid)
        for tag in doc.metadata.tags:
            _post(self._tag_ids, tag.lower(), cid)
        if doc.metadata.properties:
            for token in _property_tokens(doc.metadata.properties):
                _post(self._prop_tokens, token, cid)
        for attr in doc.attributes:
            self._columns.add(attr.key, attr.value, cid)
        for key, raw in doc.metadata.properties.items():
            self._columns.add(key, TypedValue.from_text(raw), cid)
        self._layer_ids.setdefault(doc.metadata.layer.segments, set()).add(cid)
        self._order[cid] = order = doc.order_key()
        self._timestamps.add(order)
        if doc.bbox is not None:
            b = doc.bbox
            self._spatial.add(cid, (b.min_x, b.min_y, b.max_x, b.max_y))

    def _apply_metadata(self, ids, delta: MetadataDelta) -> None:
        # column entries of changed property values are removed all at once:
        # by binary search for up to _FEW chunks, and past that as in a large
        # delete, so a delta over many chunks costs one pass per column
        gone, added = [], []
        for chunk_id in ids:
            self._lines.pop(chunk_id, None)
            doc = self._docs[chunk_id]
            old_meta = doc.metadata
            new_meta = old_meta.with_delta(delta)
            # by lowered tag: dropping "Berlin" keeps a remaining "berlin" posted
            old_tags = {tag.lower() for tag in old_meta.tags}
            new_tags = {tag.lower() for tag in new_meta.tags}
            for tag in old_tags - new_tags:
                _unpost(self._tag_ids, tag, chunk_id)
            for tag in new_tags - old_tags:
                _post(self._tag_ids, tag, chunk_id)
            old_tokens = _property_tokens(old_meta.properties)
            new_tokens = _property_tokens(new_meta.properties)
            for token in old_tokens - new_tokens:
                _unpost(self._prop_tokens, token, chunk_id)
            for token in new_tokens - old_tokens:
                _post(self._prop_tokens, token, chunk_id)
            old_props, new_props = old_meta.properties, new_meta.properties
            gone.extend((key, TypedValue.from_text(raw), chunk_id)
                        for key, raw in old_props.items() if new_props.get(key) != raw)
            added.extend((key, TypedValue.from_text(raw), chunk_id)
                         for key, raw in new_props.items() if old_props.get(key) != raw)
            self._docs[chunk_id] = doc.with_metadata(new_meta)
        if len(ids) > _FEW:
            # drop the chunks' entries under the changed keys, then add back
            # what the chunks hold there now: attributes and properties
            keys = {key for key, _, _ in gone}
            keys.update(key for key, _, _ in added)
            self._columns.drop_ids(set(ids), keys)
            for chunk_id in ids:
                doc = self._docs[chunk_id]
                for attr in doc.attributes:
                    if attr.key in keys:
                        self._columns.add(attr.key, attr.value, chunk_id)
                for key, raw in doc.metadata.properties.items():
                    if key in keys:
                        self._columns.add(key, TypedValue.from_text(raw), chunk_id)
            return
        self._columns.remove(gone)
        for key, value, chunk_id in added:
            self._columns.add(key, value, chunk_id)

    def _apply_delete(self, ids) -> None:
        docs = []
        by_layer: dict[tuple, list[str]] = {}
        content = self._content_tokens
        for chunk_id in ids:
            doc = self._docs.pop(chunk_id, None)
            if doc is None:
                continue
            docs.append(doc)
            self._lines.pop(chunk_id, None)
            for token in doc.tokens:  # inline: a call per (token, chunk) is a third of a delete
                held = content[token]
                if type(held) is str:
                    del content[token]
                else:
                    held.discard(chunk_id)
                    if len(held) == 1:
                        content[token] = held.pop()
            for tag in doc.metadata.tags:
                _unpost(self._tag_ids, tag.lower(), chunk_id)
            if doc.metadata.properties:
                for token in _property_tokens(doc.metadata.properties):
                    _unpost(self._prop_tokens, token, chunk_id)
            by_layer.setdefault(doc.metadata.layer.segments, []).append(chunk_id)
            self._spatial.remove(chunk_id)
        for segments, gone in by_layer.items():
            layer_ids = self._layer_ids[segments]
            layer_ids.difference_update(gone)
            if not layer_ids:
                del self._layer_ids[segments]
        if len(docs) > _FEW:
            # a deleted chunk takes every entry it holds: one pass by id per
            # column, without building the entries
            dead = {doc.chunk_id for doc in docs}
            keys = {attr.key for doc in docs for attr in doc.attributes}
            keys.update(key for doc in docs for key in doc.metadata.properties)
            self._columns.drop_ids(dead, keys)
            self._timestamps.drop_ids(dead)
            for chunk_id in dead:
                del self._order[chunk_id]
        else:
            self._columns.remove(
                [(attr.key, attr.value, doc.chunk_id) for doc in docs for attr in doc.attributes]
                + [(key, TypedValue.from_text(raw), doc.chunk_id)
                   for doc in docs for key, raw in doc.metadata.properties.items()])
            self._timestamps.remove([self._order.pop(doc.chunk_id) for doc in docs])

    # --- queries ------------------------------------------------------------

    def query(self, ast: QueryNode, layer: LayerPath = ROOT_LAYER) -> list[str]:
        """Ids of documents in the layer subtree matching ``ast``.

        Ordered by (import timestamp, sequence, id) ascending.
        """
        with self._lock:
            if layer.is_root:
                matched = self._docs if isinstance(ast, MatchAll) else self._eval(ast)
            else:
                prefix, n = layer.segments, len(layer.segments)
                layers = [ids for path, ids in self._layer_ids.items() if path[:n] == prefix]
                if isinstance(ast, MatchAll):
                    matched = set().union(*layers)
                else:
                    # each intersection walks the smaller set, so a query
                    # costs its hits, not the size of the layer subtree
                    hits = self._eval(ast)
                    matched = set().union(*(hits & ids for ids in layers))
            return sorted(matched, key=self._order.__getitem__)

    def _eval(self, node: QueryNode) -> set[str]:
        if isinstance(node, MatchAll):
            return set(self._docs)
        if isinstance(node, TextTerm):
            token = node.token.lower()
            return (
                _posted(self._content_tokens, token)
                | _posted(self._tag_ids, token)
                | _posted(self._prop_tokens, token)
            )
        if isinstance(node, BBoxTerm):
            b = node.bbox
            candidates = self._spatial.candidates((b.min_x, b.min_y, b.max_x, b.max_y))
            return {
                cid
                for cid in candidates
                if cid in self._docs
                and self._docs[cid].bbox is not None
                and self._docs[cid].bbox.intersects(b)
            }
        if isinstance(node, DateTerm):
            return self._timestamps.ids_between(
                epoch_ms_from_key(node.date.lower_key()), epoch_ms_from_key(node.date.upper_key()))
        if isinstance(node, Comparison):
            return self._columns.search(node.op, node.key, node.value)
        if isinstance(node, Logical):
            parts = [self._eval(c) for c in node.children]
            if node.op is LogicalOp.AND:
                out = parts[0]
                for p in parts[1:]:
                    out &= p
                return out
            union: set[str] = set()
            for p in parts:
                union |= p
            if node.op is LogicalOp.OR:
                return union
            return set(self._docs) - union  # NOT
        raise TypeError(f"cannot evaluate {node!r}")

    # --- introspection -------------------------------------------------------

    def get_document(self, chunk_id: str) -> IndexDocument | None:
        with self._lock:
            return self._docs.get(chunk_id)

    def all_ids(self) -> list[str]:
        with self._lock:
            return list(self._docs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)


def _property_tokens(properties: dict) -> set[str]:
    tokens: set[str] = set()
    for value in properties.values():
        tokens |= tokenize(value)
    return tokens


def _post(table: dict, key: str, chunk_id: str) -> None:
    """Add ``chunk_id`` to the postings of ``key``."""
    held = table.get(key)
    if held is None:
        table[key] = chunk_id
    elif type(held) is str:
        if held != chunk_id:
            table[key] = {held, chunk_id}
    else:
        held.add(chunk_id)


def _unpost(table: dict, key: str, chunk_id: str) -> None:
    """Remove ``chunk_id`` from the postings of ``key``, if it is there."""
    held = table.get(key)
    if held is None:
        return
    if type(held) is str:
        if held == chunk_id:
            del table[key]
    else:
        held.discard(chunk_id)
        if len(held) == 1:
            table[key] = held.pop()


def _posted(table: dict, key: str) -> set[str]:
    """A new set of the chunk ids posted under ``key``."""
    held = table.get(key)
    if held is None:
        return set()
    return {held} if type(held) is str else set(held)
