"""Embedded search index over chunk documents.

Combines an inverted token index, sorted typed columns of attribute and
property values, a packed spatial tree, and import timestamps, behind one
object. A text term is one predicate, as in the reference evaluator: the
token is among the chunk's content tokens, its lowered tags or its
property-value tokens. So one postings table holds, for each chunk, the
distinct union of the three, and a text term costs one lookup to match, to
estimate or to check on a candidate. The spatial tree's hits are exact, so a
bbox term returns them as they are. Queries are answered by set algebra
over these structures and must return exactly the ids the reference
evaluator accepts; the test suite enforces that equivalence.

Comparisons are answered from the columns by binary search in O(log n +
matches) (see ``columns``): text EQ is case-insensitive while the ordering
operators compare code points, dates compare as intervals at their
granularity, and a NaN value satisfies only LTE and GTE. Date terms are
answered the same way from the import timestamps, sorted. Columns and
timestamps sort lazily: adds wait behind the part in order until a search
reads them, and a delete keeps that part in order, so a batch added and
deleted again between two searches costs neither of them a sort.

Conjunctions are planned by cost, as Lucene plans them: each child of an
AND gets an estimate in O(log n) at most (posting lengths, the width of a
sorted run from the same bounds a search reads, or the live-document count
for a bbox, a match-all or a nested operator); the smallest is evaluated in
full and the others, by increasing estimate, are intersected with its
candidates, or checked on each candidate when the candidates are far fewer
than their estimate. A NOT in an AND subtracts its children or rejects
candidates one by one instead of building the complement of the index, so
an AND costs about its cheapest child, not the size of the index. The
per-candidate check is the reference evaluator on the candidate's document
(a text term, a postings lookup), and an estimate only chooses the plan:
every plan returns the same ids. ``query`` takes a trace list that records
how each node was evaluated (``explain=true`` on a search).

Memory: a posting held by one chunk (most content tokens of a feature:
its coordinates, its name) is the bare id string, and a set is made only
when a second chunk posts the token; the set turns back into the bare id
when it drops to one chunk. ``_post`` and ``_unpost`` are the only ways
in: an add posts a chunk's tokens, a delete unposts them, and an update
unposts only the metadata tokens that leave the chunk and are not content
tokens, and posts only those that arrive. Documents keep their tokens as one
sorted tuple, and the document, metadata and value dataclasses use slots.
Together with the kept log line, a 243-byte GeoJSON feature costs about
3.7-3.8 KB of index (tracemalloc, 10 000 and 40 000 features, log on),
linear in the number of documents.

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
import time

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
    render,
)
from ..query.evaluate import evaluate_oracle
from ..text import tokenize
from .columns import _FEW, SortedEntries, TypedColumns
from .documents import IndexDocument
from .segments import SegmentLog, encode
from .spatial import SpatialIndex

# A conjunction checks a child on each candidate, instead of evaluating it
# in full, when the candidates are fewer than the child's estimate by this
# factor. Over 8 000 bench features, checking a comparison or a date term on
# a document with the reference evaluator took 1.5-1.9 µs, and evaluating it
# in full 50-120 ns per id, a ratio of 15-28; a text term's postings lookup
# (0.4 µs) is cheaper, and a few extra of those cost little either way.
_CHECK_FACTOR = 16


class ChunkIndex:
    def __init__(self, path=None):
        """Open (or create) an index; ``path=None`` keeps it in memory only."""
        self._lock = threading.RLock()
        self._docs: dict[str, IndexDocument] = {}
        # postings: token -> the one chunk id holding it, or a set of two or
        # more; a chunk holds its content tokens, lowered tags and
        # property-value tokens
        self._postings: dict[str, str | set[str]] = {}
        self._columns = TypedColumns()
        self._layer_ids: dict[tuple, set[str]] = {}  # keyed by LayerPath.segments
        self._order: dict[str, tuple] = {}  # id -> order_key(); metadata never changes it
        self._timestamps = SortedEntries()  # the order keys, (import timestamp, sequence, id)
        self._spatial = SpatialIndex()
        self._lines: dict[str, str] = {}  # id -> its encoded add line, filled only with a log
        self.compactions = 0  # compactions run since open; read without the lock
        self._log = SegmentLog(path) if path is not None else None
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
        _post(self._postings, _chunk_tokens(doc), cid)
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
            # by lowered token: dropping "Berlin" keeps a remaining "berlin"
            # posted, and so does a content token of the chunk
            old_tokens = _metadata_tokens(old_meta)
            new_tokens = _metadata_tokens(new_meta)
            _unpost(self._postings, (old_tokens - new_tokens).difference(doc.tokens), chunk_id)
            _post(self._postings, (new_tokens - old_tokens).difference(doc.tokens), chunk_id)
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
        for chunk_id in ids:
            doc = self._docs.pop(chunk_id, None)
            if doc is None:
                continue
            docs.append(doc)
            self._lines.pop(chunk_id, None)
            _unpost(self._postings, _chunk_tokens(doc), chunk_id)
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

    def query(self, ast: QueryNode, layer: LayerPath = ROOT_LAYER, trace=None) -> list[str]:
        """Ids of documents in the layer subtree matching ``ast``.

        Ordered by (import timestamp, sequence, id) ascending. With a
        ``trace`` list, each node evaluated appends an entry to it (see
        ``_eval``).
        """
        with self._lock:
            everything = isinstance(ast, MatchAll) and trace is None
            if layer.is_root:
                matched = self._docs if everything else self._eval(ast, trace)
            else:
                prefix, n = layer.segments, len(layer.segments)
                layers = [ids for path, ids in self._layer_ids.items() if path[:n] == prefix]
                if everything:
                    matched = set().union(*layers)
                else:
                    # each intersection walks the smaller set, so a query
                    # costs its hits, not the size of the layer subtree
                    hits = self._eval(ast, trace)
                    matched = set().union(*(hits & ids for ids in layers))
            return sorted(matched, key=self._order.__getitem__)

    def _eval(self, node: QueryNode, trace=None, depth: int = 0) -> set[str]:
        """A new set of the ids matching ``node``, evaluated in full.

        With a ``trace`` list, the node appends one entry to it before its
        children do, and so does each node evaluated under it: its rendered
        text, depth, estimate, strategy, candidates in and out, and time in
        microseconds. This node's strategy is ``evaluate``, and it takes no
        candidates in.
        """
        if trace is None:
            return self._match(node, None, depth)
        entry = _entry(trace, node, depth, self._estimate(node), "evaluate", None)
        out = self._match(node, trace, depth)
        _done(entry, out)
        return out

    def _match(self, node: QueryNode, trace, depth: int) -> set[str]:
        if isinstance(node, MatchAll):
            return set(self._docs)
        if isinstance(node, TextTerm):
            held = self._postings.get(node.token.lower(), ())
            return {held} if type(held) is str else set(held)
        if isinstance(node, BBoxTerm):
            b = node.bbox
            return self._spatial.candidates((b.min_x, b.min_y, b.max_x, b.max_y))
        if isinstance(node, DateTerm):
            return self._timestamps.ids_between(*_date_bounds(node))
        if isinstance(node, Comparison):
            return self._columns.search(node.op, node.key, node.value)
        if isinstance(node, Logical):
            if node.op is LogicalOp.AND:
                return self._conjunction(node.children, trace, depth + 1)
            union: set[str] = set()
            for child in node.children:
                union |= self._eval(child, trace, depth + 1)
            if node.op is LogicalOp.OR:
                return union
            return set(self._docs) - union  # NOT
        raise TypeError(f"cannot evaluate {node!r}")

    def _conjunction(self, children, trace, depth: int) -> set[str]:
        """The ids matching every one of ``children``, planned by cost.

        The child with the smallest estimate is evaluated in full (``lead``)
        and gives the candidates; the others follow in order of increasing
        estimate. Each is intersected with the candidates (``intersect``),
        unless they are fewer than its estimate by ``_CHECK_FACTOR``: then
        each candidate's document is checked for it (``check``). A NOT
        subtracts the union of its children (``subtract``), whose estimates
        it sums, or rejects candidates one by one (``reject``), so it does
        not build the complement of the index. Estimates choose only the
        order and the strategies; every plan gives the same ids.
        """
        plan = sorted((self._estimate(c), i, c) for i, c in enumerate(children))
        estimate, _, lead = plan[0]
        entry = None if trace is None else _entry(trace, lead, depth, estimate, "lead", None)
        candidates = self._match(lead, trace, depth)
        _done(entry, candidates)
        for estimate, _, child in plan[1:]:
            if not candidates:
                break
            negated = isinstance(child, Logical) and child.op is LogicalOp.NOT
            if negated:
                estimate = sum(self._estimate(c) for c in child.children)
            check = len(candidates) * _CHECK_FACTOR < estimate
            if trace is not None:
                strategy = ("reject" if check else "subtract") if negated else (
                    "check" if check else "intersect")
                entry = _entry(trace, child, depth, estimate, strategy, len(candidates))
            if check:
                candidates = set(filter(self._checker(child), candidates))
            elif negated:
                for grandchild in child.children:
                    candidates -= self._eval(grandchild, trace, depth + 1)
            else:
                candidates &= self._match(child, trace, depth)
            _done(entry, candidates)
        return candidates

    def _estimate(self, node: QueryNode) -> int:
        """A cheap bound on how many ids ``node`` matches: posting lengths
        for a text term, the width of the sorted run a comparison or a date
        term reads, and the live-document count for anything else."""
        if isinstance(node, TextTerm):
            held = self._postings.get(node.token.lower(), ())
            return 1 if type(held) is str else len(held)
        if isinstance(node, Comparison):
            return self._columns.count(node.op, node.key, node.value)
        if isinstance(node, DateTerm):
            return self._timestamps.count_between(*_date_bounds(node))
        return len(self._docs)

    def _checker(self, node: QueryNode):
        """A test of whether the document of an id matches ``node``: a text
        term by membership in the postings, anything else by the reference
        evaluator on the document."""
        if isinstance(node, TextTerm):
            held = self._postings.get(node.token.lower(), ())
            return held.__eq__ if type(held) is str else held.__contains__
        docs = self._docs
        return lambda cid: evaluate_oracle(node, docs[cid])

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


def _metadata_tokens(meta: ChunkMetadata) -> set[str]:
    """The lowered tags and property-value tokens of ``meta``."""
    tokens = {tag.lower() for tag in meta.tags}
    for value in meta.properties.values():
        tokens |= tokenize(value)
    return tokens


def _chunk_tokens(doc: IndexDocument):
    """The distinct tokens a chunk is posted under: its content tokens, and
    its metadata tokens when it has any."""
    meta = doc.metadata
    if meta.tags or meta.properties:
        return _metadata_tokens(meta).union(doc.tokens)
    return doc.tokens


# a call per token was a third of a delete, so these loop inside
def _post(table: dict, tokens, chunk_id: str) -> None:
    """Add ``chunk_id`` to the postings of each of ``tokens``: distinct, and
    none of them posted for the chunk yet."""
    for token in tokens:
        held = table.get(token)
        if held is None:
            table[token] = chunk_id
        elif type(held) is str:
            table[token] = {held, chunk_id}
        else:
            held.add(chunk_id)


def _unpost(table: dict, tokens, chunk_id: str) -> None:
    """Remove ``chunk_id`` from the postings of each of ``tokens``: distinct,
    and each of them posted for the chunk."""
    for token in tokens:
        held = table[token]
        if type(held) is str:
            del table[token]
        else:
            held.discard(chunk_id)
            if len(held) == 1:
                table[token] = held.pop()


def _entry(trace: list, node: QueryNode, depth: int, estimate: int, strategy: str,
           given: int | None) -> dict:
    """Append the trace entry of one node, timed from now until ``_done``."""
    entry = {"node": render(node), "depth": depth, "estimate": estimate,
             "strategy": strategy, "in": given, "out": None, "us": time.perf_counter()}
    trace.append(entry)
    return entry


def _done(entry: dict | None, out: set) -> None:
    if entry is not None:
        entry["out"] = len(out)
        entry["us"] = round((time.perf_counter() - entry["us"]) * 1e6, 1)


def _date_bounds(node: DateTerm) -> tuple[int, int]:
    """The import timestamps (epoch ms) of a date term's half-open interval."""
    return epoch_ms_from_key(node.date.lower_key()), epoch_ms_from_key(node.date.upper_key())
