"""Run ``georocket.server`` with spans recorded at every layer boundary.

Usage: ``python traced_server.py SPANS_FILE [server arguments]``

The launcher replaces the public names of each layer where the server
looks them up (``georocket.server.app.split_auto`` and friends, and the
methods of the store, index, spatial-tree and segment-log classes, plus
``os.fsync``) with wrappers that record a span, then calls
``georocket.server.__main__.main``. Nothing under ``src/`` changes, and the
process layout is the same as for an untraced server, so the difference
between a traced and an untraced run is the tracing overhead.

A span is ``[id, name, start, end, parent id, request id, info]``, with
times from ``time.monotonic()`` (one clock for every process on the
machine). The request id is the client's ``X-Bench-Id`` header. Spans stay
in memory and are written to SPANS_FILE as JSON when ``main`` returns.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.index_lag: list[float] = []  # seconds from store.put to add_documents return
        self._put_done: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id, name, start, parent, info) -> float:
        end = time.monotonic()
        self.spans.append((span_id, name, start, end, parent,
                           getattr(self._local, "request", None), info))
        return end

    def wrap(self, name: str, fn, info=None, after=None):
        """Wrap ``fn`` in a span; ``info(args, result)`` annotates it and
        ``after(args, result, end)`` sees every successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._record(span_id, name, start, parent, "error")
                raise
            stack.pop()
            end = self._record(span_id, name, start, parent, info(args, result) if info else None)
            if after is not None:
                after(args, result, end)
            return result

        return traced

    def pulls(self, name: str, iterable, size=len):
        """Iterate ``iterable`` with one span per pull, annotated with ``size(item)``."""
        it = iter(iterable)
        while True:
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.monotonic()
            try:
                item = next(it)
            except StopIteration:
                stack.pop()
                self._record(span_id, name, start, parent, 0)
                return
            except BaseException:
                stack.pop()
                self._record(span_id, name, start, parent, "error")
                raise
            stack.pop()
            self._record(span_id, name, start, parent, size(item))
            yield item

    def wrap_request(self, fn):
        """Root span of one HTTP request, keyed by the client's X-Bench-Id."""

        inner = self.wrap("httpd.request", fn, info=lambda a, r: a[0].command)

        @functools.wraps(fn)
        def traced(handler):
            self._local.request = handler.headers.get("X-Bench-Id") or f"r{next(self._ids)}"
            try:
                return inner(handler)
            finally:
                self._local.request = None

        return traced

    def put_done(self, args, result, end) -> None:
        self._put_done[args[1].id] = end

    def docs_added(self, args, result, end) -> None:
        if isinstance(args[1], list):
            for doc in args[1]:
                put = self._put_done.pop(doc.chunk_id, None)
                if put is not None:
                    self.index_lag.append(end - put)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "index_lag": self.index_lag}, f)


def install(tracer: Tracer) -> None:
    from georocket.indexer import ChunkIndex, SpatialIndex
    from georocket.indexer.segments import SegmentLog
    from georocket.indexer.spatial import _intersects
    from georocket.server.httpd import _Handler
    from georocket.store import FileSystemStore, MemoryStore

    def methods(cls, layer, names, **extra):
        for name in names:
            setattr(cls, name, tracer.wrap(f"{layer}.{name}", cls.__dict__[name],
                                           **extra.get(name, {})))

    def split_auto(fn):
        @functools.wraps(fn)
        def traced(blocks):
            fmt, chunks = fn(tracer.pulls("httpd.body_read", blocks))
            return fmt, tracer.pulls("splitter.pull", chunks, size=lambda c: len(c.content))
        return tracer.wrap("splitter.split_auto", traced, info=lambda a, r: r[0].value)

    def merge(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fmt, stream = fn(*args, **kwargs)
            return fmt, tracer.pulls("merger.pull", stream)
        return tracer.wrap("merger.merge", traced)

    def candidates_info(args, result):
        spatial, rect = args[0], tuple(float(v) for v in args[1])
        hits = sum(1 for p in result if p in spatial._rects and _intersects(spatial._rects[p], rect))
        return [len(result), hits]

    # the package re-exports functions named like these modules
    app = importlib.import_module("georocket.server.app")
    reconcile = importlib.import_module("georocket.server.reconcile")
    app.split_auto = split_auto(app.split_auto)
    app.merge = merge(app.merge)
    app.parse_query = tracer.wrap("parser.parse", app.parse_query)
    doc_format = lambda a, r: a[0].metadata.format.value  # noqa: E731
    app.build_document = tracer.wrap("extract.build_document", app.build_document, info=doc_format)
    reconcile.build_document = tracer.wrap("extract.build_document", reconcile.build_document,
                                           info=doc_format)
    methods(app.GeoRocketApp, "app", ["import_stream", "search", "delete", "update_metadata"])
    methods(app.GeoRocketApp, "server", ["reconcile"])
    for cls in (MemoryStore, FileSystemStore):
        methods(cls, "store", ["put", "get", "get_parents", "delete", "update_metadata", "scan",
                               "layer_exists"], put={"after": tracer.put_done})
    methods(ChunkIndex, "index", ["add_documents", "update_metadata", "delete", "query", "compact",
                                  "_replay"],
            add_documents={"info": lambda a, r: r, "after": tracer.docs_added},
            query={"info": lambda a, r: type(a[1]).__name__},
            _replay={"info": lambda a, r: len(a[0])})
    methods(SpatialIndex, "spatial", ["add", "remove", "candidates", "rebuild"],
            candidates={"info": candidates_info})
    methods(SegmentLog, "segments", ["append", "compact"])
    os.fsync = tracer.wrap("os.fsync", os.fsync)
    for verb in ("do_GET", "do_POST", "do_PUT", "do_DELETE"):
        setattr(_Handler, verb, tracer.wrap_request(_Handler.__dict__[verb]))


def main(argv: list[str]) -> int:
    from georocket.server.__main__ import main as server_main

    spans_file, server_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return server_main(server_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
