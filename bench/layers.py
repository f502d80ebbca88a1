"""Per-layer metrics from the spans of a traced run.

A layer is the first dot-separated part of a span name (``store.put`` is
in ``store``). Self time is a span's duration minus the time of its child
spans in other layers; ``os.fsync`` counts as part of the layer that
called it. Per-call latencies (``*_ms_p50``) are whole call times, as the
caller sees them. Rates that a workload has no work for (``splitter.xml_mbps``
on a GeoJSON-only workload, say) read 0.
"""

from __future__ import annotations

import json
from collections import defaultdict

from harness import percentile

# (name, unit, which direction is better)
PER_LAYER = [
    ("splitter.xml_mbps", "MB/s", "higher"),
    ("splitter.geojson_mbps", "MB/s", "higher"),
    ("extract.xml_docs_per_s", "1/s", "higher"),
    ("extract.geojson_docs_per_s", "1/s", "higher"),
    ("store.put_ms_p50", "ms", "lower"),
    ("store.put_ms_p99", "ms", "lower"),
    ("store.fsyncs_per_chunk", "count", "lower"),
    ("store.get_ms_p50", "ms", "lower"),
    ("store.get_parents_ms_p50", "ms", "lower"),
    ("store.reads_per_exported_chunk", "count", "lower"),
    ("store.reads_per_indexed_chunk", "count", "lower"),
    ("store.update_metadata_ms_p50", "ms", "lower"),
    ("disk_bytes_per_input_byte", "ratio", "lower"),
    ("index.add_us_per_doc_first", "us", "lower"),
    ("index.add_us_per_doc_last", "us", "lower"),
    ("index.add_growth", "ratio", "lower"),
    ("index.query_ms.text", "ms", "lower"),
    ("index.query_ms.bbox", "ms", "lower"),
    ("index.query_ms.comparison", "ms", "lower"),
    ("index.query_ms.date", "ms", "lower"),
    ("index.query_ms.logical", "ms", "lower"),
    ("index.query_ms.match_all", "ms", "lower"),
    ("index.update_ms_p50", "ms", "lower"),
    ("index.delete_ms_p50", "ms", "lower"),
    ("spatial.rebuilds", "count", "lower"),
    ("spatial.rebuild_s", "s", "lower"),
    ("spatial.candidates_per_hit", "ratio", "lower"),
    ("segments.append_ms_p50", "ms", "lower"),
    ("segments.compactions", "count", "lower"),
    ("segments.compact_s", "s", "lower"),
    ("segments.log_bytes_per_doc", "bytes", "lower"),
    ("segments.replay_docs_per_s", "1/s", "higher"),
    ("reconcile.s", "s", "lower"),
    ("reconcile.reads_per_chunk", "count", "lower"),
    ("app.index_lag_ms_p50", "ms", "lower"),
    ("app.index_lag_ms_p99", "ms", "lower"),
    ("parser.parse_us_p50", "us", "lower"),
    ("merger.mbps", "MB/s", "higher"),
    ("httpd.search_overhead_ms_p50", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

_QUERY_KINDS = {"TextTerm": "text", "BBoxTerm": "bbox", "Comparison": "comparison",
                "DateTerm": "date", "Logical": "logical", "MatchAll": "match_all"}
_READS = ("store.get", "store.get_parents")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Trace:
    """The spans of one server process, indexed for the summaries below."""

    def __init__(self, path):
        with open(path) as f:
            data = json.load(f)
        self.spans = data["spans"]
        self.index_lag = data["index_lag"]
        self.by_id = {s[0]: s for s in self.spans}
        self.by_name = defaultdict(list)
        self.by_request = defaultdict(list)
        self._other = defaultdict(float)
        for s in self.spans:
            self.by_name[s[1]].append(s)
            self.by_request[s[5]].append(s)
            parent = self.by_id.get(s[4])
            if parent is not None and s[1] != "os.fsync" and _layer(s[1]) != _layer(parent[1]):
                self._other[s[4]] += s[3] - s[2]

    def named(self, name: str) -> list:
        return [s for s in self.by_name.get(name, ()) if s[6] != "error"]

    def self_time(self, span) -> float:
        return span[3] - span[2] - self._other.get(span[0], 0.0)

    def ancestor(self, span, prefix: str):
        parent = self.by_id.get(span[4])
        while parent is not None:
            if parent[1].startswith(prefix):
                return parent
            parent = self.by_id.get(parent[4])
        return None

    def outer_reads(self) -> list:
        """Store reads not made from inside another store call."""
        return [s for name in _READS for s in self.named(name) if self.ancestor(s, "store.") is None]


def _p50_ms(spans) -> float:
    return percentile([s[3] - s[2] for s in spans], 50) * 1e3


def summarize(main: Trace, restart: Trace, facts: dict) -> dict:
    """Per-layer metrics of one traced workload run.

    ``main`` holds the spans of the measured server, ``restart`` those of
    the restarted one; ``facts`` are the client-side counts the workload
    recorded (see ``workloads.Result.trace``).
    """
    m = {}
    formats = {s[5]: s[6] for s in main.named("splitter.split_auto")}
    split_s, body = defaultdict(float), defaultdict(int)
    for s in main.spans:
        fmt = formats.get(s[5])
        if fmt is None or s[6] == "error":
            continue
        if s[1] in ("splitter.split_auto", "splitter.pull"):
            split_s[fmt] += main.self_time(s)
        elif s[1] == "httpd.body_read":
            body[fmt] += s[6]
    extract_n, extract_s = defaultdict(int), defaultdict(float)
    for trace in (main, restart):
        for s in trace.named("extract.build_document"):
            extract_n[s[6]] += 1
            extract_s[s[6]] += trace.self_time(s)
    for fmt, key in (("XML", "xml"), ("GEOJSON", "geojson")):
        m[f"splitter.{key}_mbps"] = _ratio(body[fmt], split_s[fmt]) / 1e6
        m[f"extract.{key}_docs_per_s"] = _ratio(extract_n[fmt], extract_s[fmt])

    puts = main.named("store.put")
    put_ms = [(s[3] - s[2]) * 1e3 for s in puts]
    m["store.put_ms_p50"] = percentile(put_ms, 50)
    m["store.put_ms_p99"] = percentile(put_ms, 99)
    put_fsyncs = sum(1 for s in main.named("os.fsync")
                     if (main.ancestor(s, "store.") or [None, ""])[1] == "store.put")
    m["store.fsyncs_per_chunk"] = _ratio(put_fsyncs, len(puts))
    m["store.get_ms_p50"] = _p50_ms(main.named("store.get"))
    m["store.get_parents_ms_p50"] = _p50_ms(main.named("store.get_parents"))
    searches = {s[5] for s in main.named("app.search")}
    reads = main.outer_reads()
    m["store.reads_per_exported_chunk"] = _ratio(
        sum(1 for s in reads if s[5] in searches), facts["exported_chunks"])
    m["store.reads_per_indexed_chunk"] = _ratio(
        sum(1 for s in reads if s[5] is None and main.ancestor(s, "server.reconcile") is None),
        facts["indexed_chunks"])
    m["store.update_metadata_ms_p50"] = _p50_ms(main.named("store.update_metadata"))
    m["disk_bytes_per_input_byte"] = facts["disk_bytes_per_input_byte"]

    adds = [s for s in main.named("index.add_documents") if main.ancestor(s, "server.reconcile") is None]

    def us_per_doc(window) -> float:
        inside = [s for s in adds if window[0] <= s[2] <= window[1]]
        return _ratio(sum(s[3] - s[2] for s in inside), sum(s[6] for s in inside)) * 1e6

    windows = facts["windows"]
    first = us_per_doc(windows[0]) if windows else 0.0
    last = us_per_doc(windows[-1]) if windows else 0.0
    m["index.add_us_per_doc_first"] = first
    m["index.add_us_per_doc_last"] = last
    m["index.add_growth"] = _ratio(last, first)
    by_kind = defaultdict(list)
    for s in main.named("index.query"):
        by_kind[_QUERY_KINDS.get(s[6], s[6])].append(s)
    for kind in _QUERY_KINDS.values():
        m[f"index.query_ms.{kind}"] = _p50_ms(by_kind[kind])
    m["index.update_ms_p50"] = _p50_ms(main.named("index.update_metadata"))
    m["index.delete_ms_p50"] = _p50_ms(main.named("index.delete"))

    rebuilds = main.named("spatial.rebuild")
    m["spatial.rebuilds"] = len(rebuilds)
    m["spatial.rebuild_s"] = sum(s[3] - s[2] for s in rebuilds)
    lookups = main.named("spatial.candidates")
    m["spatial.candidates_per_hit"] = _ratio(sum(s[6][0] for s in lookups), sum(s[6][1] for s in lookups))

    m["segments.append_ms_p50"] = _p50_ms(main.named("segments.append"))
    m["segments.compactions"] = len(main.named("segments.compact"))
    m["segments.compact_s"] = sum(s[3] - s[2] for s in main.named("index.compact"))
    m["segments.log_bytes_per_doc"] = _ratio(facts["log_bytes"], facts["live_docs"])
    replays = restart.named("index._replay")
    m["segments.replay_docs_per_s"] = _ratio(sum(s[6] for s in replays), sum(s[3] - s[2] for s in replays))

    m["reconcile.s"] = sum(s[3] - s[2] for s in restart.named("server.reconcile"))
    m["reconcile.reads_per_chunk"] = _ratio(
        sum(1 for s in restart.outer_reads() if restart.ancestor(s, "server.reconcile") is not None),
        facts["restart_chunks"])

    m["app.index_lag_ms_p50"] = percentile(main.index_lag, 50) * 1e3
    m["app.index_lag_ms_p99"] = percentile(main.index_lag, 99) * 1e3
    m["parser.parse_us_p50"] = percentile([s[3] - s[2] for s in main.named("parser.parse")], 50) * 1e6

    merged, merge_s = 0, 0.0
    for name in ("merger.merge", "merger.pull"):
        for s in main.named(name):
            merge_s += main.self_time(s)
            if name == "merger.pull":
                merged += s[6]
    m["merger.mbps"] = _ratio(merged, merge_s) / 1e6

    overheads = []
    for request, client_s in facts["searches"].items():
        spans = main.by_request.get(request, ())
        served = sum(s[3] - s[2] for s in spans if s[1] in ("app.search", "merger.pull"))
        overheads.append((client_s - served) * 1e3)
    m["httpd.search_overhead_ms_p50"] = percentile(overheads, 50)
    return m
