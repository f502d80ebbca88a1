"""The benchmark workloads.

Each workload starts its own server subprocesses on fresh directories under
the run's temporary directory, drives them over HTTP from at most two client
threads, checks every output, and returns its end-to-end metrics.

``citygml-roundtrip`` and ``geojson-index-ingest`` preload a corpus and then
repeat identical rounds until ``--seconds`` have passed (see ``Rounds``);
their metrics are medians over rounds. ``geojson-fs-ingest`` and
``mixed-search-write`` do a fixed amount of work, with a search loop that
also runs for at least ``--seconds``.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

import gen
from harness import BenchError, Client, Server, allocated_bytes, file_bytes, percentile, tail
from oracle import Oracle

from georocket.model import Format

COLD_STARTS = 7
UPDATE_EVERY = 10  # one op in ten of a search loop is a metadata update
QUERY_POOL = 80
CANDIDATES = 3  # generated queries per query kept
EXPORT_REPEATS = 5  # an export from the memory store takes milliseconds
FS_EXPORTS = 2
MIN_ROUNDS = 3
ROUND_OPS = 60  # searches and updates per round
ROUND_EXPORTS = 3
CITY_DOCS = 3
CITY_RESTART_EVERY = 4
INDEX_IMPORTS = 4
INDEX_RESTART_EVERY = 4
# A round's index ops are its features, one delete, and the burst's updates.
# With 2 048 of them the index compacts (every 8 192 ops) once every four
# rounds at the same point, and repacks its spatial tree (past 1 024 pending
# inserts) once in every round, so whole cycles of four rounds are alike.
INDEX_CYCLE = 4
INDEX_ROUND_FEATURES = 8192 // INDEX_CYCLE - 1 - ROUND_OPS // UPDATE_EVERY
MAX_FAILURE_NOTES = 20


@dataclass
class Context:
    checkout: Path
    tmp: Path
    seed: int
    seconds: float
    scale: float
    spans_dir: Path | None = None  # set for the traced pass
    servers: list = field(default_factory=list)

    def server(self, name: str, config: dict) -> Server:
        spans = self.spans_dir / f"{name}.json" if self.spans_dir else None
        server = Server(self.checkout, self.tmp / "servers" / name, config, spans)
        self.servers.append(server)
        return server

    def stop_servers(self) -> None:
        """Stop every server still running, e.g. after a failed request."""
        for server in self.servers:
            server.stop()

    def size(self, full: int, least: int = 2) -> int:
        return max(least, round(full * self.scale))


class Checks:
    """Counts attempted operations and failed ones (non-2xx, FAILED task, wrong output)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < MAX_FAILURE_NOTES:
                    self.notes.append(what)
        return ok


@dataclass
class Result:
    metrics: dict
    info: dict
    checks: Checks
    trace: dict = field(default_factory=dict)  # client-side facts for the per-layer summary


def store_path(layer: str) -> str:
    return "/store" + (layer if layer != "/" else "/")


def feature_count(fmt: Format, body: bytes) -> int:
    if fmt is Format.GEOJSON:
        return len(json.loads(body)["features"])
    # the generated CityGML has two kinds of top-level children
    return body.count(b"\n<core:cityObjectMember>") + body.count(b"\n<gml:boundedBy>")


def normalized(xml: bytes) -> bytes:
    return re.sub(rb">\s+<", b"><", xml).strip()


def cold_starts(ctx: Context, name: str, config_for) -> tuple[float, Server]:
    """Start COLD_STARTS servers on fresh directories; keep the last one running.

    Returns the median start-up time and the running server.
    """
    times = []
    for i in range(COLD_STARTS):
        server = ctx.server(f"{name}-start{i}", config_for(ctx.tmp / "data" / f"{name}{i}"))
        times.append(server.start())
        if i + 1 < COLD_STARTS:
            server.stop()
    return statistics.median(times), server


@dataclass
class Imports:
    """Client-side record of imports: MB/s to the 202 and to FINISHED.

    The time to FINISHED runs from sending the request to the task's
    ``endedAt``, so it does not depend on how often the task is polled.
    The rates are total MB over total seconds: the index compacts and
    repacks every so many operations, so single imports of a series come
    in several speeds, and a median would jump between them.
    """

    bytes: int = 0
    ack_s: float = 0.0
    finished_s: float = 0.0
    windows: list = field(default_factory=list)  # (start, end) monotonic, for the trace

    def run(self, client: Client, checks: Checks, layer: str, body: bytes, chunks: int, tag: str) -> bool:
        sent_wall, started = time.time(), time.monotonic()
        status, reply, ack = client.request("POST", store_path(layer), body, bench_id=tag)
        if not checks.record(status == 202, f"import {layer}: HTTP {status} {reply[:200]!r}"):
            return False
        task = client.wait_task(json.loads(reply)["taskId"])
        ok = task["state"] == "FINISHED" and task["chunksIndexed"] == chunks
        if not checks.record(ok, f"import {layer}: {task}"):
            return False
        finished = max(ack, task["endedAt"] / 1000.0 - sent_wall)
        self.bytes += len(body)
        self.ack_s += ack
        self.finished_s += finished
        self.windows.append((started, started + finished))
        return True

    def metrics(self) -> dict:
        return {"import_ack_mbps": self.bytes / self.ack_s / 1e6,
                "import_finished_mbps": self.bytes / self.finished_s / 1e6}


class QueryLoop:
    """Closed loop of checked searches with one metadata update in ten ops.

    Updates set or remove the ``touched`` property of one feature, selected
    by a query that matches it alone; no checked query reads that property,
    so the expected result of every search stays fixed.
    """

    def __init__(self, client: Client, checks: Checks, fmt: Format, queries, expected,
                 update_targets, rng: random.Random):
        self.client, self.checks, self.fmt, self.rng = client, checks, fmt, rng
        self.queries, self.expected = queries, expected
        self.update_targets = update_targets  # (layer, query matching one feature) pairs
        self.touched: set[str] = set()
        self.search_ms: list[float] = []
        self.update_ms: list[float] = []
        self.searches: dict[str, float] = {}  # bench id -> client seconds
        self.features = 0
        self.ops = 0
        self.elapsed = 0.0

    def run(self, searches: int, seconds: float) -> None:
        """Run ``searches`` searches, and on for at least ``seconds``."""
        started = time.monotonic()
        while len(self.search_ms) < searches or time.monotonic() < started + seconds:
            self._step()
        self.elapsed += time.monotonic() - started

    def burst(self, ops: int) -> None:
        """Run ``ops`` operations; the loop's time adds up over bursts."""
        started = time.monotonic()
        for _ in range(ops):
            self._step()
        self.elapsed += time.monotonic() - started

    def _step(self) -> None:
        n = self.ops
        if n % UPDATE_EVERY == UPDATE_EVERY - 1:
            self._update(n)
        else:
            self._search(n)
        self.ops += 1

    def _search(self, n: int) -> None:
        i = len(self.search_ms) % len(self.queries)
        layer, query = self.queries[i]
        tag = f"q{n}"
        empty_as = "&format=geojson" if self.fmt is Format.GEOJSON else ""
        status, body, seconds = self.client.request(
            "GET", f"{store_path(layer)}?search={quote(query, safe='')}{empty_as}", bench_id=tag)
        got = feature_count(self.fmt, body) if status == 200 else -1
        self.checks.record(got == self.expected[i],
                           f"search {layer} {query!r}: HTTP {status}, {got} features, "
                           f"expected {self.expected[i]}")
        self.search_ms.append(seconds * 1000.0)
        self.searches[tag] = seconds
        self.features += max(got, 0)

    def _update(self, n: int) -> None:
        layer, target = self.rng.choice(self.update_targets)
        search = quote(target, safe="")
        if target in self.touched and self.rng.random() < 0.5:
            method, path = "DELETE", f"{store_path(layer)}?search={search}&properties=touched"
            self.touched.discard(target)
        else:
            method, path = "PUT", f"{store_path(layer)}?search={search}&properties=touched:zz{n}"
            self.touched.add(target)
        status, body, seconds = self.client.request(method, path, bench_id=f"u{n}")
        got = json.loads(body).get("updated") if status == 200 else None
        self.checks.record(got == 1, f"{method} {path}: HTTP {status} {body[:200]!r}")
        self.update_ms.append(seconds * 1000.0)

    def metrics(self) -> dict:
        pct, value, samples = tail(self.search_ms)
        return {
            "search_p50_ms": percentile(self.search_ms, 50),
            "search_tail_ms": value,
            "search_qps": len(self.search_ms) / self.elapsed,
            "update_p50_ms": percentile(self.update_ms, 50),
            "search_tail_percentile": pct,
            "search_samples": samples,
            "update_samples": len(self.update_ms),
        }


def _exports(client: Client, checks: Checks, path: str, expect, repeats: int, tag: str) -> list:
    """Export ``path`` ``repeats`` times; ``expect(body)`` checks each. Returns each one's MB/s."""
    mbps = []
    for r in range(repeats):
        status, body, took = client.request("GET", path, bench_id=f"{tag}.{r}")
        checks.record(status == 200 and expect(body), f"export {path}: HTTP {status}, {len(body)} bytes")
        mbps.append(len(body) / took / 1e6)
    return mbps


def _finish(ctx, name, server, restart_configs, checks, expected_chunks, live_docs, data_dirs,
            input_bytes):
    """Peak RSS, disk footprint and the median of one timed restart per
    config in ``restart_configs``; stops every server. Disk and index-log
    sizes are read from ``data_dirs`` and the first restart config."""
    rss = server.peak_rss_mb()
    server.stop()
    disk = allocated_bytes(*data_dirs)
    index_dir = restart_configs[0].get("index", {}).get("path")
    log_bytes = file_bytes(Path(index_dir) / "segments", "*.seg") if index_dir else 0
    times = []
    for i, config in enumerate(restart_configs):
        restarted = ctx.server(f"{name}-restart{i}", config)
        try:
            times.append(restarted.start(expected_chunks))
            checks.record(True, "restart")
        finally:
            restarted.stop()
    return {
        "restart_s": statistics.median(times),
        "server_peak_rss_mb": rss,
        "disk_bytes_per_input_byte": disk / input_bytes,
    }, {"log_bytes": log_bytes, "restart_chunks": expected_chunks, "live_docs": live_docs,
        "servers": (f"{name}-start{COLD_STARTS - 1}", f"{name}-restart0")}


def _typical_queries(candidates, cycle: int, oracle: Oracle):
    """Keep QUERY_POOL of the generated queries, and their expected counts.

    The generators cycle through ``cycle`` shapes. Per slot of that cycle
    the queries whose result counts lie closest to the slot's median count
    are kept, so the size of what a shape returns, and with it the latency,
    is the same from one seed to the next. Shape order is preserved.
    """
    counts = [oracle.count(layer, q) for layer, q in candidates]
    slots = []
    for slot in range(cycle):
        members = list(range(slot, len(candidates), cycle))
        typical = statistics.median_low(counts[i] for i in members)
        members.sort(key=lambda i: (abs(counts[i] - typical), i))
        slots.append(members[: QUERY_POOL // cycle])
    kept = [slots[n % cycle][n // cycle] for n in range(cycle * (QUERY_POOL // cycle))]
    return [candidates[i] for i in kept], [counts[i] for i in kept]


def _geojson_layers(rng, prefix: str, layer_count: int, per_layer: int):
    """Features for ``layer_count`` imports, with the queries and update
    targets over them and each query's expected result count."""
    files = []
    oracle = Oracle(gen.GEOJSON_STEP)
    now_ms = int(time.time() * 1000)
    for k in range(layer_count):
        layer = f"{prefix}{k}"
        feats = [gen.geojson_feature(rng, k * per_layer + i) for i in range(per_layer)]
        for i, feat in enumerate(feats):
            oracle.add(f"{k}.{i}", feat.encode(), layer, Format.GEOJSON, now_ms)
        files.append((layer, feats))
    total = layer_count * per_layer
    layers = [layer for layer, _ in files]
    queries, expected = _typical_queries(gen.geojson_queries(rng, CANDIDATES * QUERY_POOL, total, layers),
                                         len(gen.GEOJSON_SHAPES), oracle)
    targets = [(layers[i // per_layer], f"EQ(name f{i})") for i in rng.sample(range(total), min(total, 64))]
    return files, queries, expected, targets


def _same_features(files):
    imported = [json.loads(f) for _, feats in files for f in feats]
    return lambda body: json.loads(body)["features"] == imported


# --- geojson-fs-ingest -------------------------------------------------------


def geojson_fs_ingest(ctx: Context) -> Result:
    """Four imports of small GeoJSON features into a filesystem store with an
    on-disk index, a full export, a checked search loop, then a restart.

    8 400 features make the index compact once (every 8 192 ops) and repack
    its spatial tree eight times (every 1 024 inserts).
    """
    rng = random.Random(ctx.seed)
    imports_k, per_import = 4, ctx.size(2100, 8)
    total = imports_k * per_import
    files, queries, expected, targets = _geojson_layers(rng, "/fs/l", imports_k, per_import)

    def config_for(root: Path) -> dict:
        return {"store": {"backend": "filesystem", "path": str(root / "store")},
                "index": {"path": str(root / "index")}}

    setup_s, server = cold_starts(ctx, "fs", config_for)
    config = server.config
    checks = Checks()
    client = Client(server.port)
    imports = Imports()
    for k, (layer, feats) in enumerate(files):
        imports.run(client, checks, layer, gen.feature_collection(feats), len(feats), f"i{k}")
    exports = _exports(client, checks, "/store/?search=", _same_features(files), FS_EXPORTS, "e")
    loop = QueryLoop(client, checks, Format.GEOJSON, queries, expected, targets, rng)
    loop.run(ctx.size(300, 20), ctx.seconds)
    metrics = {"setup_s": setup_s, **imports.metrics(), "export_full_mbps": statistics.median(exports),
               **loop.metrics()}
    data = Path(config["store"]["path"]).parent
    more, facts = _finish(ctx, "fs", server, [config], checks, total, total,
                          [data / "store", data / "index"], imports.bytes)
    metrics.update(more)
    return Result(
        metrics=metrics,
        info={"input_bytes": imports.bytes, "features": total, "imports": imports_k,
              "store": "filesystem", "index": "disk", "fsync": True},
        checks=checks,
        trace=dict(facts, windows=imports.windows, searches=loop.searches,
                   exported_chunks=loop.features + FS_EXPORTS * total, indexed_chunks=total,
                   headline="import_finished_mbps"),
    )


# --- rounds: the gated workloads ---------------------------------------------


@dataclass
class Rounds:
    """Closed rounds over a preloaded corpus, repeated until ``--seconds`` pass.

    A round runs a burst of checked searches and updates over the corpus,
    then imports one file into ``/scratch``, waits for ``FINISHED``, exports
    the layer and compares the export with the file, and deletes the layer
    again. Each round leaves the server as it found it, so every round does
    the same work, and the medians over rounds do not depend on how many
    fit into the run. The searches run while ``/scratch`` is empty, so their
    expected counts hold. Every ``restart_every`` rounds, starting with the
    first, ``restart(i)`` times one restart of a second server, so that the
    restarts, like the rounds, are spread over the whole run.
    """

    body: bytes
    chunks: int
    same: object  # export body -> bool
    restart: object  # i -> seconds of one checked restart
    restart_every: int
    cycle: int = 1  # the run stops after a whole number of cycles of this many rounds
    imports: Imports = field(default_factory=Imports)
    exports: list = field(default_factory=list)
    restart_s: list = field(default_factory=list)
    count: int = 0

    def run(self, ctx: Context, client: Client, checks: Checks, loop: QueryLoop) -> None:
        deadline = time.monotonic() + ctx.seconds
        while self.count < MIN_ROUNDS or self.count % self.cycle or time.monotonic() < deadline:
            r = self.count
            if r % self.restart_every == 0:
                self.restart_s.append(self.restart(len(self.restart_s)))
            loop.burst(ROUND_OPS)
            if not self.imports.run(client, checks, "/scratch", self.body, self.chunks, f"s{r}"):
                return
            self.exports += _exports(client, checks, "/store/scratch?search=", self.same,
                                     ROUND_EXPORTS, f"e{r}")
            status, reply, _ = client.request("DELETE", "/store/scratch?all=true", bench_id=f"d{r}")
            deleted = json.loads(reply).get("deleted") if status == 200 else None
            checks.record(deleted == self.chunks, f"delete /scratch: HTTP {status} {reply[:200]!r}")
            self.count += 1

    def metrics(self) -> dict:
        return {**self.imports.metrics(), "export_full_mbps": statistics.median(self.exports),
                "restart_s": statistics.median(self.restart_s)}


def _timed_restart(ctx: Context, checks: Checks, name: str, config: dict) -> float:
    server = ctx.server(name, config)
    try:
        seconds = server.start(0)
        checks.record(True, "restart")
        return seconds
    finally:
        server.stop()


def _rounds_result(ctx, name, server, checks, loop, rounds, preload, base_chunks, setup_s,
                   index_dir, info) -> Result:
    """Stops the measured server; ``index_dir`` is the index as the preload left it."""
    rss = server.peak_rss_mb()
    server.stop()
    metrics = {"setup_s": setup_s, **rounds.metrics(), **loop.metrics(), "server_peak_rss_mb": rss,
               "disk_bytes_per_input_byte": allocated_bytes(index_dir) / preload.bytes if index_dir else 0.0}
    log_bytes = file_bytes(index_dir / "segments", "*.seg") if index_dir else 0
    info = dict(info, input_bytes=preload.bytes, rounds=rounds.count, restarts=len(rounds.restart_s),
                round_bytes=len(rounds.body), round_chunks=rounds.chunks,
                preload_import_mbps=preload.metrics()["import_finished_mbps"])
    return Result(
        metrics=metrics, info=info, checks=checks,
        trace=dict(log_bytes=log_bytes, restart_chunks=0, live_docs=base_chunks,
                   servers=(f"{name}-start{COLD_STARTS - 1}", f"{name}-restart0"),
                   windows=preload.windows, searches=loop.searches,
                   exported_chunks=loop.features + len(rounds.exports) * rounds.chunks,
                   indexed_chunks=base_chunks + rounds.count * rounds.chunks,
                   headline="import_finished_mbps"),
    )


# --- citygml-roundtrip -------------------------------------------------------


def _city_chunks(doc: bytes) -> list[bytes]:
    return [c for c, _ in re.findall(rb"^  (<(core:cityObjectMember|gml:boundedBy)>.*?</\2>)",
                                    doc, re.S | re.M)]


def citygml_roundtrip(ctx: Context) -> Result:
    """CityGML with few, large buildings in a memory store with an ephemeral
    index: a preloaded corpus for the searches, then rounds that import,
    export, compare and delete one more such file."""
    rng = random.Random(ctx.seed)
    per_doc = ctx.size(20)
    docs = [(f"/city/r{k}", gen.citygml_document(rng, k * per_doc, per_doc)) for k in range(CITY_DOCS)]
    oracle = Oracle(gen.CITY_STEP)
    now_ms = int(time.time() * 1000)
    for layer, doc in docs:
        for i, chunk in enumerate(_city_chunks(doc)):
            oracle.add(f"{layer}.{i}", chunk, layer, Format.XML, now_ms)
    chunks_per_doc = len(_city_chunks(docs[0][1]))
    layers = [layer for layer, _ in docs]
    total = CITY_DOCS * per_doc
    queries, expected = _typical_queries(gen.citygml_queries(rng, CANDIDATES * QUERY_POOL, total, layers),
                                         len(gen.CITY_SHAPES), oracle)
    # a text term on the building's gml:id token matches that building alone
    targets = [(layers[i // per_doc], f"b{i}") for i in rng.sample(range(total), min(total, 32))]
    scratch = gen.citygml_document(rng, total, per_doc)
    same = normalized(scratch)

    setup_s, server = cold_starts(ctx, "city", lambda root: {"store": {"backend": "memory"}})
    checks = Checks()
    client = Client(server.port)
    preload = Imports()
    for k, (layer, doc) in enumerate(docs):
        preload.run(client, checks, layer, doc, chunks_per_doc, f"p{k}")
    loop = QueryLoop(client, checks, Format.XML, queries, expected, targets, rng)
    # a memory store comes back empty: the restart is the cold start of the process
    rounds = Rounds(scratch, len(_city_chunks(scratch)), lambda body: normalized(body) == same,
                    lambda i: _timed_restart(ctx, checks, f"city-restart{i}", server.config),
                    CITY_RESTART_EVERY)
    rounds.run(ctx, client, checks, loop)
    return _rounds_result(
        ctx, "city", server, checks, loop, rounds, preload, CITY_DOCS * chunks_per_doc, setup_s, None,
        {"features": total, "imports": CITY_DOCS, "store": "memory", "index": "memory", "fsync": False})


# --- geojson-index-ingest ------------------------------------------------------


def geojson_index_ingest(ctx: Context) -> Result:
    """Small GeoJSON features in a memory store with the on-disk index (fsync
    on): four preloaded layers, then rounds that import, export, compare and
    delete one more file of features.

    The rounds add and delete 2 041 index entries each, so the index log
    compacts and the spatial tree repacks over and over at a steady size.
    """
    rng = random.Random(ctx.seed)
    per_import = ctx.size(2000, 8)
    total = INDEX_IMPORTS * per_import
    files, queries, expected, targets = _geojson_layers(rng, "/idx/l", INDEX_IMPORTS, per_import)
    scratch = [gen.geojson_feature(rng, total + i) for i in range(ctx.size(INDEX_ROUND_FEATURES, 8))]
    imported = [json.loads(f) for f in scratch]

    def config_for(root: Path) -> dict:
        return {"store": {"backend": "memory"}, "index": {"path": str(root / "index")}}

    setup_s, server = cold_starts(ctx, "idx", config_for)
    checks = Checks()
    client = Client(server.port)
    preload = Imports()
    for k, (layer, feats) in enumerate(files):
        preload.run(client, checks, layer, gen.feature_collection(feats), len(feats), f"p{k}")
    # every restart opens its own copy of the index as the preload left it,
    # so restart_s does not depend on how many rounds ran before it
    snapshot = ctx.tmp / "data" / "idx-snapshot" / "index"
    shutil.copytree(server.config["index"]["path"], snapshot)

    def restart(i: int) -> float:
        root = ctx.tmp / "data" / f"idx-restart{i}"
        shutil.copytree(snapshot, root / "index")
        try:
            # the memory store comes back empty: the restart replays the
            # index log and reconciliation drops every entry
            return _timed_restart(ctx, checks, f"idx-restart{i}", config_for(root))
        finally:
            shutil.rmtree(root)

    loop = QueryLoop(client, checks, Format.GEOJSON, queries, expected, targets, rng)
    rounds = Rounds(gen.feature_collection(scratch), len(scratch),
                    lambda body: json.loads(body)["features"] == imported, restart, INDEX_RESTART_EVERY,
                    INDEX_CYCLE)
    rounds.run(ctx, client, checks, loop)
    return _rounds_result(
        ctx, "idx", server, checks, loop, rounds, preload, total, setup_s, snapshot,
        {"features": total, "imports": INDEX_IMPORTS, "store": "memory", "index": "disk", "fsync": True})


# --- mixed-search-write --------------------------------------------------------


def mixed_search_write(ctx: Context) -> Result:
    """Client A: a fixed number of checked searches plus metadata updates
    over 12 000 features. Client B beside it, until A is done: import a small
    file into /scratch, wait until it is indexed, and delete it again."""
    rng = random.Random(ctx.seed)
    layer_count, per_layer = 8, ctx.size(1500)
    scratch_size = ctx.size(500)
    total = layer_count * per_layer
    files, queries, expected, targets = _geojson_layers(rng, "/city/d", layer_count, per_layer)
    scratch = gen.feature_collection([gen.scratch_feature(rng, i) for i in range(scratch_size)])

    def config_for(root: Path) -> dict:
        return {"store": {"backend": "memory"}, "index": {"path": str(root / "index")}}

    start_s, server = cold_starts(ctx, "mixed", config_for)
    config = server.config
    checks = Checks()
    client = Client(server.port)
    preload = Imports()
    for k, (layer, feats) in enumerate(files):
        preload.run(client, checks, layer, gen.feature_collection(feats), len(feats), f"p{k}")
    setup_s = start_s + preload.finished_s

    loop = QueryLoop(client, checks, Format.GEOJSON, queries, expected, targets, rng)
    writes = Imports()
    errors = []
    reader_done = threading.Event()

    def writer() -> None:
        try:
            n = 0
            while n == 0 or not reader_done.is_set():
                if not writes.run(client, checks, "/scratch", scratch, scratch_size, f"w{n}"):
                    return
                status, body, _ = client.request("DELETE", "/store/scratch?all=true", bench_id=f"d{n}")
                deleted = json.loads(body).get("deleted") if status == 200 else None
                checks.record(deleted == scratch_size, f"delete /scratch: HTTP {status} {body[:200]!r}")
                n += 1
        except Exception as e:  # reported by the main thread
            errors.append(e)

    thread = threading.Thread(target=writer, name="bench-writer")
    thread.start()
    try:
        loop.run(ctx.size(200, 20), ctx.seconds)
    finally:
        reader_done.set()
        thread.join()
    if errors:
        raise BenchError(f"writer client failed: {errors[0]!r}") from errors[0]

    exports = _exports(client, checks, "/store/city?search=", _same_features(files), EXPORT_REPEATS, "e")
    metrics = {"setup_s": setup_s, **writes.metrics(), "export_full_mbps": statistics.median(exports),
               **loop.metrics()}
    # the memory store comes back empty: a restart replays the index log and
    # reconciliation drops every entry
    index_dir = Path(config["index"]["path"])
    more, facts = _finish(ctx, "mixed", server, [config], checks, 0, total, [index_dir], preload.bytes)
    metrics.update(more)
    return Result(
        metrics=metrics,
        info={"input_bytes": preload.bytes, "features": total, "scratch_imports": len(writes.windows),
              "scratch_bytes": writes.bytes, "preload_s": preload.finished_s,
              "store": "memory", "index": "disk", "fsync": True},
        checks=checks,
        trace=dict(facts, windows=preload.windows[:1] + writes.windows[-1:], searches=loop.searches,
                   exported_chunks=loop.features + EXPORT_REPEATS * total,
                   indexed_chunks=total + scratch_size * len(writes.windows), headline="search_p50_ms"),
    )


WORKLOADS = {
    "geojson-fs-ingest": geojson_fs_ingest,
    "citygml-roundtrip": citygml_roundtrip,
    "geojson-index-ingest": geojson_index_ingest,
    "mixed-search-write": mixed_search_write,
}
