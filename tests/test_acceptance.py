"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. The heavyweight corpora (50 MB XML, 1M-feature stream) make this
module take a few minutes.
"""

import io
import json
import os
import random
import re
import signal
import string
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import requests

from georocket import cli
from georocket.errors import GeoRocketError, ParseError
from georocket.indexer import ChunkIndex, build_document
from georocket.model import BoundingBox, DateValue, TypedValue, parse_layer_path
from georocket.query import evaluate_oracle, parse_query
from georocket.query.ast import (
    BBoxTerm,
    Comparison,
    CompareOp,
    Logical,
    LogicalOp,
    TextTerm,
)
from georocket.query.parser import classify_term
from georocket.server import GeoRocketApp, ServerConfig, TaskState
from georocket.splitter import GeoJsonSplitter, split_auto

from conftest import slowed_batches, wait_for_task
from gendata import (
    geojson_stream,
    make_citygml,
    make_geojson,
    random_document,
    random_query,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS: {title}", flush=True)


def normalized(data: bytes) -> bytes:
    return re.sub(rb">\s+<", b"><", data).strip()


def import_and_wait(url, path_qs, data):
    resp = requests.post(url + path_qs, data=data)
    assert resp.status_code == 202, resp.text
    return wait_for_task(url, resp.json()["taskId"], timeout=120.0)


def test_criterion_1_format_preservation(server):
    with criterion(1, "format preservation at chunk granularity, < 60 s end to end"):
        started = time.monotonic()

        citygml = make_citygml(1250, wall_count=90)
        assert len(citygml) >= 50_000_000
        task = import_and_wait(server.url, "/store/cologne", citygml)
        assert task["state"] == "FINISHED" and task["chunksWritten"] >= 1000
        exported = requests.get(server.url + "/store/cologne?search=").content
        assert normalized(exported) == normalized(citygml)

        geojson = make_geojson(10_000)
        task = import_and_wait(server.url, "/store/gj", geojson)
        assert task["chunksWritten"] == 10_000
        exported = requests.get(server.url + "/store/gj?search=").content
        assert json.loads(exported) == json.loads(geojson)

        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "index query equals naive oracle scan on 1000 docs x 500 queries, < 120 s"):
        started = time.monotonic()
        rng = random.Random(20180913)
        docs = [random_document(rng, i) for i in range(1000)]
        index = ChunkIndex()
        index.add_documents(docs)
        layers = [parse_layer_path(p) for p in ("/", "/a", "/b", "/b/x")]
        mismatches = 0
        for q in range(500):
            ast = random_query(rng)
            layer = layers[q % len(layers)]
            got = set(index.query(ast, layer))
            expected = {
                d.chunk_id
                for d in docs
                if evaluate_oracle(ast, d) and layer.is_ancestor_or_self(d.metadata.layer)
            }
            if got != expected:
                mismatches += 1
        assert mismatches == 0
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_3_query_semantics_exact():
    with criterion(3, "sample queries parse to the documented trees with exact semantics"):
        assert parse_query("AND(13.378,52.515,13.380,52.517 Berlin)") == Logical(
            LogicalOp.AND,
            (BBoxTerm(BoundingBox(13.378, 52.515, 13.380, 52.517)), TextTerm("Berlin")),
        )
        assert parse_query(
            "AND(13.378,52.515,13.380,52.517 EQ(name Berlin) GTE(importedDate 2018-02-13))"
        ) == Logical(
            LogicalOp.AND,
            (
                BBoxTerm(BoundingBox(13.378, 52.515, 13.380, 52.517)),
                Comparison(CompareOp.EQ, "name", TypedValue.of_text("Berlin")),
                Comparison(CompareOp.GTE, "importedDate",
                           TypedValue.of_date(DateValue.parse("2018-02-13"))),
            ),
        )
        assert parse_query("AND(NOT(LTE(deleted 2018-09-13)) Köln)") == Logical(
            LogicalOp.AND,
            (
                Logical(LogicalOp.NOT,
                        (Comparison(CompareOp.LTE, "deleted",
                                    TypedValue.of_date(DateValue.parse("2018-09-13"))),)),
                TextTerm("Köln"),
            ),
        )
        lt = parse_query("LT(deleted 2018)")
        assert lt == Comparison(CompareOp.LT, "deleted",
                                TypedValue.of_date(DateValue.parse("2018")))
        assert lt.value.value.granularity == "year"

        from test_query_evaluate import doc  # shared document factory

        assert evaluate_oracle(parse_query("NOT(LTE(deleted 2018-09-13))"),
                               doc(properties={})) is True
        assert evaluate_oracle(lt, doc(properties={"deleted": "2017-12-31"})) is True
        assert evaluate_oracle(lt, doc(properties={"deleted": "2018-01-01"})) is False


def test_criterion_4_workflow_reenactment(server):
    with criterion(4, "update workflow on ~10,000 chunks; each operation < 2 s"):
        dataset = make_citygml(9_999, wall_count=0)
        task = import_and_wait(server.url, "/store/cologne", dataset)
        assert task["chunksWritten"] == 10_000  # 9,999 buildings + the envelope
        building_count = 9_999
        schildergasse = sum(1 for i in range(building_count) if i % 3 == 0)

        def timed_cli(*argv):
            out = io.StringIO()
            old = sys.stdout
            sys.stdout = out
            t0 = time.monotonic()
            try:
                code = cli.main(list(argv) + ["--url", server.url])
            finally:
                sys.stdout = old
            return code, out.getvalue(), time.monotonic() - t0

        code, out, took = timed_cli(
            "property", "set", "-props", "deleted:2018-09-13", "AND(Schildergasse Köln)"
        )
        assert code == 0 and int(out.strip()) == schildergasse
        assert took < 2.0, f"property set took {took:.2f}s"

        update = make_citygml(60, wall_count=2, streets=("Schildergasse",))
        task = import_and_wait(server.url, "/store/cologne", update)
        assert task["state"] == "FINISHED"

        t0 = time.monotonic()
        resp = requests.get(
            server.url + "/store/cologne",
            params={"search": "AND(NOT(LTE(deleted 2018-09-13)) Köln)"},
        )
        body = resp.content
        took = time.monotonic() - t0
        assert resp.status_code == 200
        assert took < 2.0, f"search took {took:.2f}s"
        members = sum(1 for _, el in ET.iterparse(io.BytesIO(body), events=("end",))
                      if el.tag.endswith("cityObjectMember"))
        # everything from Cologne except the marked originals, plus 60 replacements
        assert members == (building_count - schildergasse) + 60

        # mark an older vintage, then the year-granularity housekeeping delete
        code, out, _ = timed_cli(
            "property", "set", "-props", "deleted:2017-06-30", "AND(Breite Köln)"
        )
        assert code == 0
        breite = int(out.strip())
        assert breite > 0

        code, out, took = timed_cli("delete", "LT(deleted 2018)")
        assert code == 0 and int(out.strip()) == breite
        assert took < 2.0, f"delete took {took:.2f}s"

        resp = requests.get(server.url + "/store/cologne", params={"search": "breite"})
        leftover = sum(1 for _, el in ET.iterparse(io.BytesIO(resp.content), events=("end",))
                       if el.tag.endswith("cityObjectMember"))
        assert leftover == 0


def test_criterion_5_asynchronous_import(server_factory, monkeypatch):
    with criterion(5, "202 precedes indexing; task states monotone; exact count after FINISHED"):
        monkeypatch.setattr(GeoRocketApp, "_handle_batch", slowed_batches(40))
        srv = server_factory(index_batch_size=1)
        captured = []
        original_create = srv.app.tasks.create

        def capture(layer):
            task = original_create(layer)
            captured.append(task)
            return task

        srv.app.tasks.create = capture

        observed = []
        stop = threading.Event()

        def sample():
            while not stop.is_set():
                if captured:
                    state = captured[0].state
                    if not observed or observed[-1] != state:
                        observed.append(state)
                time.sleep(0.001)

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            doc = make_geojson(40)

            def slow_body():
                for i in range(0, len(doc), 2048):
                    yield doc[i : i + 2048]
                    time.sleep(0.005)

            resp = requests.post(srv.url + "/store/async", data=slow_body())
            assert resp.status_code == 202
            at_answer = requests.get(srv.url + "/tasks/" + resp.json()["taskId"]).json()
            assert at_answer["state"] != "FINISHED"
            assert at_answer["chunksIndexed"] < at_answer["chunksWritten"]
            final = wait_for_task(srv.url, resp.json()["taskId"])
        finally:
            stop.set()
            sampler.join()

        order = [TaskState.ACCEPTED, TaskState.SPLITTING, TaskState.INDEXING,
                 TaskState.FINISHED]
        ranks = [order.index(s) for s in observed]
        assert ranks == sorted(ranks), f"states regressed: {observed}"
        assert TaskState.SPLITTING in observed and TaskState.INDEXING in observed
        assert final["state"] == "FINISHED"
        assert final["chunksWritten"] == final["chunksIndexed"] == 40
        found = json.loads(
            requests.get(srv.url + "/store/async?format=geojson").content
        )
        assert len(found["features"]) == 40


def test_criterion_6_layer_hierarchy(server):
    with criterion(6, "parent layers include all chunks of their sub-layers (3 levels)"):
        chunk_layers = ["/", "/x", "/x/y", "/x/y/z", "/w", "/w/y"]
        for i, layer in enumerate(chunk_layers):
            path = "/store" + ("" if layer == "/" else layer)
            import_and_wait(server.url, f"{path}?props=home:{i}", make_geojson(2))
        search_layers = chunk_layers + ["/nope", "/x/y/z/deeper", "/w/x"]
        for search_layer in search_layers:
            ancestor = parse_layer_path(search_layer)
            expected = 2 * sum(
                1 for cl in chunk_layers
                if ancestor.is_ancestor_or_self(parse_layer_path(cl))
            )
            path = "/store" + ("" if search_layer == "/" else search_layer)
            resp = requests.get(server.url + path, params={"search": "", "format": "geojson"})
            if expected == 0:
                assert resp.status_code == 404, search_layer
            else:
                got = len(json.loads(resp.content)["features"])
                assert got == expected, f"layer {search_layer}: {got} != {expected}"


def test_criterion_7_streaming_memory_bound():
    with criterion(7, "1,000,000-feature (~1 GB) split stays under max chunk + 1 MiB buffered"):
        splitter = GeoJsonSplitter()
        count = 0
        total = 0
        max_chunk = 0
        for chunk in splitter.split(geojson_stream(1_000_000, pad=700)):
            count += 1
            size = len(chunk.content)
            total += size
            if size > max_chunk:
                max_chunk = size
        assert count == 1_000_000
        assert total >= 900_000_000, f"only {total / 1e9:.2f} GB streamed"
        limit = max_chunk + (1 << 20)
        assert splitter.max_buffered <= limit, (
            f"buffered {splitter.max_buffered} > {limit}"
        )


# ``python -m georocket.server`` with each index batch slowed by 30 ms, so
# that the kill of criterion 8 lands while the import is still indexing
_SLOW_SERVER = """
import sys, time
from georocket.server.__main__ import main
from georocket.server.app import GeoRocketApp

handle = GeoRocketApp._handle_batch


def slow(self, batch):
    time.sleep(0.03)
    return handle(self, batch)


GeoRocketApp._handle_batch = slow
sys.exit(main(sys.argv[1:]))
"""


def test_criterion_8_crash_recovery(tmp_path):
    with criterion(8, "kill mid-import, restart + reconcile restores consistency"):
        store_dir = tmp_path / "store"
        index_dir = tmp_path / "index"
        config_path = tmp_path / "server.json"
        config_path.write_text(json.dumps({
            "host": "127.0.0.1",
            "port": 0,
            "store": {"backend": "filesystem", "path": str(store_dir)},
            "index": {"path": str(index_dir)},
            "limits": {"index_batch_size": 4},
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", _SLOW_SERVER, "-c", str(config_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            url = None
            deadline = time.time() + 20
            while time.time() < deadline:
                line = proc.stdout.readline()
                if "listening on" in line:
                    url = line.rsplit(" ", 1)[-1].strip()
                    break
            assert url, "server did not start"

            # a finished import that must survive
            first = import_and_wait(url, "/store/stable", make_geojson(25))
            assert first["state"] == "FINISHED"

            # a slow import we kill partway through
            doc = make_geojson(400)

            def slow_body():
                for i in range(0, len(doc), 1024):
                    yield doc[i : i + 1024]
                    time.sleep(0.004)

            def doomed_upload():
                try:
                    requests.post(url + "/store/doomed", data=slow_body())
                except requests.RequestException:
                    pass

            uploader = threading.Thread(target=doomed_upload)
            uploader.start()
            time.sleep(0.8)  # mid-splitting / mid-indexing
            os.kill(proc.pid, signal.SIGKILL)
            uploader.join(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)

        # restart: reconciliation runs on startup
        app = GeoRocketApp(ServerConfig(
            store_backend="filesystem",
            store_path=str(store_dir),
            index_path=str(index_dir),
        ))
        try:
            store_ids = set(app.store.scan())
            index_ids = set(app.index.all_ids())
            assert index_ids == store_ids, "orphaned entries remain"
            assert len(store_ids) >= 25  # the finished import survived

            rebuilt = {cid: build_document(app.store.get(cid)) for cid in store_ids}
            rng = random.Random(8)
            for _ in range(60):
                ast = random_query(rng)
                got = set(app.index.query(ast))
                expected = {cid for cid, d in rebuilt.items() if evaluate_oracle(ast, d)}
                assert got == expected, f"divergence on {ast}"
        finally:
            app.close()


def test_criterion_9_parser_robustness():
    with criterion(9, "1M fuzzed queries and 10k fuzzed imports never crash"):
        rng = random.Random(404)
        fragments = [
            "AND", "OR", "NOT", "EQ", "GT", "GTE", "LT", "LTE",
            "(", ")", '"', "\\", ",", " ", "2018", "-", ".", ":",
            "Köln", "a", "1", "e", "\t", "\n", "\x00", "𐍈",
        ]
        alphabet = string.printable + "Äöüß漢𐍈"
        for i in range(1_000_000):
            if i % 2:
                text = "".join(rng.choices(fragments, k=rng.randint(0, 8)))
            else:
                text = "".join(rng.choices(alphabet, k=rng.randint(0, 20)))
            try:
                parse_query(text)
            except ParseError:
                pass
            # anything else propagates and fails the test

        xml_seed = make_citygml(2)
        json_seed = make_geojson(2)
        raw_pool = [xml_seed, json_seed, b"", b"PK\x03\x04", b"<", b"{", b"[", b"\xff\xfe"]
        for i in range(10_000):
            base = bytearray(rng.choice(raw_pool))
            for _ in range(rng.randint(0, 6)):
                action = rng.random()
                if not base or action < 0.4:
                    base.insert(rng.randint(0, len(base)),
                                rng.randrange(256))
                elif action < 0.7:
                    del base[rng.randint(0, len(base) - 1)]
                else:
                    cut = rng.randint(0, len(base))
                    base = base[:cut]
            try:
                _, chunks = split_auto([bytes(base)])
                for _ in chunks:
                    pass
            except GeoRocketError as e:
                assert e.code in (
                    "UNSUPPORTED_FORMAT", "UNSUPPORTED_ENCODING",
                    "XML_MALFORMED", "JSON_MALFORMED",
                )
                if e.code in ("XML_MALFORMED", "JSON_MALFORMED"):
                    assert e.offset is not None
            # anything else propagates and fails the test


def test_classify_term_total_on_fuzz():
    # companion to criterion 9: term classification is total as well
    rng = random.Random(3)
    for _ in range(50_000):
        token = "".join(rng.choices("0123456789.,-eE tz", k=rng.randint(1, 16)))
        if not token.strip() or any(c in token for c in ' ()"'):
            continue
        try:
            classify_term(token.strip())
        except GeoRocketError:
            pass
