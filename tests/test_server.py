import email.utils
import gc
import http.client
import io
import json
import logging
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from xml.parsers import expat

import pytest
import requests

from georocket.errors import GeoRocketError, JsonMalformedError, StorageError
from georocket.indexer import build_document
from georocket.model import Format, MetadataDelta, parse_layer_path
from georocket.query import parse_query
from georocket.server import EmbeddedServer, GeoRocketApp, ServerConfig, TaskState, reconcile
from georocket.server.httpd import _Handler
from georocket.store import StoredEntry

from conftest import slowed_batches, wait_for_pool_exit, wait_for_task
from gendata import make_citygml, make_geojson


def raw_until_eof(server, request: bytes, timeout: float = 3.0) -> tuple[bytes, bool]:
    """Send raw request bytes; all bytes received, and whether the server closed."""
    with socket.create_connection(server.httpd.server_address[:2], timeout=timeout) as sock:
        sock.sendall(request)
        response = b""
        try:
            while block := sock.recv(65536):
                response += block
        except socket.timeout:
            return response, False
    return response, True


def raw_exchange(server, request: bytes) -> tuple[bytes, bytes]:
    """Send raw request bytes; the status code and body of the response."""
    response, closed = raw_until_eof(server, request, timeout=10)
    assert closed, response
    head, _, body = response.partition(b"\r\n\r\n")
    return head.split(b" ", 2)[1], body


def decode_chunked(response: bytes) -> tuple[list[int], bytes, bool]:
    """Chunk sizes, joined data, and whether the terminal chunk arrived."""
    _, _, rest = response.partition(b"\r\n\r\n")
    sizes, data, pos = [], b"", 0
    while (end := rest.find(b"\r\n", pos)) >= 0:
        size = int(rest[pos:end], 16)
        sizes.append(size)
        if size == 0:
            return sizes, data, True
        if rest[end + 2 + size : end + 4 + size] != b"\r\n":
            break  # cut inside the chunk
        data += rest[end + 2 : end + 2 + size]
        pos = end + 4 + size
    return sizes, data, False


def finish(task, timeout=30.0):
    """Wait for an in-process import task to end; it must have finished."""
    deadline = time.time() + timeout
    while not task.is_terminal():
        assert time.time() < deadline, f"task still {task.state}"
        time.sleep(0.01)
    assert task.state is TaskState.FINISHED, task.error
    return task


def feature_names(app, layer) -> set[str]:
    """The names of the features a search of the whole layer exports."""
    _, body = app.search(layer, "", Format.GEOJSON)
    return {f["properties"]["name"] for f in json.loads(b"".join(body))["features"]}


def import_and_wait(url, path_qs, data, headers=None, timeout=30.0):
    resp = requests.post(url + path_qs, data=data, headers=headers or {})
    assert resp.status_code == 202, resp.text
    task_id = resp.json()["taskId"]
    return wait_for_task(url, task_id, timeout)


class TestImport:
    def test_chunk_count_matches_tree_parser(self, server):
        doc = make_citygml(12)
        expected = sum(
            1 for _, el in ET.iterparse(io.BytesIO(doc), events=("end",))
            if el.tag.endswith("}CityModel")
            for _ in el
        )
        task = import_and_wait(server.url, "/store/cologne", doc)
        assert task["state"] == "FINISHED"
        assert task["chunksWritten"] == expected  # all direct children of the root
        assert task["chunksIndexed"] == task["chunksWritten"]

    def test_tagged_import_searchable_by_tag(self, server):
        import_and_wait(server.url, "/store/city?tags=lod2", make_geojson(3))
        resp = requests.get(server.url + "/store?search=lod2")
        assert len(json.loads(resp.content)["features"]) == 3

    def test_properties_attached(self, server):
        import_and_wait(server.url, "/store?props=source:nrw", make_geojson(2))
        resp = requests.get(server.url + "/store?search=EQ(source nrw)")
        assert len(json.loads(resp.content)["features"]) == 2

    def test_fallback_crs_recorded(self, server):
        import_and_wait(server.url, "/store?fallbackCRS=EPSG:4326", make_geojson(1))
        doc = server.app.index.get_document(server.app.index.all_ids()[0])
        assert doc.metadata.crs == "EPSG:4326"

    def test_gzip_content_encoding(self, server):
        import gzip

        compressed = gzip.compress(make_geojson(4))
        task = import_and_wait(
            server.url, "/store/gz", compressed, headers={"Content-Encoding": "gzip"}
        )
        assert task["chunksWritten"] == 4

    def test_chunked_transfer_upload(self, server):
        doc = make_geojson(5)

        def gen():
            for i in range(0, len(doc), 1024):
                yield doc[i : i + 1024]

        task = import_and_wait(server.url, "/store/chunked", gen())
        assert task["chunksWritten"] == 5

    def test_malformed_import_rolls_back(self, server):
        before = server.app.status()["chunks"]
        resp = requests.post(server.url + "/store/bad", data=b"<r><a>1</a><broken</r>")
        assert resp.status_code == 400
        body = resp.json()["error"]
        assert body["code"] == "XML_MALFORMED" and "offset" in body
        deadline = time.time() + 10
        while time.time() < deadline:
            if server.app.status()["chunks"] == before and not list(server.app.store.scan()):
                break
            time.sleep(0.02)
        assert list(server.app.store.scan()) == []

    def test_malformed_import_task_reports_failure(self, server):
        requests.post(server.url + "/store/bad2", data=b'{"type":"FeatureCollection","features":[{"a": nope}]}')
        # the single task in the registry must end FAILED with an offset in the error
        tasks = server.app.tasks._tasks
        task = next(iter(tasks.values()))
        deadline = time.time() + 10
        while not task.is_terminal() and time.time() < deadline:
            time.sleep(0.02)
        assert task.state is TaskState.FAILED
        assert "byte" in task.error

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1_0", b"0x10"])
    def test_malformed_content_length_is_parse_error(self, server, length):
        request = (
            b"POST /store/x HTTP/1.1\r\nHost: localhost\r\nContent-Length: " + length
            + b"\r\nConnection: close\r\n\r\n<r/>"
        )
        status, body = raw_exchange(server, request)
        assert status == b"400", body
        assert json.loads(body)["error"]["code"] == "PARSE_ERROR"

    @pytest.mark.parametrize("framing,status", [
        (b"37\r\n%s\r\n0\r\n\r\n", b"202"),
        (b"37;ext=1\r\n%s\r\n0\r\n\r\n", b"202"),
        (b"+37\r\n%s\r\n0\r\n\r\n", b"400"),
        (b"0x37\r\n%s\r\n0\r\n\r\n", b"400"),
        (b"3_7\r\n%s\r\n0\r\n\r\n", b"400"),
        (b" 37\r\n%s\r\n0\r\n\r\n", b"400"),
        (b"-1\r\n%s\r\n0\r\n\r\n", b"400"),
        (b"37\r\n%sXX0\r\n\r\n", b"400"),
    ], ids=["plain", "extension", "plus-sign", "hex-prefix", "underscore", "leading-space",
            "negative", "no-crlf-after-data"])
    def test_chunk_framing_is_strict(self, server, framing, status):
        doc = b'{"type":"FeatureCollection","features":[],"name":"xxx"}'  # 0x37 bytes
        request = (
            b"POST /store/x HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked"
            b"\r\nConnection: close\r\n\r\n" + framing % doc
        )
        got, body = raw_exchange(server, request)
        assert got == status, body
        if status == b"400":
            assert json.loads(body)["error"]["code"] == "PARSE_ERROR"

    def test_unsupported_format(self, server):
        resp = requests.post(server.url + "/store", data=b"PK\x03\x04zipzip")
        assert resp.status_code == 400
        assert resp.json()["error"]["code"] == "UNSUPPORTED_FORMAT"

    def test_empty_body(self, server):
        resp = requests.post(server.url + "/store", data=b"")
        assert resp.status_code == 400

    def test_invalid_layer_path(self, server):
        resp = requests.post(server.url + "/store/bad%00layer", data=b"<r/>")
        assert resp.status_code == 404

    def test_zero_feature_imports_finish_with_zero_count(self, server):
        for body in (b"<CityModel>\n</CityModel>",
                     b'{"type":"FeatureCollection","features":[]}'):
            task = import_and_wait(server.url, "/store/empty", body)
            assert task["state"] == "FINISHED"
            assert task["chunksWritten"] == 0 and task["chunksIndexed"] == 0


class TestSearch:
    def test_empty_search_exports_everything(self, server):
        original = make_geojson(6)
        import_and_wait(server.url, "/store", original)
        resp = requests.get(server.url + "/store?search=")
        assert resp.headers["Content-Type"] == "application/geo+json"
        assert json.loads(resp.content) == json.loads(original)

    def test_xml_round_trip(self, server):
        original = make_citygml(4)
        import_and_wait(server.url, "/store/x", original)
        resp = requests.get(server.url + "/store/x")
        got = re.sub(rb">\s+<", b"><", resp.content).strip()
        want = re.sub(rb">\s+<", b"><", original).strip()
        assert got == want

    def test_parse_error_diagnostics(self, server):
        resp = requests.get(server.url + "/store?search=AND(")
        assert resp.status_code == 400
        err = resp.json()["error"]
        assert err["code"] == "PARSE_ERROR" and isinstance(err["offset"], int)

    def test_unknown_layer_404(self, server):
        resp = requests.get(server.url + "/store/never/existed")
        assert resp.status_code == 404

    def test_existing_layer_empty_result_is_empty_document(self, server):
        import_and_wait(server.url, "/store/here", make_geojson(1))
        resp = requests.get(server.url + "/store/here?search=nosuchtoken&format=geojson")
        assert resp.status_code == 200
        assert json.loads(resp.content) == {"type": "FeatureCollection", "features": []}

    def test_empty_result_default_format_is_xml(self, server):
        resp = requests.get(server.url + "/store?search=nosuchtoken")
        assert resp.status_code == 200
        assert resp.headers["Content-Type"] == "application/xml"
        ET.fromstring(resp.content)

    def test_layer_scoped_search(self, server):
        import_and_wait(server.url, "/store/a/b", make_geojson(2))
        import_and_wait(server.url, "/store/c", make_geojson(3))
        in_a = json.loads(requests.get(server.url + "/store/a?format=geojson").content)
        assert len(in_a["features"]) == 2
        at_root = json.loads(requests.get(server.url + "/store?format=geojson").content)
        assert len(at_root["features"]) == 5

    def test_percent_encoded_query(self, server):
        import_and_wait(server.url, "/store?tags=K%C3%B6ln", make_geojson(1))
        resp = requests.get(server.url + "/store?search=K%C3%B6ln")
        assert len(json.loads(resp.content)["features"]) == 1

    def test_mid_stream_failure_aborts_connection(self, server):
        import_and_wait(server.url, "/store", make_geojson(30))
        original_get = server.app.store.get
        calls = []
        # the parents pre-pass reads each sidecar once (30 calls on the memory
        # backend); fail three entries into the streaming phase
        threshold = 33

        def failing_get(chunk_id):
            calls.append(chunk_id)
            if len(calls) > threshold:
                raise OSError("disk gone")
            return original_get(chunk_id)

        server.app.store.get = failing_get
        try:
            with pytest.raises(
                (requests.exceptions.ChunkedEncodingError, requests.exceptions.ConnectionError)
            ):
                resp = requests.get(server.url + "/store?search=", stream=True)
                body = b"".join(resp.iter_content(1024))
                assert False, f"stream completed with {len(body)} bytes"
        finally:
            server.app.store.get = original_get

    def test_export_leaves_in_frames_of_at_least_64_kib(self, server):
        import_and_wait(server.url, "/store/big", make_geojson(1300))
        expected = requests.get(server.url + "/store/big?format=geojson").content
        assert len(expected) >= 300_000
        response, closed = raw_until_eof(
            server, b"GET /store/big?format=geojson HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\n\r\n")
        assert closed
        sizes, body, complete = decode_chunked(response)
        assert complete and body == expected
        assert len(sizes) <= math.ceil(len(body) / 65536) + 1, sizes

    @pytest.mark.parametrize("connection", [b"", b"Connection: keep-alive\r\n"])
    @pytest.mark.parametrize("search", [b"", b"nomatch"])
    def test_http_1_0_export_is_unframed_and_closes(self, server, connection, search):
        import_and_wait(server.url, "/store/old", make_geojson(1300))
        target = b"/store/old?format=geojson&search=" + search
        response, closed = raw_until_eof(
            server, b"GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" % target)
        assert closed
        _, chunked, complete = decode_chunked(response)
        assert complete
        response, closed = raw_until_eof(server, b"GET %s HTTP/1.0\r\n%s\r\n" % (target, connection))
        assert closed  # the end of the connection delimits the body
        head, _, body = response.partition(b"\r\n\r\n")
        fields = head.lower().split(b"\r\n")
        assert fields[0].startswith(b"http/1.1 200 ")
        assert b"connection: close" in fields
        assert not any(f.startswith(b"transfer-encoding") for f in fields)
        assert body == chunked

    def test_failure_after_first_frame_truncates_transfer(self, server):
        import_and_wait(server.url, "/store", make_geojson(600))
        full = requests.get(server.url + "/store?format=geojson").content
        original_get = server.app.store.get
        calls = []

        def failing_get(chunk_id):
            calls.append(chunk_id)
            # 600 reads in the parents pre-pass, then 400 features (~100 KB)
            if len(calls) > 1000:
                raise OSError("disk gone")
            return original_get(chunk_id)

        server.app.store.get = failing_get
        try:
            response, closed = raw_until_eof(
                server, b"GET /store?format=geojson HTTP/1.1\r\nHost: x\r\n\r\n")
        finally:
            server.app.store.get = original_get
        assert response.startswith(b"HTTP/1.1 200 ")
        sizes, body, complete = decode_chunked(response)
        assert closed and not complete
        assert sizes and sizes[0] >= 65536 and 0 not in sizes
        assert full.startswith(body)


class TestConnections:
    SMUGGLED = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"

    def test_unread_body_of_delete_is_not_run_as_a_request(self, server):
        response, closed = raw_until_eof(
            server, b"DELETE /store/?search=nothing HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(self.SMUGGLED), self.SMUGGLED))
        assert re.findall(rb"HTTP/1\.1 \d{3}", response) == [b"HTTP/1.1 200"], response
        assert response.endswith(b'{"deleted": 0}')
        assert closed

    def test_unread_body_of_refused_upload_is_not_run_as_a_request(self, server_factory,
                                                                   monkeypatch):
        srv = server_factory(max_concurrent_requests=1)
        release = threading.Event()
        in_slot = threading.Event()  # set once the upload holds the one slot
        import_stream = srv.app.import_stream
        monkeypatch.setattr(srv.app, "import_stream",
                            lambda *a, **kw: (in_slot.set(), import_stream(*a, **kw))[1])

        def slow_body():
            yield b"<r>"
            release.wait(10)
            yield b"</r>"

        uploader = threading.Thread(
            target=lambda: requests.post(srv.url + "/store/slow", data=slow_body())
        )
        uploader.start()
        try:
            assert in_slot.wait(5)
            response, closed = raw_until_eof(
                srv, b"POST /store/x HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                     % (len(self.SMUGGLED), self.SMUGGLED))
        finally:
            release.set()
            uploader.join(10)
        assert not uploader.is_alive()
        assert re.findall(rb"HTTP/1\.1 \d{3}", response) == [b"HTTP/1.1 503"], response
        assert closed

    def test_100_continue_arrives_before_the_body(self, server):
        body = make_geojson(3)
        with socket.create_connection(server.httpd.server_address[:2], timeout=2) as sock:
            sock.sendall(b"POST /store/expect HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
                         b"Expect: 100-continue\r\nConnection: close\r\n\r\n" % len(body))
            interim = b""
            while b"\r\n\r\n" not in interim:
                block = sock.recv(65536)
                assert block, interim
                interim += block
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = b""
            while block := sock.recv(65536):
                response += block
        assert response.startswith(b"HTTP/1.1 202 ")

    def test_mixed_requests_on_one_kept_alive_connection(self, server):
        conn = http.client.HTTPConnection(*server.httpd.server_address[:2], timeout=10)

        def exchange(method, path, body=None):
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            payload = resp.read()
            assert not resp.will_close, (method, path)
            return resp.status, payload

        try:
            status, payload = exchange("POST", "/store/ka", make_geojson(300))
            assert status == 202
            sock = conn.sock
            task_id = json.loads(payload)["taskId"]
            while json.loads(exchange("GET", f"/tasks/{task_id}")[1])["state"] != "FINISHED":
                time.sleep(0.02)
            for i in range(30):
                kind = i % 4
                if kind == 0:
                    status, payload = exchange("GET", "/")
                    assert json.loads(payload)["chunks"] == 300
                elif kind == 1:
                    status, payload = exchange("PUT", f"/store/ka?search=&properties=round:r{i}")
                    assert json.loads(payload) == {"updated": 300}
                elif kind == 2:
                    status, payload = exchange(
                        "GET", f"/store/ka?search=EQ(round%20r{i - 1})&format=geojson")
                    features = json.loads(payload)["features"]
                    assert [f["properties"]["name"] for f in features] == [
                        f"building {n}" for n in range(300)]
                else:
                    status, payload = exchange("GET", f"/tasks/{task_id}")
                    task = json.loads(payload)
                    assert (task["state"], task["chunksIndexed"]) == ("FINISHED", 300)
                assert status == 200
            assert conn.sock is sock
        finally:
            conn.close()


    def test_idle_connections_are_closed_after_the_read_timeout(self, server, monkeypatch):
        assert _Handler.timeout == 60
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        baseline = threading.active_count()
        address = server.httpd.server_address[:2]
        with socket.create_connection(address, timeout=3) as idle, \
                socket.create_connection(address, timeout=3) as kept:
            kept.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            assert kept.recv(65536).startswith(b"HTTP/1.1 200 ")
            started = time.monotonic()
            assert idle.recv(1) == b""  # EOF, not socket.timeout
            assert kept.recv(1) == b""
            assert time.monotonic() - started < 3
        deadline = time.monotonic() + 3
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() == baseline

    def test_stalled_upload_is_closed_and_rolled_back(self, server, monkeypatch, caplog):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        app = server.app
        stored = []
        put = app.store.put
        monkeypatch.setattr(app.store, "put", lambda entry: (stored.append(entry.id), put(entry)))
        body = make_geojson(500)  # over 64 KiB: the first block is read and split in full
        response = b""
        with socket.create_connection(server.httpd.server_address[:2], timeout=3) as sock:
            sock.sendall(b"POST /store/stall HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(body), body[:80000]))
            while block := sock.recv(65536):  # socket.timeout here fails the test
                response += block
        assert response.startswith(b"HTTP/1.1 408 ")
        assert stored
        deadline = time.monotonic() + 5
        while (set(app.store.scan()) or len(app.index)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not set(stored) & set(app.store.scan())
        assert len(app.index) == 0
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def read_response(sock) -> tuple[bytes, dict[str, str], bytes]:
    """Read one Content-Length response: status, header fields by lower-cased
    name, and body."""
    data = b""
    while b"\r\n\r\n" not in data:
        block = sock.recv(65536)
        assert block, data
        data += block
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    fields = {name.lower(): value.strip()
              for name, _, value in (line.partition(":") for line in lines)}
    while len(body) < int(fields["content-length"]):
        block = sock.recv(65536)
        assert block, body
        body += block
    return status_line.split(" ", 2)[1].encode(), fields, body


class TestRequestLoop:
    HUNDRED_AND_ONE = b"".join(b"X-F%d: v\r\n" % i for i in range(101))

    @pytest.mark.parametrize("request_bytes,status,code", [
        # exactly one byte over the limit and nothing after it, so that no
        # unread byte makes the server's close a reset
        (b"GET /" + b"a" * (65537 - 5), b"414", "URI_TOO_LONG"),
        (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 8), b"431", "HEADERS_TOO_LARGE"),
        (b"GET / HTTP/1.1\r\n" + HUNDRED_AND_ONE + b"\r\n", b"431", "HEADERS_TOO_LARGE"),
        (b"GET / HTTP/x.1\r\nHost: x\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"GET / HTTP/1\r\nHost: x\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"GET / FTP/1.1\r\nHost: x\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"GET / HTTP/1.1 x\r\nHost: x\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"GET /\r\nHost: x\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"GET / HTTP/2.0\r\nHost: x\r\n\r\n", b"505", "VERSION_NOT_SUPPORTED"),
        (b"PATCH / HTTP/1.1\r\nHost: x\r\n\r\n", b"501", "NOT_IMPLEMENTED"),
        (b"get / HTTP/1.1\r\nHost: x\r\n\r\n", b"501", "NOT_IMPLEMENTED"),
        (b"POST /store/x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"
         b"0\r\n\r\n", b"501", "NOT_IMPLEMENTED"),
        (b"GET / HTTP/1.1\r\nHost x\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"GET / HTTP/1.1\r\nHost : x\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"GET / HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n b\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"POST /store/x HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", b"400", "BAD_REQUEST"),
        (b"POST /store/x HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n"
         b"<r/>", b"400", "BAD_REQUEST"),
    ], ids=["request-line-too-long", "header-line-too-long", "101-header-lines",
            "version-not-digits", "version-without-minor", "not-http", "four-words",
            "http-0.9", "http-2", "unknown-method", "lower-case-method", "not-chunked-coding",
            "no-colon", "space-before-colon", "obs-fold", "length-and-chunked",
            "repeated-length"])
    def test_malformed_request_gets_json_error_and_close(self, server, request_bytes, status,
                                                         code):
        with socket.create_connection(server.httpd.server_address[:2], timeout=10) as sock:
            sock.sendall(request_bytes)
            got, fields, body = read_response(sock)
            assert sock.recv(1) == b""  # closed after the response
        assert got == status, body
        assert fields["connection"] == "close"
        assert fields["content-type"] == "application/json"
        assert json.loads(body)["error"]["code"] == code

    def test_long_run_of_spaces_in_a_field_value_does_not_stall_the_server(self, server):
        # a header line of 64 KiB, a run of spaces inside its value: a parse
        # that backtracks through the run would hold every thread for minutes
        start = b"X-Spaces: a"
        line = start + b" " * ((1 << 16) - len(start) - 3) + b"b\r\n"
        address = server.httpd.server_address[:2]
        with socket.create_connection(address, timeout=10) as spaces, \
                socket.create_connection(address, timeout=10) as other:
            spaces.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n" + line * 3 + b"\r\n")
            other.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_response(other)[0] == b"200"
            assert read_response(spaces)[0] == b"200"

    def test_whitespace_around_a_field_value_is_ignored(self, server):
        body = make_geojson(2)
        status, reply = raw_exchange(
            server, b"POST /store/ows HTTP/1.1\r\nHost: x\r\nContent-Length: \t %d \t\r\n"
                    b"Connection:close \r\n\r\n%s" % (len(body), body))
        assert status == b"202", reply

    def test_double_slash_target_is_reduced(self, server):
        import_and_wait(server.url, "/store/slash", make_geojson(2))
        response, closed = raw_until_eof(
            server, b"GET //store/slash?search=&format=geojson HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\n\r\n")
        assert closed and response.startswith(b"HTTP/1.1 200 ")
        _, data, complete = decode_chunked(response)
        assert complete and len(json.loads(data)["features"]) == 2

    def test_lower_case_header_names(self, server):
        body = make_geojson(2)
        status, reply = raw_exchange(
            server, b"POST /store/lower HTTP/1.1\r\nhost: x\r\ncontent-length: %d\r\n"
                    b"connection: close\r\n\r\n%s" % (len(body), body))
        assert status == b"202", reply
        status, reply = raw_exchange(
            server, b"POST /store/lower HTTP/1.1\r\nhost: x\r\ntransfer-encoding: CHUNKED\r\n"
                    b"connection: close\r\n\r\n%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))
        assert status == b"202", reply
        task = wait_for_task(server.url, json.loads(reply)["taskId"])
        assert task["chunksIndexed"] == 2

    def test_http_1_0_closes_after_its_response(self, server):
        with socket.create_connection(server.httpd.server_address[:2], timeout=10) as sock:
            sock.sendall(b"GET / HTTP/1.0\r\n\r\n")
            status, fields, body = read_response(sock)
            assert sock.recv(1) == b""
        assert status == b"200" and fields["connection"] == "close"
        assert json.loads(body)["name"] == "georocket"

    def test_http_1_0_keep_alive_is_honoured(self, server):
        with socket.create_connection(server.httpd.server_address[:2], timeout=10) as sock:
            for _ in range(2):
                sock.sendall(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                status, fields, _ = read_response(sock)
                assert status == b"200" and "connection" not in fields
            sock.sendall(b"GET / HTTP/1.0\r\n\r\n")
            assert read_response(sock)[0] == b"200"
            assert sock.recv(1) == b""

    @pytest.mark.parametrize("option", [b"close", b"Close", b"keep-alive, close"])
    def test_connection_close_is_honoured(self, server, option):
        with socket.create_connection(server.httpd.server_address[:2], timeout=10) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\nConnection: %s\r\n\r\n" % option)
            status, fields, _ = read_response(sock)
            assert sock.recv(1) == b""
        assert status == b"200" and fields["connection"] == "close"

    def test_date_and_server_fields(self, server):
        with socket.create_connection(server.httpd.server_address[:2], timeout=10) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            before = time.time()
            _, fields, _ = read_response(sock)
        assert re.fullmatch(r"georocket/\S+", fields["server"])
        assert re.fullmatch(r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d (Jan|Feb|Mar|Apr|May|Jun|Jul"
                            r"|Aug|Sep|Oct|Nov|Dec) \d{4} \d\d:\d\d:\d\d GMT", fields["date"])
        date = email.utils.parsedate_to_datetime(fields["date"]).timestamp()
        assert before - 2 <= date <= time.time() + 1

    def test_access_log_line_per_request_at_debug(self, server, caplog):
        caplog.set_level(logging.DEBUG, logger="georocket.server.httpd")
        conn = http.client.HTTPConnection(*server.httpd.server_address[:2], timeout=10)
        try:
            for path in ("/", "/tasks/nothing"):
                conn.request("GET", path)
                conn.getresponse().read()
        finally:
            conn.close()
        deadline = time.monotonic() + 5
        while len(lines := [r.getMessage() for r in caplog.records
                            if r.name == "georocket.server.httpd"]) < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(lines) == 2, lines
        first = dict(pair.split("=", 1) for pair in lines[0].split(" "))
        assert (first["method"], first["path"], first["status"], first["request"]) == (
            "GET", "/", "200", "1")
        assert int(first["bytes"]) > 100 and float(first["ms"]) >= 0
        assert re.fullmatch(r"method=GET path=/tasks/nothing status=404 bytes=\d+ ms=[\d.]+ "
                            r"request=2", lines[1])

    def test_access_log_formats_nothing_without_debug(self, server, caplog, monkeypatch):
        from georocket.server import httpd

        caplog.set_level(logging.INFO, logger="georocket.server.httpd")
        calls = []
        monkeypatch.setattr(httpd.logger, "debug", lambda *a, **kw: calls.append(a))
        conn = http.client.HTTPConnection(*server.httpd.server_address[:2], timeout=10)
        try:
            for _ in range(3):  # the third answer comes after the first two were logged
                conn.request("GET", "/")
                conn.getresponse().read()
        finally:
            conn.close()
        assert calls == []


class TestDelete:
    def test_guard_refuses_empty_search(self, server):
        import_and_wait(server.url, "/store", make_geojson(2))
        resp = requests.delete(server.url + "/store?search=")
        assert resp.status_code == 400
        assert server.app.status()["chunks"] == 2

    def test_all_flag_wipes_layer(self, server):
        import_and_wait(server.url, "/store/scratch", make_geojson(2))
        resp = requests.delete(server.url + "/store/scratch?search=&all=true")
        assert resp.json() == {"deleted": 2}

    def test_delete_by_query(self, server):
        import_and_wait(server.url, "/store?props=deleted:2017-06-30", make_geojson(2))
        import_and_wait(server.url, "/store", make_geojson(1))
        resp = requests.delete(server.url + "/store?search=LT(deleted 2018)")
        assert resp.json() == {"deleted": 2}
        left = json.loads(requests.get(server.url + "/store?format=geojson").content)
        assert len(left["features"]) == 1

    def test_no_matches_deletes_nothing(self, server):
        import_and_wait(server.url, "/store", make_geojson(1))
        resp = requests.delete(server.url + "/store?search=nosuchtoken")
        assert resp.json() == {"deleted": 0}


class TestMetadata:
    def test_set_then_query(self, server):
        import_and_wait(server.url, "/store", make_geojson(3))
        resp = requests.put(server.url + "/store?search=&properties=deleted:2018-09-13")
        assert resp.json() == {"updated": 3}
        found = requests.get(server.url + "/store?search=LTE(deleted 2018-09-13)&format=geojson")
        assert len(json.loads(found.content)["features"]) == 3

    def test_store_and_index_agree_after_update(self, server):
        import_and_wait(server.url, "/store", make_geojson(1))
        requests.put(server.url + "/store?search=&tags=historic")
        chunk_id = server.app.index.all_ids()[0]
        assert "historic" in server.app.store.get(chunk_id).metadata.tags
        assert "historic" in server.app.index.get_document(chunk_id).metadata.tags

    def test_remove_property(self, server):
        import_and_wait(server.url, "/store?props=deleted:2018-01-01", make_geojson(1))
        resp = requests.delete(server.url + "/store?search=&properties=deleted")
        assert resp.json() == {"updated": 1}
        found = requests.get(server.url + "/store?search=NOT(LTE(deleted 2019))&format=geojson")
        assert len(json.loads(found.content)["features"]) == 1

    def test_tag_add_remove(self, server):
        import_and_wait(server.url, "/store", make_geojson(1))
        requests.put(server.url + "/store?search=&tags=a,b")
        assert len(json.loads(requests.get(server.url + "/store?search=a&format=geojson").content)["features"]) == 1
        requests.delete(server.url + "/store?search=&tags=a")
        assert json.loads(requests.get(server.url + "/store?search=a&format=geojson").content)["features"] == []

    def test_malformed_property_spec(self, server):
        import_and_wait(server.url, "/store", make_geojson(1))
        resp = requests.put(server.url + "/store?search=&properties=deleted")
        assert resp.status_code == 400

    def test_empty_delta_rejected(self, server):
        resp = requests.put(server.url + "/store?search=x")
        assert resp.status_code == 400

    def test_noop_removal_counts_zero(self, server):
        import_and_wait(server.url, "/store", make_geojson(2))
        resp = requests.delete(server.url + "/store?search=&tags=nobody-has-this")
        assert resp.json() == {"updated": 0}

    def test_update_racing_a_delete_reaches_the_index(self, server, monkeypatch):
        import_and_wait(server.url, "/store/race", make_geojson(3))
        app = server.app
        layer = parse_layer_path("/race")
        first, *rest = app.index.query(parse_query(""), layer)
        update = app.store.update_metadata

        def racing_update(chunk_id, delta):
            update(chunk_id, delta)
            if chunk_id == first:
                app.index.delete([first])  # the index step of a concurrent DELETE

        monkeypatch.setattr(app.store, "update_metadata", racing_update)
        assert app.update_metadata(layer, "", MetadataDelta(set_properties={"k": "v"})) == 2
        assert app.index.query(parse_query("EQ(k v)")) == rest
        assert [app.store.get(i).metadata.properties for i in rest] == [{"k": "v"}] * 2

    def test_update_of_one_chunk_leaves_its_import_sibling_unchanged(self):
        app = GeoRocketApp(ServerConfig())
        layer = parse_layer_path("/s")
        try:
            finish(app.import_stream(layer, [make_geojson(2)], tags=("t",), properties={"a": "1"}))
            first, second = app.index.query(parse_query(""), layer)
            assert app.store.get(first).metadata is app.store.get(second).metadata  # one per import
            delta = MetadataDelta(set_properties={"a": "2"}, add_tags=frozenset({"u"}))
            assert app.update_metadata(layer, "EQ(height 5.5)", delta) == 1  # the second feature
            for metadata in (app.store.get(first).metadata, app.index.get_document(first).metadata):
                assert (metadata.properties, metadata.tags) == ({"a": "1"}, {"t"})
            for metadata in (app.store.get(second).metadata, app.index.get_document(second).metadata):
                assert (metadata.properties, metadata.tags) == ({"a": "2"}, {"t", "u"})
            assert app.index.query(parse_query("EQ(a 1)")) == [first]
        finally:
            app.close()

    def test_set_twice_last_write_wins(self, server):
        import_and_wait(server.url, "/store", make_geojson(1))
        requests.put(server.url + "/store?search=&properties=k:one")
        requests.put(server.url + "/store?search=&properties=k:two")
        chunk_id = server.app.index.all_ids()[0]
        assert server.app.store.get(chunk_id).metadata.properties == {"k": "two"}


class TestTasks:
    def test_unknown_task_404(self, server):
        assert requests.get(server.url + "/tasks/nope").status_code == 404

    def test_retention_prunes_finished_tasks(self, server_factory):
        srv = server_factory(task_retention_seconds=0.05)
        task = import_and_wait(srv.url, "/store", make_geojson(1))
        time.sleep(0.2)
        srv.app.tasks.prune()
        assert requests.get(srv.url + "/tasks/" + task["id"]).status_code == 404


class TestAsyncContract:
    def test_202_before_indexing_completes(self, server_factory, monkeypatch):
        monkeypatch.setattr(GeoRocketApp, "_handle_batch", slowed_batches(150))
        srv = server_factory(index_batch_size=1)
        doc = make_geojson(8)
        resp = requests.post(srv.url + "/store/slow", data=doc)
        assert resp.status_code == 202
        task = requests.get(srv.url + "/tasks/" + resp.json()["taskId"]).json()
        assert task["state"] in ("SPLITTING", "INDEXING")  # not yet FINISHED
        assert task["chunksIndexed"] < task["chunksWritten"]
        done = wait_for_task(srv.url, task["id"])
        assert done["state"] == "FINISHED"
        assert done["chunksIndexed"] == done["chunksWritten"] == 8

    def test_states_monotonic(self, server_factory, monkeypatch):
        monkeypatch.setattr(GeoRocketApp, "_handle_batch", slowed_batches(20))
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
                    observed.append(captured[0].state)
                time.sleep(0.002)

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            doc = make_geojson(30)

            def slow_body():
                for i in range(0, len(doc), 4096):
                    yield doc[i : i + 4096]
                    time.sleep(0.01)

            resp = requests.post(srv.url + "/store/mono", data=slow_body())
            assert resp.status_code == 202
            wait_for_task(srv.url, resp.json()["taskId"])
        finally:
            stop.set()
            sampler.join()
        order = {s: i for i, s in enumerate(
            [TaskState.ACCEPTED, TaskState.SPLITTING, TaskState.INDEXING, TaskState.FINISHED]
        )}
        ranks = [order[s] for s in observed]
        assert ranks == sorted(ranks), f"non-monotonic: {observed}"
        assert TaskState.SPLITTING in observed
        assert TaskState.INDEXING in observed

    def test_eventual_visibility_subset_never_garbage(self, server_factory, monkeypatch):
        monkeypatch.setattr(GeoRocketApp, "_handle_batch", slowed_batches(30))
        srv = server_factory(index_batch_size=2)
        resp = requests.post(srv.url + "/store/ev", data=make_geojson(12))
        task_id = resp.json()["taskId"]
        while True:
            body = requests.get(srv.url + "/store/ev?format=geojson").content
            parsed = json.loads(body)  # never malformed output
            assert len(parsed["features"]) <= 12
            task = requests.get(srv.url + "/tasks/" + task_id).json()
            if task["state"] == "FINISHED":
                break
        final = json.loads(requests.get(srv.url + "/store/ev?format=geojson").content)
        assert len(final["features"]) == 12


class TestParseOnce:
    """An XML import is parsed once, by the splitter, and indexed without a
    store read; a GeoJSON chunk is read back once to be indexed."""

    @staticmethod
    def _count(app, monkeypatch, body: bytes) -> Counter:
        calls = Counter()
        create, get = expat.ParserCreate, app.store.get

        def counting_create(*args, **kwargs):
            calls["parsers"] += 1
            return create(*args, **kwargs)

        def counting_get(chunk_id):
            calls["reads"] += 1
            return get(chunk_id)

        monkeypatch.setattr(expat, "ParserCreate", counting_create)
        monkeypatch.setattr(app.store, "get", counting_get)
        task = finish(app.import_stream(parse_layer_path("/once"), [body]))
        monkeypatch.undo()
        calls["chunks"] = task.chunks_indexed
        return calls

    def test_xml_import_parses_once_and_reads_nothing(self, monkeypatch):
        app = GeoRocketApp(ServerConfig())
        try:
            calls = self._count(app, monkeypatch, make_citygml(5))
        finally:
            app.close()
        assert (calls["parsers"], calls["reads"], calls["chunks"]) == (1, 0, 6)

    def test_geojson_import_reads_each_chunk_once(self, monkeypatch):
        app = GeoRocketApp(ServerConfig())
        try:
            calls = self._count(app, monkeypatch, make_geojson(5))
        finally:
            app.close()
        assert (calls["parsers"], calls["reads"], calls["chunks"]) == (0, 5, 5)


class TestIndexWorker:
    def test_failed_batch_fails_every_task_in_it(self):
        app = GeoRocketApp(ServerConfig(index_batch_size=64))
        entered = threading.Event()
        release = threading.Event()

        def failing_add(docs):
            entered.set()
            release.wait(10)
            raise RuntimeError("index unavailable")

        app.index.add_documents = failing_add
        try:
            tasks = [app.import_stream(parse_layer_path("/a"), [make_geojson(2)])]
            assert entered.wait(10)
            # these queue up behind the blocked worker and form one batch
            tasks += [app.import_stream(parse_layer_path(p), [make_geojson(2)])
                      for p in ("/b", "/c", "/d")]
            release.set()
            deadline = time.time() + 10
            while not all(t.is_terminal() for t in tasks) and time.time() < deadline:
                time.sleep(0.01)
            assert [t.state for t in tasks] == [TaskState.FAILED] * 4
        finally:
            release.set()
            app.close()


    @staticmethod
    def _fs_config(tmp_path, **overrides) -> ServerConfig:
        return ServerConfig(store_backend="filesystem", store_path=str(tmp_path / "s"),
                            index_path=str(tmp_path / "i"), **overrides)

    def test_a_failed_batch_removes_every_chunk_of_its_import(self, tmp_path):
        config = self._fs_config(tmp_path, index_batch_size=4)
        app = GeoRocketApp(config)
        add = app.index.add_documents
        batches = []
        release = threading.Event()

        def second_batch_fails(docs):
            batches.append(len(docs))
            if len(batches) == 1:
                release.wait(10)  # the rest of the import queues up behind this batch
            elif len(batches) == 2:
                raise RuntimeError("index unavailable")
            return add(docs)

        app.index.add_documents = second_batch_fails
        try:
            task = app.import_stream(parse_layer_path("/f"), [make_geojson(12)])
            release.set()
            deadline = time.time() + 10
            while not task.is_terminal() and time.time() < deadline:
                time.sleep(0.01)
            assert task.state is TaskState.FAILED
            assert len(app.index) == 0  # the first batch was indexed, then removed
        finally:
            release.set()
            app.close()  # drains the queue: the third batch's chunks are deleted
        assert len(batches) == 2 and batches[1] == 4, batches
        reopened = GeoRocketApp(config)
        try:
            assert list(reopened.store.scan()) == []
            assert len(reopened.index) == 0
        finally:
            reopened.close()

    def test_an_import_whose_task_failed_stops_splitting(self, tmp_path):
        app = GeoRocketApp(self._fs_config(tmp_path, index_batch_size=1, index_queue_size=1))

        def failing_add(docs):
            raise RuntimeError("index unavailable")

        app.index.add_documents = failing_add
        stored = []
        put = app.store.put
        app.store.put = lambda entry: (stored.append(entry.id), put(entry))
        try:
            with pytest.raises(GeoRocketError, match="failed while indexing"):
                app.import_stream(parse_layer_path("/f"), [make_geojson(200)])
            assert 0 < len(stored) < 10
        finally:
            app.close()
        assert list(app.store.scan()) == []


class TestGarbageCollector:
    def test_a_frozen_heap_holds_no_cyclic_garbage(self, server_factory, tmp_path, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        gc.collect()
        srv = server_factory(store_backend="filesystem", store_path=str(tmp_path / "s"),
                             index_path=str(tmp_path / "i"))
        features = make_geojson(25)
        for n in range(3):
            import_and_wait(srv.url, "/store/gc", features)
            bad = requests.post(srv.url + "/store/gc", data=features[:-40])  # some chunks written
            assert bad.status_code == 400
            assert requests.get(srv.url + "/store/gc?search=EQ(height 5.5)").status_code == 200
            exported = requests.get(srv.url + "/store/gc?format=geojson")
            assert len(json.loads(exported.content)["features"]) == 25
            updated = requests.put(srv.url + f"/store/gc?search=&tags=round{n}")
            assert updated.json() == {"updated": 25}
            assert requests.delete(srv.url + "/store/gc?search=&all=true").status_code == 200
            with socket.create_connection(srv.httpd.server_address[:2], timeout=3) as sock:
                sock.sendall(b"POST /store/gc HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
                             b"\r\n%s" % (len(features), features[:1000]))
                assert sock.recv(65536).startswith(b"HTTP/1.1 408 ")
        deadline = time.time() + 10
        while (list(srv.app.store.scan())
               or not all(t.is_terminal() for t in list(srv.app.tasks._tasks.values()))):
            assert time.time() < deadline
            time.sleep(0.02)
        assert srv.app.index.compactions >= 3
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.unfreeze()
            found = gc.collect()
            garbage = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert found == 0, garbage.most_common(20)

    def test_startup_and_each_compaction_freeze_the_heap(self, tmp_path):
        gc.unfreeze()
        app = GeoRocketApp(ServerConfig(index_path=str(tmp_path / "i")))
        try:
            at_start = gc.get_freeze_count()
            assert at_start > 0
            layer = parse_layer_path("/f")
            finish(app.import_stream(layer, [make_geojson(20)]))
            assert app.index.compactions == 0  # adds alone never compact
            app.update_metadata(layer, "", MetadataDelta(add_tags=frozenset({"t"})))
            assert app.index.compactions == 0
            # a delete that leaves half the log dead compacts on the request path
            assert app.delete(layer, "", allow_all=True) == 20
            assert app.index.compactions == 1
            assert gc.get_freeze_count() > at_start
            # the worker settles too: a rolled-back import takes its indexed
            # chunks out of the empty index again, which compacts
            gc.unfreeze()
            with pytest.raises(JsonMalformedError):
                app.import_stream(layer, [make_geojson(20)[:-40]])
            deadline = time.time() + 10
            while gc.get_freeze_count() == 0:
                assert time.time() < deadline
                time.sleep(0.01)
            assert app.index.compactions > 1
            assert len(app.index) == 0 and list(app.store.scan()) == []
        finally:
            app.close()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_construction_restores_the_collector_state(self, tmp_path, monkeypatch, enabled):
        from georocket.server import app as app_module

        seen = []
        index_class, reconcile_fn = app_module.ChunkIndex, app_module.reconcile
        monkeypatch.setattr(app_module, "ChunkIndex",
                            lambda *a: (seen.append(gc.isenabled()), index_class(*a))[1])
        monkeypatch.setattr(app_module, "reconcile",
                            lambda *a: (seen.append(gc.isenabled()), reconcile_fn(*a))[1])
        (tmp_path / "not-a-directory").write_bytes(b"")
        (gc.enable if enabled else gc.disable)()
        try:
            GeoRocketApp(ServerConfig(index_path=str(tmp_path / "i"))).close()
            assert gc.isenabled() is enabled
            with pytest.raises(StorageError):
                GeoRocketApp(ServerConfig(index_path=str(tmp_path / "not-a-directory")))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False, False, False]  # open, reconcile, the failed open


class TestConcurrentImports:
    def test_parallel_imports_to_one_layer(self, server):
        results = []
        errors = []

        def upload(i):
            try:
                results.append(import_and_wait(server.url, "/store/shared",
                                               make_geojson(10)))
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=upload, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r["state"] == "FINISHED" for r in results)
        merged = json.loads(
            requests.get(server.url + "/store/shared?format=geojson").content
        )
        assert len(merged["features"]) == 40


class TestOverload:
    def test_503_when_slots_exhausted(self, server_factory, monkeypatch):
        srv = server_factory(max_concurrent_requests=1)
        release = threading.Event()
        in_slot = threading.Event()  # set once the upload holds the one slot
        import_stream = srv.app.import_stream
        monkeypatch.setattr(srv.app, "import_stream",
                            lambda *a, **kw: (in_slot.set(), import_stream(*a, **kw))[1])

        def slow_body():
            yield b'{"type":"FeatureCollection","features":['
            release.wait(10)
            yield b"]}"

        uploader = threading.Thread(
            target=lambda: requests.post(srv.url + "/store/slow", data=slow_body())
        )
        uploader.start()
        try:
            assert in_slot.wait(5)
            resp = requests.get(srv.url + "/store?search=x")
            assert resp.status_code == 503
        finally:
            release.set()
            uploader.join()
        # slot released afterwards
        assert requests.get(srv.url + "/store?search=").status_code == 200

    def test_health_exempt_from_slots(self, server_factory):
        srv = server_factory(max_concurrent_requests=1)
        release = threading.Event()
        started = threading.Event()

        def slow_body():
            yield b"<r>"
            started.set()
            release.wait(10)
            yield b"</r>"

        uploader = threading.Thread(
            target=lambda: requests.post(srv.url + "/store/slow", data=slow_body())
        )
        uploader.start()
        try:
            assert started.wait(5)
            assert requests.get(srv.url + "/").status_code == 200
        finally:
            release.set()
            uploader.join()


class TestThreadPool:
    @staticmethod
    def record_serving_threads(monkeypatch) -> list[str]:
        names = []
        do_get = _Handler.do_GET

        def recording(handler):
            names.append(threading.current_thread().name)
            do_get(handler)

        monkeypatch.setattr(_Handler, "do_GET", recording)
        return names

    def test_sequential_requests_start_no_thread(self, server, monkeypatch):
        names = self.record_serving_threads(monkeypatch)
        for _ in range(5):
            assert requests.get(server.url + "/").status_code == 200
        baseline = threading.active_count()
        for i in range(50):
            path = "/" if i % 2 else "/store?search=nothing"
            assert requests.get(server.url + path).status_code == 200
        assert threading.active_count() == baseline
        pool = {t.name for t in server.httpd.pool_threads}
        assert len(pool) == 32
        assert len(names) == 55 and set(names) <= pool
        # the thread that became idle last is handed the next connection,
        # so sequential clients keep to a few of the 32
        assert names[0] == "georocket-http-0" and len(set(names)) < 16
        assert all(re.fullmatch(r"georocket-http-\d+", name) for name in pool)

    def test_concurrent_clients_return_every_thread_to_the_pool(self, server_factory):
        srv = server_factory(max_concurrent_requests=4)
        statuses = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client():
                for _ in range(25):
                    statuses.append(requests.get(srv.url + "/").status_code)

            clients = [threading.Thread(target=client) for _ in range(8)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in clients)
        assert statuses == [200] * 200
        deadline = time.monotonic() + 5
        while len(srv.httpd._idle) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(srv.httpd._idle) == 4  # a lost update would leave it off by one

    def test_overflow_connections_are_served_beside_a_busy_pool(self, server_factory,
                                                                monkeypatch):
        srv = server_factory(max_concurrent_requests=1)
        names = self.record_serving_threads(monkeypatch)
        release = threading.Event()
        in_slot = threading.Event()  # set once the upload holds the one slot
        import_stream = srv.app.import_stream
        monkeypatch.setattr(srv.app, "import_stream",
                            lambda *a, **kw: (in_slot.set(), import_stream(*a, **kw))[1])

        def slow_body():
            yield b"<r>"
            release.wait(10)
            yield b"</r>"

        uploader = threading.Thread(
            target=lambda: requests.post(srv.url + "/store/slow", data=slow_body())
        )
        uploader.start()
        try:
            assert in_slot.wait(5)
            assert requests.get(srv.url + "/store?search=x").status_code == 503
            assert requests.get(srv.url + "/").status_code == 200
        finally:
            release.set()
            uploader.join(10)
        assert not uploader.is_alive()
        assert len(names) == 2
        assert "georocket-http-0" not in names  # the one pool thread held the upload

    def test_stop_does_not_wait_for_an_idle_connection(self, server_factory, monkeypatch):
        srv = server_factory(max_concurrent_requests=4)
        names = self.record_serving_threads(monkeypatch)
        with socket.create_connection(srv.httpd.server_address[:2], timeout=3) as held:
            held.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            assert held.recv(65536).startswith(b"HTTP/1.1 200 ")
            started = time.monotonic()
            srv.stop()
            assert time.monotonic() - started < 5  # the read timeout is 60 s
            alive = wait_for_pool_exit(srv, timeout=2)
            assert [t.name for t in alive] == names  # only the one holding the connection
        assert wait_for_pool_exit(srv) == []


class TestHealth:
    def test_service_metadata(self, server):
        body = requests.get(server.url + "/").json()
        assert body["name"] == "georocket"
        assert body["backend"] == "memory"
        assert "version" in body and "chunks" in body


class TestReconcile:
    def _entry(self, i, store):
        from georocket.model import ChunkMetadata, CollectionKind, Format, GeoJsonParents

        entry = StoredEntry(
            id=f"R{i:03d}",
            content=b'{"type":"Feature","geometry":null,"properties":{"n":%d}}' % i,
            parents=GeoJsonParents(CollectionKind.FEATURE_COLLECTION),
            metadata=ChunkMetadata(
                layer=parse_layer_path("/r"),
                import_timestamp=1000 + i,
                format=Format.GEOJSON,
            ),
            sequence=i,
        )
        store.put(entry)
        return entry

    def test_drops_orphans_and_reindexes_missing(self, tmp_path):
        app = GeoRocketApp(ServerConfig(store_backend="filesystem",
                                        store_path=str(tmp_path / "s"),
                                        index_path=str(tmp_path / "i"),
                                        reconcile_on_start=False))
        entries = [self._entry(i, app.store) for i in range(4)]
        # index only the first two; then delete entry 0 behind the index's back
        app.index.add_documents([build_document(entries[0]), build_document(entries[1])])
        app.store.delete([entries[0].id])
        report = reconcile(app.store, app.index)
        assert report.dropped == 1
        assert report.reindexed == 2
        assert set(app.index.all_ids()) == {e.id for e in entries[1:]}
        app.close()

    def test_resyncs_stale_metadata(self, tmp_path):
        app = GeoRocketApp(ServerConfig(store_backend="filesystem",
                                        store_path=str(tmp_path / "s"),
                                        index_path=str(tmp_path / "i"),
                                        reconcile_on_start=False))
        entry = self._entry(1, app.store)
        app.index.add_documents([build_document(entry)])
        # store updated, index missed it (simulated crash window)
        app.store.update_metadata(entry.id, MetadataDelta(set_properties={"deleted": "2018"}))
        report = reconcile(app.store, app.index)
        assert report.metadata_synced == 1
        doc = app.index.get_document(entry.id)
        assert doc.metadata.properties == {"deleted": "2018"}
        app.close()

    def test_integer_beyond_float_range_survives_restart(self, tmp_path):
        config = dict(store_backend="filesystem", store_path=str(tmp_path / "s"),
                      index_path=str(tmp_path / "i"))
        doc = (b'{"type":"FeatureCollection","features":[{"type":"Feature","geometry":'
               b'{"type":"Point","coordinates":[1%s,2]},"properties":{"name":"huge"}}]}'
               % (b"0" * 400))
        srv = EmbeddedServer(ServerConfig(port=0, **config)).start()
        try:
            task = import_and_wait(srv.url, "/store/big", doc)
        finally:
            srv.stop()
        assert task["state"] == "FINISHED"
        # without its index, the next start rebuilds it from the store
        shutil.rmtree(tmp_path / "i")
        app = GeoRocketApp(ServerConfig(**config))
        try:
            (chunk_id,) = app.index.all_ids()
            assert "huge" in app.index.get_document(chunk_id).tokens
        finally:
            app.close()

    def test_a_delete_cut_between_its_halves_brings_no_chunk_back(self, tmp_path):
        config = ServerConfig(store_backend="filesystem", store_path=str(tmp_path / "s"),
                              index_path=str(tmp_path / "i"))
        layer = parse_layer_path("/d")
        app = GeoRocketApp(config)
        try:
            finish(app.import_stream(layer, [make_geojson(6)]))
            halves = []

            def failing_second_half(part):
                delete = part.delete

                def first_half_only(ids):
                    halves.append(part)
                    if len(halves) == 2:
                        raise RuntimeError("crash between the halves of a delete")
                    return delete(ids)

                return first_half_only

            app.store.delete = failing_second_half(app.store)
            app.index.delete = failing_second_half(app.index)
            with pytest.raises(RuntimeError):
                app.delete(layer, "OR(EQ(height 5.5) EQ(height 6.0))")
            before = feature_names(app, layer)
        finally:
            app.close()
        app = GeoRocketApp(config)  # reconciles the store and the index
        try:
            after = feature_names(app, layer)
        finally:
            app.close()
        assert len(before) == 4
        assert after <= before, after - before

    def test_clean_state_reports_zero(self, tmp_path):
        app = GeoRocketApp(ServerConfig(store_backend="filesystem",
                                        store_path=str(tmp_path / "s"),
                                        index_path=str(tmp_path / "i"),
                                        reconcile_on_start=False))
        entry = self._entry(1, app.store)
        app.index.add_documents([build_document(entry)])
        report = reconcile(app.store, app.index)
        assert (report.dropped, report.reindexed, report.metadata_synced) == (0, 0, 0)
        app.close()


def test_server_start_imports_no_http_client_email_or_ssl():
    """The request loop parses HTTP itself; ``http.server`` would pull in
    ``http.client``, ``email`` and ``ssl`` on every cold start."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, georocket.server.__main__\n"
            "print(sorted(m for m in ('http.server', 'http.client', 'email', 'ssl') "
            "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestExplain:
    _FIELDS = {"node", "depth", "estimate", "strategy", "in", "out", "us"}

    def test_explain_answers_with_the_plan_and_streams_no_document(self, server):
        import_and_wait(server.url, "/store/x", make_geojson(40))
        query = "AND(hauptstrasse LT(height 6) NOT(EQ(name \"building 1\")))"
        resp = requests.get(server.url + "/store/x", params={"search": query, "explain": "true"})
        assert resp.status_code == 200
        assert resp.headers["Content-Type"] == "application/json"
        body = resp.json()
        assert set(body) == {"query", "layer", "hits", "nodes"}
        assert (body["query"], body["layer"]) == (query, "/x")
        exported = requests.get(server.url + "/store/x",
                                params={"search": query, "format": "geojson"}).json()
        assert body["hits"] == len(exported["features"]) == 1  # building 0: heights 5 and 5.5
        nodes = body["nodes"]
        assert all(set(node) == self._FIELDS for node in nodes)
        assert (nodes[0]["node"], nodes[0]["depth"], nodes[0]["strategy"], nodes[0]["in"]) == (
            'AND(hauptstrasse LT(height 6.0) NOT(EQ(name "building 1")))', 0, "evaluate", None)
        # 2 candidates are fewer than a sixteenth of the 40 documents on the
        # street, but not fewer than the one the name matches
        assert [(n["node"], n["depth"], n["strategy"], n["in"], n["out"]) for n in nodes[1:]] == [
            ("LT(height 6.0)", 1, "lead", None, 2), ("hauptstrasse", 1, "check", 2, 2),
            ('NOT(EQ(name "building 1"))', 1, "subtract", 2, 1),
            ('EQ(name "building 1")', 2, "evaluate", None, 1)]
        assert nodes[1]["estimate"] == nodes[1]["out"] == 2
        assert all(isinstance(n["us"], float) and n["us"] >= 0 for n in nodes)
        assert nodes[0]["out"] == body["hits"]

    def test_explain_of_an_empty_search_evaluates_match_all(self, server):
        import_and_wait(server.url, "/store/x", make_geojson(3))
        body = requests.get(server.url + "/store/x?search=&explain=true").json()
        assert body["hits"] == 3
        assert [(n["node"], n["strategy"], n["out"]) for n in body["nodes"]] == [
            ("", "evaluate", 3)]

    def test_explain_errors_are_those_of_a_search(self, server):
        resp = requests.get(server.url + "/store?search=AND(&explain=true")
        assert resp.status_code == 400 and resp.json()["error"]["code"] == "PARSE_ERROR"
        resp = requests.get(server.url + "/store/never/existed?search=x&explain=true")
        assert resp.status_code == 404 and resp.json()["error"]["code"] == "NOT_FOUND"

    def test_explain_without_true_is_a_search(self, server):
        import_and_wait(server.url, "/store/x", make_geojson(2))
        resp = requests.get(server.url + "/store/x?search=&explain=false&format=geojson")
        assert len(resp.json()["features"]) == 2


class TestRequestIds:
    @staticmethod
    def _records(caplog, count):
        deadline = time.monotonic() + 5
        while len(records := [r for r in caplog.records if r.name == "georocket.server.httpd"
                              and r.levelno == logging.DEBUG]) < count \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        return records

    def test_requests_on_two_connections_get_distinct_increasing_ids(self, server, caplog):
        caplog.set_level(logging.DEBUG, logger="georocket.server.httpd")
        address = server.httpd.server_address[:2]
        first = http.client.HTTPConnection(*address, timeout=10)
        second = http.client.HTTPConnection(*address, timeout=10)
        try:
            for conn in (first, second, first):
                conn.request("GET", "/")
                conn.getresponse().read()
        finally:
            first.close()
            second.close()
        records = self._records(caplog, 3)
        ids = [r.request_id for r in records]
        assert len(ids) == 3 and ids == sorted(set(ids)), ids
        assert [r.getMessage().rsplit("request=", 1)[1] for r in records] == ["1", "1", "2"]

    def test_a_500_logs_its_error_and_its_access_line_with_one_id(self, server, caplog,
                                                                  monkeypatch):
        caplog.set_level(logging.DEBUG, logger="georocket.server.httpd")

        def broken():
            raise RuntimeError("status is broken")

        monkeypatch.setattr(server.app, "status", broken)
        assert requests.get(server.url + "/").status_code == 500
        (access,) = self._records(caplog, 1)
        (error,) = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert "status=500" in access.getMessage()
        assert error.getMessage() == "unhandled error serving /"
        assert error.request_id == access.request_id > 0

    def test_the_server_log_writes_the_id_after_the_message(self):
        from georocket.server.__main__ import _Formatter

        formatter = _Formatter("%(levelname)s %(name)s: %(message)s")
        record = logging.LogRecord("georocket.server.httpd", logging.ERROR, __file__, 1,
                                   "unhandled error serving %s", ("/",), None)
        record.request_id = 7
        assert formatter.format(record) == "ERROR georocket.server.httpd: unhandled error serving / id=7"
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            record.exc_info = sys.exc_info()
        assert formatter.format(record).startswith(
            "ERROR georocket.server.httpd: unhandled error serving / id=7\nTraceback")
        plain = logging.LogRecord("georocket", logging.INFO, __file__, 1, "started", (), None)
        assert formatter.format(plain) == "INFO georocket: started"
