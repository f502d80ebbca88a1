"""The traced bench wraps index, store and server methods by name.

Installing its hooks in a fresh interpreter fails as soon as one of those
names is renamed or removed, so a rename shows up here and not only in a
traced benchmark run. Running an import, searches, an update and a delete
through the hooks also calls every ``info`` and ``after`` callback, so a
change to what those callbacks read (``IndexDocument``, the arguments of
``build_document``, the spatial index) fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_EXERCISE = r"""
import json, sys, tempfile, time
import traced_server

tracer = traced_server.Tracer()
traced_server.install(tracer)

from georocket.model import Format, MetadataDelta, parse_layer_path
from georocket.server import GeoRocketApp, ServerConfig

features = ",".join(
    '{"type":"Feature","geometry":{"type":"Point","coordinates":[%d,%d]},'
    '"properties":{"name":"f%d"}}' % (i, i, i) for i in range(3))
body = ('{"type":"FeatureCollection","features":[%s]}' % features).encode()
layer = parse_layer_path("/hooks")
with tempfile.TemporaryDirectory() as tmp:
    app = GeoRocketApp(ServerConfig(index_path=tmp + "/index"))
    try:
        task = app.import_stream(layer, [body])
        deadline = time.time() + 30
        while not task.is_terminal() and time.time() < deadline:
            time.sleep(0.01)
        assert task.state.value == "FINISHED", (task.state, task.error)
        for query in ("f1", "0,0,1,1"):
            _, out = app.search(layer, query, Format.GEOJSON)
            assert len(json.loads(b"".join(out))["features"]) == 1 + (query != "f1")
        assert app.update_metadata(layer, "f2", MetadataDelta(add_tags=frozenset({"t"}))) == 1
        assert app.delete(layer, "f1") == 1
        app.index.compact()
    finally:
        app.close()
json.dump({"names": sorted({span[1] for span in tracer.spans}),
           "errors": [span[1] for span in tracer.spans if span[6] == "error"],
           "index_lag": len(tracer.index_lag)}, sys.stdout)
"""


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_traced_server_hooks_install():
    result = _run("import traced_server; traced_server.install(traced_server.Tracer())")
    assert result.returncode == 0, result.stderr


def test_traced_server_hooks_record_an_import_search_and_delete():
    result = _run(_EXERCISE)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["errors"] == []
    assert report["index_lag"] == 3  # docs_added saw every put chunk
    assert {
        "app.import_stream", "splitter.split_auto", "splitter.pull", "store.put",
        "extract.build_document", "index.add_documents", "index._replay", "spatial.add",
        "app.search", "parser.parse", "index.query", "spatial.candidates", "merger.merge",
        "store.get_parents", "store.get", "app.update_metadata", "index.update_metadata",
        "app.delete", "index.delete", "store.delete", "index.compact", "segments.append",
        "segments.compact",
    } <= set(report["names"])
