import hashlib
import os
import random
import threading

import pytest

from georocket.errors import ConfigError, DuplicateIdError, NotFoundError, StorageError
from georocket.model import (
    ChunkMetadata,
    CollectionKind,
    Format,
    GeoJsonParents,
    MetadataDelta,
    XmlParents,
    parse_layer_path,
)
from georocket.store import FileSystemStore, MemoryStore, StoredEntry, create_store

import powerloss
from conftest import identity

XML_PARENTS = XmlParents(
    root_start=b'<CityModel xmlns:gml="http://www.opengis.net/gml">',
    root_end=b"</CityModel>",
    declaration=b'<?xml version="1.0" encoding="UTF-8"?>',
)


def entry(i, layer="/a/b", content=None, parents=XML_PARENTS, tags=(), properties=None):
    return StoredEntry(
        id=f"S{i:05d}",
        content=content if content is not None else f"<member id='{i}'/>".encode(),
        parents=parents,
        metadata=ChunkMetadata(
            layer=parse_layer_path(layer),
            tags=frozenset(tags),
            properties=dict(properties or {}),
            crs="EPSG:25832",
            import_timestamp=1518480000000 + i,
            format=Format.XML,
        ),
        sequence=i,
    )


@pytest.fixture(params=["memory", "filesystem"])
def store(request, tmp_path):
    if request.param == "memory":
        s = MemoryStore()
    else:
        s = FileSystemStore(tmp_path / "store")
    yield s
    s.close()


class TestContract:
    def test_put_get_round_trip_is_bit_identical(self, store):
        content = bytes(random.Random(1).randbytes(4096))
        store.put(entry(1, content=content))
        got = store.get("S00001")
        assert got.content == content
        assert got.parents == XML_PARENTS
        assert got.sequence == 1
        assert got.metadata.crs == "EPSG:25832"

    def test_duplicate_id_rejected(self, store):
        store.put(entry(1))
        with pytest.raises(DuplicateIdError):
            store.put(entry(1))

    def test_unknown_id_not_found(self, store):
        with pytest.raises(NotFoundError):
            store.get("missing")

    def test_deleted_id_not_found(self, store):
        store.put(entry(1))
        store.delete(["S00001"])
        with pytest.raises(NotFoundError):
            store.get("S00001")

    def test_delete_counts(self, store):
        for i in range(3):
            store.put(entry(i))
        assert store.delete([f"S{i:05d}" for i in range(3)]) == 3
        assert store.delete([f"S{i:05d}" for i in range(3)]) == 0

    def test_delete_mixture_counts_known(self, store):
        store.put(entry(1))
        assert store.delete(["S00001", "ghost"]) == 1

    def test_update_metadata_visible_and_confined(self, store):
        store.put(entry(1, tags={"old"}, properties={"a": "1"}))
        delta = MetadataDelta(
            set_properties={"b": "2"},
            remove_properties=frozenset({"a"}),
            add_tags=frozenset({"new"}),
            remove_tags=frozenset({"old"}),
        )
        store.update_metadata("S00001", delta)
        got = store.get("S00001")
        assert got.metadata.properties == {"b": "2"}
        assert got.metadata.tags == frozenset({"new"})
        assert got.content == entry(1).content
        assert got.metadata.layer == parse_layer_path("/a/b")

    def test_update_metadata_unknown_id(self, store):
        with pytest.raises(NotFoundError):
            store.update_metadata("ghost", MetadataDelta(add_tags=frozenset({"x"})))

    def test_scan_yields_every_id_once(self, store):
        ids = set()
        for i in range(20):
            store.put(entry(i, layer="/" + "ab"[i % 2]))
            ids.add(f"S{i:05d}")
        scanned = list(store.scan())
        assert sorted(scanned) == sorted(ids)

    def test_scan_empty(self, store):
        assert list(store.scan()) == []

    def test_layer_exists(self, store):
        assert store.layer_exists(parse_layer_path("/"))
        assert not store.layer_exists(parse_layer_path("/nope"))
        store.put(entry(1, layer="/a/b"))
        assert store.layer_exists(parse_layer_path("/a/b"))
        assert store.layer_exists(parse_layer_path("/a"))

    def test_get_parents_matches_get(self, store):
        gj = GeoJsonParents(CollectionKind.STANDALONE)
        store.put(entry(1))
        store.put(entry(2, parents=gj, content=b"{}"))
        assert store.get_parents("S00001") == XML_PARENTS
        assert store.get_parents("S00002") == gj

    def test_bulk_round_trip_hashes(self, store):
        rng = random.Random(9)
        originals = {}
        for i in range(300):
            content = rng.randbytes(rng.randint(1, 2000))
            originals[f"S{i:05d}"] = hashlib.sha256(content).hexdigest()
            store.put(entry(i, content=content))
        for chunk_id in rng.sample(sorted(originals), 50):
            got = store.get(chunk_id)
            assert hashlib.sha256(got.content).hexdigest() == originals[chunk_id]

    def test_concurrent_updates_to_different_keys(self, store):
        store.put(entry(1))
        errors = []

        def update(key):
            try:
                for n in range(20):
                    store.update_metadata(
                        "S00001", MetadataDelta(set_properties={key: str(n)})
                    )
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=update, args=(k,)) for k in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        props = store.get("S00001").metadata.properties
        assert props == {"a": "19", "b": "19", "c": "19", "d": "19"}


class TestFileSystemSpecifics:
    def test_survives_restart(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        content = b"<m>K\xc3\xb6ln</m>"
        store.put(entry(1, content=content, tags={"lod2"}))
        store.close()
        reopened = FileSystemStore(tmp_path / "s")
        got = reopened.get("S00001")
        assert got.content == content
        assert got.metadata.tags == frozenset({"lod2"})
        assert got.parents == XML_PARENTS

    def test_parents_deduplicated(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        for i in range(10):
            store.put(entry(i))
        parents_files = list((tmp_path / "s" / "parents").glob("*.json"))
        assert len(parents_files) == 1

    def test_no_temp_files_left(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        for i in range(5):
            store.put(entry(i))
        store.update_metadata("S00001", MetadataDelta(add_tags=frozenset({"t"})))
        store.delete(["S00002"])
        assert not list((tmp_path / "s").rglob("*.tmp"))

    def test_stray_chunk_without_sidecar_ignored(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        store.put(entry(1))
        stray = tmp_path / "s" / "layers" / "a" / "b" / "stray.chunk"
        stray.write_bytes(b"<m/>")
        reopened = FileSystemStore(tmp_path / "s")
        assert list(reopened.scan()) == ["S00001"]

    def test_open_removes_a_sidecar_without_its_chunk(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        store.put(entry(1))
        stray = tmp_path / "s" / "layers" / "a" / "b" / "S00002.meta"
        stray.write_bytes((tmp_path / "s" / "layers" / "a" / "b" / "S00001.meta").read_bytes())
        reopened = FileSystemStore(tmp_path / "s")
        assert not stray.exists()
        assert list(reopened.scan()) == ["S00001"]
        assert reopened.get("S00001").content == entry(1).content

    def test_open_removes_temp_files(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        store.put(entry(1))
        temps = [tmp_path / "s" / "layers" / "a" / "b" / "S00002.chunk.tmp",
                 tmp_path / "s" / "layers" / "a" / "b" / "S00001.meta.tmp",
                 tmp_path / "s" / "parents" / "0123abcd.json.tmp"]
        for path in temps:
            path.write_bytes(b"cut short")
        reopened = FileSystemStore(tmp_path / "s")
        assert [p for p in temps if p.exists()] == []
        assert reopened.get("S00001").metadata == entry(1).metadata

    def test_unrecognised_sidecar_version(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        store.put(entry(1))
        meta = next((tmp_path / "s" / "layers").rglob("*.meta"))
        meta.write_text("v999\nlayer \"/\"\n")
        with pytest.raises(StorageError):
            FileSystemStore(tmp_path / "s").get("S00001")

    def test_layer_dir_survives_deletion(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        store.put(entry(1, layer="/was/here"))
        store.delete(["S00001"])
        assert store.layer_exists(parse_layer_path("/was/here"))

    def test_root_layer_chunks(self, tmp_path):
        store = FileSystemStore(tmp_path / "s")
        store.put(entry(1, layer="/"))
        assert store.get("S00001").metadata.layer == parse_layer_path("/")


class TestFileSystemSyncs:
    """Each write of the filesystem store is on disk, under its name, when it
    returns: the directory it changed is synced."""

    @pytest.fixture
    def events(self, synced_dirs, monkeypatch):
        """``synced_dirs`` with each rename between the syncs, by target name."""
        replace = os.replace

        def recording(src, dst):
            replace(src, dst)
            synced_dirs.append(("rename", os.path.basename(dst)))

        monkeypatch.setattr(os, "replace", recording)
        return synced_dirs

    def test_put_syncs_the_parents_and_the_sidecar_before_the_chunk(self, tmp_path, events):
        store = FileSystemStore(tmp_path / "s")
        events.clear()
        store.put(entry(1))
        layers, parents = tmp_path / "s" / "layers", tmp_path / "s" / "parents"
        (parents_name,) = [p.name for p in parents.iterdir()]
        b = identity(layers / "a" / "b")
        assert events == [
            identity(layers), identity(layers / "a"),  # the new layer directories
            ("rename", parents_name), identity(parents),
            ("rename", "S00001.meta"), b,
            ("rename", "S00001.chunk"), b,
        ]
        events.clear()
        store.put(entry(2))  # the layer and its parents file exist
        assert events == [("rename", "S00002.meta"), b, ("rename", "S00002.chunk"), b]

    def test_a_new_store_syncs_its_directories(self, tmp_path, synced_dirs):
        FileSystemStore(tmp_path / "new" / "s")
        root = tmp_path / "new" / "s"
        assert synced_dirs == [identity(tmp_path), identity(tmp_path / "new"), identity(root),
                               identity(root)]  # made "new", "s", "layers" and "parents"

    def test_a_reopened_store_syncs_each_of_its_directories_once(self, tmp_path, synced_dirs):
        root = tmp_path / "s"
        store = FileSystemStore(root)
        for i, layer in enumerate(["/a/b", "/c", "/"]):
            store.put(entry(i, layer=layer))
        store.close()
        synced_dirs.clear()
        FileSystemStore(root)
        layers = root / "layers"
        assert sorted(synced_dirs) == sorted(identity(d) for d in (
            root, root / "parents", layers, layers / "a", layers / "a" / "b", layers / "c"))

    @pytest.mark.parametrize("left", [["layers/a"], ["parents"], ["layers/a", "parents"]])
    def test_a_put_after_a_kill_survives_a_power_loss(self, tmp_path, monkeypatch, left):
        """A killed process made the layer directory or the parents file of a
        later put, and did not sync its directory. Every state a power loss
        leaves after the put is acknowledged must still hold the chunk."""
        root = tmp_path / "live"
        store = FileSystemStore(root)
        store.put(entry(0, layer="/a"))
        store.delete(["S00000"])  # leaves the layer directory and the parents file
        store.close()
        (parents,) = (root / "parents").iterdir()
        unsynced = ["parents/" + parents.name if name == "parents" else name for name in left]
        recorder = powerloss.Recorder(root, unsynced)
        put = entry(1, layer="/a")
        with monkeypatch.context() as patch:
            recorder.install(patch)
            store = FileSystemStore(root)
            store.put(put)
            recorder.mark("put acknowledged")
            store.close()
        all_steps, marks, states = powerloss.crash_states(recorder, 200, 20261021)
        assert {s.cut for s in states} == set(range(len(all_steps) + 1))
        ((acknowledged, _, _),) = marks
        failures = []
        for n, state in enumerate(s for s in states if s.cut >= acknowledged):
            powerloss.materialise(state, tmp_path / f"state{n}")
            reopened = FileSystemStore(tmp_path / f"state{n}")
            try:
                got = reopened.get(put.id)
                if (got.content, got.parents) != (put.content, put.parents):
                    failures.append(f"changed: {state.describe(all_steps)}")
            except NotFoundError:
                failures.append(f"lost: {state.describe(all_steps)}")
            reopened.close()
        assert not failures, f"{len(failures)} states fail; first: {failures[0]}"

    def test_update_metadata_syncs_its_directory(self, tmp_path, synced_dirs):
        store = FileSystemStore(tmp_path / "s")
        store.put(entry(1))
        synced_dirs.clear()
        store.update_metadata("S00001", MetadataDelta(add_tags=frozenset({"t"})))
        assert synced_dirs == [identity(tmp_path / "s" / "layers" / "a" / "b")]

    def test_delete_syncs_each_directory_once(self, tmp_path, synced_dirs):
        store = FileSystemStore(tmp_path / "s")
        for i, layer in enumerate(["/a/b", "/a/b", "/c", "/d"]):
            store.put(entry(i, layer=layer))
        synced_dirs.clear()
        assert store.delete(["S00000", "S00001", "S00002", "S00009"]) == 3
        layers = tmp_path / "s" / "layers"
        assert synced_dirs == [identity(layers / "a" / "b"), identity(layers / "c")]
        assert not list((layers / "a" / "b").iterdir())


class TestScale:
    def test_ten_thousand_entries_round_trip(self, tmp_path):
        store = FileSystemStore(tmp_path / "big")
        rng = random.Random(27)
        digests = {}
        for i in range(10_000):
            content = rng.randbytes(rng.randint(40, 400))
            digests[f"S{i:05d}"] = hashlib.sha256(content).hexdigest()
            store.put(entry(i, content=content))
        for chunk_id in rng.sample(sorted(digests), 100):
            got = store.get(chunk_id)
            assert hashlib.sha256(got.content).hexdigest() == digests[chunk_id]

    def test_scan_during_concurrent_put_never_duplicates(self, tmp_path):
        store = FileSystemStore(tmp_path / "conc")
        done = threading.Event()

        def writer():
            for i in range(400):
                store.put(entry(i))
            done.set()

        t = threading.Thread(target=writer)
        t.start()
        try:
            while not done.is_set():
                seen = list(store.scan())
                assert len(seen) == len(set(seen))
        finally:
            t.join()
        final = list(store.scan())
        assert len(final) == 400 and len(set(final)) == 400


class TestFactory:
    def test_memory(self):
        assert isinstance(create_store("memory"), MemoryStore)

    def test_filesystem(self, tmp_path):
        assert isinstance(create_store("filesystem", tmp_path / "x"), FileSystemStore)

    def test_filesystem_requires_path(self):
        with pytest.raises(ConfigError):
            create_store("filesystem")

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ConfigError):
            create_store("mongodb")
