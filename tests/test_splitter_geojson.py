import functools
import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from georocket.errors import JsonMalformedError, UnsupportedFormatError
from georocket.indexer import build_document
from georocket.model import ChunkMetadata, CollectionKind, Format, parse_layer_path
from georocket.splitter import GeoJsonSplitter, detect_format, split_geojson
from georocket.splitter import geojson as geojson_module
from georocket.store import StoredEntry

from gendata import geojson_feature, make_citygml, make_geojson


def chunks_of(data: bytes):
    return list(split_geojson([data]))


class TestFeatureCollections:
    def test_three_features_in_order(self):
        doc = make_geojson(3)
        chunks = chunks_of(doc)
        assert [c.sequence for c in chunks] == [0, 1, 2]
        original = json.loads(doc)["features"]
        assert [json.loads(c.content) for c in chunks] == original
        for c in chunks:
            assert c.parents.collection_kind is CollectionKind.FEATURE_COLLECTION

    def test_exact_byte_slices(self):
        doc = b'{"type":"FeatureCollection","features":[{"a": 1} , {"b":[2,3]}]}'
        chunks = chunks_of(doc)
        assert [c.content for c in chunks] == [b'{"a": 1}', b'{"b":[2,3]}']

    def test_empty_features(self):
        assert chunks_of(b'{"type":"FeatureCollection","features":[]}') == []

    def test_reconstruction_is_json_equal(self):
        doc = make_geojson(25)
        chunks = chunks_of(doc)
        rebuilt = b'{"type":"FeatureCollection","features":[' + b",".join(
            c.content for c in chunks
        ) + b"]}"
        assert json.loads(rebuilt) == json.loads(doc)

    def test_extra_top_level_members_tolerated(self):
        doc = (b'{"name":"test \\u00e9\\"x[{","type":"FeatureCollection",'
               b'"features":[{"f":1}],"count":1}')
        chunks = chunks_of(doc)
        assert [c.content for c in chunks] == [b'{"f":1}']

    def test_crs_member_before_features_becomes_hint(self):
        doc = (b'{"type":"FeatureCollection",'
               b'"crs":{"type":"name","properties":{"name":"EPSG:25832"}},'
               b'"features":[{"f":1}]}')
        assert chunks_of(doc)[0].crs_hint == "EPSG:25832"

    def test_unicode_and_escapes_inside_features(self):
        feature = {"type": "Feature", "properties": {"name": 'Köln "quoted" \\ []{}'}}
        doc = json.dumps({"type": "FeatureCollection", "features": [feature]}).encode()
        chunks = chunks_of(doc)
        assert json.loads(chunks[0].content) == feature

    def test_braces_inside_strings(self):
        doc = b'{"type":"FeatureCollection","features":[{"a":"}{][" },{"b":2}]}'
        chunks = chunks_of(doc)
        assert len(chunks) == 2
        assert json.loads(chunks[0].content) == {"a": "}{]["}

    def test_block_size_one(self):
        doc = make_geojson(4)
        chunks = list(split_geojson([bytes([b]) for b in doc]))
        assert len(chunks) == 4

    def test_nested_features_key_is_not_split(self):
        doc = (b'{"meta":{"features":[1,2,3]},"type":"FeatureCollection",'
               b'"features":[{"f":1}]}')
        assert len(chunks_of(doc)) == 1


class TestStandalone:
    def test_single_feature(self):
        doc = b'  {"type":"Feature","geometry":null,"properties":{}} '
        chunks = chunks_of(doc)
        assert len(chunks) == 1
        assert chunks[0].parents.collection_kind is CollectionKind.STANDALONE
        assert chunks[0].content == doc.strip()

    def test_bare_geometry(self):
        doc = b'{"type":"Point","coordinates":[13.4,52.5]}'
        chunks = chunks_of(doc)
        assert chunks[0].parents.collection_kind is CollectionKind.STANDALONE

    def test_geometry_collection_is_one_chunk(self):
        doc = (b'{"type":"GeometryCollection","geometries":'
               b'[{"type":"Point","coordinates":[1,2]}]}')
        assert len(chunks_of(doc)) == 1


class TestMalformed:
    @pytest.mark.parametrize(
        "doc",
        [
            b"",
            b"   ",
            b"[1,2,3]",                                     # top-level array
            b'"scalar"',
            b'{"type":"FeatureCollection","features":[',
            b'{"type":"FeatureCollection","features":[{]}',
            b'{"type":"FeatureCollection","features":[1]}',  # non-object feature
            b'{"type":"FeatureCollection","features":[{"a": tru}]}',
            b'{"a":1}extra',
            b'{"a" 1}',
            b'{"unterminated',
            b'{"a":}',
            b'{"type":"FeatureCollection","features":[{"a":1},]}',
        ],
    )
    def test_raises_typed_error(self, doc):
        with pytest.raises(JsonMalformedError) as err:
            chunks_of(doc)
        assert err.value.offset is not None

    def test_offset_points_at_bad_feature(self):
        doc = b'{"type":"FeatureCollection","features":[{"ok":1}, {"bad": nope}]}'
        with pytest.raises(JsonMalformedError) as err:
            chunks_of(doc)
        assert err.value.offset >= doc.index(b'{"bad"')

    def test_chunks_before_error_remain_valid(self):
        doc = b'{"type":"FeatureCollection","features":[{"ok":1}, {"bad": nope}]}'
        stream = split_geojson([doc])
        assert json.loads(next(stream).content) == {"ok": 1}
        with pytest.raises(JsonMalformedError):
            list(stream)


class TestDecoding:
    @pytest.mark.parametrize("doc,fault", [
        # offsets count bytes, not characters
        (b'{"type":"FeatureCollection","features":[{"name":"K\xc3\xb6ln","x": nope}]}', b"nope"),
        (b'\xef\xbb\xbf{"name":"K\xc3\xb6ln","x": nope}', b"nope"),
        # a feature cut short: the end of the input, not the feature's start
        (b'{"type":"FeatureCollection","features":[{"a":[1,2', None),
        # a member around the features array: the member, not the document's start
        (b'{"type":"FeatureCollection","features":[{"a":1}],"b":nope}', b"nope"),
        # a key without its opening quote: the key, not a later quote
        (b'{"type":"FeatureCollection","features":[{"type":"Feature",geometry":null}]}',
         b'geometry"'),
    ], ids=["after-multibyte", "under-bom", "cut-feature", "member-after-features",
            "unquoted-key"])
    def test_error_offset_is_where_json_fails(self, doc, fault):
        with pytest.raises(JsonMalformedError) as err:
            chunks_of(doc)
        assert err.value.offset == (len(doc) if fault is None else doc.index(fault))

    @pytest.mark.parametrize("template", [
        b'{"type":"FeatureCollection","features":[{"a":%s}]}',
        b'{"a":%s,"features":[]}',
        b'{"type":"Feature","properties":{"a":%s}}',
    ], ids=["feature", "member", "standalone"])
    def test_deep_nesting_is_malformed_json(self, template):
        doc = template % (b"[" * 100_000 + b"]" * 100_000)
        with pytest.raises(JsonMalformedError) as err:
            chunks_of(doc)
        # the offset is the start of the feature or top-level member value
        assert err.value.offset == doc.index(b"[" if template.startswith(b'{"a"') else b'{"a"')

    def test_integer_too_long_for_int_is_malformed_json(self):
        doc = b'{"type":"FeatureCollection","features":[{"a":%s}]}' % (b"1" * 5000)
        with pytest.raises(JsonMalformedError) as err:
            chunks_of(doc)
        assert err.value.offset == doc.index(b'{"a"')

    def test_what_json_accepts_is_accepted(self):
        features = [b'{"v":NaN,"w":Infinity,"x":-Infinity}', b'{"k":1,"k":2}']
        doc = b'{"type":"FeatureCollection","features":[' + b",".join(features) + b"]}"
        assert [c.content for c in chunks_of(doc)] == features

    def test_bytes_that_are_not_utf8_are_kept(self):
        feature = b'{"name":"K\xf6ln \xff\xfe","ok":"\xe2\x82\xac"}'
        doc = b'{"type":"FeatureCollection","features":[' + feature + b"]}"
        for size in (1, 2, len(doc)):
            chunks = list(split_geojson(blocks_of(doc, size)))
            assert [c.content for c in chunks] == [feature]

    def test_crs_name_that_is_not_utf8_reads_replacement_character(self):
        doc = b'{"crs":{"properties":{"name":"EPSG\xff:1"}},"features":[{"f":1}]}'
        assert chunks_of(doc)[0].crs_hint == "EPSG\ufffd:1"

    def test_any_cut_point_gives_the_same_chunks(self):
        doc = ('{"n":-12.5e+3,"t":true,"i":-Infinity,"s":"\\u00e9\\ud834\\udd1e K\u00f6ln",'
               '"crs":{"properties":{"name":"EPSG:31466"}},"features":['
               '{"a":[NaN,-0.25E-2,1234567,null,false],"b":"\\"x\\"\U0001d11e"},'
               '{"c":{"d":[]},"e":""}],"m":98765}').encode("utf-8")
        expected = [(c.content, c.crs_hint) for c in chunks_of(doc)]
        assert len(expected) == 2
        for cut in range(1, len(doc)):
            chunks = split_geojson([doc[:cut], doc[cut:]])
            assert [(c.content, c.crs_hint) for c in chunks] == expected, cut

    @pytest.mark.parametrize("bad", [
        b'{"bad": nope}', b'{"a":[1,2}', b'{"a":"x\x01"}', b'{"a":"\\q"}', b'{"a" 1}',
    ], ids=["literal", "bracket", "control-character", "escape", "colon"])
    def test_malformed_feature_raises_before_the_stream_ends(self, bad):
        taken = 0

        def stream():
            nonlocal taken
            yield b'{"type":"FeatureCollection","features":[' + bad
            for i in range(100_000):
                taken += 1
                yield b"," + geojson_feature(i).encode()
            yield b"]}"

        with pytest.raises(JsonMalformedError):
            list(split_geojson(stream()))
        assert taken < 3

    def test_large_feature_is_decoded_a_logarithmic_number_of_times(self, monkeypatch):
        calls = 0
        raw_decode = geojson_module._raw_decode

        def counting(text, pos):
            nonlocal calls
            calls += 1
            return raw_decode(text, pos)

        monkeypatch.setattr(geojson_module, "_raw_decode", counting)
        feature = b'{"pad":"%s"}' % (b"x" * (1 << 20))
        doc = b'{"type":"FeatureCollection","features":[' + feature + b"]}"
        chunks = list(split_geojson(blocks_of(doc, 1024)))
        assert [c.content for c in chunks] == [feature]
        assert calls <= 2 * 12  # the key, then about log2(1 MiB / 1 KiB) reads of the feature

    def test_max_buffered_counts_bytes(self):
        doc = ('{"type":"Feature","properties":{"name":"%s"}}' % ("ö" * 1000)).encode("utf-8")
        splitter = GeoJsonSplitter()
        assert len(list(splitter.split([doc]))) == 1
        assert splitter.max_buffered == len(doc)


class TestMemoryBound:
    def test_buffer_tracks_largest_feature(self):
        doc = make_geojson(4000, pad=300)
        max_feature = max(len(c.content) for c in chunks_of(doc))
        splitter = GeoJsonSplitter()
        blocks = [doc[i : i + 65536] for i in range(0, len(doc), 65536)]
        count = sum(1 for _ in splitter.split(blocks))
        assert count == 4000
        assert splitter.max_buffered <= max_feature + (1 << 20)


# --- output pinned across splitter rewrites ------------------------------------

_META = ChunkMetadata(layer=parse_layer_path("/g"), import_timestamp=1, format=Format.GEOJSON)
_bench_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py"
)
bench_gen = importlib.util.module_from_spec(_bench_spec)
_bench_spec.loader.exec_module(bench_gen)


def blocks_of(doc: bytes, block_size: int):
    return (doc[i : i + block_size] for i in range(0, len(doc), block_size))


@functools.lru_cache(maxsize=None)
def _projection(content: bytes, sequence: int) -> str:
    entry = StoredEntry(id=f"C{sequence}", content=content, parents=None,
                        metadata=_META, sequence=sequence)
    return json.dumps(build_document(entry).to_record(), sort_keys=True)


def geojson_digest(blocks) -> tuple[int, str]:
    """(chunk count, sha256) over chunk bytes, parents, sequence, CRS hint
    and the index projection of every chunk."""
    digest = hashlib.sha256()
    count = 0
    for c in split_geojson(blocks):
        digest.update(b"%d:" % len(c.content) + c.content)
        record = [c.parents.collection_kind.value, c.sequence, c.crs_hint,
                  _projection(c.content, c.sequence)]
        digest.update(json.dumps(record).encode("utf-8"))
        count += 1
    return count, digest.hexdigest()


def bench_collection(seed: int) -> bytes:
    rng = random.Random(seed)
    features = [bench_gen.geojson_feature(rng, i) for i in range(150)]
    features += [bench_gen.scratch_feature(rng, i) for i in range(10)]
    return bench_gen.feature_collection(features)


def big_feature_collection() -> bytes:
    """A collection whose first feature is a 2.6 MB line string."""
    coords = ",".join("[%d.%04d,%d.%04d]" % (6 + i % 3, i % 10000, 50 + i % 2, (i * 7) % 10000)
                      for i in range(150_000))
    big = ('{"type":"Feature","geometry":{"type":"LineString","coordinates":[%s]},'
           '"properties":{"name":"Groß Köln","length":%d}}' % (coords, len(coords)))
    small = '{"type":"Feature","geometry":null,"properties":{"name":"after"}}'
    return ('{"type":"FeatureCollection","crs":{"type":"name","properties":{"name":"EPSG:4326"}},'
            '"features":[%s,%s]}' % (big, small)).encode("utf-8")


EDGE_DOCS = {
    # BOM, whitespace, escapes in a skipped member, a crs hint, NaN and
    # Infinity, duplicate keys, bytes that are not UTF-8 inside a string, a
    # number that overflows a float, and a second features array kept whole
    "members": (
        b'\xef\xbb\xbf {"type":"FeatureCollection","name":"K\xc3\xb6ln \\"[{\\u00e9",'
        b'"crs":{"type":"name","properties":{"name":"EPSG:25832"}},"features":[ '
        b'{"type":"Feature","properties":{"v":NaN,"w":Infinity,"x":-Infinity,"k":1,"k":2,'
        b'"raw":"\xff\xfe ok","euro":"\xe2\x82\xac"},"geometry":{"type":"Point",'
        b'"coordinates":[1e400,2]}} ,\n\t{"type":"Feature","geometry":null,'
        b'"properties":{"n":12345678901234567890,"d":"2018-09-13","b":true,"z":null,'
        b'"l":[1,"two",{"x":3}],"o":{"p":{"q":-0.5e-3}}}}\r\n],"count":2,'
        b'"features":[{"not":"split"}]} \n'
    ),
    "standalone": (
        b'{"crs":{"properties":{"name":"urn:ogc:def:crs:EPSG::4326"}},"type":"Feature",'
        b'"geometry":{"type":"Point","coordinates":[7,51]},'
        b'"properties":{"a":[1,"b",{"c":null}],"d":{"e":"2018-09-13"}}}'
    ),
    "geometry": b'{"type":"MultiPoint","coordinates":[[1.5,2],[3,-4.25e2]]}',
    "empty-object": b"{}",
    "empty-features": b'{"type":"FeatureCollection","features":[]}',
    "features-not-array": (
        b'{"features":{"a":1},"crs":{"properties":{"name":"EPSG:1"}},'
        b'"features":[{"f":1},{"f":[2,{"g":"}]"}]}]}'
    ),
    "crs-kept-over-bad-crs": (
        b'{"crs":{"properties":{"name":"A"}},"crs":{"x":1},"crs":5,"features":[{"f":1}]}'
    ),
    "crs-after-features": b'{"features":[{"f":1}],"crs":{"properties":{"name":"late"}}}',
}

PINNED = {
    "gendata": (25, "7a9bf8f39d052d13d61233fc00d87529e27b8bb5e98f9248d6718cf0b46413f7"),
    "gendata-padded": (40, "73b78c5f235f36eaa0ed8e03449b2a94f2d17026a98d23b33d5fae31784e697a"),
    "bench-seed-1": (160, "866749d833d600f9137d13dfb7030def358845199810c05aa466390a28869212"),
    "bench-seed-7": (160, "3ed86645a02091665bfaeb5ebca81eba93f49ea2f1c944c853e096783ac1d34d"),
    "bench-seed-401": (160, "922c6f49ad326b48da6daf86519acd5bea0f5e89249f25b9ebbb71f13ef56c20"),
    "big-feature": (2, "00276b6d580d59566d742ce329ba838f9e674e92613c85df78796d8daa35a6f0"),
    # its first feature holds bytes that are not UTF-8, and is projected
    # (not left empty) since extraction decodes them as surrogate escapes
    "members": (2, "39192259ace6929ac3fd5a8725e32f70aac6a769608dd0b382b3624d469a4f09"),
    "standalone": (1, "a765bc1ad70d9532ffe52065200d5e4887b8b36562069de42ee709a03256fd36"),
    "geometry": (1, "db19d52f1efe974646b0e50c59eb0d45817f83c77d1179b3119bcd77208fc232"),
    "empty-object": (1, "f5f77896bcca95ed39e8a838bf4f010ca64b4104170191809893473ccfaeccd5"),
    "empty-features": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "features-not-array": (2, "071dc285a5f738361ab43e83858e2e094dc889dabe612dee1855affee6f618de"),
    "crs-kept-over-bad-crs": (1, "5ca00587c6a833366e1ce36a0434a985cd5b7c2385447ddbdddcecf35e1be71f"),
    "crs-after-features": (1, "125e728f136847fbef09a96db9cd14c63850e8d950089713744db0fe0324bd65"),
}


def pinned_input(name: str) -> bytes:
    if name == "gendata":
        return make_geojson(25)
    if name == "gendata-padded":
        return make_geojson(40, street="Schildergasse", city="Zürich", pad=300)
    if name.startswith("bench-seed-"):
        return bench_collection(int(name.rsplit("-", 1)[1]))
    if name == "big-feature":
        return big_feature_collection()
    return EDGE_DOCS[name]


def criterion_9_geojson_inputs() -> list[bytes]:
    """The fuzzed imports of acceptance criterion 9 that read as GeoJSON,
    regenerated from its seed (its query fuzz draws from the same generator
    first)."""
    rng = random.Random(404)
    for i in range(1_000_000):
        # a query is rng.choices(..., k=rng.randint(0, 8 or 20)): one
        # random() per pick
        for _ in range(rng.randint(0, 8 if i % 2 else 20)):
            rng.random()
    raw_pool = [make_citygml(2), make_geojson(2), b"", b"PK\x03\x04", b"<", b"{", b"[", b"\xff\xfe"]
    inputs = []
    for _ in range(10_000):
        base = bytearray(rng.choice(raw_pool))
        for _ in range(rng.randint(0, 6)):
            action = rng.random()
            if not base or action < 0.4:
                base.insert(rng.randint(0, len(base)), rng.randrange(256))
            elif action < 0.7:
                del base[rng.randint(0, len(base) - 1)]
            else:
                base = base[: rng.randint(0, len(base))]
        try:
            if detect_format(bytes(base)) is Format.GEOJSON:
                inputs.append(bytes(base))
        except UnsupportedFormatError:
            pass
    return inputs


class TestSeedOutput:
    """Chunks, CRS hints and index projections of fixed inputs.

    The digests were computed with the splitter as it was before it read
    GeoJSON with ``json.JSONDecoder.raw_decode``."""

    @pytest.mark.parametrize("block_size", [1, 7, 1 << 16, None])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest(self, name, block_size):
        doc = pinned_input(name)
        blocks = [doc] if block_size is None else blocks_of(doc, block_size)
        assert geojson_digest(blocks) == PINNED[name]

    def test_fuzz_verdicts(self):
        inputs = criterion_9_geojson_inputs()
        digest = hashlib.sha256()
        accepted = 0
        for doc in inputs:
            try:
                chunks = list(split_geojson([doc]))
            except JsonMalformedError as e:
                assert e.offset is not None
                digest.update(b"rejected;")
                continue
            accepted += 1
            for c in chunks:
                digest.update(b"%d:" % len(c.content) + c.content)
            digest.update(b"accepted;")
        assert (len(inputs), accepted, digest.hexdigest()) == (
            1877, 293, "1e27cea70610f4b5f7da22de513887482136353ecae548a50018943a008a3188"
        )
