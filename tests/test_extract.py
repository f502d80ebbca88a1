import json
import math
import random
import re
import xml.etree.ElementTree as ET

from georocket.indexer import build_document
from georocket.model import (
    ChunkMetadata,
    CollectionKind,
    Format,
    GeoJsonParents,
    TypedValue,
    XmlParents,
    parse_layer_path,
)
from georocket.splitter import RawChunk
from georocket.store import StoredEntry

from gendata import project

GEOMETRY_LOCAL_NAMES = {"posList", "pos", "coordinates", "lowerCorner", "upperCorner"}


def xml_chunk(content: bytes) -> RawChunk:
    return RawChunk(content=content, parents=XmlParents(b"<r>", b"</r>"), sequence=0)


def geojson_chunk(content: bytes) -> RawChunk:
    return RawChunk(
        content=content,
        parents=GeoJsonParents(CollectionKind.FEATURE_COLLECTION),
        sequence=0,
    )


def brute_force_xml_bbox(content: bytes):
    """Independent oracle: tree-parse, group coordinate text by srsDimension."""
    root = ET.fromstring(content)
    xs, ys = [], []

    def dim_of(path):
        for el in reversed(path):
            for attr, value in el.attrib.items():
                if attr.rpartition("}")[2] == "srsDimension":
                    return int(value)
        return 2

    def walk(el, path):
        path = path + [el]
        local = el.tag.rpartition("}")[2]
        if local in GEOMETRY_LOCAL_NAMES:
            numbers = [float(p) for p in re.split(r"[\s,]+", (el.text or "").strip()) if p]
            dim = dim_of(path)
            for i in range(0, len(numbers) - dim + 1, dim):
                xs.append(numbers[i])
                ys.append(numbers[i + 1])
        for child in el:
            walk(child, path)

    walk(root, [])
    if not xs:
        return None
    return (min(xs), min(ys), max(xs), max(ys))


class TestXmlBBox:
    def test_three_dimensional_poslist(self):
        chunk = xml_chunk(b'<w><gml:posList xmlns:gml="g" srsDimension="3">0 0 5 2 3 7</gml:posList></w>')
        box = project(chunk).bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 2, 3)

    def test_matches_brute_force_on_random_documents(self):
        rng = random.Random(11)
        for _ in range(60):
            parts = ["<w>"]
            for _ in range(rng.randint(0, 4)):
                dim = rng.choice([2, 3])
                name = rng.choice(["posList", "pos", "coordinates", "lowerCorner"])
                count = rng.randint(1, 4) * dim
                numbers = " ".join(str(rng.randint(-50, 50)) for _ in range(count))
                depth_attr = f' srsDimension="{dim}"' if rng.random() < 0.7 else ""
                parts.append(f"<sub{depth_attr}><{name}>{numbers}</{name}></sub>")
            parts.append("</w>")
            content = "".join(parts).encode()
            expected = brute_force_xml_bbox(content)
            actual = project(xml_chunk(content)).bbox
            if expected is None:
                assert actual is None
            else:
                assert (actual.min_x, actual.min_y, actual.max_x, actual.max_y) == expected

    def test_srs_dimension_inherited_from_ancestor(self):
        chunk = xml_chunk(b'<w srsDimension="3"><pos>1 2 3</pos></w>')
        box = project(chunk).bbox
        assert (box.min_x, box.min_y) == (1, 2)
        assert (box.max_x, box.max_y) == (1, 2)

    def test_corner_pair(self):
        chunk = xml_chunk(
            b"<e><lowerCorner>0 0</lowerCorner><upperCorner>9 8</upperCorner></e>"
        )
        box = project(chunk).bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 9, 8)

    def test_comma_separated_coordinates(self):
        chunk = xml_chunk(b"<g><coordinates>13.4,52.5 13.5,52.6</coordinates></g>")
        box = project(chunk).bbox
        assert (box.min_x, box.max_x) == (13.4, 13.5)

    def test_no_geometry(self):
        assert project(xml_chunk(b"<a><b>just text</b></a>")).bbox is None


class TestGeoJsonBBox:
    def test_point_degenerate_box(self):
        chunk = geojson_chunk(b'{"geometry":{"type":"Point","coordinates":[13.4,52.5]}}')
        box = project(chunk).bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (13.4, 52.5, 13.4, 52.5)

    def test_polygon(self):
        chunk = geojson_chunk(
            b'{"geometry":{"type":"Polygon","coordinates":[[[0,0],[4,0],[4,3],[0,3],[0,0]]]}}'
        )
        box = project(chunk).bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 4, 3)

    def test_no_geometry(self):
        assert project(geojson_chunk(b'{"properties":{"a":1}}')).bbox is None


class TestAttributes:
    def test_citygml_generic_string_attribute(self):
        chunk = xml_chunk(
            b'<b><gen:stringAttribute xmlns:gen="g" name="owner">'
            b"<gen:value>city</gen:value></gen:stringAttribute></b>"
        )
        attrs = project(chunk).attributes
        assert [(a.key, a.value) for a in attrs] == [("owner", TypedValue.of_text("city"))]

    def test_double_attribute_is_numeric(self):
        chunk = xml_chunk(
            b'<b><gen:doubleAttribute xmlns:gen="g" name="height">'
            b"<gen:value>12.5</gen:value></gen:doubleAttribute></b>"
        )
        attrs = project(chunk).attributes
        assert attrs[0].value == TypedValue.of_number(12.5)

    def test_four_digit_value_is_a_year(self):
        chunk = xml_chunk(
            b'<b><gen:intAttribute xmlns:gen="g" name="built">'
            b"<gen:value>2018</gen:value></gen:intAttribute></b>"
        )
        assert project(chunk).attributes[0].value.kind == "date"

    def test_attribute_without_name_ignored(self):
        chunk = xml_chunk(b"<b><gen:stringAttribute xmlns:gen='g'><gen:value>x</gen:value></gen:stringAttribute></b>")
        assert project(chunk).attributes == ()

    def test_multiple_attributes_same_key(self):
        chunk = xml_chunk(
            b'<b><a:stringAttribute xmlns:a="g" name="use"><a:value>retail</a:value></a:stringAttribute>'
            b'<a:stringAttribute xmlns:a="g" name="use"><a:value>office</a:value></a:stringAttribute></b>'
        )
        assert [a.value.value for a in project(chunk).attributes] == ["retail", "office"]

    def test_geojson_properties(self):
        chunk = geojson_chunk(
            b'{"properties":{"name":"Berlin","height":12.5}}'
        )
        attrs = {a.key: a.value for a in project(chunk).attributes}
        assert attrs["name"] == TypedValue.of_text("Berlin")
        assert attrs["height"] == TypedValue.of_number(12.5)

    def test_geojson_nested_flattened_with_dots(self):
        chunk = geojson_chunk(b'{"properties":{"address":{"city":"K\\u00f6ln"}}}')
        attrs = project(chunk).attributes
        assert attrs[0].key == "address.city"

    def test_geojson_typing_rules(self):
        chunk = geojson_chunk(
            b'{"properties":{"flag":true,"nothing":null,"date":"2018-09-13",'
            b'"num_text":"12.5","list":[1,2]}}'
        )
        attrs = {a.key: a.value for a in project(chunk).attributes}
        assert attrs["flag"] == TypedValue.of_text("true")
        assert "nothing" not in attrs
        assert attrs["date"].kind == "date"
        assert attrs["num_text"] == TypedValue.of_text("12.5")  # strings never become numbers
        assert attrs["list"] == TypedValue.of_text("[1,2]")

    def test_empty_properties(self):
        assert project(geojson_chunk(b'{"properties":{}}')).attributes == ()


class TestTokens:
    def test_xal_address_text(self):
        chunk = xml_chunk(b"<a><street>Schildergasse</street></a>")
        assert "schildergasse" in project(chunk).tokens

    def test_unicode_lowercasing(self):
        chunk = xml_chunk("<a><city>Köln</city></a>".encode())
        assert "köln" in project(chunk).tokens

    def test_attribute_values_tokenised(self):
        chunk = xml_chunk(b'<a name="Rathaus"/>')
        assert "rathaus" in project(chunk).tokens

    def test_entities_unescaped(self):
        chunk = xml_chunk(b"<a>Tom &amp; Jerry</a>")
        tokens = project(chunk).tokens
        assert "tom" in tokens and "jerry" in tokens and "amp" not in tokens

    def test_markup_inside_text_separates_tokens(self):
        chunk = xml_chunk(b"<a>foo<![CDATA[bar]]>baz<!--c-->qux<?pi x?>quux</a>")
        assert project(chunk).tokens == ("bar", "baz", "foo", "quux", "qux")

    def test_markup_inside_coordinates_joins_text(self):
        chunk = xml_chunk(b"<a><pos>1 2<!--c-->5 <![CDATA[3]]> 4</pos></a>")
        box = project(chunk).bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (1, 4, 3, 25)  # 1 25 3 4

    def test_cdata_tokenised(self):
        assert "verbatim" in project(xml_chunk(b"<a><![CDATA[verbatim]]></a>")).tokens

    def test_geometry_only_feature_still_has_numeral_tokens(self):
        chunk = geojson_chunk(b'{"type":"Feature","geometry":{"type":"Point","coordinates":[13.4,52.5]},"properties":{}}')
        tokens = project(chunk).tokens
        assert "13.4" in tokens and "52.5" in tokens

    def test_geojson_string_and_number_values(self):
        chunk = geojson_chunk(b'{"properties":{"name":"Dom","height":157}}')
        tokens = project(chunk).tokens
        assert "dom" in tokens and "157" in tokens


class TestBuildDocument:
    def test_projection_from_stored_entry(self):
        content = json.dumps(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [1.0, 2.0]},
                "properties": {"name": "Dom"},
            }
        ).encode()
        metadata = ChunkMetadata(
            layer=parse_layer_path("/x"),
            tags=frozenset({"lod2"}),
            properties={"deleted": "2018-09-13"},
            import_timestamp=1518480000000,
            format=Format.GEOJSON,
        )
        entry = StoredEntry(
            id="C1",
            content=content,
            parents=GeoJsonParents(CollectionKind.FEATURE_COLLECTION),
            metadata=metadata,
            sequence=4,
        )
        doc = build_document(entry)
        assert doc.chunk_id == "C1"
        assert doc.sequence == 4
        assert doc.bbox is not None
        assert doc.metadata == metadata
        assert any(a.key == "name" for a in doc.attributes)
        assert "dom" in doc.tokens

    def test_malformed_content_yields_empty_projection(self):
        entry = StoredEntry(
            id="C2",
            content=b"{broken",
            parents=GeoJsonParents(CollectionKind.FEATURE_COLLECTION),
            metadata=ChunkMetadata(layer=parse_layer_path("/"), format=Format.GEOJSON),
            sequence=0,
        )
        doc = build_document(entry)
        assert doc.bbox is None and doc.attributes == () and doc.tokens == ()

    def test_integer_beyond_float_range_reads_as_infinity(self):
        big = "9" * 401
        content = ('{"type":"Feature","geometry":{"type":"Point","coordinates":[%s,2]},'
                   '"properties":{"n":-%s,"m":1}}' % (big, big)).encode()
        entry = StoredEntry(
            id="C3",
            content=content,
            parents=GeoJsonParents(CollectionKind.FEATURE_COLLECTION),
            metadata=ChunkMetadata(layer=parse_layer_path("/"), format=Format.GEOJSON),
            sequence=0,
        )
        doc = build_document(entry)
        assert doc.bbox is None  # the only position has an infinite coordinate
        assert {a.key: a.value for a in doc.attributes} == {
            "n": TypedValue.of_number(-math.inf), "m": TypedValue.of_number(1.0),
        }
        assert big in doc.tokens

    def test_nesting_beyond_recursion_limit_yields_empty_projection(self):
        entry = StoredEntry(
            id="C4",
            content=b'{"properties":{"a":%s}}' % (b"[" * 5000 + b"]" * 5000),
            parents=GeoJsonParents(CollectionKind.FEATURE_COLLECTION),
            metadata=ChunkMetadata(layer=parse_layer_path("/"), format=Format.GEOJSON),
            sequence=0,
        )
        doc = build_document(entry)
        assert doc.bbox is None and doc.attributes == () and doc.tokens == ()
