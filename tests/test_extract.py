import json
import gc
import importlib.util
import math
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from georocket.errors import XmlMalformedError
from georocket.indexer import build_document
from georocket.indexer.extract import projected_document
from georocket.model import (
    ChunkMetadata,
    CollectionKind,
    Format,
    GeoJsonParents,
    TypedValue,
    XmlParents,
    parse_layer_path,
)
from georocket.splitter import RawChunk, split_xml
from georocket.store import StoredEntry

from extract_reference import reference_extract
from gendata import project

_bench_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py"
)
bench_gen = importlib.util.module_from_spec(_bench_spec)
_bench_spec.loader.exec_module(bench_gen)

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

    def test_bytes_that_are_not_utf8_are_projected(self):
        # the splitter stores such bytes verbatim inside strings
        chunk = geojson_chunk(
            b'{"type":"Feature","geometry":{"type":"Point","coordinates":[7,51]},'
            b'"properties":{"raw":"\xff\xfe ok","name":"K\xc3\xb6ln"}}'
        )
        doc = project(chunk)
        assert (doc.bbox.min_x, doc.bbox.min_y) == (7, 51)
        assert {a.key: a.value for a in doc.attributes} == {
            "raw": TypedValue.of_text("\udcff\udcfe ok"), "name": TypedValue.of_text("Köln"),
        }
        assert {"ok", "köln", "feature", "point", "7", "51"} <= set(doc.tokens)


# --- equivalence with the reference extractor ---------------------------------


def assert_matches_reference(fmt: Format, content: bytes) -> None:
    """``build_document`` projects ``content`` exactly as the reference does;
    reprs tell -0.0 from 0.0 and compare NaN."""
    parents = XmlParents(b"<r>", b"</r>") if fmt is Format.XML else GeoJsonParents(
        CollectionKind.FEATURE_COLLECTION)
    metadata = ChunkMetadata(layer=parse_layer_path("/"), format=fmt)
    doc = build_document(StoredEntry(id="C", content=content, parents=parents, metadata=metadata))
    bbox, attributes, tokens = reference_extract(fmt, content)
    assert repr(doc.bbox) == repr(bbox)
    assert [repr(a) for a in doc.attributes] == [repr(a) for a in attributes]
    assert doc.tokens == tuple(sorted(tokens))


def truncated(data: st.DataObject, content: bytes) -> bytes:
    """``content``, or now and then a malformed prefix of it."""
    if data.draw(st.integers(0, 7)):
        return content
    return content[: data.draw(st.integers(0, max(len(content) - 1, 0)))]


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-1000, 1000),
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**400, -(10**400), 0, -0.0, 0.0, 1e-7, 1e22, 12.5, -3]),
)
STRINGS = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        "2018", "2018-09", "2018-09-13", "2018-09-13T10:11:12Z", "2018-09-13T10:11:12.5+02:00",
        "2018-13-01", "2018-02-30", "1999abc", "12 Gasse", "\u0663\u0664\u0665\u0666",
        "\u00b2018", "Köln", "ß-straße", "a_b-c.d", "1.5-2", "", "\ufffd",
    ]),
)
LEAVES = st.one_of(NUMBERS, STRINGS, st.booleans(), st.none())
KEYS = st.one_of(st.sampled_from(["coordinates", "type", "name", "a.b", "", "properties"]),
                 st.text(max_size=6))
POSITIONS = st.one_of(st.lists(NUMBERS, min_size=2, max_size=3), st.lists(NUMBERS, max_size=4))
COORDINATES = st.recursive(
    st.one_of(POSITIONS, LEAVES),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=12,
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def geojson_features(draw):
    feature = {"type": draw(st.sampled_from(["Feature", "feature", 5]))}
    geometry = st.fixed_dictionaries({
        "type": st.sampled_from(["Point", "Polygon", "GeometryCollection"]),
        "coordinates": COORDINATES,
    })
    if draw(st.integers(0, 3)):
        feature["geometry"] = draw(st.one_of(geometry, geometry, st.none(), JSON_VALUES))
    if draw(st.booleans()):
        feature["properties"] = draw(st.one_of(st.dictionaries(KEYS, JSON_VALUES, max_size=6),
                                               JSON_VALUES))
    feature.update(draw(st.dictionaries(KEYS, JSON_VALUES, max_size=2)))
    return draw(st.sampled_from([feature, [feature], feature.get("geometry")]))


XML_EDGE_CASES = [
    b"<a><pos>1 2<b/>3 4</pos></a>",  # markup inside a geometry joins its text
    b"<a><pos>1 2<!--c-->3 4</pos><pos>5<?p?>6</pos><pos>7 <![CDATA[8]]></pos></a>",
    b'<a srsDimension="3"><b><posList>1 2 3 4 5 6</posList></b></a>',
    b'<a srsDimension="3"><posList srsDimension="2">1 2 3 4</posList></a>',
    b'<a srsDimension="3"><b srsDimension="x"><posList>1 2 3</posList></b></a>',
    b'<a gml:srsDimension=" 4 " srsDimension="1"><pos>1 2 3 4</pos></a>',
    b'<pos srsDimension="1">1 2</pos>',
    b"<a><pos>1 2 3</pos><pos>1e5 2</pos><pos>nan 1</pos><pos>1.5.2 3</pos></a>",
    b"<a><pos>0 0</pos><pos>-0 -0</pos></a>",
    b"<a><pos>-0 -0</pos><pos>0 0</pos></a>",
    b"<a><pos>1&#x20;2</pos><pos>3 4&eacute;</pos><pos>5&nbsp;6</pos><pos>7&#10;8</pos></a>",
    b'<fooAttribute name=""><value>5</value></fooAttribute>',
    b'<xAttribute name="k"><value>1<value>2</value>3</value></xAttribute>',
    b'<xAttribute name="k"><b><value> 2018 </value></b><value>x<!--c-->y</value></xAttribute>',
    b'<xAttribute name="k"><value>caf&eacute;s<b/>t</value></xAttribute>',
    b'<xAttribute name="k"><value><pos>1 2</pos></value></xAttribute>',
    b'<pos><xAttribute name="k"><value>7</value></xAttribute>1 2</pos>',
    b'<xAttribute name="a"><yAttribute><value>1</value></yAttribute></xAttribute>',
    b'<xAttribute name="a" gen:name="b"><value>4.0</value></xAttribute>',
    b"<a>caf&eacute;s</a>",
    b"<a><pos>1 2 3",
    b'<a><xAttribute name="k"><value>abc',
    b"<a>x</a",
]

GEOJSON_EDGE_CASES = [
    b'{"coordinates":[true,1]}',
    b'{"coordinates":[[1,2],[3,[4,5]],"x",{"a":[6,7]},[8],[]]}',
    b'{"geometry":{"coordinates":[[0,1],[-0.0,1]]}}',
    b'{"geometry":{"coordinates":[[-0.0,1],[0,1]]}}',
    b'{"coordinates":[[1e400,2],[%d,3],[NaN,4],[Infinity,-Infinity],[5,6]]}' % 10**400,
    b'{"coordinates":[1.5e-7,1e22,-3]}',
    ('{"properties":{"a":"\u0663\u0664\u0665\u0666","b":"\u00b2018","c":"2018-02-30",'
     '"d":"2018-09-13T10:11:12Z","e":"12 Gasse","coordinates":[1,2],"f":{"g":[1,{"h":null}]},'
     '"i":true,"j":NaN}}').encode(),
    b'{"properties":[1],"type":"\\u00dfx"}',
    b'[{"coordinates":[1,2]}]',
    b'{"type":"Feature","properties":{"raw":"\xff\xfe ok"}}',
    b' \r\n\t{"properties":{"a":1}} \n',  # JSON whitespace around the value
    b'\xef\xbb\xbf{"properties":{"a":1}}',  # a byte order mark is not JSON
    b'{"properties":{"a":1}} x',
    b'{"properties":{"a":1}}{"b":2}',
    b'\xc2\xa0{"properties":{"a":1}}',  # no-break space is not JSON whitespace
]


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(geojson_features(), st.booleans(), st.data())
    def test_geojson(self, value, raw_bytes, data):
        text = json.dumps(value, ensure_ascii=data.draw(st.booleans()))
        content = text.encode("utf-8", "surrogatepass")
        if raw_bytes:  # bytes that are not UTF-8 inside a string
            content = content.replace(b'"', b'"\xff\xc3', 1)
        assert_matches_reference(Format.GEOJSON, truncated(data, content))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_xml(self, data):
        content = data.draw(xml_documents()).encode("utf-8")
        assert_matches_reference(Format.XML, truncated(data, content))

    @pytest.mark.parametrize("content", XML_EDGE_CASES)
    def test_xml_edge_cases(self, content):
        assert_matches_reference(Format.XML, content)

    @pytest.mark.parametrize("content", GEOJSON_EDGE_CASES)
    def test_geojson_edge_cases(self, content):
        assert_matches_reference(Format.GEOJSON, content)

    def test_extraction_leaves_no_cyclic_garbage(self):
        # the server runs with the collector frozen; a pass's parser and
        # handlers refer to each other and must be freed without it
        contents = [(Format.XML, c) for c in XML_EDGE_CASES]
        contents += [(Format.GEOJSON, c) for c in GEOJSON_EDGE_CASES]
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for fmt, content in contents:
                assert_matches_reference(fmt, content)
            found = gc.collect()
            garbage = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == 0, garbage

    def test_bench_shaped_inputs(self):
        rng = random.Random(5)
        building = bench_gen.citygml_building(rng, 3)
        assert_matches_reference(Format.XML, building.encode("utf-8"))
        for i in range(20):
            assert_matches_reference(Format.GEOJSON, bench_gen.geojson_feature(rng, i).encode())


XML_TAGS = ["gml:posList", "pos", "x:coordinates", "lowerCorner", "gml:upperCorner", "gen:value",
            "value", "gen:stringAttribute", "doubleAttribute", "Attribute", "a", "b:c"]
XML_ATTRIBUTES = st.tuples(
    st.sampled_from(["srsDimension", "gml:srsDimension", "name", "gen:name", "gml:id", "Type"]),
    st.sampled_from(["2", "3", " 3 ", "1", "0", "-1", "4", "x", "1.5", "\u0663", "", "street",
                     "Gasse 12", "a&amp;b"]),
)
XML_TEXTS = st.one_of(
    st.sampled_from([
        "1 2 3 4 5 6", "1 2", "-0 0 0.5", " 1.5,2 3,-4 ", "1 2 3 4", "1e5 2", "nan 1 2",
        "1.5.2 3", "1-2 3", "1\t2\n3", "12", "Gasse 12", "2018-09-13", " 2018 ", "4.0",
        "Köln", "x_y-z.1", "\u00a01 2",
    ]),
    st.text(alphabet=st.characters(blacklist_characters="<&]\r",
                                   blacklist_categories=("Cs", "Cc")), max_size=8),
)
XML_MARKUP = st.sampled_from([
    "&amp;", "&lt;", "&#233;", "&#x31;", "&eacute;", "&nbsp;", "<![CDATA[7 8]]>", "<![CDATA[a<b]]>",
    "<!-- c -->", "<?pi 9?>",
])


@st.composite
def xml_elements(draw, depth=0):
    tag = draw(st.sampled_from(XML_TAGS))
    attrs = draw(st.lists(XML_ATTRIBUTES, max_size=2, unique_by=lambda kv: kv[0]))
    parts = []
    for _ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
        parts.append(draw(st.one_of(XML_TEXTS, XML_MARKUP, xml_elements(depth + 1))))
    if draw(st.booleans()):
        parts.insert(0, draw(XML_TEXTS))
    attr_text = "".join(f' {k}="{v}"' for k, v in attrs)
    return f"<{tag}{attr_text}>{''.join(parts)}</{tag}>"


@st.composite
def xml_documents(draw):
    root = draw(xml_elements())
    return draw(st.sampled_from([root, f"<w xmlns:gml='g'>{root}</w>", f"<?xml version='1.0'?>{root}"]))


# --- projections made while splitting ------------------------------------------


def split_projections(doc: bytes, block_size: int) -> list:
    """(chunk, ``build_document`` of its stored bytes, the document built from
    the projection the splitter gave it) for each chunk of ``doc``, up to the
    first error."""
    blocks = [doc[i : i + block_size] for i in range(0, len(doc), block_size)]
    out = []
    try:
        for chunk in split_xml(blocks):
            stored = project(chunk)
            projected = None if chunk.projection is None else projected_document(
                stored.chunk_id, chunk.projection, stored.metadata, stored.sequence)
            out.append((chunk, stored, projected))
    except XmlMalformedError:
        pass
    return out


def assert_projected_as_stored(doc: bytes, internal_subset: bool = False) -> None:
    """At every block size, each chunk's projection equals ``build_document``
    of its bytes; reprs tell -0.0 from 0.0 and compare NaN. Under a DOCTYPE
    with declarations, chunks carry none."""
    for block_size in (1, 7, 65536):
        for chunk, stored, projected in split_projections(doc, block_size):
            if internal_subset:
                assert chunk.projection is None
            else:
                assert repr(projected) == repr(stored), (block_size, chunk.content)


XML_ROOT_ATTRIBUTES = st.lists(
    st.one_of(XML_ATTRIBUTES, st.tuples(st.sampled_from(["srsName", "gml:srsName", "xmlns:gml"]),
                                        st.sampled_from(["EPSG:25832", "urn:x", ""]))),
    max_size=3, unique_by=lambda kv: kv[0])
XML_BETWEEN = st.sampled_from([
    "", "\n  ", " ", "<!-- between -->", "<?pi between?>", "stray text 12", "&nbsp;", "&amp;",
    "<![CDATA[7 8 <x>]]>", "&#49;",
])
XML_DOCTYPES = [
    ("", False),
    ("<!DOCTYPE r>", False),
    ('<!DOCTYPE r SYSTEM "r.dtd">', False),
    ('<!DOCTYPE r [<!ENTITY nbsp "n b s p">]>', True),
    ('<!DOCTYPE r [<!ENTITY e "<pos>1 2</pos>"><!ATTLIST pos srsDimension CDATA "3">]>', True),
]


@st.composite
def xml_imports(draw):
    """A document of ``xml_elements`` under a root with random attributes,
    after a random prolog; the document and whether its DOCTYPE declares
    anything."""
    root = draw(st.sampled_from(["r", "core:CityModel"]))
    attrs = "".join(f' {k}="{v}"' for k, v in draw(XML_ROOT_ATTRIBUTES))
    body = "".join(draw(XML_BETWEEN) + draw(xml_elements()) for _ in range(draw(st.integers(0, 4))))
    doctype, internal_subset = draw(st.sampled_from(XML_DOCTYPES))
    misc = st.sampled_from(["", "\n", "<!-- c -->", "<?pi x?>"])
    prolog = (draw(st.sampled_from(["", "\ufeff"]))
              + draw(st.sampled_from(["", "<?xml version='1.0'?>", '<?xml version="1.0" encoding="UTF-8"?>']))
              + draw(misc) + doctype + draw(misc))
    tail = draw(XML_BETWEEN)
    doc = f"{prolog}<{root}{attrs}>{body}{tail}</{root}>{draw(misc)}"
    return doc.encode("utf-8"), internal_subset


XML_SPLIT_CASES = [
    b"<r><a/><b x='1 2'/><pos srsDimension='1'/></r>",  # self-closing chunks
    b"<r><a><![CDATA[1 2]]></a><![CDATA[between]]><pos><![CDATA[3 4]]></pos></r>",
    b"<r><!--c--><a>x<!--in-->y<?pi in?>z</a><?pi between?><pos>1<!--c-->2</pos></r>",
    b"<r>&nbsp;<a n='p&nbsp;q' m='caf&eacute;'>Hohe&nbsp;Stra&szlig;e &eacute;t&eacute;</a>&eacute;</r>",
    b"<r srsDimension='3'><a><pos>1 2 3 4</pos></a><b srsDimension='3'><pos>1 2 3</pos></b></r>",
    b"<r gml:srsDimension='1' name='x'><xAttribute name='k'><value>5</value></xAttribute></r>",
    b"<r>text before<a>1</a>text after</r>",
    b"<r><pos>1 2</pos><pos>3 4",  # truncated: the chunks before the error
    b'<!DOCTYPE r SYSTEM "r.dtd"><r><a>&e; &nbsp;</a><b n="x&eacute;y"/></r>',
    b"<!DOCTYPE r><r><pos>0 0</pos><pos>-0 -0</pos></r>",
]


class TestSplitterProjection:
    @settings(max_examples=300, deadline=None)
    @given(xml_imports())
    def test_matches_stored_bytes(self, case):
        doc, internal_subset = case
        assert_projected_as_stored(doc, internal_subset)

    @pytest.mark.parametrize("doc", XML_SPLIT_CASES)
    def test_cases(self, doc):
        assert split_projections(doc, 65536)
        assert_projected_as_stored(doc)

    def test_root_srs_dimension_does_not_reach_a_chunk(self):
        ((_, _, projected),) = split_projections(b"<r srsDimension='3'><pos>1 2 3 4</pos></r>", 7)
        assert repr(projected.bbox) == "BoundingBox(min_x=1.0, min_y=2.0, max_x=3.0, max_y=4.0)"

    def test_doctype_declarations_leave_chunks_unprojected(self):
        # expanded by the document's parse, not by a parse of the chunk's bytes
        doc = (b'<!DOCTYPE r [<!ENTITY e "a b"><!ATTLIST pos srsDimension CDATA "3">]>'
               b"<r><pos>1 2 3 4</pos><a n='&e;'>&e;</a></r>")
        assert_projected_as_stored(doc, internal_subset=True)
        stored = [s for _, s, _ in split_projections(doc, 65536)]
        assert repr(stored[0].bbox) == "BoundingBox(min_x=1.0, min_y=2.0, max_x=3.0, max_y=4.0)"
        assert stored[1].tokens == ("e",)

    def test_bench_shaped_document(self):
        assert_projected_as_stored(bench_gen.citygml_document(random.Random(5), 0, 3))

    def test_splitting_leaves_no_cyclic_garbage(self):
        # as for extraction alone: the splitter's handlers and each chunk's
        # projection handlers are freed without the collector, also after
        # an error in the middle of a chunk
        docs = XML_SPLIT_CASES + [b"<r><a>1</a><b><pos>1 2</b></r>", b"<r><a>x</a"]
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for doc in docs:
                for block_size in (1, 65536):
                    split_projections(doc, block_size)
            found = gc.collect()
            garbage = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == 0, garbage
