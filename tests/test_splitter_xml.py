import hashlib
import json
import re
import xml.etree.ElementTree as ET

import pytest

from georocket.errors import (
    UnsupportedEncodingError,
    UnsupportedFormatError,
    XmlMalformedError,
)
from georocket.indexer import build_document
from georocket.model import ChunkMetadata, Format, parse_layer_path
from georocket.splitter import XmlSplitter, detect_format, split_auto, split_xml
from georocket.store import StoredEntry

from gendata import make_citygml, project

SIMPLE = b"""<?xml version="1.0" encoding="UTF-8"?>
<CityModel xmlns:gml="http://www.opengis.net/gml">
  <cityObjectMember><Building id="a"><gml:pos>1 2</gml:pos></Building></cityObjectMember>
  <cityObjectMember><Building id="b">two</Building></cityObjectMember>
</CityModel>
"""


def chunks_of(data: bytes):
    return list(split_xml([data]))


def normalized(data: bytes) -> bytes:
    return re.sub(rb">\s+<", b"><", data).strip()


def reconstruct(chunks) -> bytes:
    parents = chunks[0].parents
    body = b"\n".join(c.content for c in chunks)
    decl = parents.declaration or b""
    return decl + b"\n" + parents.root_start + b"\n" + body + b"\n" + parents.root_end


class TestDetectFormat:
    def test_xml(self):
        assert detect_format(b'<?xml version="1.0"?><a/>') == Format.XML

    def test_geojson(self):
        assert detect_format(b'{"type":"FeatureCollection"') == Format.GEOJSON
        assert detect_format(b" [1]") == Format.GEOJSON

    def test_zip_magic_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            detect_format(b"PK\x03\x04junk")

    def test_empty_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            detect_format(b"   \n ")

    def test_bom_skipped(self):
        assert detect_format(b"\xef\xbb\xbf<a/>") == Format.XML


class TestSplitXml:
    def test_two_members(self):
        chunks = chunks_of(SIMPLE)
        assert len(chunks) == 2
        assert chunks[0].content == b'<cityObjectMember><Building id="a"><gml:pos>1 2</gml:pos></Building></cityObjectMember>'
        assert chunks[1].content == b'<cityObjectMember><Building id="b">two</Building></cityObjectMember>'
        assert [c.sequence for c in chunks] == [0, 1]

    def test_parents_verbatim(self):
        chunks = chunks_of(SIMPLE)
        parents = chunks[0].parents
        assert parents.declaration == b'<?xml version="1.0" encoding="UTF-8"?>'
        assert parents.root_start == b'<CityModel xmlns:gml="http://www.opengis.net/gml">'
        assert parents.root_end == b"</CityModel>"

    def test_empty_root_yields_no_chunks(self):
        assert chunks_of(b"<root>\n  \n</root>") == []

    def test_self_closing_root(self):
        assert chunks_of(b"<root/>") == []

    def test_self_closing_child_is_a_chunk(self):
        chunks = chunks_of(b'<r><a x="1"/><b/></r>')
        assert [c.content for c in chunks] == [b'<a x="1"/>', b"<b/>"]

    def test_crs_from_document_envelope(self):
        doc = make_citygml(4)
        chunks = chunks_of(doc)
        # independent scan: find the envelope's srsName with a tree parser
        tree = ET.fromstring(doc)
        envelope = tree.find(".//{http://www.opengis.net/gml}Envelope")
        expected = envelope.attrib["srsName"]
        members = [c for c in chunks if b"cityObjectMember" in c.content[:64]]
        assert members and all(c.crs_hint == expected for c in members)

    def test_chunk_own_srs_wins(self):
        doc = (
            b'<r srsName="ROOT"><a srsName="OWN">x</a><b>y</b></r>'
        )
        chunks = chunks_of(doc)
        assert chunks[0].crs_hint == "OWN"
        assert chunks[1].crs_hint == "ROOT"

    def test_independent_feature_count(self):
        doc = make_citygml(17)
        expected = sum(
            1
            for event, el in ET.iterparse(__import__("io").BytesIO(doc), events=("end",))
            if el.tag.endswith("cityObjectMember")
        )
        members = [c for c in chunks_of(doc) if c.content.startswith(b"<core:cityObjectMember")]
        assert len(members) == expected == 17

    def test_losslessness_whitespace_normalized(self):
        doc = make_citygml(6)
        chunks = chunks_of(doc)
        assert normalized(reconstruct(chunks)) == normalized(doc)

    def test_chunks_parse_when_wrapped_in_parents(self):
        for chunk in chunks_of(make_citygml(3)):
            p = chunk.parents
            wrapped = (p.declaration or b"") + p.root_start + chunk.content + p.root_end
            ET.fromstring(wrapped)  # raises if not well-formed

    def test_plain_chunks_parse_alone(self):
        for chunk in chunks_of(SIMPLE.replace(b'xmlns:gml="http://www.opengis.net/gml"', b"")
                               .replace(b"gml:", b"")):
            ET.fromstring(chunk.content)

    def test_block_size_one(self):
        chunks = list(split_xml([bytes([b]) for b in SIMPLE]))
        assert len(chunks) == 2
        assert chunks[0].content.startswith(b"<cityObjectMember>")

    def test_cdata_and_comments_inside_chunks_kept(self):
        doc = b"<r><a><!-- note --><![CDATA[x < y]]></a></r>"
        chunks = chunks_of(doc)
        assert chunks[0].content == b"<a><!-- note --><![CDATA[x < y]]></a>"

    def test_comments_between_features_dropped(self):
        doc = b"<r><!-- one --><a>1</a><?pi data?><a>2</a></r>"
        assert [c.content for c in chunks_of(doc)] == [b"<a>1</a>", b"<a>2</a>"]

    def test_bom_prefixed_document(self):
        doc = b"\xef\xbb\xbf<?xml version=\"1.0\"?>\n<r><a>1</a></r>"
        chunks = chunks_of(doc)
        assert chunks[0].content == b"<a>1</a>"
        assert chunks[0].parents.declaration.startswith(b"\xef\xbb\xbf")


class TestMalformed:
    @pytest.mark.parametrize(
        "doc",
        [
            b"<a><b></a>",               # mismatched end tag
            b"<a><b>",                   # unclosed elements
            b"<a>",                      # unclosed root
            b"text<a/>",                 # character data outside root
            b"<a/><b/>",                 # multiple roots
            b"</a>",                     # end tag without start
            b"<a><!-- unterminated</a>",
            b"<a><![CDATA[x</a>",
            b"<a><?pi unterminated</a>",
            b"<a attr='unclosed></a>",
            b"< a></a>",                 # whitespace after <
            b"<a>\xff&&&",               # junk tail
            b"",                         # nothing at all
            b"<a/>trailing",
        ],
    )
    def test_raises_typed_error_with_offset(self, doc):
        with pytest.raises((XmlMalformedError, UnsupportedFormatError)) as err:
            _, chunks = split_auto([doc])
            list(chunks)
        if isinstance(err.value, XmlMalformedError):
            assert err.value.offset is not None

    def test_chunks_before_error_remain_valid(self):
        doc = b"<r><a>ok</a><b>broken</r>"
        splitter = split_xml([doc])
        first = next(splitter)
        assert first.content == b"<a>ok</a>"
        with pytest.raises(XmlMalformedError):
            list(splitter)

    def test_utf16_declaration_rejected(self):
        with pytest.raises(UnsupportedEncodingError):
            list(split_xml([b'<?xml version="1.0" encoding="UTF-16"?><a/>']))

    @pytest.mark.parametrize("encoding", [b"ISO-8859-1", b"UTF-16", b"windows-1252"])
    @pytest.mark.parametrize("block_size", [1, 65536])
    def test_other_declared_encodings_rejected(self, encoding, block_size):
        doc = b'<?xml version="1.0" encoding="' + encoding + b'"?><r><a>x</a></r>'
        with pytest.raises(UnsupportedEncodingError):
            list(split_xml([doc[i : i + block_size] for i in range(0, len(doc), block_size)]))

    @pytest.mark.parametrize("block_size", [1, 65536])
    @pytest.mark.parametrize("bad", [b'<b x="1" y>', b"<b x='1' x='2'>", b"<b>&</b>", b"< b>"])
    def test_offset_is_absolute_far_into_the_input(self, block_size, bad):
        head = b'\xef\xbb\xbf<?xml version="1.0"?>\n<r>' + b"<a>filler</a>\n" * 8000
        doc = head + bad + b"</r>"
        assert len(head) > 100_000
        with pytest.raises(XmlMalformedError) as err:
            list(split_xml([doc[i : i + block_size] for i in range(0, len(doc), block_size)]))
        assert len(head) <= err.value.offset < len(head) + len(bad)

    @pytest.mark.parametrize(
        "doc",
        [
            b"<r><a>Tom & Jerry</a></r>",            # bare ampersand
            b"<r><a x='1' x='2'/></r>",              # duplicate attribute
            b"<r><a>\xff</a></r>",                   # not UTF-8
            b"<r><a>\x01</a></r>",                   # control character
            b'<?xml version="1.0" encoding="UTF-8?><r/>',  # broken declaration
        ],
    )
    def test_not_well_formed_input_rejected(self, doc):
        with pytest.raises(XmlMalformedError) as err:
            list(split_xml([doc]))
        assert 0 <= err.value.offset < len(doc)

    def test_utf8_declaration_accepted(self):
        assert chunks_of(b'<?xml version="1.0" encoding="utf-8"?><a><b/></a>')


class TestEntities:
    def test_undeclared_entities_accepted_and_kept(self):
        doc = b"<r><a>Hohe&nbsp;Stra&szlig;e caf&eacute; K&#246;ln &amp; more</a></r>"
        (chunk,) = chunks_of(doc)
        assert chunk.content == b"<a>Hohe&nbsp;Stra&szlig;e caf&eacute; K&#246;ln &amp; more</a>"
        # an undeclared entity reads as its HTML meaning, as a whole text run
        assert project(chunk).tokens == ("café", "hohe", "köln", "more", "straße")

    def test_doctype_entities_are_not_expanded_into_chunks(self):
        doc = b'<!DOCTYPE r [<!ENTITY e "<x>t</x>">]><r><a>&e;</a><b/></r>'
        assert [c.content for c in chunks_of(doc)] == [b"<a>&e;</a>", b"<b/>"]

    def test_whitespace_before_declaration_accepted(self):
        doc = b'\xef\xbb\xbf \n<?xml version="1.0"?><r><a/></r>'
        (chunk,) = chunks_of(doc)
        assert chunk.parents.declaration == b'\xef\xbb\xbf \n<?xml version="1.0"?>'

    def test_undeclared_entity_in_attribute_value_is_dropped(self):
        # pyexpat drops it from the decoded value: ``p&nbsp;q`` reads ``pq``
        (chunk,) = chunks_of(b'<r><a n="p&nbsp;q">t</a></r>')
        assert project(chunk).tokens == ("pq", "t")

    def test_generic_attribute_key_is_decoded(self):
        (chunk,) = chunks_of(
            b'<r><gen:stringAttribute name="a&amp;b"><gen:value>v</gen:value>'
            b"</gen:stringAttribute></r>"
        )
        assert [a.key for a in project(chunk).attributes] == ["a&b"]


class TestMemoryBound:
    def test_buffer_tracks_largest_chunk(self):
        count = 3000
        doc = make_citygml(count, wall_count=1)
        max_chunk = max(len(c.content) for c in chunks_of(doc))
        splitter = XmlSplitter()
        blocks = [doc[i : i + 65536] for i in range(0, len(doc), 65536)]
        consumed = sum(1 for _ in splitter.split(blocks))
        assert consumed == count + 1  # members plus the boundedBy chunk
        assert splitter.max_buffered <= max_chunk + (1 << 20)


EXTRA_MEMBERS = b"""  <gml:boundedBy><gml:Envelope srsName="EPSG:31466"><gml:lowerCorner>1 2</gml:lowerCorner><gml:upperCorner>3 4</gml:upperCorner></gml:Envelope></gml:boundedBy>
  <core:cityObjectMember><bldg:Building gml:id="x1" srsName="EPSG:4326">
    <gml:pos srsDimension="2">6.95 50.94</gml:pos>
    <gen:stringAttribute name="note"><gen:value>Tom &amp; Jerry<![CDATA[ <raw> ]]><!-- c --> Ende</gen:value></gen:stringAttribute>
    <gen:measureAttribute name="area"><gen:value>12.5</gen:value></gen:measureAttribute>
    <xal:LocalityName>Hohe&nbsp;Stra&szlig;e<?pi data?>K&#246;ln</xal:LocalityName>
  </bldg:Building></core:cityObjectMember>
  <!-- between members -->
  <core:cityObjectMember xlink:href="#b1"/>
"""


def golden_digest(doc: bytes, block_size: int) -> tuple[int, str]:
    """(chunk count, sha256) over chunk bytes, context, CRS hints and the
    index projection of every chunk."""
    meta = ChunkMetadata(layer=parse_layer_path("/g"), import_timestamp=1, format=Format.XML)
    digest = hashlib.sha256()
    count = 0
    for c in split_xml([doc[i : i + block_size] for i in range(0, len(doc), block_size)]):
        entry = StoredEntry(id=f"C{c.sequence}", content=c.content, parents=c.parents,
                            metadata=meta, sequence=c.sequence)
        record = [
            c.content.decode("utf-8"),
            c.parents.declaration.decode("utf-8"),
            c.parents.root_start.decode("utf-8"),
            c.parents.root_end.decode("utf-8"),
            c.sequence,
            c.crs_hint,
            build_document(entry).to_record(),
        ]
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        count += 1
    return count, digest.hexdigest()


class TestSeedOutput:
    """A generated CityGML corpus yields fixed chunks and index projections.

    The digest was computed with the splitter and extractor as they were
    before they read XML with pyexpat."""

    def corpus(self) -> bytes:
        doc = make_citygml(12, wall_count=3)
        doc = doc.replace(b"</core:CityModel>", EXTRA_MEMBERS + b"</core:CityModel>")
        return doc.replace(
            b"<core:CityModel ",
            b'<core:CityModel srsName="EPSG:25832" xmlns:xlink="http://www.w3.org/1999/xlink" ',
        )

    @pytest.mark.parametrize("block_size", [1, 4096, 1 << 20])
    def test_digest(self, block_size):
        assert golden_digest(self.corpus(), block_size) == (
            16, "4ade9574996670292c4c2c4612ea1aff4426f7e38689cfe48969cc87d5fd453b"
        )

    def test_crs_hints(self):
        chunks = chunks_of(self.corpus())
        hints = [c.crs_hint for c in chunks]
        # envelope CRS, then a second envelope's, then a member's own srsName
        assert hints[:13] == ["EPSG:25832"] * 13
        assert hints[13:] == ["EPSG:31466", "EPSG:4326", "EPSG:31466"]
