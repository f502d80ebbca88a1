"""Synthetic corpora and randomized generators shared across the test suite."""

from __future__ import annotations

import random

from georocket.indexer import IndexDocument, IndexedAttribute, build_document
from georocket.model import (
    BoundingBox,
    ChunkMetadata,
    DateValue,
    Format,
    ROOT_LAYER,
    TypedValue,
    parse_layer_path,
)
from georocket.query.ast import (
    BBoxTerm,
    Comparison,
    CompareOp,
    DateTerm,
    Logical,
    LogicalOp,
    TextTerm,
)
from georocket.store import StoredEntry

# --- CityGML-like XML -----------------------------------------------------

_CITY_HEADER = """<?xml version="1.0" encoding="UTF-8"?>
<core:CityModel xmlns:core="http://www.opengis.net/citygml/2.0" xmlns:gml="http://www.opengis.net/gml" xmlns:bldg="http://www.opengis.net/citygml/building/2.0" xmlns:gen="http://www.opengis.net/citygml/generics/2.0" xmlns:xal="urn:oasis:names:tc:ciq:xsdschema:xAL:2.0">
  <gml:boundedBy>
    <gml:Envelope srsName="EPSG:25832" srsDimension="3">
      <gml:lowerCorner>350000 5640000 0</gml:lowerCorner>
      <gml:upperCorner>360000 5650000 100</gml:upperCorner>
    </gml:Envelope>
  </gml:boundedBy>
"""

_CITY_FOOTER = "</core:CityModel>\n"


def citygml_building(i: int, street: str, city: str, wall_count: int = 2) -> str:
    """One building member with shared-vertex wall polygons and an address."""
    x = 350000 + (i % 100) * 50
    y = 5640000 + (i // 100) * 50
    h = 10 + (i % 7) * 2
    corners = [(x, y), (x + 12, y), (x + 12, y + 9), (x, y + 9)]
    ring = " ".join(f"{cx} {cy} 0" for cx, cy in corners)
    roof = " ".join(f"{cx} {cy} {h}" for cx, cy in corners)
    walls = []
    for w in range(wall_count):
        a = corners[w % 4]
        b = corners[(w + 1) % 4]
        walls.append(
            f"""      <bldg:boundedBy><bldg:WallSurface><bldg:lod2MultiSurface><gml:MultiSurface><gml:surfaceMember>
        <gml:Polygon><gml:exterior><gml:LinearRing><gml:posList srsDimension="3">{a[0]} {a[1]} 0 {b[0]} {b[1]} 0 {b[0]} {b[1]} {h} {a[0]} {a[1]} {h} {a[0]} {a[1]} 0</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>
      </gml:surfaceMember></gml:MultiSurface></bldg:lod2MultiSurface></bldg:WallSurface></bldg:boundedBy>"""
        )
    walls_xml = "\n".join(walls)
    return f"""  <core:cityObjectMember>
    <bldg:Building gml:id="b{i}">
      <gen:stringAttribute name="street"><gen:value>{street}</gen:value></gen:stringAttribute>
      <gen:doubleAttribute name="height"><gen:value>{h}.0</gen:value></gen:doubleAttribute>
      <gen:intAttribute name="storeys"><gen:value>{1 + i % 5}</gen:value></gen:intAttribute>
      <bldg:lod2Solid><gml:Solid><gml:exterior><gml:CompositeSurface><gml:surfaceMember>
        <gml:Polygon><gml:exterior><gml:LinearRing><gml:posList srsDimension="3">{ring} {x} {y} 0</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>
      </gml:surfaceMember><gml:surfaceMember>
        <gml:Polygon><gml:exterior><gml:LinearRing><gml:posList srsDimension="3">{roof} {x} {y} {h}</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>
      </gml:surfaceMember></gml:CompositeSurface></gml:exterior></gml:Solid></bldg:lod2Solid>
{walls_xml}
      <bldg:address><core:Address><core:xalAddress><xal:AddressDetails><xal:Country>
        <xal:CountryName>Germany</xal:CountryName>
        <xal:Locality Type="City"><xal:LocalityName>{city}</xal:LocalityName>
          <xal:Thoroughfare Type="Street"><xal:ThoroughfareName>{street}</xal:ThoroughfareName>
            <xal:ThoroughfareNumber>{1 + i % 90}</xal:ThoroughfareNumber></xal:Thoroughfare>
        </xal:Locality></xal:Country></xal:AddressDetails></core:xalAddress></core:Address></bldg:address>
    </bldg:Building>
  </core:cityObjectMember>
"""


def make_citygml(count: int, city: str = "Köln", streets=("Schildergasse", "Hohe Straße", "Breite Straße"),
                 wall_count: int = 2) -> bytes:
    parts = [_CITY_HEADER]
    for i in range(count):
        parts.append(citygml_building(i, streets[i % len(streets)], city, wall_count))
    parts.append(_CITY_FOOTER)
    return "".join(parts).encode("utf-8")


# --- GeoJSON ----------------------------------------------------------------


def geojson_feature(i: int, street: str = "Hauptstrasse", city: str = "Köln",
                    pad: int = 0) -> str:
    x = 6.8 + (i % 1000) * 0.0005
    y = 50.9 + (i // 1000) * 0.0005
    padding = ',"padding":"%s"' % ("x" * pad) if pad else ""
    return (
        '{"type":"Feature","geometry":{"type":"Polygon","coordinates":'
        '[[[%.4f,%.4f],[%.4f,%.4f],[%.4f,%.4f],[%.4f,%.4f],[%.4f,%.4f]]]},'
        '"properties":{"name":"building %d","height":%.1f,"street":"%s","city":"%s"%s}}'
        % (
            x, y, x + 0.0004, y, x + 0.0004, y + 0.0003, x, y + 0.0003, x, y,
            i, 5 + (i % 40) * 0.5, street, city, padding,
        )
    )


def make_geojson(count: int, **kwargs) -> bytes:
    features = ",".join(geojson_feature(i, **kwargs) for i in range(count))
    return ('{"type":"FeatureCollection","features":[' + features + "]}").encode("utf-8")


def geojson_stream(count: int, block_size: int = 1 << 18, pad: int = 700):
    """Yield a large feature collection as byte blocks without materialising it."""
    buf = bytearray(b'{"type":"FeatureCollection","features":[')
    for i in range(count):
        if i:
            buf.extend(b",")
        buf.extend(geojson_feature(i, pad=pad).encode("utf-8"))
        while len(buf) >= block_size:
            yield bytes(buf[:block_size])
            del buf[:block_size]
    buf.extend(b"]}")
    yield bytes(buf)


def project(chunk) -> IndexDocument:
    """``build_document`` of a splitter chunk, stored at the root layer."""
    metadata = ChunkMetadata(layer=ROOT_LAYER, format=chunk.parents.format)
    return build_document(StoredEntry(id="C0", content=chunk.content, parents=chunk.parents,
                                      metadata=metadata))


# --- random index documents ---------------------------------------------------

LAYERS = ["/", "/a", "/a/b", "/a/c", "/b", "/b/x", "/b/x/y"]
WORDS = ["köln", "berlin", "schildergasse", "bridge", "station", "park", "lod2", "historic"]
KEYS = ["name", "height", "deleted", "status", "year", "street"]
TAGS = ["Berlin", "Köln", "historic", "lod2", "draft"]


def _random_date(rng: random.Random) -> DateValue:
    year = rng.randint(2016, 2020)
    granularity = rng.randint(0, 3)
    text = f"{year:04d}"
    if granularity >= 1:
        text += f"-{rng.randint(1, 12):02d}"
    if granularity >= 2:
        text = text + f"-{rng.randint(1, 28):02d}"
    if granularity >= 3:
        text += f"T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"
    date = DateValue.parse(text)
    assert date is not None
    return date


def _random_typed(rng: random.Random) -> TypedValue:
    roll = rng.random()
    if roll < 0.35:
        return TypedValue.of_date(_random_date(rng))
    if roll < 0.65:
        return TypedValue.of_number(rng.choice([0.0, 1.0, 2.5, 10.0, 12.5, 100.0, -3.0]))
    return TypedValue.of_text(rng.choice(WORDS + ["Berlin", "Mixed Case"]))


def _random_bbox(rng: random.Random) -> BoundingBox:
    x0, y0 = rng.randint(0, 90), rng.randint(0, 90)
    return BoundingBox(x0, y0, x0 + rng.randint(0, 10), y0 + rng.randint(0, 10))


def random_document(rng: random.Random, i: int) -> IndexDocument:
    attributes = []
    for _ in range(rng.randint(0, 4)):
        attributes.append(IndexedAttribute(rng.choice(KEYS), _random_typed(rng)))
    properties = {}
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(KEYS)
        roll = rng.random()
        if roll < 0.5:
            properties[key] = _random_date(rng).iso()
        elif roll < 0.75:
            properties[key] = str(rng.choice([1, 2.5, 44]))
        else:
            properties[key] = rng.choice(WORDS)
    metadata = ChunkMetadata(
        layer=parse_layer_path(rng.choice(LAYERS)),
        tags=frozenset(rng.sample(TAGS, rng.randint(0, 2))),
        properties=properties,
        crs="EPSG:4326" if rng.random() < 0.5 else None,
        import_timestamp=rng.randint(1480000000000, 1580000000000),
        format=Format.GEOJSON,
    )
    return IndexDocument(
        chunk_id=f"D{i:06d}",
        bbox=_random_bbox(rng) if rng.random() < 0.8 else None,
        attributes=tuple(attributes),
        tokens=frozenset(rng.sample(WORDS, rng.randint(1, 4)) + [str(rng.randint(0, 50))]),
        metadata=metadata,
        sequence=i,
    )


def random_query(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        kind = rng.random()
        if kind < 0.5:
            return TextTerm(rng.choice(WORDS + TAGS + ["nosuchtoken"]))
        if kind < 0.75:
            return DateTerm(_random_date(rng))
        return BBoxTerm(_random_bbox(rng))
    if roll < 0.75:
        op = rng.choice(list(CompareOp))
        return Comparison(op, rng.choice(KEYS + ["nosuchkey"]), _random_typed(rng))
    op = rng.choice(list(LogicalOp))
    children = tuple(random_query(rng, depth + 1) for _ in range(rng.randint(1, 3)))
    return Logical(op, children)
