"""Seeded inputs for the benchmark workloads.

The shapes follow the synthetic corpora of the test suite (small GeoJSON
polygons with a few typed properties; CityGML buildings with LOD2 walls and
an address) but are defined here, so that an edit to the tests never
changes a workload. Every generator takes a ``random.Random`` seeded from
``--seed``; the same seed gives byte-identical inputs and queries.

Each query is generated together with the layer it runs in. Every query is
selective: its root is a text, bbox, comparison, date or logical node whose
result is small, so a search measures the query path and not a bulk export.
Searches of one shape take about the same time, and the shapes differ, so
latency has one mode per shape. Text terms get three slots in each cycle of
shapes, enough that the median falls inside their mode; with equal slots it
would sit on the edge between two modes and jump between them from one seed
to the next. A comparison scans every value of its key in the index, so the
comparison shapes form the slowest mode.
"""

from __future__ import annotations

GEOJSON_ORIGIN = (6.5, 50.5)
GEOJSON_COLUMNS = 200
GEOJSON_STEP = 0.001
STREET_COUNT = 500

CITY_ORIGIN = (350000, 5640000)
CITY_COLUMNS = 50
CITY_STEP = 50
CITY_STREETS = 40
CITY_WALLS = 90

GEOJSON_SHAPES = ("text", "text", "text", "bbox", "comparison", "date", "or", "and-comparison",
                  "and-not", "layer")
CITY_SHAPES = ("text", "text", "text", "bbox", "comparison", "date", "and-comparison", "layer")


def _box(x: float, y: float, w: float, h: float) -> list[tuple[float, float]]:
    return [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)]


def geojson_feature(rng, i: int) -> str:
    """One ~230-byte polygon feature; ``i`` fixes its grid cell and name."""
    x = GEOJSON_ORIGIN[0] + (i % GEOJSON_COLUMNS) * GEOJSON_STEP + rng.random() * 0.0004
    y = GEOJSON_ORIGIN[1] + (i // GEOJSON_COLUMNS) * GEOJSON_STEP + rng.random() * 0.0004
    ring = _box(x, y, 0.0002 + rng.random() * 0.0003, 0.0002 + rng.random() * 0.0003)
    coords = ",".join("[%.5f,%.5f]" % p for p in ring)
    return (
        '{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[%s]]},'
        '"properties":{"name":"f%d","street":"Weg%03d","height":%.1f,"built":"%04d-%02d-%02d"}}'
        % (
            coords, i, rng.randrange(STREET_COUNT), rng.uniform(3.0, 80.0),
            rng.randint(1900, 1999), rng.randint(1, 12), rng.randint(1, 28),
        )
    )


def scratch_feature(rng, i: int) -> str:
    """A feature that no generated search query can match.

    It lies far from the grid, its tokens share nothing with the query
    vocabulary, and it has none of the keys the comparisons read.
    """
    x = GEOJSON_ORIGIN[0] + 20 + rng.random()
    y = GEOJSON_ORIGIN[1] + 20 + rng.random()
    coords = ",".join("[%.5f,%.5f]" % p for p in _box(x, y, 0.0003, 0.0003))
    return (
        '{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[%s]]},'
        '"properties":{"label":"s%d","kind":"Scratchweg"}}' % (coords, i)
    )


def feature_collection(features: list[str]) -> bytes:
    return ('{"type":"FeatureCollection","features":[' + ",".join(features) + "]}").encode()


def geojson_queries(rng, count: int, feature_count: int, layers: list[str]) -> list[tuple[str, str]]:
    """``count`` (layer, query) pairs over features ``0 .. feature_count-1``.

    ``layers`` are the layers the features were imported into; a query runs
    in the root layer or, for the layer-subtree shape, in one of them.
    """
    rows = max(1, feature_count // GEOJSON_COLUMNS)
    out = []
    for n in range(count):
        shape = GEOJSON_SHAPES[n % len(GEOJSON_SHAPES)]
        street = f"weg{rng.randrange(STREET_COUNT):03d}"
        layer = "/"
        if shape == "text":
            query = street
        elif shape == "bbox":
            col = rng.randrange(GEOJSON_COLUMNS - 4)
            row = rng.randrange(max(1, rows - 3))
            x0 = GEOJSON_ORIGIN[0] + col * GEOJSON_STEP
            y0 = GEOJSON_ORIGIN[1] + row * GEOJSON_STEP
            query = "%.4f,%.4f,%.4f,%.4f" % (x0, y0, x0 + 3 * GEOJSON_STEP, y0 + 3 * GEOJSON_STEP)
        elif shape == "comparison":
            query = f"EQ(built {rng.randint(1900, 1999)}-{rng.randint(1, 12):02d})"
        elif shape == "date":
            query = f"{rng.randint(1950, 2009)}-{rng.randint(1, 12):02d}"  # import date: no hit
        elif shape == "or":
            query = "OR(%s)" % " ".join(f"f{rng.randrange(feature_count)}" for _ in range(3))
        elif shape == "and-comparison":
            query = f"AND({street} GT(height {rng.randint(20, 60)}))"
        elif shape == "and-not":
            query = f"AND({street} NOT(f{rng.randrange(feature_count)}))"
        else:  # layer subtree
            layer = rng.choice(layers)
            query = street
        out.append((layer, query))
    return out


_CITY_HEADER = """<?xml version="1.0" encoding="UTF-8"?>
<core:CityModel xmlns:core="http://www.opengis.net/citygml/2.0" xmlns:gml="http://www.opengis.net/gml" xmlns:bldg="http://www.opengis.net/citygml/building/2.0" xmlns:gen="http://www.opengis.net/citygml/generics/2.0" xmlns:xal="urn:oasis:names:tc:ciq:xsdschema:xAL:2.0">
  <gml:boundedBy>
    <gml:Envelope srsName="EPSG:25832" srsDimension="3">
      <gml:lowerCorner>350000 5640000 0</gml:lowerCorner>
      <gml:upperCorner>360000 5650000 100</gml:upperCorner>
    </gml:Envelope>
  </gml:boundedBy>
"""


def citygml_building(rng, i: int) -> str:
    """One building of ~40 KB at 90 walls; ``i`` fixes its grid cell."""
    x = CITY_ORIGIN[0] + (i % CITY_COLUMNS) * CITY_STEP + rng.randint(0, 20)
    y = CITY_ORIGIN[1] + (i // CITY_COLUMNS) * CITY_STEP + rng.randint(0, 20)
    h = rng.randint(6, 40)
    street = f"Gasse{rng.randrange(CITY_STREETS):02d}"
    corners = [(x, y), (x + 12, y), (x + 12, y + 9), (x, y + 9)]
    ring = " ".join(f"{cx} {cy} 0" for cx, cy in corners)
    roof = " ".join(f"{cx} {cy} {h}" for cx, cy in corners)
    surfaces = []
    for w in range(CITY_WALLS):
        a, b = corners[w % 4], corners[(w + 1) % 4]
        z = w // 4
        surfaces.append(
            f"""      <bldg:boundedBy><bldg:WallSurface gml:id="b{i}w{w}"><bldg:lod2MultiSurface><gml:MultiSurface><gml:surfaceMember>
        <gml:Polygon><gml:exterior><gml:LinearRing><gml:posList srsDimension="3">{a[0]} {a[1]} {z} {b[0]} {b[1]} {z} {b[0]} {b[1]} {h} {a[0]} {a[1]} {h} {a[0]} {a[1]} {z}</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>
      </gml:surfaceMember></gml:MultiSurface></bldg:lod2MultiSurface></bldg:WallSurface></bldg:boundedBy>"""
        )
    body = "\n".join(surfaces)
    return f"""  <core:cityObjectMember>
    <bldg:Building gml:id="b{i}">
      <gen:stringAttribute name="street"><gen:value>{street}</gen:value></gen:stringAttribute>
      <gen:doubleAttribute name="height"><gen:value>{h}.0</gen:value></gen:doubleAttribute>
      <gen:intAttribute name="storeys"><gen:value>{1 + h // 4}</gen:value></gen:intAttribute>
      <bldg:lod2Solid><gml:Solid><gml:exterior><gml:CompositeSurface><gml:surfaceMember>
        <gml:Polygon><gml:exterior><gml:LinearRing><gml:posList srsDimension="3">{ring} {x} {y} 0</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>
      </gml:surfaceMember><gml:surfaceMember>
        <gml:Polygon><gml:exterior><gml:LinearRing><gml:posList srsDimension="3">{roof} {x} {y} {h}</gml:posList></gml:LinearRing></gml:exterior></gml:Polygon>
      </gml:surfaceMember></gml:CompositeSurface></gml:exterior></gml:Solid></bldg:lod2Solid>
{body}
      <bldg:address><core:Address><core:xalAddress><xal:AddressDetails><xal:Country>
        <xal:CountryName>Germany</xal:CountryName>
        <xal:Locality Type="City"><xal:LocalityName>Köln</xal:LocalityName>
          <xal:Thoroughfare Type="Street"><xal:ThoroughfareName>{street}</xal:ThoroughfareName>
            <xal:ThoroughfareNumber>{1 + i % 90}</xal:ThoroughfareNumber></xal:Thoroughfare>
        </xal:Locality></xal:Country></xal:AddressDetails></core:xalAddress></core:Address></bldg:address>
    </bldg:Building>
  </core:cityObjectMember>
"""


def citygml_document(rng, first: int, count: int) -> bytes:
    """A CityModel holding buildings ``first .. first+count-1``."""
    parts = [_CITY_HEADER]
    parts.extend(citygml_building(rng, i) for i in range(first, first + count))
    parts.append("</core:CityModel>\n")
    return "".join(parts).encode("utf-8")


def citygml_queries(rng, count: int, building_count: int, layers: list[str]) -> list[tuple[str, str]]:
    """``count`` (layer, query) pairs over buildings ``0 .. building_count-1``."""
    rows = max(1, building_count // CITY_COLUMNS)
    out = []
    for n in range(count):
        shape = CITY_SHAPES[n % len(CITY_SHAPES)]
        street = f"gasse{rng.randrange(CITY_STREETS):02d}"
        layer = "/"
        if shape == "text":
            query = street
        elif shape == "bbox":
            col = rng.randrange(CITY_COLUMNS - 2)
            row = rng.randrange(rows)
            x0 = CITY_ORIGIN[0] + col * CITY_STEP
            y0 = CITY_ORIGIN[1] + row * CITY_STEP
            query = f"{x0},{y0},{x0 + CITY_STEP},{y0 + 20}"
        elif shape == "comparison":
            query = f"EQ(height {rng.randint(6, 40)})"
        elif shape == "date":
            query = f"{rng.randint(1950, 2009)}"  # import date: no hit
        elif shape == "and-comparison":
            query = f"AND({street} GT(storeys {rng.randint(3, 9)}))"
        else:  # layer subtree
            layer = rng.choice(layers)
            query = f"OR({street} EQ(storeys {rng.randint(2, 10)}))"
        out.append((layer, query))
    return out
