"""Reference extractor: the straightforward per-node walk that
``georocket.indexer.extract`` replaced, kept as the oracle of the equivalence
tests in ``test_extract.py``.

It is the earlier code unchanged except that GeoJSON content is decoded with
``surrogateescape``, so bytes that are not UTF-8 inside a string read as they
do in the splitter. ``reference_extract(fmt, content)`` returns ``(bbox,
attributes, tokens)``: a ``BoundingBox`` or None, a list of
``IndexedAttribute`` and a set of tokens.
"""

from __future__ import annotations

import html
import json
import math
import re
import sys
from xml.parsers import expat

from georocket.indexer.documents import IndexedAttribute
from georocket.model import BoundingBox, Format, TypedValue
from georocket.text import tokenize


def reference_extract(fmt: Format, content: bytes):
    """(bbox, attributes, tokens) of one chunk's content."""
    if fmt == Format.XML:
        return _xml_extract(content)
    return _geojson_extract(content)


# --- XML ----------------------------------------------------------------

_GEOMETRY_NAMES = {"posList", "pos", "coordinates", "lowerCorner", "upperCorner"}
_NUMBER_SPLIT = re.compile(r"[\s,]+")


def _xml_extract(content: bytes):
    """Single pass over an XML chunk feeding bbox, attribute, and token
    extraction. Malformed content yields what was read before the error;
    absence of patterns is not an error."""
    points: list = []
    attributes: list[IndexedAttribute] = []
    # token text: character data and attribute values, with a space at every
    # markup boundary so that no token spans two text runs
    texts: list[str] = []
    frames: list[tuple[str, int, str | None]] = []  # (local name, dim, attribute key)
    geom_depth = 0  # > 0 while inside a coordinate-bearing element
    geom_dim = 2
    geom_text: list[str] = []
    value_depth = 0  # > 0 while inside <value> of a generic attribute
    value_key: str | None = None
    value_text: list[str] = []

    def start(tag, attrs):
        nonlocal geom_depth, geom_dim, value_depth, value_key
        name = tag.rpartition(":")[2]
        dim = frames[-1][1] if frames else 2
        attr_key = None
        texts.append(" ")
        if attrs:
            pairs = iter(attrs)
            for key, value in zip(pairs, pairs):
                short = key.rpartition(":")[2]
                if short == "srsDimension":
                    try:
                        dim = max(1, int(value.strip()))
                    except ValueError:
                        pass
                elif short == "name" and name.endswith("Attribute"):
                    attr_key = sys.intern(value)
                texts.append(value)
                texts.append(" ")
        frames.append((name, dim, attr_key))
        if name in _GEOMETRY_NAMES:
            if geom_depth == 0:
                geom_dim = dim
            geom_depth += 1
        if name == "value":
            if value_depth > 0:
                value_depth += 1
            else:
                key = next((k for _, _, k in reversed(frames) if k is not None), None)
                if key is not None:
                    value_key = key
                    value_depth = 1

    def end(tag):
        nonlocal geom_depth, value_depth, value_key
        name = frames.pop()[0]
        texts.append(" ")
        if name in _GEOMETRY_NAMES and geom_depth:
            geom_depth -= 1
            if geom_depth == 0:
                _collect_points("".join(geom_text), geom_dim, points)
                geom_text.clear()
        if name == "value" and value_depth:
            value_depth -= 1
            if value_depth == 0:
                attributes.append(
                    IndexedAttribute(value_key, TypedValue.from_text("".join(value_text).strip()))
                )
                value_text.clear()
                value_key = None

    def text(data):
        texts.append(data)
        if geom_depth:
            geom_text.append(data)
        if value_depth:
            value_text.append(data)

    def boundary(*_):
        texts.append(" ")

    parser = expat.ParserCreate()
    parser.UseForeignDTD(True)
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    # an undeclared entity reads as its HTML meaning (&nbsp; is a space)
    parser.SkippedEntityHandler = lambda name, _: text(html.unescape(f"&{name};"))
    parser.CommentHandler = boundary
    parser.ProcessingInstructionHandler = boundary
    parser.StartCdataSectionHandler = boundary
    parser.EndCdataSectionHandler = boundary
    try:
        parser.Parse(content, True)
    except expat.ExpatError:
        parser.buffer_text = False  # delivers the text read before the error

    bbox = BoundingBox.from_points(points) if points else None
    return bbox, attributes, tokenize("".join(texts))


def _collect_points(text: str, dim: int, points: list) -> None:
    try:
        numbers = [float(p) for p in _NUMBER_SPLIT.split(text.strip()) if p]
    except ValueError:
        return
    end = len(numbers) - len(numbers) % dim
    xs = numbers[0:end:dim]
    points.extend(zip(xs, numbers[1:end:dim] if dim > 1 else xs))


# --- GeoJSON ------------------------------------------------------------


def _geojson_extract(content: bytes):
    texts: list[str] = []
    points: list = []
    attributes: list[IndexedAttribute] = []
    try:
        obj = json.loads(content.decode("utf-8", "surrogateescape"))
        _geojson_scan(obj, texts, points, in_coordinates=False)
        props = obj.get("properties") if isinstance(obj, dict) else None
        if isinstance(props, dict):
            _flatten_properties("", props, attributes)
    except (ValueError, RecursionError):
        # nested deeper than the interpreter's recursion limit
        return None, [], set()
    bbox = BoundingBox.from_points(points) if points else None
    return bbox, attributes, tokenize(" ".join(texts))


def _geojson_scan(node, texts: list, points: list, in_coordinates: bool) -> None:
    """Collect the text of all string/number values and positions under
    any ``coordinates`` key."""
    if isinstance(node, dict):
        for key, value in node.items():
            _geojson_scan(value, texts, points, key == "coordinates" or in_coordinates)
    elif isinstance(node, list):
        if in_coordinates and _is_position(node):
            points.append((_as_float(node[0]), _as_float(node[1])))
            texts.extend(_number_text(n) for n in node)
            return
        for item in node:
            _geojson_scan(item, texts, points, in_coordinates)
    elif isinstance(node, str):
        texts.append(node)
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        texts.append(_number_text(node))


def _is_position(node: list) -> bool:
    return (
        len(node) >= 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)
    )


def _number_text(n) -> str:
    return str(n) if isinstance(n, int) else repr(n)


def _as_float(n) -> float:
    """``float(n)``; an integer beyond the float range reads as ±inf, as json
    reads ``1e400``."""
    try:
        return float(n)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _flatten_properties(prefix: str, obj: dict, attributes: list) -> None:
    """Flatten nested objects with dot-joined keys and type the leaves.

    Numbers stay numbers; strings are tried as dates, otherwise kept text;
    booleans become the text "true"/"false"; nulls are skipped; arrays are
    kept as their compact JSON text.
    """
    for key, value in obj.items():
        full = sys.intern(f"{prefix}.{key}" if prefix else key)
        if isinstance(value, dict):
            _flatten_properties(full, value, attributes)
        elif isinstance(value, bool):
            attributes.append(IndexedAttribute(full, TypedValue.of_text("true" if value else "false")))
        elif isinstance(value, (int, float)):
            attributes.append(IndexedAttribute(full, TypedValue.of_number(_as_float(value))))
        elif isinstance(value, str):
            attributes.append(IndexedAttribute(full, TypedValue.from_text(value, numbers=False)))
        elif isinstance(value, list):
            attributes.append(
                IndexedAttribute(full, TypedValue.of_text(json.dumps(value, separators=(",", ":"))))
            )
        # None: no value to index
