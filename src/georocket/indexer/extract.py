"""Pattern-based extraction of searchable information from chunk content.

Extraction is schema-agnostic: it scans for known patterns (coordinate
elements, generic attribute elements, GeoJSON properties) instead of
interpreting a specific schema. Every chunk yields a bounding box over its
positions, typed attributes and the token set of its text.

Extraction is the largest stage of an import, and its cost is the Python
run per node, so both passes keep that small and hand whole runs of data
to C-level code (``str.split``, ``map``, ``min``, ``set``):

- XML is read by the handlers that ``project_xml_element`` installs on a
  ``pyexpat`` parser. One set of handlers runs in two places: the XML
  splitter installs them at the start of each chunk of an import, so an
  imported chunk is projected in the pass that splits it, and
  ``build_document`` installs them on a parser of its own for a chunk read
  from the store (reconcile, and documents whose DOCTYPE has an internal
  subset). Each tag is classified once per parse
  (geometry, ``value``, ``*Attribute`` or plain) in a dict. Only elements
  that carry ``srsDimension`` or a generic attribute's name push a frame.
  Until one of those, a geometry or a ``value`` opens, lean handlers serve
  the elements. Character data goes straight to a list's ``append`` unless
  markup appears inside a geometry or a ``value``. The text of a geometry
  without inner markup is sliced off that list when it ends; a run of whole
  positions of plain decimal numerals (``-12.5``) skips the tokenizer's
  regex, and its distinct numerals give the tokens and, converted once each,
  the box. Any other geometry text is split and converted number by number.
- GeoJSON is decoded with ``json`` and walked by the type of each value; the
  ``properties`` object is flattened into attributes in the same walk. Under
  a ``coordinates`` key a list of positions is taken whole after C-level
  type checks. Number texts (``repr``) that are plain decimals become tokens
  without the regex, and a string is tried as a date only when it starts
  with a digit (``str.isdigit`` covers every ``\\d``).

The box comes from C-level ``min`` and ``max`` over the x and y lists once a
finite sum shows that every coordinate is finite. The projection is the one
a plain walk over every node gives; ``tests/extract_reference.py`` keeps such
a walk, and the tests compare the two.
"""

from __future__ import annotations

import html
import json
import math
import re
import sys
from itertools import chain
from operator import itemgetter
from xml.parsers import expat

from ..model import BoundingBox, Format, TypedValue
from ..text import tokenize
from .documents import IndexDocument, IndexedAttribute


def build_document(entry) -> IndexDocument:
    """Index projection of a stored entry (content + metadata snapshot)."""
    extract = _xml_extract if entry.metadata.format == Format.XML else _geojson_extract
    return projected_document(entry.id, extract(entry.content), entry.metadata, entry.sequence)


def projected_document(chunk_id: str, projection, metadata, sequence: int) -> IndexDocument:
    """The index document of a chunk whose content gave ``projection``,
    ``(bbox, attributes, tokens)`` as an extraction pass returns them."""
    bbox, attributes, tokens = projection
    return IndexDocument(chunk_id, bbox, tuple(attributes), tuple(sorted(tokens)), metadata,
                         sequence)


def _bbox(xs: list, ys: list) -> BoundingBox | None:
    """Box over the positions ``zip(xs, ys)``; positions with a component
    that is not finite (or an integer beyond the float range) are left out."""
    if not xs:
        return None
    try:
        finite = math.isfinite(sum(xs, 0.0) + sum(ys, 0.0))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if finite:
        return BoundingBox(float(min(xs)), float(min(ys)), float(max(xs)), float(max(ys)))
    return BoundingBox.from_points(zip(map(_as_float, xs), map(_as_float, ys)))


def _as_float(n) -> float:
    """``float(n)``; an integer beyond the float range reads as ±inf, as json
    reads ``1e400``."""
    try:
        return float(n)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


# --- XML ----------------------------------------------------------------

_GEOMETRY_NAMES = {"posList", "pos", "coordinates", "lowerCorner", "upperCorner"}
_NUMBER_SPLIT = re.compile(r"[\s,]+")


def _plain_positions(dim: int) -> re.Pattern:
    """Text of whole ``dim``-number positions, every number a plain decimal
    numeral (``-12.5``) followed by a separator or the end: its floats come
    from ``split()``, and each numeral's token is itself without its sign."""
    number = r"-?[0-9]++(?:\.[0-9]++)?+"
    sep = r"[ \t\r\n,]++"
    return re.compile(rf"[ \t\r\n,]*+(?:(?:{number}{sep}){{{dim - 1}}}{number}(?:{sep}|\Z))*+")


_PLAIN_POSITIONS = {2: _plain_positions(2), 3: _plain_positions(3)}

_PLAIN, _GEOMETRY, _VALUE, _ATTRIBUTE = range(4)
_HANDLERS = ("StartElementHandler", "EndElementHandler", "CharacterDataHandler",
             "SkippedEntityHandler", "CommentHandler", "ProcessingInstructionHandler",
             "StartCdataSectionHandler", "EndCdataSectionHandler")
_SRS_DIMENSION, _NAME = 1, 2


def _tag_kind(tag: str) -> int:
    name = tag.rpartition(":")[2]
    if name in _GEOMETRY_NAMES:
        return _GEOMETRY
    if name == "value":
        return _VALUE
    return _ATTRIBUTE if name.endswith("Attribute") else _PLAIN


def _attribute_kind(key: str) -> int:
    short = key.rpartition(":")[2]
    return _SRS_DIMENSION if short == "srsDimension" else _NAME if short == "name" else 0


def _xml_extract(content: bytes):
    """Projection of one XML chunk in a parse of its own. Malformed content
    yields what was read before the error; absence of patterns is not an
    error."""
    parser = expat.ParserCreate()
    parser.UseForeignDTD(True)
    parser.ordered_attributes = True
    parser.buffer_text = True
    finish = project_xml_element(parser, _nothing)
    try:
        parser.Parse(content, True)
    except expat.ExpatError:
        parser.buffer_text = False  # delivers the text read before the error
    return finish()


def _nothing() -> None:
    pass


def project_xml_element(parser, on_end):
    """Install on ``parser`` the handlers that project the element whose
    start event comes next; return ``finish``, whose call gives its
    ``(bbox, attributes, tokens)``.

    ``on_end()`` is called from that element's end event, when the projection
    is complete. The parser must be made with ``ordered_attributes`` and
    ``buffer_text`` set and a foreign DTD in use, and nothing else may handle
    its events until then. ``finish`` also removes the handlers from the
    parser and cuts the reference cycles between them, so it must be called
    once the pass is over, also when the input was malformed.
    """
    xs: list = []
    ys: list = []
    attributes: list[IndexedAttribute] = []
    # token text: character data and attribute values, with a space at every
    # markup boundary so that no token spans two text runs
    texts: list[str] = []
    texts_append = texts.append
    kinds: dict = {}  # tag -> _PLAIN, _GEOMETRY, _VALUE or _ATTRIBUTE
    attribute_kinds: dict = {}  # attribute name -> 0, _SRS_DIMENSION or _NAME
    # (depth, srsDimension, generic attribute name) in scope, pushed by the
    # elements that set either; the sentinel holds the defaults
    frames: list = [(0, 2, None)]
    # While a frame, a geometry or a value is open, ``start`` and ``end``
    # handle every element, and depth counts from the element that opened
    # it; otherwise ``start_outside`` and ``end_outside`` do, and ``outer``
    # counts the elements open outside them (the projected element ends
    # when it falls to 0).
    depth = 0
    outer = 0
    geom_depth = 0  # > 0 while inside a coordinate-bearing element
    geom_dim = 2
    geom_text: list[str] = []
    value_depth = 0  # > 0 while inside <value> of a generic attribute
    value_key: str | None = None
    value_text: list[str] = []
    # A geometry or value opened outside the other and without markup inside
    # so far is flat: its text is texts[flat_mark:], and character data goes
    # straight to texts. Markup inside one switches to ``text``, which also
    # fills geom_text and value_text.
    flat = False
    flat_mark = 0
    plain: list[str] = []  # geometry texts matching _PLAIN_POSITIONS[plain_dim]
    plain_dim = 0
    numerals: set[str] = set()  # their numbers, for the tokens

    def start_outside(tag, attrs):
        nonlocal depth, outer
        outer += 1
        if attrs or kinds.get(tag, True):
            depth = 0
            start(tag, attrs)
            if geom_depth or value_depth or len(frames) > 1:
                parser.StartElementHandler = start
                parser.EndElementHandler = end
        else:
            texts_append(" ")

    def end_outside(tag):
        nonlocal outer
        texts_append(" ")
        outer -= 1
        if not outer:
            on_end()

    def start(tag, attrs):
        nonlocal depth, geom_depth, geom_dim, value_depth, value_key, flat, flat_mark
        depth += 1
        if flat:
            unflatten()
        kind = kinds.get(tag)
        if kind is None:
            kind = kinds[tag] = _tag_kind(tag)
        if attrs:
            texts.extend((" ", " ".join(attrs[1::2]), " "))
            pairs = iter(attrs)
            for key, value in zip(pairs, pairs):
                akind = attribute_kinds.get(key)
                if akind is None:
                    akind = attribute_kinds[key] = _attribute_kind(key)
                if akind:
                    push(akind, kind, value)
        else:
            texts_append(" ")
        if kind == _GEOMETRY:
            geom_depth += 1
            if geom_depth == 1:
                geom_dim = frames[-1][1]
                if not value_depth:
                    flat, flat_mark = True, len(texts)
        elif kind == _VALUE:
            if value_depth:
                value_depth += 1
            elif frames[-1][2] is not None:
                value_key = frames[-1][2]
                value_depth = 1
                if not geom_depth:
                    flat, flat_mark = True, len(texts)

    def push(akind, kind, value):
        _, dim, key = frames[-1]
        if akind == _SRS_DIMENSION:
            try:
                dim = max(1, int(value.strip()))
            except ValueError:
                return
        elif kind == _ATTRIBUTE:
            key = sys.intern(value)
        else:
            return
        if frames[-1][0] == depth:
            frames[-1] = (depth, dim, key)
        else:
            frames.append((depth, dim, key))

    def end(tag):
        nonlocal depth, outer, geom_depth, value_depth, value_key, flat, plain_dim
        kind = kinds[tag]
        if kind == _GEOMETRY:
            geom_depth -= 1
            if not geom_depth:
                if flat:
                    flat = False
                    run = "".join(texts[flat_mark:])
                    pattern = _PLAIN_POSITIONS.get(geom_dim)
                    if pattern is not None and pattern.fullmatch(run):
                        del texts[flat_mark:]
                        if geom_dim != plain_dim:
                            _add_plain(plain, plain_dim, xs, ys, numerals)
                            plain_dim = geom_dim
                        plain.append(run)
                        run = None
                else:
                    run = "".join(geom_text)
                    geom_text.clear()
                    if not value_depth:
                        parser.CharacterDataHandler = texts_append
                if run is not None:
                    _add_plain(plain, plain_dim, xs, ys, numerals)
                    _collect_points(run, geom_dim, xs, ys)
        elif kind == _VALUE and value_depth:
            value_depth -= 1
            if not value_depth:
                if flat:
                    flat = False
                    raw = "".join(texts[flat_mark:])
                else:
                    raw = "".join(value_text)
                    value_text.clear()
                    if not geom_depth:
                        parser.CharacterDataHandler = texts_append
                attributes.append(IndexedAttribute(value_key, TypedValue.from_text(raw.strip())))
                value_key = None
        texts_append(" ")
        if frames[-1][0] == depth:
            frames.pop()
        depth -= 1
        if not depth:  # the element that opened everything in scope
            parser.StartElementHandler = start_outside
            parser.EndElementHandler = end_outside
            outer -= 1
            if not outer:
                on_end()

    def text(data):
        texts_append(data)
        if geom_depth:
            geom_text.append(data)
        if value_depth:
            value_text.append(data)

    def unflatten():
        nonlocal flat
        flat = False
        (geom_text if geom_depth else value_text).extend(texts[flat_mark:])
        parser.CharacterDataHandler = text

    def boundary(*_):
        if flat:
            unflatten()
        texts_append(" ")

    def finish():
        nonlocal parser, start_outside
        for name in _HANDLERS:
            setattr(parser, name, None)
        # the handlers refer to the parser and to each other: cut those
        # cycles, so that the pass is freed without the garbage collector
        parser = start_outside = None
        _add_plain(plain, plain_dim, xs, ys, numerals)
        # whitespace never joins a token, so tokenize each distinct word once
        tokens = tokenize(" ".join(set("".join(texts).split())))
        if numerals:
            tokens.update(" ".join(numerals).replace("-", "").split())
        return _bbox(xs, ys), attributes, tokens

    parser.StartElementHandler = start_outside
    parser.EndElementHandler = end_outside
    parser.CharacterDataHandler = texts_append
    # an undeclared entity reads as its HTML meaning (&nbsp; is a space)
    parser.SkippedEntityHandler = lambda name, _: parser.CharacterDataHandler(
        html.unescape(f"&{name};"))
    parser.CommentHandler = boundary
    parser.ProcessingInstructionHandler = boundary
    parser.StartCdataSectionHandler = boundary
    parser.EndCdataSectionHandler = boundary
    return finish


def _add_plain(runs: list, dim: int, xs: list, ys: list, numerals: set) -> None:
    """Positions and numerals of geometry texts matching
    ``_PLAIN_POSITIONS[dim]``; empties ``runs``.

    Positions repeat (a ring ends on its first corner, walls share corners),
    so each distinct numeral is converted once, and the texts add only their
    lowest and highest x and y. When one of these is zero, whose sign would
    depend on which text came first, or is not finite, every position is
    added instead."""
    parts = " ".join(runs).replace(",", " ").split()
    runs.clear()
    if not parts:
        return
    numerals.update(parts)
    x_values = list(map(float, set(parts[0::dim])))
    y_values = list(map(float, set(parts[1::dim])))
    box = (min(x_values), min(y_values), max(x_values), max(y_values))
    if all(box) and math.isfinite(sum(box)):
        xs.extend(box[0::2])
        ys.extend(box[1::2])
    else:
        numbers = list(map(float, parts))
        xs.extend(numbers[0::dim])
        ys.extend(numbers[1::dim])


def _collect_points(text: str, dim: int, xs: list, ys: list) -> None:
    """Positions of ``dim`` numbers each in a geometry's text; a trailing
    partial one is dropped, a one-dimensional position is (x, x), and a text
    with any part that is not a number has none."""
    try:
        numbers = [float(p) for p in _NUMBER_SPLIT.split(text.strip()) if p]
    except ValueError:
        return
    end = len(numbers) - len(numbers) % dim
    xs.extend(numbers[0:end:dim])
    ys.extend(numbers[1:end:dim] if dim > 1 else numbers[0:end])


# --- GeoJSON ------------------------------------------------------------


# json.loads is this call plus two Python-level wrappers and whitespace regexes
_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _geojson_extract(content: bytes):
    texts: list[str] = []
    numbers: list = []  # ints and floats outside positions
    positions: list[list] = []
    attributes: list[IndexedAttribute] = []
    try:
        # bytes that are not UTF-8 (the splitter keeps such bytes inside
        # strings) read as surrogate escapes, as in the splitter
        text = content.decode("utf-8", "surrogateescape")
        obj, end = _raw_decode(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        if text[end:].strip(_JSON_SPACE):
            raise ValueError("extra data after the JSON value")
        _scan(obj, texts, numbers, positions, attributes)
    except (ValueError, RecursionError):
        # not JSON, or nested deeper than the interpreter's recursion limit
        return None, [], set()
    tokens = tokenize(" ".join(texts))
    # number texts: repr of ints and floats; without an exponent, inf or nan
    # each is a plain decimal, whose token is itself without its sign
    numerals = " ".join(map(repr, chain(numbers, chain.from_iterable(positions))))
    if "e" in numerals or "n" in numerals:
        tokens.update(tokenize(numerals))
    else:
        tokens.update(numerals.replace("-", "").split())
    xs = list(map(itemgetter(0), positions))
    ys = list(map(itemgetter(1), positions))
    return _bbox(xs, ys), attributes, tokens


def _scan(node, texts: list, numbers: list, positions: list, attributes=None) -> None:
    """Collect the text of all string and number values, and the positions
    under any ``coordinates`` key. Given ``attributes``, ``node`` is the
    top level, and its ``properties`` object is flattened into them."""
    t = type(node)
    if t is dict:
        for key, value in node.items():
            t = type(value)
            if t is str:
                texts.append(value)
            elif t is dict or t is list:
                if key == "coordinates":
                    _scan_coordinates(value, texts, numbers, positions)
                elif attributes is not None and key == "properties" and t is dict:
                    _properties("", value, attributes, texts, numbers, positions,
                                in_coordinates=False)
                else:
                    _scan(value, texts, numbers, positions)
            elif t is float or t is int:
                numbers.append(value)
    elif t is list:
        for item in node:
            _scan(item, texts, numbers, positions)
    elif t is str:
        texts.append(node)
    elif t is float or t is int:
        numbers.append(node)
    # bool and None: no text


_NUMBER_TYPES = frozenset((int, float))
_LIST_TYPE = frozenset((list,))


def _scan_coordinates(node, texts: list, numbers: list, positions: list) -> None:
    """``_scan`` below a ``coordinates`` key: a list of two or more numbers
    is a position, and a list of positions is taken whole."""
    t = type(node)
    if t is list:
        if (node and _LIST_TYPE.issuperset(map(type, node)) and min(map(len, node)) >= 2
                and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(node)))):
            positions.extend(node)
        elif len(node) >= 2 and _NUMBER_TYPES.issuperset(map(type, node)):
            positions.append(node)
        else:
            for item in node:
                _scan_coordinates(item, texts, numbers, positions)
    elif t is dict:
        for value in node.values():
            _scan_coordinates(value, texts, numbers, positions)
    elif t is str:
        texts.append(node)
    elif t is float or t is int:
        numbers.append(node)


def _properties(prefix: str, obj: dict, attributes: list, texts: list, numbers: list,
                positions: list, in_coordinates: bool) -> None:
    """``_scan`` of a feature's ``properties`` that also flattens them into
    attributes, with dot-joined keys and typed leaves.

    Numbers stay numbers; strings are tried as dates, otherwise kept text;
    booleans become the text "true"/"false"; nulls are skipped; arrays are
    kept as their compact JSON text.
    """
    for key, value in obj.items():
        full = sys.intern(f"{prefix}.{key}" if prefix else key)
        t = type(value)
        if t is str:
            texts.append(value)
            # a date starts with a digit, and str.isdigit covers every \d
            typed = (TypedValue.from_text(value, numbers=False) if value[:1].isdigit()
                     else TypedValue("text", value))
            attributes.append(IndexedAttribute(full, typed))
        elif t is float or t is int:
            numbers.append(value)
            attributes.append(IndexedAttribute(full, TypedValue("number", _as_float(value))))
        elif t is dict:
            _properties(full, value, attributes, texts, numbers, positions,
                        in_coordinates or key == "coordinates")
        elif t is bool:
            attributes.append(IndexedAttribute(full, TypedValue("text", "true" if value else "false")))
        elif t is list:
            if in_coordinates or key == "coordinates":
                _scan_coordinates(value, texts, numbers, positions)
            else:
                _scan(value, texts, numbers, positions)
            attributes.append(
                IndexedAttribute(full, TypedValue("text", json.dumps(value, separators=(",", ":"))))
            )
        # None: no value to index
