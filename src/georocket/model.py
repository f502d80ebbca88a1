"""Domain types shared by every component.

All types in this module are immutable values and safe to share between
threads. Layer names are case-sensitive. Timestamps are UTC milliseconds
since the epoch; dates written without a zone are interpreted as UTC. A
date is held as the interval it covers, two integers of microseconds since
0000-01-01T00:00Z, so every comparison of dates compares integers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum

from .errors import MalformedPathError, ParseError

__all__ = [
    "Format",
    "LayerPath",
    "ROOT_LAYER",
    "parse_layer_path",
    "BoundingBox",
    "DateValue",
    "EPOCH_US",
    "TypedValue",
    "CollectionKind",
    "XmlParents",
    "GeoJsonParents",
    "Parents",
    "ChunkMetadata",
    "MetadataDelta",
    "parse_property_specs",
]


class Format(str, Enum):
    """Supported input/output formats."""

    XML = "XML"
    GEOJSON = "GEOJSON"


_CONTROL = {chr(c) for c in range(0x20)} | {"\x7f"}


@dataclass(frozen=True, slots=True)
class LayerPath:
    """A hierarchical label under which chunks are filed.

    The canonical text form is ``/seg1/seg2``; the root layer is ``/``.
    A path is an ancestor of another iff its segment list is a prefix of
    the other's, so the root includes everything.
    """

    segments: tuple[str, ...] = ()

    def __post_init__(self):
        for seg in self.segments:
            if not seg:
                raise MalformedPathError("empty layer segment")
            if seg in (".", ".."):
                raise MalformedPathError(f"layer segment {seg!r} is not allowed")
            if "/" in seg or any(c in _CONTROL for c in seg):
                raise MalformedPathError(f"layer segment {seg!r} contains forbidden characters")

    @property
    def is_root(self) -> bool:
        return not self.segments

    def is_ancestor_or_self(self, other: "LayerPath") -> bool:
        """True iff this path's segments are a prefix of ``other``'s (or equal)."""
        return other.segments[: len(self.segments)] == self.segments

    def __str__(self) -> str:
        return "/" + "/".join(self.segments)


ROOT_LAYER = LayerPath()


def parse_layer_path(text: str) -> LayerPath:
    """Parse ``text`` into a canonical LayerPath.

    Empty text and ``/`` both yield the root; duplicate and trailing slashes
    collapse. Raises MalformedPathError for segments containing control
    characters (or the reserved ``.``/``..``).
    """
    return LayerPath(tuple(seg for seg in text.split("/") if seg))


def _finite(x: float) -> bool:
    return math.isfinite(x)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned box in the chunk's CRS units (min X, min Y, max X, max Y)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        x0, y0, x1, y1 = self.min_x, self.min_y, self.max_x, self.max_y
        # four floats with a finite sum are four finite floats
        if not (type(x0) is type(y0) is type(x1) is type(y1) is float
                and _finite(x0 + y0 + x1 + y1)):
            for v in (x0, y0, x1, y1):
                if not isinstance(v, (int, float)) or not _finite(float(v)):
                    raise ValueError(f"bounding box component {v!r} is not a finite number")
        if x0 > x1 or y0 > y1:
            raise ValueError("bounding box has min > max")

    @classmethod
    def from_points(cls, points) -> "BoundingBox | None":
        """Componentwise min/max over ``(x, y)`` pairs; None for an empty set.

        Pairs with non-finite components are ignored.
        """
        xs, ys = [], []
        for x, y in points:
            x, y = float(x), float(y)
            if _finite(x) and _finite(y):
                xs.append(x)
                ys.append(y)
        if not xs:
            return None
        return cls(min(xs), min(ys), max(xs), max(ys))

    def intersects(self, other: "BoundingBox") -> bool:
        """True iff the boxes share at least one point (edges count)."""
        return not (
            self.min_x > other.max_x
            or self.max_x < other.min_x
            or self.min_y > other.max_y
            or self.max_y < other.min_y
        )


_DATE_RE = re.compile(
    r"^(\d{4})"
    r"(?:-(\d{2})"
    r"(?:-(\d{2})"
    r"(?:T(\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d{1,6}))?"
    r"(Z|[+-]\d{2}:\d{2})?"
    r")?)?)?$"
)

_DAY_US = 86_400_000_000
# days before the first of each month of a common year; 13 is next January
_MONTH_START = (0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365)


def _first_of(year: int, month: int) -> int:
    """Days from 0000-01-01 to the first of ``month`` (13: the next January)."""
    leap = month > 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return (365 * year + (year + 3) // 4 - (year + 99) // 100 + (year + 399) // 400
            + _MONTH_START[month] + leap)


EPOCH_US = _first_of(1970, 1) * _DAY_US  # 1970-01-01T00:00Z on the DateValue scale
_YEAR_1 = _first_of(1, 1) * _DAY_US
_YEAR_10000 = _first_of(10000, 1) * _DAY_US
_CYCLE = _first_of(400, 1)  # days in 400 years, after which the calendar repeats

# precisions of dates; a timestamp's is its count of fraction digits, 0-6
_YEAR, _MONTH, _DAY = -3, -2, -1
_GRANULARITY = {_YEAR: "year", _MONTH: "month", _DAY: "day"}
_ISO_LENGTH = {_YEAR: 4, _MONTH: 7, _DAY: 10}


@dataclass(frozen=True, slots=True)
class DateValue:
    """An ISO-8601 date at year, month, day, or timestamp granularity.

    A value is the half-open interval [lower, upper) in microseconds since
    0000-01-01T00:00Z, proleptic Gregorian, computed once by ``parse``: 2018
    covers all of that year, 2018-09 all of that month, and a timestamp one
    second, or one step of its last fraction digit. Values parsed with a
    zone offset are normalised to UTC. ``precision`` is how the date was
    written, which ``iso`` renders: year, month or day (``_YEAR``,
    ``_MONTH``, ``_DAY``), or a timestamp's count of fraction digits.
    """

    lower: int
    upper: int
    precision: int

    @property
    def granularity(self) -> str:
        return _GRANULARITY.get(self.precision, "time")

    @classmethod
    def parse(cls, text: str) -> "DateValue | None":
        """Parse strict ISO-8601 text; None if it is not a valid date."""
        m = _DATE_RE.match(text)
        if not m:
            return None
        year, month, day, hour, minute, second, frac, zone = m.groups()
        year = int(year)
        if month is None:
            return cls(_first_of(year, 1) * _DAY_US, _first_of(year, 13) * _DAY_US, _YEAR)
        month = int(month)
        if not 1 <= month <= 12:
            return None
        first, end = _first_of(year, month), _first_of(year, month + 1)
        if day is None:
            return cls(first * _DAY_US, end * _DAY_US, _MONTH)
        start = first + int(day) - 1
        if not first <= start < end:
            return None
        if hour is None:
            return cls(start * _DAY_US, (start + 1) * _DAY_US, _DAY)
        hour, minute, second = int(hour), int(minute), int(second)
        if hour > 23 or minute > 59 or second > 59:
            return None
        lower = start * _DAY_US + ((hour * 60 + minute) * 60 + second) * 1_000_000
        if frac:
            lower += int(frac.ljust(6, "0"))
        if zone and zone != "Z":
            hours, minutes = int(zone[1:3]), int(zone[4:6])
            if hours > 23 or minutes > 59:
                return None
            offset = (hours * 60 + minutes) * 60_000_000
            lower += -offset if zone[0] == "+" else offset
            # a zoned time must be one datetime can shift: not in year 0,
            # and in years 1-9999 in UTC
            if year == 0 or not _YEAR_1 <= lower < _YEAR_10000:
                return None
        digits = len(frac) if frac else 0
        return cls(lower, lower + 10 ** (6 - digits), digits)

    def iso(self) -> str:
        """Canonical text at the precision it was written in (times with Z)."""
        days, micros = divmod(self.lower, _DAY_US)
        ordinal = days - 365  # date's ordinal 1, 0001-01-01, is day 366 here
        if ordinal > 0:
            text = date.fromordinal(ordinal).isoformat()
        else:  # year 0, which date lacks, read as year 400
            text = "0000" + date.fromordinal(ordinal + _CYCLE).isoformat()[4:]
        precision = self.precision
        if precision < 0:
            return text[:_ISO_LENGTH[precision]]
        seconds, micros = divmod(micros, 1_000_000)
        text += f"T{seconds // 3600:02d}:{seconds // 60 % 60:02d}:{seconds % 60:02d}"
        if precision:
            text += f".{micros:06d}"[:precision + 1]
        return text + "Z"


_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


@dataclass(frozen=True, slots=True)
class TypedValue:
    """A text, number, or date value as compared by query operators.

    The classification order for raw text is fixed (date, then number, then
    text), so a value like ``2018`` is always a year and never aliases as a
    number.
    """

    kind: str  # "text" | "number" | "date"
    value: "str | float | DateValue"

    @classmethod
    def of_text(cls, v: str) -> "TypedValue":
        return cls("text", v)

    @classmethod
    def of_number(cls, v: float) -> "TypedValue":
        return cls("number", float(v))

    @classmethod
    def of_date(cls, v: DateValue) -> "TypedValue":
        return cls("date", v)

    @classmethod
    def from_text(cls, text: str, numbers: bool = True) -> "TypedValue":
        """Classify raw text: date, then (optionally) number, then text."""
        d = DateValue.parse(text)
        if d is not None:
            return cls.of_date(d)
        if numbers and _NUMBER_RE.match(text):
            return cls.of_number(float(text))
        return cls.of_text(text)

    def to_record(self):
        if self.kind == "date":
            return ["d", self.value.iso()]
        return ["n" if self.kind == "number" else "t", self.value]

    @classmethod
    def from_record(cls, rec) -> "TypedValue":
        tag, raw = rec
        if tag == "d":
            d = DateValue.parse(raw)
            if d is None:
                raise ValueError(f"bad date record {raw!r}")
            return cls.of_date(d)
        if tag == "n":
            return cls.of_number(float(raw))
        return cls.of_text(raw)


class CollectionKind(str, Enum):
    """How a GeoJSON import was shaped at its top level."""

    FEATURE_COLLECTION = "FEATURE_COLLECTION"
    STANDALONE = "STANDALONE"


@dataclass(frozen=True, slots=True)
class XmlParents:
    """Enclosing-document context of an XML chunk.

    Concatenating declaration + root_start + any chunk content + root_end
    yields a well-formed document, which is what makes exports lossless.
    """

    root_start: bytes
    root_end: bytes
    declaration: bytes | None = None

    @property
    def format(self) -> Format:
        return Format.XML


@dataclass(frozen=True, slots=True)
class GeoJsonParents:
    """Enclosing-document context of a GeoJSON chunk."""

    collection_kind: CollectionKind

    @property
    def format(self) -> Format:
        return Format.GEOJSON


Parents = XmlParents | GeoJsonParents


@dataclass(frozen=True, slots=True)
class ChunkMetadata:
    """Per-chunk metadata; only tags and properties may change after import."""

    layer: LayerPath
    tags: frozenset[str] = frozenset()
    properties: dict = field(default_factory=dict)
    crs: str | None = None
    import_timestamp: int = 0
    format: Format = Format.XML

    def with_delta(self, delta: "MetadataDelta") -> "ChunkMetadata":
        """Apply removals first, then sets/adds; layer and format never change."""
        props = {k: v for k, v in self.properties.items() if k not in delta.remove_properties}
        props.update(delta.set_properties)
        tags = (self.tags - delta.remove_tags) | delta.add_tags
        return replace(self, tags=frozenset(tags), properties=props)

    def to_record(self) -> dict:
        rec = {
            "layer": str(self.layer),
            "tags": sorted(self.tags),
            "props": dict(self.properties),
            "ts": self.import_timestamp,
            "format": self.format._value_,  # not .value: its descriptor costs a call per record
        }
        if self.crs is not None:
            rec["crs"] = self.crs
        return rec

    @classmethod
    def from_record(cls, rec: dict, parse_layer=parse_layer_path) -> "ChunkMetadata":
        """Decode ``to_record`` output; a caching ``parse_layer`` lets the
        records of one layer share its path."""
        return cls(
            layer=parse_layer(rec["layer"]),
            tags=frozenset(rec.get("tags", ())),
            properties=dict(rec.get("props", {})),
            crs=rec.get("crs"),
            import_timestamp=int(rec["ts"]),
            format=Format(rec["format"]),
        )


@dataclass(frozen=True, slots=True)
class MetadataDelta:
    """A tags/properties change set; removals apply before sets/adds."""

    set_properties: dict = field(default_factory=dict)
    remove_properties: frozenset[str] = frozenset()
    add_tags: frozenset[str] = frozenset()
    remove_tags: frozenset[str] = frozenset()

    def is_empty(self) -> bool:
        return not (
            self.set_properties or self.remove_properties or self.add_tags or self.remove_tags
        )

    def to_record(self) -> dict:
        return {
            "set": dict(self.set_properties),
            "rm": sorted(self.remove_properties),
            "add_tags": sorted(self.add_tags),
            "rm_tags": sorted(self.remove_tags),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "MetadataDelta":
        return cls(
            set_properties=dict(rec.get("set", {})),
            remove_properties=frozenset(rec.get("rm", ())),
            add_tags=frozenset(rec.get("add_tags", ())),
            remove_tags=frozenset(rec.get("rm_tags", ())),
        )


def parse_property_specs(raw: str) -> dict[str, str]:
    """Parse comma-separated ``key:value`` pairs; malformed specs raise ParseError."""
    out: dict[str, str] = {}
    for spec in raw.split(","):
        if not spec:
            continue
        key, sep, value = spec.partition(":")
        if not sep or not key:
            raise ParseError(f"malformed property {spec!r}; expected key:value")
        out[key] = value
    return out
