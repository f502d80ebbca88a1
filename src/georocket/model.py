"""Domain types shared by every component.

All types in this module are immutable values and safe to share between
threads. Layer names are case-sensitive. Timestamps are UTC milliseconds
since the epoch; dates written without a zone are interpreted as UTC.
"""

from __future__ import annotations

import calendar
import math
import re
from dataclasses import dataclass, field, replace
from datetime import MAXYEAR, MINYEAR, datetime, timedelta, timezone
from enum import Enum

from .errors import MalformedPathError

__all__ = [
    "Format",
    "LayerPath",
    "ROOT_LAYER",
    "parse_layer_path",
    "BoundingBox",
    "DateValue",
    "TypedValue",
    "CollectionKind",
    "XmlParents",
    "GeoJsonParents",
    "Parents",
    "ChunkMetadata",
    "MetadataDelta",
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

_UTC = timezone.utc


@dataclass(frozen=True, slots=True)
class DateValue:
    """An ISO-8601 date at year, month, day, or timestamp granularity.

    A value denotes the half-open interval [lower_key(), upper_key()): e.g.
    2018 covers all of that year, 2018-09 all of that month. Timestamps are
    degenerate intervals one second (or one fractional digit step) wide.
    Values parsed with a zone offset are normalised to UTC.
    """

    year: int
    month: int | None = None
    day: int | None = None
    hour: int | None = None
    minute: int | None = None
    second: int | None = None
    microsecond: int = 0
    fraction_digits: int = 0

    @property
    def has_time(self) -> bool:
        return self.hour is not None

    @property
    def granularity(self) -> str:
        if self.has_time:
            return "time"
        if self.day is not None:
            return "day"
        if self.month is not None:
            return "month"
        return "year"

    @classmethod
    def parse(cls, text: str) -> "DateValue | None":
        """Parse strict ISO-8601 text; None if it is not a valid date."""
        m = _DATE_RE.match(text)
        if not m:
            return None
        year = int(m.group(1))
        month = int(m.group(2)) if m.group(2) else None
        day = int(m.group(3)) if m.group(3) else None
        if month is not None and not 1 <= month <= 12:
            return None
        if day is not None and not 1 <= day <= calendar.monthrange(year, month)[1]:
            return None
        if m.group(4) is None:
            return cls(year, month, day)
        hour, minute, second = int(m.group(4)), int(m.group(5)), int(m.group(6))
        if hour > 23 or minute > 59 or second > 59:
            return None
        frac = m.group(7) or ""
        micro = int(frac.ljust(6, "0")) if frac else 0
        zone = m.group(8)
        if zone and zone != "Z":
            sign = 1 if zone[0] == "+" else -1
            oh, om = int(zone[1:3]), int(zone[4:6])
            if oh > 23 or om > 59:
                return None
            try:
                dt = datetime(year, month, day, hour, minute, second, micro, tzinfo=_UTC)
                dt -= sign * timedelta(hours=oh, minutes=om)
            except (OverflowError, ValueError):
                return None
            year, month, day = dt.year, dt.month, dt.day
            hour, minute, second, micro = dt.hour, dt.minute, dt.second, dt.microsecond
        return cls(year, month, day, hour, minute, second, micro, len(frac))

    def lower_key(self) -> tuple:
        """Inclusive lower bound as a lexicographically comparable tuple."""
        return (
            self.year,
            self.month or 1,
            self.day or 1,
            self.hour or 0,
            self.minute or 0,
            self.second or 0,
            self.microsecond,
        )

    def upper_key(self) -> tuple:
        """Exclusive upper bound; always greater than lower_key()."""
        if self.has_time:
            step = 1_000_000 if self.fraction_digits == 0 else 10 ** (6 - self.fraction_digits)
            return _add_micro(self.lower_key(), step)
        if self.day is not None:
            y, m, d = self.year, self.month, self.day
            if d < calendar.monthrange(y, m)[1]:
                return (y, m, d + 1, 0, 0, 0, 0)
            return _next_month(y, m) + (1, 0, 0, 0, 0)
        if self.month is not None:
            return _next_month(self.year, self.month) + (1, 0, 0, 0, 0)
        return (self.year + 1, 1, 1, 0, 0, 0, 0)

    def iso(self) -> str:
        """Canonical text at the stored granularity (times rendered with Z)."""
        if self.month is None:
            return f"{self.year:04d}"
        if self.day is None:
            return f"{self.year:04d}-{self.month:02d}"
        base = f"{self.year:04d}-{self.month:02d}-{self.day:02d}"
        if not self.has_time:
            return base
        t = f"T{self.hour:02d}:{self.minute:02d}:{self.second:02d}"
        if self.fraction_digits:
            frac = f"{self.microsecond:06d}"[: self.fraction_digits]
            t += f".{frac}"
        return base + t + "Z"


def _next_month(year: int, month: int) -> tuple[int, int]:
    return (year + 1, 1) if month == 12 else (year, month + 1)


def _add_micro(key: tuple, step: int) -> tuple:
    y, mo, d, h, mi, s, us = key
    us += step
    s, us = s + us // 1_000_000, us % 1_000_000
    mi, s = mi + s // 60, s % 60
    h, mi = h + mi // 60, mi % 60
    d, h = d + h // 24, h % 24
    while d > calendar.monthrange(y, mo)[1]:
        d -= calendar.monthrange(y, mo)[1]
        y, mo = _next_month(y, mo)
    return (y, mo, d, h, mi, s, us)


def timestamp_key(ms: int) -> tuple:
    """Comparable tuple for a UTC epoch-millisecond instant."""
    sec, rem = divmod(ms, 1000)
    dt = datetime.fromtimestamp(sec, tz=_UTC)
    return (dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second, rem * 1000)


def epoch_ms_from_key(key: tuple) -> float:
    """The least epoch millisecond whose ``timestamp_key`` is not below ``key``."""
    if key[0] < MINYEAR:
        return -math.inf
    if key[0] > MAXYEAR:
        return math.inf
    micros = calendar.timegm(key[:6]) * 1_000_000 + key[6]
    return -(-micros // 1000)


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
