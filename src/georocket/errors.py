"""Error types shared across the package.

Every error carries a stable machine-readable ``code`` so the HTTP layer and
the CLI can map failures without matching message strings. Errors that point
at a position in an input carry a byte ``offset``.
"""

from __future__ import annotations


class GeoRocketError(Exception):
    """Base class for all errors raised by this package."""

    code = "INTERNAL"

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.message = message
        self.offset = offset

    def __str__(self) -> str:
        if self.offset is not None:
            return f"{self.message} (at byte {self.offset})"
        return self.message


class MalformedPathError(GeoRocketError):
    """A layer path contains forbidden characters or segments."""

    code = "MALFORMED_PATH"


class ParseError(GeoRocketError):
    """A query string does not conform to the query grammar."""

    code = "PARSE_ERROR"


class MalformedBBoxError(ParseError):
    """A token with exactly three commas is not a valid bounding box."""

    code = "MALFORMED_BBOX"


class UnsupportedFormatError(GeoRocketError):
    """The input is neither XML nor GeoJSON."""

    code = "UNSUPPORTED_FORMAT"


class UnsupportedEncodingError(GeoRocketError):
    """An XML declaration names an encoding other than UTF-8/US-ASCII."""

    code = "UNSUPPORTED_ENCODING"


class XmlMalformedError(GeoRocketError):
    """XML input is not well formed; ``offset`` points at the problem."""

    code = "XML_MALFORMED"


class JsonMalformedError(GeoRocketError):
    """JSON input is invalid; ``offset`` points at the problem."""

    code = "JSON_MALFORMED"


class RequestTimeoutError(GeoRocketError):
    """A request body stopped arriving before it was read to its end."""

    code = "REQUEST_TIMEOUT"


class DuplicateIdError(GeoRocketError):
    """A chunk id was stored or indexed twice."""

    code = "DUPLICATE_ID"


class UnknownIdError(GeoRocketError):
    """A metadata update referenced an id that is not indexed."""

    code = "UNKNOWN_ID"


class NotFoundError(GeoRocketError):
    """A requested entry, layer, or task does not exist."""

    code = "NOT_FOUND"


class IncompatibleParentsError(GeoRocketError):
    """Chunks cannot be merged into one valid output document."""

    code = "INCOMPATIBLE_PARENTS"


class StorageError(GeoRocketError):
    """An I/O failure in a storage backend; typically retryable."""

    code = "IO_ERROR"


class ConfigError(GeoRocketError):
    """Invalid server or store configuration; fail fast at startup."""

    code = "CONFIG"
