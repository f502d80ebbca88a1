"""HTTP/1.1 interface.

Endpoints::

    GET    /                                     service metadata
    POST   /store/{layer}?tags=&props=&fallbackCRS=   import (202 + task id)
    GET    /store/{layer}?search=&format=        merged export (streamed)
    GET    /store/{layer}?search=&explain=true   how the search is evaluated (JSON)
    DELETE /store/{layer}?search=&all=           delete matching chunks
    PUT    /store/{layer}?search=&properties=&tags=    set properties / add tags
    DELETE /store/{layer}?search=&properties=&tags=    remove properties / tags
    GET    /tasks/{id}                           import task status

Each connection is served by one loop (``_Handler.handle``) that reads a
request line and its header lines with ``readline``, calls the handler's
``do_<METHOD>`` and flushes the response. Message syntax follows RFC 9112.
The loop answers these requests itself, with ``Connection: close`` and the
JSON error shape: a request line over 64 KiB (414); a header line over
64 KiB or more than 100 header lines (431); a request line that is not
three words, or whose version is not ``HTTP/<digits>.<digits>``; a header
line without a colon, with whitespace before it, or folded onto the line
before (obs-fold); ``Content-Length`` beside ``Transfer-Encoding``, and
repeated ``Content-Length`` lines (400); a transfer coding other than
``chunked`` and a method with no ``do_`` handler (501); HTTP/2 and later
(505). A target starting ``//`` is reduced to one ``/``. An HTTP/1.0
connection closes after the response unless the request says
``Connection: keep-alive``, and ``Connection: close`` closes any.
``Expect: 100-continue`` is answered at once.

Request bodies may be Content-Length or chunked, optionally gzip-encoded.
A request whose declared body the handler did not read in full (any body
sent to GET, PUT or DELETE, or an upload refused with 503) is answered with
``Connection: close``, so the unread bytes are never parsed as a request.

Connections are kept alive. A response's status line and header lines are
written as one string, with a ``Date`` formatted once a second, into a
64 KiB write buffer that is flushed once per request, so a response under
64 KiB (status line, headers and body) leaves in one send. Search responses
stream with chunked transfer encoding in frames of at least 64 KiB; a
mid-stream failure aborts the connection without the terminal chunk so
clients cannot mistake a truncated document for a complete one. An HTTP/1.0
client gets the same frames without the coding, and the connection closes
after the body, which is what delimits it (RFC 9112 section 6.1). Errors are
JSON ``{"error": {"code", "message", "offset"?}}``. When all request slots
are busy the server answers 503 instead of queueing unboundedly. At DEBUG,
each request is logged in one ``key=value`` line; with DEBUG off, nothing
is formatted. That line carries ``request``, the request's number on its
connection. Its record, and every error record logged while serving the
request, carries the attribute ``request_id``: a number one counter gives
each request the process reads. ``python -m georocket.server`` writes it
as ``id=`` at the end of each such line.

Threads: a pool of ``max_concurrent_requests`` threads, named
``georocket-http-N``, starts with the server and lives as long as it. The
accept loop hands each accepted connection to the pool thread that became
idle last, which serves every request on it, rejoins the idle threads before
it closes the connection, and then waits for the next one, so no request
pays for starting or ending a thread, and a client that connects again at
once finds the same thread. A connection that arrives
while every pool thread holds one (an overflow connection) gets a thread of
its own that exits when the connection closes: requests exempt from the
slots (``GET /`` and ``/tasks``) are then still answered, and the others
get the 503.
"""

from __future__ import annotations

import contextlib
import http
import itertools
import json
import logging
import queue
import re
import socketserver
import threading
import time
import zlib
from urllib.parse import parse_qs, unquote, urlsplit

from .. import __version__
from ..errors import (
    GeoRocketError,
    NotFoundError,
    ParseError,
    RequestTimeoutError,
    UnsupportedEncodingError,
)
from ..merger import content_type
from ..model import Format, MetadataDelta, parse_layer_path, parse_property_specs
from .app import GeoRocketApp
from .config import ServerConfig

logger = logging.getLogger(__name__)

# chunk-size [ chunk-ext ] CRLF (RFC 9112, section 7.1)
_CHUNK_SIZE_LINE = re.compile(rb"([0-9A-Fa-f]+)(?:[ \t]*;[^\r\n]*)?\r\n")

# HTTP-version (RFC 9112, section 2.3), with at most 10 digits a number
_VERSION = re.compile(rb"HTTP/([0-9]{1,10})\.([0-9]{1,10})")

# field-name ":" OWS field-value OWS, the name a token (RFC 9112, section 5);
# a line ending in a bare LF is accepted (section 2.2). The value keeps its
# OWS, which is stripped after the match: a pattern that matched OWS around
# a lazy value would backtrack in time quadratic in a run of spaces
_FIELD_LINE = re.compile(rb"([-!#$%&'*+.^_`|~0-9A-Za-z]+):([^\r\n\x00]*)\r?\n")

# longest request line or header line, and most header lines, a request may have
_MAX_LINE = 1 << 16
_MAX_FIELDS = 100

# ids of the requests this process reads, one counter for every connection
_REQUEST_IDS = itertools.count(1)

# responses are buffered up to this size, and export frames are at least as large
_WRITE_BUFFER = 1 << 16

_STATUS_BY_CODE = {
    "PARSE_ERROR": 400,
    "MALFORMED_BBOX": 400,
    "UNSUPPORTED_FORMAT": 400,
    "UNSUPPORTED_ENCODING": 400,
    "XML_MALFORMED": 400,
    "JSON_MALFORMED": 400,
    "CONFIG": 400,
    "BAD_REQUEST": 400,
    "MALFORMED_PATH": 404,
    "NOT_FOUND": 404,
    "DUPLICATE_ID": 409,
    "INCOMPATIBLE_PARENTS": 409,
    "UNKNOWN_ID": 404,
    "REQUEST_TIMEOUT": 408,
    "URI_TOO_LONG": 414,
    "HEADERS_TOO_LARGE": 431,
    "IO_ERROR": 500,
    "INTERNAL": 500,
    "NOT_IMPLEMENTED": 501,
    "VERSION_NOT_SUPPORTED": 505,
}

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov",
           "Dec")


def parse_tag_list(raw: str) -> list[str]:
    return [t for t in raw.split(",") if t]


class _BadMessage(GeoRocketError):
    """A request the loop answers itself, before any ``do_`` method runs:
    its message is not HTTP/1.1 as this server reads it (RFC 9112)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Headers(dict):
    """Request header fields by lower-cased name, a repeated field's values
    joined by ``", "``; ``get`` takes a name in any case."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class _Handler(socketserver.StreamRequestHandler):
    # responses collect here; handle flushes wfile after each request
    wbufsize = _WRITE_BUFFER
    # seconds a read or a write may wait; an idle kept-alive connection or
    # a stalled upload is then closed and its thread returns to the pool (an
    # overflow connection's thread exits), and so is a client that stops
    # reading a response, which then ends without its terminal chunk
    timeout = 60
    command: str | None = None  # method of the request being served
    path: str | None = None  # its target, a leading "//" reduced to "/"
    headers: _Headers
    http11 = True  # whether the request's version is HTTP/1.1 or later
    close_connection = True  # whether the connection ends after this response
    request_id = 0  # this process's number of the request being served
    _body_unread = False  # a declared request body not yet read to its end

    @property
    def app(self) -> GeoRocketApp:
        return self.server.app

    # --- the request loop ---------------------------------------------------

    def handle(self) -> None:
        self._served = 0  # requests read on this connection
        with contextlib.suppress(TimeoutError):  # no request within the timeout
            while self._serve_one():
                pass

    def _serve_one(self) -> bool:
        """Read one request and answer it; whether the connection stays open."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):  # one empty line before a request line is ignored
            line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return False
        started = time.perf_counter() if logger.isEnabledFor(logging.DEBUG) else None
        self._served += 1
        self.request_id = next(_REQUEST_IDS)
        self._status_code = self._sent = 0
        self.command = self.path = None
        self._body_unread = False
        try:
            handler = self._read_head(line)
        except _BadMessage as e:
            self._send_error_payload(e)
        else:
            handler()
        self.wfile.flush()
        if started is not None:
            logger.debug("method=%s path=%s status=%d bytes=%d ms=%.3f request=%d",
                         self.command, self.path, self._status_code, self._sent,
                         (time.perf_counter() - started) * 1e3, self._served,
                         extra={"request_id": self.request_id})
        return not self.close_connection

    def _read_head(self, line: bytes):
        """Parse the request line ``line``, read the header lines, and return
        the bound ``do_`` method that answers the request; a request the loop
        must refuse raises ``_BadMessage``."""
        self.close_connection = True
        if len(line) > _MAX_LINE:
            raise _BadMessage("URI_TOO_LONG", f"request line longer than {_MAX_LINE} bytes")
        words = line.split()
        if len(words) != 3:
            raise _BadMessage("BAD_REQUEST", f"malformed request line {line[:200]!r}")
        method, target, version = words
        m = _VERSION.fullmatch(version)
        if m is None:
            raise _BadMessage("BAD_REQUEST", f"malformed HTTP version {version[:40]!r}")
        number = int(m[1]), int(m[2])
        if number >= (2, 0):
            raise _BadMessage("VERSION_NOT_SUPPORTED",
                              f"{version.decode('ascii')} is not supported")
        self.http11 = http11 = number >= (1, 1)
        self.close_connection = not http11  # HTTP/1.0 keeps it only if asked to
        self.command = method.decode("latin-1")
        path = target.decode("latin-1")
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        fields: dict[str, str] = {}
        readline = self.rfile.readline
        count = 0
        while (field := readline(_MAX_LINE + 1)) not in (b"\r\n", b"\n", b""):
            if len(field) > _MAX_LINE:
                raise _BadMessage("HEADERS_TOO_LARGE", f"header line longer than {_MAX_LINE} bytes")
            count += 1
            if count > _MAX_FIELDS:
                raise _BadMessage("HEADERS_TOO_LARGE", f"more than {_MAX_FIELDS} header lines")
            m = _FIELD_LINE.fullmatch(field)
            if m is None:
                what = "folded" if field[:1] in b" \t" else "malformed"
                raise _BadMessage("BAD_REQUEST", f"{what} header line {field[:200]!r}")
            name = m[1].decode("ascii").lower()
            value = m[2].strip(b" \t").decode("latin-1")
            if name in fields:
                if name == "content-length":
                    raise _BadMessage("BAD_REQUEST", "repeated Content-Length")
                value = f"{fields[name]}, {value}"
            fields[name] = value
        self.headers = _Headers(fields)

        if "transfer-encoding" in fields:
            # a body framed two ways could be read two ways (request smuggling)
            if "content-length" in fields:
                raise _BadMessage("BAD_REQUEST", "Content-Length beside Transfer-Encoding")
            if fields["transfer-encoding"].lower() != "chunked":
                raise _BadMessage("NOT_IMPLEMENTED", "the only transfer coding served is chunked")
            self._body_unread = True
        else:
            self._body_unread = fields.get("content-length", "") not in ("", "0")
        connection = fields.get("connection")
        if connection is not None:
            options = {option.strip() for option in connection.lower().split(",")}
            if "close" in options:
                self.close_connection = True
            elif "keep-alive" in options:
                self.close_connection = False
        handler = getattr(self, "do_" + self.command, None)
        if handler is None:
            raise _BadMessage("NOT_IMPLEMENTED", f"unsupported method {self.command!r}")
        if http11 and fields.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()  # the client waits for it before sending the body
        return handler

    # --- responses ------------------------------------------------------------

    def _head(self, status: int, fields: str) -> bytes:
        """Status line and header section of a response whose own header
        lines are ``fields``, with ``Server``, ``Date`` and, when the
        connection ends after the response, ``Connection: close``."""
        self._status_code = status
        if self._body_unread:
            # unread body bytes must not be parsed as the next request
            self.close_connection = True
        close = "Connection: close\r\n" if self.close_connection else ""
        return (f"HTTP/1.1 {status} {http.HTTPStatus(status).phrase}\r\n"
                f"{self.server.standard_fields()}{fields}{close}\r\n").encode("latin-1")

    def _write(self, data: bytes) -> None:
        self._sent += len(data)
        self.wfile.write(data)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._write(self._head(
            status, f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n") + body)

    def _send_error_payload(self, err: GeoRocketError) -> None:
        status = _STATUS_BY_CODE.get(err.code, 500)
        payload = {"error": {"code": err.code, "message": err.message}}
        if err.offset is not None:
            payload["error"]["offset"] = err.offset
        # request body may be partially consumed; do not reuse the connection
        self.close_connection = True
        self._send_json(status, payload)

    def _send_internal_error(self, exc: Exception) -> None:
        logger.exception("unhandled error serving %s", self.path,
                         extra={"request_id": self.request_id})
        self.close_connection = True
        try:
            self._send_json(
                500, {"error": {"code": "INTERNAL", "message": str(exc) or type(exc).__name__}}
            )
        except OSError:
            pass

    def _layer(self, segments: list[str]):
        return parse_layer_path("/".join(unquote(s) for s in segments))

    def _route(self):
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        params = {
            k: v[-1] for k, v in parse_qs(parts.query, keep_blank_values=True).items()
        }
        return segments, params

    @contextlib.contextmanager
    def _slot(self):
        if not self.app.request_slots.acquire(blocking=False):
            self._send_json(503, {"error": {"code": "OVERLOADED",
                                            "message": "too many concurrent requests"}})
            yield False
            return
        try:
            yield True
        finally:
            self.app.request_slots.release()

    def _body_blocks(self):
        """Iterator over the (decoded) request body, never fully buffered."""
        encoding = self.headers.get("content-encoding", "").lower()
        if "transfer-encoding" in self.headers:  # chunked, the only coding the loop lets pass
            raw = self._chunked_blocks()
        else:
            length = self.headers.get("content-length")
            if length is None:
                raise ParseError("request body requires Content-Length or chunked encoding")
            if not (length.isascii() and length.isdigit()):
                raise ParseError(f"malformed Content-Length {length!r}")
            raw = self._sized_blocks(int(length))
        raw = _timeout_as_error(raw, self.timeout)
        if encoding in ("", "identity"):
            return raw
        if encoding == "gzip":
            return _gunzip(raw)
        raise UnsupportedEncodingError(f"unsupported Content-Encoding {encoding!r}")

    def _sized_blocks(self, length: int, block_size: int = 65536):
        remaining = length
        while remaining > 0:
            block = self.rfile.read(min(block_size, remaining))
            if not block:
                break
            remaining -= len(block)
            yield block
        self._body_unread = False

    def _chunked_blocks(self):
        while True:
            line = self.rfile.readline(1024)
            m = _CHUNK_SIZE_LINE.fullmatch(line)
            if m is None:
                raise ParseError("malformed chunked transfer encoding")
            size = int(m.group(1), 16)
            if size == 0:
                while True:  # trailers
                    trailer = self.rfile.readline(1024)
                    if trailer in (b"\r\n", b"\n", b""):
                        break
                self._body_unread = False
                return
            remaining = size
            while remaining > 0:
                block = self.rfile.read(min(65536, remaining))
                if not block:
                    raise ParseError("truncated chunked body")
                remaining -= len(block)
                yield block
            if self.rfile.read(2) != b"\r\n":
                raise ParseError("chunk data not followed by CRLF")

    # --- endpoints ------------------------------------------------------------

    def _serve(self, store_handler, other=None) -> None:
        """Answer one request: a ``/store`` path with ``store_handler(layer,
        params)`` inside a request slot, any other path with
        ``other(segments)`` without one, if given. Errors become JSON error
        responses."""
        segments, params = self._route()
        try:
            if segments[:1] == ["store"]:
                with self._slot() as ok:
                    if ok:
                        store_handler(self._layer(segments[1:]), params)
            elif other is not None:
                other(segments)
            else:
                raise NotFoundError(f"no such endpoint {self.path}")
        except GeoRocketError as e:
            self._send_error_payload(e)
        except Exception as e:
            self._send_internal_error(e)

    def do_GET(self):
        self._serve(self._search, self._status)

    def do_POST(self):
        self._serve(self._import)

    def do_PUT(self):
        self._serve(self._set_metadata)

    def do_DELETE(self):
        self._serve(self._delete)

    def _status(self, segments):
        if not segments:
            self._send_json(200, self.app.status())
        elif segments[0] == "tasks" and len(segments) == 2:
            task = self.app.task(segments[1])
            if task is None:
                raise NotFoundError(f"no such task {segments[1]}")
            self._send_json(200, task.to_dict())
        else:
            raise NotFoundError(f"no such endpoint {self.path}")

    def _search(self, layer, params):
        if params.get("explain", "").lower() == "true":
            self._send_json(200, self.app.explain(layer, params.get("search", "")))
            return
        default_format = (
            Format.GEOJSON if params.get("format", "").lower() in ("geojson", "json")
            else Format.XML
        )
        fmt, stream = self.app.search(layer, params.get("search", ""), default_format)
        if self.http11:
            frame, last, coding = _frame, b"0\r\n\r\n", "Transfer-Encoding: chunked\r\n"
        else:
            # an HTTP/1.0 client knows no chunked coding: the body ends
            # where the connection does
            frame, last, coding = _unframed, b"", ""
            self.close_connection = True
        self._write(self._head(200, f"Content-Type: {content_type(fmt)}\r\n{coding}"))
        try:
            parts: list[bytes] = []
            size = 0
            for piece in stream:
                parts.append(piece)
                size += len(piece)
                if size >= _WRITE_BUFFER:
                    self._write(frame(parts, size, b"\r\n"))
                    parts, size = [], 0
            self._write(frame(parts, size, b"\r\n" + last) if size else last)
        except Exception:
            # abort without the terminal chunk: the client sees a truncated
            # transfer instead of a silently incomplete document
            logger.exception("search stream aborted", extra={"request_id": self.request_id})
            self.close_connection = True

    def _import(self, layer, params):
        task = self.app.import_stream(
            layer,
            self._body_blocks(),
            tags=parse_tag_list(params.get("tags", "")),
            properties=parse_property_specs(params.get("props", params.get("properties", ""))),
            fallback_crs=params.get("fallbackCRS") or None,
        )
        self._send_json(202, {"taskId": task.id, "chunksWritten": task.chunks_written})

    def _delete(self, layer, params):
        search = params.get("search", "")
        if "properties" in params or "tags" in params:
            delta = MetadataDelta(
                remove_properties=frozenset(parse_tag_list(params.get("properties", ""))),
                remove_tags=frozenset(parse_tag_list(params.get("tags", ""))),
            )
            self._send_json(200, {"updated": self.app.update_metadata(layer, search, delta)})
        else:
            allow_all = params.get("all", "").lower() == "true"
            self._send_json(200, {"deleted": self.app.delete(layer, search, allow_all)})

    def _set_metadata(self, layer, params):
        delta = MetadataDelta(
            set_properties=parse_property_specs(params.get("properties", params.get("props", ""))),
            add_tags=frozenset(parse_tag_list(params.get("tags", ""))),
        )
        self._send_json(200, {"updated": self.app.update_metadata(
            layer, params.get("search", ""), delta)})


def _frame(parts: list[bytes], size: int, tail: bytes) -> bytes:
    """One chunked-coding frame of ``parts`` (``size`` bytes), then ``tail``."""
    return b"".join([b"%x\r\n" % size, *parts, tail])


def _unframed(parts: list[bytes], size: int, tail: bytes) -> bytes:
    """``_frame`` without the chunked coding (size line and ``tail``), for a
    body that the end of the connection delimits."""
    return b"".join(parts)


def _timeout_as_error(blocks, seconds):
    """Pass ``blocks`` through; a read that times out becomes a 408 error."""
    try:
        yield from blocks
    except TimeoutError as e:
        raise RequestTimeoutError(f"request body stalled for {seconds} s") from e


def _gunzip(blocks):
    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
    try:
        for block in blocks:
            out = decomp.decompress(block)
            if out:
                yield out
        tail = decomp.flush()
        if tail:
            yield tail
    except zlib.error as e:
        raise UnsupportedEncodingError(f"invalid gzip body: {e}") from e


class GeoRocketHTTPServer(socketserver.TCPServer):
    """Serves connections on a pool of long-lived threads (see the module
    docstring); ``server_close()`` ends the idle ones, and a busy one ends
    when its connection closes."""

    allow_reuse_address = True

    def __init__(self, config: ServerConfig, app: GeoRocketApp | None = None):
        self.app = app or GeoRocketApp(config)
        super().__init__((config.host, config.port), _Handler)
        self._standard = (0, "")  # (second, the Server and Date header lines of that second)
        self._pool_lock = threading.Condition(threading.Lock())
        self._unclaimed = 0  # connections handed to a pool thread that has not woken yet
        inboxes = [queue.SimpleQueue() for _ in range(config.max_concurrent_requests)]
        # the inboxes of the idle pool threads, georocket-http-0 on top at the
        # start and then the last one to finish: a light load stays on a few
        # threads with warm stacks, and on the first ones started, which got
        # malloc arenas of their own (later ones share arenas past glibc's
        # limit of 8 per core, which raised the benchmark's peak RSS)
        self._idle = inboxes[::-1]
        self._closed = False
        self.pool_threads = [
            threading.Thread(target=self._pool_worker, args=(inbox,), daemon=True,
                             name=f"georocket-http-{n}")
            for n, inbox in enumerate(inboxes)  # an inbox takes (socket, address), or None: exit
        ]
        for thread in self.pool_threads:
            thread.start()

    def standard_fields(self) -> str:
        """The ``Server`` and ``Date`` header lines, formatted once a second."""
        now = int(time.time())
        second, lines = self._standard
        if second != now:
            t = time.gmtime(now)
            lines = (f"Server: georocket/{__version__}\r\n"
                     f"Date: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} {t.tm_year}"
                     f" {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n")
            self._standard = (now, lines)
        return lines

    def process_request(self, request, client_address) -> None:
        with self._pool_lock:
            inbox = self._idle.pop() if self._idle else None
            if inbox is not None:
                self._unclaimed += 1
            else:
                # an overflow thread runs at once, so first let every handed-off
                # connection reach its thread: a later connection must not
                # overtake an earlier one and take the slot it was to hold
                self._pool_lock.wait_for(lambda: not self._unclaimed)
        if inbox is not None:
            inbox.put((request, client_address))
        else:
            threading.Thread(target=self._serve, args=(request, client_address),
                             daemon=True).start()

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def _pool_worker(self, inbox: queue.SimpleQueue) -> None:
        while (item := inbox.get()) is not None:
            with self._pool_lock:
                self._unclaimed -= 1
                if not self._unclaimed:
                    self._pool_lock.notify()
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                # rejoin the idle stack before closing the connection: a client
                # that connects again as soon as it has read the response then
                # finds this thread on top, and keeps to one thread and arena
                with self._pool_lock:
                    closed = self._closed
                    if not closed:
                        self._idle.append(inbox)
                self.shutdown_request(request)
            if closed:
                return

    def server_close(self) -> None:
        super().server_close()
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)


class EmbeddedServer:
    """Run the HTTP server on a background thread (tests, __main__)."""

    def __init__(self, config: ServerConfig):
        self.httpd = GeoRocketHTTPServer(config)
        self._thread: threading.Thread | None = None

    @property
    def app(self) -> GeoRocketApp:
        return self.httpd.app

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self.httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "EmbeddedServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True, name="georocket-http"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.app.close()

    def __enter__(self) -> "EmbeddedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
