"""Streaming XML splitter.

One forward pass divides a document into one chunk per direct child element
of the root, regardless of element names, so no schema knowledge is needed.
The structure comes from the stdlib's ``pyexpat``; chunk content is the
child's verbatim byte range, cut from the retained input at the parser's
byte offsets. The XML declaration and the root start tag are kept verbatim
as enclosing context; the root end tag is synthesized from the root name (it
must be emitted before the input ends).

Comments and processing instructions between features are discarded, as is
any DOCTYPE. Character data directly under the root is expected to be
whitespace and is dropped. Input must be UTF-8 (or US-ASCII); an XML
declaration naming another encoding is rejected. Entities that are not
declared (such as ``&nbsp;``) are accepted and left as they are.

The same pass projects each chunk for the index: from the start of each
direct child of the root to its end, the parser's handlers are those of
``indexer.extract.project_xml_element``, so every chunk arrives with the
bounding box, attributes and tokens that ``build_document`` finds in its
bytes, and nothing parses it again. Between chunks only the splitter's own
start handler is set. Under a DOCTYPE with an internal subset, whose entity
and attribute declarations a chunk's bytes read alone would not see, chunks
carry no projection and are extracted from their stored bytes.
"""

from __future__ import annotations

import re
from xml.parsers import expat

from ..errors import UnsupportedEncodingError, XmlMalformedError
from ..indexer.extract import project_xml_element
from ..model import XmlParents
from .types import RawChunk

_WS = b" \t\r\n"
_BOM = b"\xef\xbb\xbf"
_NON_WS = re.compile(rb"[^ \t\r\n]")
_START_TAG = re.compile(rb"<[^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*>")
_ATTR_RE = re.compile(rb"([^\s=/>'\"]+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)')")
_SRS_NAME_RE = re.compile(rb"(?<![-\w:.])srsName\s*=\s*(?:\"([^\"]*)\"|'([^']*)')")
_ENCODING_RE = re.compile(rb"encoding\s*=\s*(?:\"([^\"]*)\"|'([^']*)')")
_ACCEPTED_ENCODINGS = {"utf-8", "utf8", "us-ascii", "ascii"}
_ENVELOPE_NAMES = ("boundedBy", "Envelope")
_RELEASE_THRESHOLD = 1 << 18


def parse_attributes(tag: bytes) -> list[tuple[str, str]]:
    """Attribute name/value pairs of a start tag, verbatim (entities kept)."""
    out = []
    for m in _ATTR_RE.finditer(tag):
        value = m.group(2) if m.group(2) is not None else m.group(3)
        out.append((m.group(1).decode("utf-8", "replace"), value.decode("utf-8", "replace")))
    return out


class XmlSplitter:
    """Splits one XML document; ``max_buffered`` reports peak buffered bytes."""

    def __init__(self):
        self.max_buffered = 0

    def split(self, blocks):
        """Yield RawChunk for each direct child element of the root."""
        blocks = iter(blocks)
        buf = bytearray()

        def pull() -> bool:
            for block in blocks:
                if block:
                    buf.extend(block)
                    return True
            return False

        # The prolog is read before parsing: the declaration's encoding is
        # checked here, and pyexpat only sees input from the first
        # non-whitespace byte after a BOM on.
        while len(buf) < 3 and pull():
            pass
        first = 3 if buf.startswith(_BOM) else 0
        declaration = bytes(buf[:first]) or None
        while (m := _NON_WS.search(buf, first)) is None and pull():
            pass
        first = m.start() if m else len(buf)
        while len(buf) < first + 6 and pull():
            pass
        if buf.startswith(b"<?xml", first) and buf[first + 5 : first + 6] in (
            b" ", b"\t", b"\r", b"\n", b"?",
        ):
            while (end := buf.find(b"?>", first)) == -1:
                if not pull():
                    raise XmlMalformedError("unterminated XML declaration", offset=first)
            m = _ENCODING_RE.search(buf, first, end)
            if m:
                enc = (m.group(1) or m.group(2)).decode("ascii", "replace").lower()
                if enc not in _ACCEPTED_ENCODINGS:
                    raise UnsupportedEncodingError(f"unsupported encoding {enc!r}")
            declaration = bytes(buf[: end + 2])

        base = 0  # absolute offset of buf[0]
        parents = None
        doc_crs = None
        internal_subset = False
        chunk_start = -1  # absolute offset of the open chunk, -1 when none
        chunk_name = ""
        finish = None  # ends the open chunk's projection
        # (start, end event offset, name, projection) of each chunk ended
        done: list[tuple[int, int, str, tuple | None]] = []

        parser = expat.ParserCreate(encoding="utf-8")
        parser.UseForeignDTD(True)  # undeclared entities are not errors
        parser.ordered_attributes = True
        parser.buffer_text = True

        def start(name, attrs):
            # the root, then each direct child of it: between chunks, this is
            # the only handler set
            nonlocal chunk_start, chunk_name, finish, parents, doc_crs
            if parents is not None:
                chunk_start = parser.CurrentByteIndex + first
                chunk_name = name
                finish = project_xml_element(parser, end_chunk)
                parser.StartElementHandler(name, attrs)
                return
            pos = parser.CurrentByteIndex + first - base
            root_start = bytes(buf[pos : _START_TAG.match(buf, pos).end()])
            if root_start.endswith(b"/>"):
                root_start = root_start[:-2].rstrip(_WS) + b">"
            doc_crs = next(
                (v for a, v in parse_attributes(root_start) if a.rpartition(":")[2] == "srsName"),
                None,
            )
            parents = XmlParents(
                root_start=root_start,
                root_end=b"</" + name.encode("utf-8") + b">",
                declaration=declaration,
            )

        def end_chunk():
            nonlocal chunk_start, finish
            projection = finish()
            done.append((chunk_start, parser.CurrentByteIndex + first, chunk_name,
                         None if internal_subset else projection))
            chunk_start = -1
            finish = None
            parser.StartElementHandler = start

        def doctype(name, system_id, public_id, has_internal_subset):
            nonlocal internal_subset
            # declarations (entities, attribute defaults) apply to the
            # document but not to a chunk's bytes read alone, so such
            # chunks are projected from their stored bytes instead
            internal_subset = bool(has_internal_subset)
            # a default handler stops internal entities from being expanded
            # into elements that are not in the input bytes
            parser.DefaultHandler = lambda data: None

        parser.StartElementHandler = start
        parser.StartDoctypeDeclHandler = doctype

        sequence = 0
        env_crs = None
        data = bytes(buf[first:])
        final = False
        try:
            while True:
                if len(buf) > self.max_buffered:
                    self.max_buffered = len(buf)
                error = None
                try:
                    parser.Parse(data, final)
                except expat.ExpatError as e:
                    offset = max(parser.ErrorByteIndex, 0) + first
                    error = XmlMalformedError(expat.errors.messages[e.code], offset=offset)
                for a, b, name, projection in done:
                    content = _chunk_bytes(buf, a - base, b - base)
                    own_crs = _first_srs_name(content)
                    yield RawChunk(content=content, parents=parents, sequence=sequence,
                                   crs_hint=own_crs or env_crs or doc_crs,
                                   projection=projection)
                    if name.rpartition(":")[2] in _ENVELOPE_NAMES:
                        env_crs = own_crs or env_crs
                    sequence += 1
                done.clear()
                if error is not None:
                    raise error
                if final:
                    return
                # keep the open chunk, or what pyexpat has not consumed yet
                keep = chunk_start if chunk_start != -1 else parser.CurrentByteIndex + first
                if keep - base >= _RELEASE_THRESHOLD:
                    del buf[: keep - base]
                    base = keep
                data = next(blocks, None)
                final = data is None
                if final:
                    data = b""
                buf.extend(data)
        finally:
            # the handlers refer to the parser; without them the parser and
            # the retained input are freed now, not by a later full collection
            if finish is not None:  # a chunk left open by an error
                finish()
            parser.StartElementHandler = parser.StartDoctypeDeclHandler = None
            parser.DefaultHandler = None
            # they refer to each other, and a raised error's traceback to
            # this frame
            start = end_chunk = error = None


def _chunk_bytes(buf: bytearray, a: int, b: int) -> bytes:
    """Bytes of the element starting at ``a`` whose end event was at ``b``.

    pyexpat reports an end tag at its ``<``, and the end of a self-closing
    element right after its ``/>``.
    """
    tag_end = _START_TAG.match(buf, a).end()
    if buf[tag_end - 2] == 0x2F:  # /
        return bytes(buf[a:tag_end])
    return bytes(buf[a : buf.index(b">", b) + 1])


def _first_srs_name(content: bytes) -> str | None:
    i = content.find(b"srsName")
    if i == -1:
        return None
    m = _SRS_NAME_RE.search(content, i)
    if not m:
        return None
    return (m.group(1) if m.group(1) is not None else m.group(2)).decode("utf-8", "replace")


def split_xml(blocks):
    """Divide an XML byte stream into one RawChunk per direct child of the root."""
    return XmlSplitter().split(blocks)
