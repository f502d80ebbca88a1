"""Command-line client.

Commands mirror the HTTP API one call each (imports add one task poll)::

    georocket import FILE... [-l LAYER] [-tags a,b] [-props k:v,...]
    georocket search QUERY [-l LAYER] [-o FILE]
    georocket delete QUERY [-l LAYER] [--all]
    georocket property set -props k:v[,k:v] [QUERY] [-l LAYER]
    georocket property rm -props key[,key] [QUERY] [-l LAYER]
    georocket tag add -tags a[,b] [QUERY] [-l LAYER]
    georocket tag rm -tags a[,b] [QUERY] [-l LAYER]

The merged document goes to standard output (or ``-o``); logs go to
standard error. Exit codes: 0 success, 1 usage error, 2 server-reported
error, 3 connection failure. ``--dry-run`` prints the request(s) without
sending anything.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import quote, urlencode

import requests

from .errors import ParseError
from .model import parse_property_specs

DEFAULT_URL = "http://127.0.0.1:63020"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_SERVER = 2
_EXIT_CONNECT = 3

_QUOTING_HELP = (
    "On Unix shells, parentheses in queries must be escaped with backslashes "
    "or the whole query wrapped in quotes, e.g. "
    "georocket search 'AND(NOT(LTE(deleted 2018-09-13)) Köln)'. "
    "The Windows command prompt needs neither."
)


class UsageError(Exception):
    pass


class ServerError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _base_url(args) -> str:
    return (args.url or os.environ.get("GEOROCKET_URL") or DEFAULT_URL).rstrip("/")


def _store_path(layer: str | None) -> str:
    segments = [s for s in (layer or "").split("/") if s]
    return "/store" + "".join("/" + quote(seg, safe="") for seg in segments)


def _query_string(params: dict) -> str:
    return "?" + urlencode(params) if params else ""


def _parse_props(raw: str) -> dict[str, str]:
    try:
        return parse_property_specs(raw)
    except ParseError as e:
        raise UsageError(e.message) from None


def _parse_keys(raw: str) -> list[str]:
    keys = [k for k in raw.split(",") if k]
    if not keys:
        raise UsageError("expected at least one name")
    return keys


def _describe_error(resp) -> str:
    try:
        err = resp.json()["error"]
        where = f" (at byte {err['offset']})" if "offset" in err else ""
        return f"{err['code']}: {err['message']}{where}"
    except Exception:
        return f"HTTP {resp.status_code}: {resp.text[:200]}"


def _checked_json(resp) -> dict:
    if resp.status_code >= 400:
        raise ServerError(_describe_error(resp))
    return resp.json()


def _gzip_blocks(path: str, block_size: int = 65536):
    comp = zlib.compressobj(6, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
    with open(path, "rb") as f:
        while True:
            block = f.read(block_size)
            if not block:
                break
            out = comp.compress(block)
            if out:
                yield out
    tail = comp.flush()
    if tail:
        yield tail


# --- commands ----------------------------------------------------------------


def cmd_import(args) -> int:
    for path in args.files:
        if not os.path.isfile(path):
            raise UsageError(f"no such file: {path}")
    params: dict = {}
    if args.tags:
        params["tags"] = args.tags
    if args.props:
        _parse_props(args.props)  # validate before any request
        params["props"] = args.props
    if args.fallback_crs:
        params["fallbackCRS"] = args.fallback_crs
    request_path = _store_path(args.layer) + _query_string(params)
    if args.dry_run:
        for path in args.files:
            print(f"POST {request_path} <- {path} (gzip)")
        return _EXIT_OK

    base = _base_url(args)

    def upload(path: str) -> tuple[str, dict]:
        resp = requests.post(
            base + request_path,
            data=_gzip_blocks(path),
            headers={"Content-Encoding": "gzip"},
        )
        accepted = _checked_json(resp)
        while True:
            task = _checked_json(requests.get(f"{base}/tasks/{accepted['taskId']}"))
            if task["state"] in ("FINISHED", "FAILED"):
                return path, task
            time.sleep(0.05)

    failures = 0
    with ThreadPoolExecutor(max_workers=max(1, args.parallel)) as pool:
        for path, task in pool.map(upload, args.files):
            if task["state"] == "FINISHED":
                print(f"{path}: {task['chunksWritten']} chunks")
            else:
                failures += 1
                print(f"{path}: import failed: {task.get('error', 'unknown error')}",
                      file=sys.stderr)
    return _EXIT_SERVER if failures else _EXIT_OK


def cmd_search(args) -> int:
    params = {"search": args.query}
    request_path = _store_path(args.layer) + _query_string(params)
    if args.dry_run:
        print(f"GET {request_path}")
        return _EXIT_OK
    resp = requests.get(_base_url(args) + request_path, stream=True)
    if resp.status_code >= 400:
        raise ServerError(_describe_error(resp))
    out = open(args.output, "wb") if args.output else sys.stdout.buffer
    try:
        for block in resp.iter_content(65536):
            out.write(block)
        out.flush()
    finally:
        if args.output:
            out.close()
    return _EXIT_OK


def cmd_delete(args) -> int:
    if not args.query.strip() and not args.all:
        raise UsageError("refusing to delete everything; pass --all to wipe the layer")
    params = {"search": args.query}
    if args.all:
        params["all"] = "true"
    request_path = _store_path(args.layer) + _query_string(params)
    if args.dry_run:
        print(f"DELETE {request_path}")
        return _EXIT_OK
    result = _checked_json(requests.delete(_base_url(args) + request_path))
    print(result["deleted"])
    return _EXIT_OK


def _metadata_request(args, method: str, extra: dict) -> int:
    params = {"search": args.query, **extra}
    request_path = _store_path(args.layer) + _query_string(params)
    if args.dry_run:
        print(f"{method} {request_path}")
        return _EXIT_OK
    resp = requests.request(method, _base_url(args) + request_path)
    print(_checked_json(resp)["updated"])
    return _EXIT_OK


def cmd_property_set(args) -> int:
    props = _parse_props(args.props)
    if not props:
        raise UsageError("property set requires -props key:value[,key:value]")
    return _metadata_request(args, "PUT", {"properties": args.props})


def cmd_property_rm(args) -> int:
    _parse_keys(args.props)
    return _metadata_request(args, "DELETE", {"properties": args.props})


def cmd_tag_add(args) -> int:
    _parse_keys(args.tags)
    return _metadata_request(args, "PUT", {"tags": args.tags})


def cmd_tag_rm(args) -> int:
    _parse_keys(args.tags)
    return _metadata_request(args, "DELETE", {"tags": args.tags})


# --- wiring --------------------------------------------------------------------


def _add_common(parser: _Parser, with_layer: bool = True) -> None:
    parser.add_argument("--url", help="server address (or GEOROCKET_URL)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the request(s) without sending")
    if with_layer:
        parser.add_argument("-l", "--layer", help="layer path, e.g. /buildings/cologne")


def build_parser() -> _Parser:
    parser = _Parser(prog="georocket", description=__doc__.splitlines()[0],
                     epilog=_QUOTING_HELP, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("import", help="upload files", epilog=_QUOTING_HELP,
                       allow_abbrev=False)
    p.add_argument("files", nargs="+")
    p.add_argument("-tags", default="", help="comma-separated tags for every chunk")
    p.add_argument("-props", default="", help="comma-separated key:value properties")
    p.add_argument("--fallback-crs", dest="fallback_crs",
                   help="CRS to record when none is found in the file")
    p.add_argument("--parallel", type=int, default=4, help="parallel uploads")
    _add_common(p)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("search", help="export matching chunks", epilog=_QUOTING_HELP,
                       allow_abbrev=False)
    p.add_argument("query", nargs="?", default="")
    p.add_argument("-o", "--output", help="write the document here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("delete", help="delete matching chunks", epilog=_QUOTING_HELP,
                       allow_abbrev=False)
    p.add_argument("query", nargs="?", default="")
    p.add_argument("--all", action="store_true", help="allow an empty query")
    _add_common(p)
    p.set_defaults(func=cmd_delete)

    prop = sub.add_parser("property", help="set or remove properties",
                          allow_abbrev=False)
    prop_sub = prop.add_subparsers(dest="subcommand", parser_class=_Parser)
    prop_sub.required = True
    p = prop_sub.add_parser("set", epilog=_QUOTING_HELP, allow_abbrev=False)
    p.add_argument("-props", required=True, help="key:value[,key:value]")
    p.add_argument("query", nargs="?", default="")
    _add_common(p)
    p.set_defaults(func=cmd_property_set)
    p = prop_sub.add_parser("rm", epilog=_QUOTING_HELP, allow_abbrev=False)
    p.add_argument("-props", required=True, help="key[,key]")
    p.add_argument("query", nargs="?", default="")
    _add_common(p)
    p.set_defaults(func=cmd_property_rm)

    tag = sub.add_parser("tag", help="add or remove tags", allow_abbrev=False)
    tag_sub = tag.add_subparsers(dest="subcommand", parser_class=_Parser)
    tag_sub.required = True
    p = tag_sub.add_parser("add", epilog=_QUOTING_HELP, allow_abbrev=False)
    p.add_argument("-tags", required=True, help="tag[,tag]")
    p.add_argument("query", nargs="?", default="")
    _add_common(p)
    p.set_defaults(func=cmd_tag_add)
    p = tag_sub.add_parser("rm", epilog=_QUOTING_HELP, allow_abbrev=False)
    p.add_argument("-tags", required=True, help="tag[,tag]")
    p.add_argument("query", nargs="?", default="")
    _add_common(p)
    p.set_defaults(func=cmd_tag_rm)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except ServerError as e:
        print(f"server error: {e}", file=sys.stderr)
        return _EXIT_SERVER
    except requests.RequestException as e:
        print(f"connection error: {e}", file=sys.stderr)
        return _EXIT_CONNECT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
