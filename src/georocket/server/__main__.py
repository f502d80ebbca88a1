"""Run the server: ``python -m georocket.server [-c config.json]``."""

from __future__ import annotations

import argparse
import ctypes
import logging
import signal
import sys
import threading

from ..errors import ConfigError
from .config import load_config
from .httpd import EmbeddedServer

_M_ARENA_MAX = -8  # glibc's mallopt parameter number


def _one_malloc_arena() -> None:
    """Make every thread of the process allocate from glibc's main arena.

    The interpreter lock lets one thread run Python at a time, so arenas of
    their own give threads no parallelism; each only keeps the free memory
    of the largest work its thread did, such as an import's split and
    extraction on whichever pool thread served it. Without glibc nothing
    changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_ARENA_MAX, 1)


class _Formatter(logging.Formatter):
    """The default format, with ``id=`` after the message of a record that
    carries the ``request_id`` of the request it was logged for."""

    def formatMessage(self, record: logging.LogRecord) -> str:
        line = super().formatMessage(record)
        request_id = getattr(record, "request_id", None)
        return line if request_id is None else f"{line} id={request_id}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="georocket-server")
    parser.add_argument("-c", "--config", help="path to the JSON config file")
    parser.add_argument("--host", help="override the listen host")
    parser.add_argument("--port", type=int, help="override the listen port")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    _one_malloc_arena()  # before the first thread starts

    handler = logging.StreamHandler()
    handler.setFormatter(_Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        handlers=[handler])
    try:
        config = load_config(args.config)
        if args.host:
            config.host = args.host
        if args.port is not None:
            config.port = args.port
        server = EmbeddedServer(config)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    server.start()
    print(f"georocket listening on {server.url}", flush=True)
    stop.wait()
    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
