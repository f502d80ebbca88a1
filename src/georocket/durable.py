"""Durable file I/O: the only code that syncs, renames or unlinks a file.

Each operation is on disk when it returns: a file's data once the file is
synced, a name once its directory is. ``os.fsync``, ``os.replace`` and
``os.unlink`` are looked up when they run, so a wrapper of them sees them.
"""

import contextlib
import itertools
import os
from pathlib import Path


def _sync(fd: int) -> None:
    os.fsync(fd)


def _sync_dir(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        _sync(fd)
    finally:
        os.close(fd)


def write_atomic(path: Path, data) -> None:
    """Replace ``path`` with ``data``: bytes, or an iterable of bytes."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.writelines((data,) if isinstance(data, bytes) else data)
        f.flush()
        _sync(f.fileno())
    os.replace(tmp, path)
    _sync_dir(path.parent)


def append(file, data) -> None:
    """Write ``data`` at the end of the open ``file`` and sync it."""
    file.write(data)
    file.flush()
    _sync(file.fileno())


def remove(paths) -> None:
    """Unlink each existing ``Path`` in ``paths``, then sync each directory once."""
    dirs = {}
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
            dirs[path.parent] = None
    for directory in dirs:
        _sync_dir(directory)


def sync_dirs(paths) -> None:
    """Sync each directory in ``paths``, so the names in it are on disk."""
    for path in paths:
        _sync_dir(path)


def mkdir(path: Path) -> None:
    """Make directory ``path`` and its missing parents, each synced in its parent."""
    missing = itertools.takewhile(lambda p: not p.is_dir(), (path, *path.parents))
    for new in reversed(list(missing)):
        os.mkdir(new)
        _sync_dir(new.parent)
