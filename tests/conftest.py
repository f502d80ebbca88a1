import functools
import gc
import os
import stat
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(ROOT / "tests"))

from georocket import durable  # noqa: E402
from georocket.server import EmbeddedServer, GeoRocketApp, ServerConfig  # noqa: E402


@pytest.fixture(autouse=True)
def unsynced(request, monkeypatch):
    """Make ``durable``'s sync a no-op, so no test waits for the disk.

    What a power loss keeps is checked from the order of the durable calls
    (``tests/test_crash_states.py``), which the sync does not change. A test
    that watches the syncs asks for ``real_sync``, directly or through
    ``synced_dirs``, and keeps the real one."""
    if "real_sync" not in request.fixturenames:
        monkeypatch.setattr(durable, "_sync", lambda fd: None)


@pytest.fixture
def real_sync():
    """Keep ``durable``'s real sync in this test (see ``unsynced``)."""


@pytest.fixture
def synced_dirs(real_sync, monkeypatch):
    """(device, inode) of every directory passed to os.fsync, in order."""
    synced = []
    fsync = os.fsync

    def recording(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            synced.append((st.st_dev, st.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    return synced


def identity(path) -> tuple:
    """(device, inode) of ``path``, as ``synced_dirs`` records a directory."""
    st = os.stat(path)
    return st.st_dev, st.st_ino


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """Undo the ``gc.freeze()`` of any app a test built, so later tests see
    the collector as they would alone."""
    yield
    gc.unfreeze()


def slowed_batches(ms: float):
    """``GeoRocketApp._handle_batch`` made to sleep ``ms`` milliseconds before
    each index batch, so that a test can watch an import while it indexes."""
    handle = GeoRocketApp._handle_batch

    @functools.wraps(handle)
    def slow(self, batch):
        time.sleep(ms / 1000.0)
        return handle(self, batch)

    return slow


def wait_for_pool_exit(srv: EmbeddedServer, timeout: float = 5.0) -> list:
    """The stopped server's pool threads still alive after up to ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while (alive := [t for t in srv.httpd.pool_threads if t.is_alive()]) \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    return alive


@pytest.fixture
def server_factory():
    """Start embedded servers on ephemeral ports; stopped at teardown.

    A pool thread still alive after the stop holds a connection its test
    left open, and fails the test."""
    servers = []

    def start(**overrides) -> EmbeddedServer:
        overrides.setdefault("port", 0)
        srv = EmbeddedServer(ServerConfig(**overrides)).start()
        servers.append(srv)
        return srv

    yield start
    for srv in servers:
        srv.stop()
    leaked = [t.name for srv in servers for t in wait_for_pool_exit(srv)]
    if leaked:
        pytest.fail(f"pool threads alive after the server stopped: {leaked}")


@pytest.fixture
def server(server_factory):
    return server_factory()


def wait_for_task(url: str, task_id: str, timeout: float = 30.0) -> dict:
    import requests

    deadline = time.time() + timeout
    while True:
        task = requests.get(f"{url}/tasks/{task_id}").json()
        if task["state"] in ("FINISHED", "FAILED"):
            return task
        if time.time() > deadline:
            raise TimeoutError(f"task {task_id} still {task['state']}")
        time.sleep(0.02)
