import gc
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(ROOT / "tests"))

from georocket.server import EmbeddedServer, ServerConfig  # noqa: E402


@pytest.fixture(autouse=True)
def unfrozen_heap():
    """Undo the ``gc.freeze()`` of any app a test built, so later tests see
    the collector as they would alone."""
    yield
    gc.unfreeze()


@pytest.fixture
def server_factory():
    """Start embedded servers on ephemeral ports; stopped at teardown."""
    servers = []

    def start(**overrides) -> EmbeddedServer:
        overrides.setdefault("port", 0)
        srv = EmbeddedServer(ServerConfig(**overrides)).start()
        servers.append(srv)
        return srv

    yield start
    for srv in servers:
        srv.stop()


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
