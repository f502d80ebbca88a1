"""The traced bench wraps index, store and server methods by name.

Installing its hooks in a fresh interpreter fails as soon as one of those
names is renamed or removed, so a rename shows up here and not only in a
traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_server_hooks_install():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import traced_server; traced_server.install(traced_server.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
