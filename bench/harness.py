"""Server subprocess, HTTP client, disk and statistics helpers for the benchmark."""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
START_TIMEOUT_S = 120.0
TASK_TIMEOUT_S = 120.0
TASK_POLL_S = 0.02


class BenchError(Exception):
    """The server or the workload could not go on."""


class Server:
    """One ``python -m georocket.server -c <config>`` subprocess.

    With ``spans_file`` set, the same server runs under the bench's traced
    launcher instead, which writes its spans to that file on exit.
    """

    def __init__(self, checkout: Path, workdir: Path, config: dict, spans_file: Path | None = None):
        self.checkout = checkout
        self.workdir = workdir
        self.config = dict(config, host="127.0.0.1", port=0)
        self.spans_file = spans_file
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, expected_chunks: int = 0) -> float:
        """Launch and return the seconds until ``GET /`` reports ``expected_chunks``."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = self.workdir / "server.json"
        cfg.write_text(json.dumps(self.config))
        if self.spans_file is None:
            cmd = [sys.executable, "-m", "georocket.server", "-c", str(cfg)]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_server.py"), str(self.spans_file),
                   "-c", str(cfg)]
        # a fixed hash seed gives every run the same string hashes, and so the
        # same layout of the index's token dicts and sets; a random one moved
        # latencies by a fifth from one server process to the next
        env = dict(os.environ, PYTHONPATH=str(self.checkout / "src"), PYTHONHASHSEED="0")
        started = time.monotonic()
        with open(self.workdir / "server.log", "ab") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                                         cwd=self.checkout)
        line = self._first_line(started + START_TIMEOUT_S)
        self.port = int(line.rsplit(b":", 1)[1])
        client = Client(self.port)
        while True:
            status, body, _ = client.request("GET", "/")
            if status == 200 and json.loads(body)["chunks"] == expected_chunks:
                return time.monotonic() - started
            if time.monotonic() - started > START_TIMEOUT_S:
                raise BenchError(f"server never reported {expected_chunks} chunks: {body!r}")
            time.sleep(0.005)

    def _first_line(self, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        data = b""
        while b"\n" not in data:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise BenchError(f"server did not start; see {self.workdir / 'server.log'}")
            data += chunk
        return data.split(b"\n", 1)[0]

    def peak_rss_mb(self) -> float:
        """VmHWM of the running server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


class Client:
    """HTTP client opening one connection per request, like the project's CLI.

    A kept-alive connection would see a 40 ms delayed-ACK stall on some
    responses and not on others, depending on the kernel's ACK heuristics,
    which makes latency bimodal from one run to the next.
    """

    def __init__(self, port: int):
        self.port = port

    def request(self, method: str, path: str, body: bytes | None = None, bench_id: str = ""):
        """Return (status, body, seconds to the last byte). ``bench_id`` tags the
        request for the trace."""
        headers = {"X-Bench-Id": bench_id} if bench_id else {}
        started = time.monotonic()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TASK_TIMEOUT_S)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return resp.status, data, time.monotonic() - started

    def wait_task(self, task_id: str) -> dict:
        deadline = time.monotonic() + TASK_TIMEOUT_S
        while True:
            status, body, _ = self.request("GET", f"/tasks/{task_id}")
            if status != 200:
                raise BenchError(f"task {task_id}: HTTP {status} {body!r}")
            task = json.loads(body)
            if task["state"] in ("FINISHED", "FAILED") or time.monotonic() > deadline:
                return task
            time.sleep(TASK_POLL_S)


def allocated_bytes(*roots: Path) -> int:
    """Bytes the filesystem allocated for every file under ``roots``."""
    total = 0
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for name in files:
                try:
                    total += os.lstat(os.path.join(dirpath, name)).st_blocks * 512
                except FileNotFoundError:
                    pass
    return total


def file_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.glob(pattern))


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path``, read from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# p99 is left out: over the ~2 000 searches of a run it is the 20th slowest,
# which follows the host's bursts more than the program and spread by 0.2-0.4
# of its median over seeds
TAIL_GRID = (95.0, 90.0, 75.0, 50.0)


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples) for the highest percentile of TAIL_GRID
    that has at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_GRID:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p), n
    return 50.0, percentile(values, 50.0), n
