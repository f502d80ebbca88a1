"""Import task lifecycle.

A task tracks one asynchronous import: chunks written by the splitter and
chunks made searchable by the indexer. States move monotonically along
ACCEPTED -> SPLITTING -> INDEXING -> FINISHED; FAILED is reachable from any
non-terminal state. The indexed counter can never pass the written counter,
and FINISHED means the two are equal. Until the task ends it also keeps the
ids of the chunks it wrote, so a failure can remove all of them.
"""

from __future__ import annotations

import threading
import time
import uuid
from enum import Enum

from ..model import LayerPath


class TaskState(str, Enum):
    ACCEPTED = "ACCEPTED"
    SPLITTING = "SPLITTING"
    INDEXING = "INDEXING"
    FINISHED = "FINISHED"
    FAILED = "FAILED"


_ORDER = {
    TaskState.ACCEPTED: 0,
    TaskState.SPLITTING: 1,
    TaskState.INDEXING: 2,
    TaskState.FINISHED: 3,
    TaskState.FAILED: 3,
}

_TERMINAL = (TaskState.FINISHED, TaskState.FAILED)


def _now_ms() -> int:
    return time.time_ns() // 1_000_000


class ImportTask:
    def __init__(self, layer: LayerPath):
        self.id = uuid.uuid4().hex
        self.layer = layer
        self.started_at = _now_ms()
        self.ended_at: int | None = None
        self._lock = threading.Lock()
        self._state = TaskState.ACCEPTED
        self._written = 0
        self._indexed = 0
        self._chunk_ids: list[str] | None = []  # dropped when the task ends
        self._splitting_done = False
        self._error: str | None = None

    @property
    def state(self) -> TaskState:
        with self._lock:
            return self._state

    @property
    def chunks_written(self) -> int:
        with self._lock:
            return self._written

    @property
    def chunks_indexed(self) -> int:
        with self._lock:
            return self._indexed

    @property
    def error(self) -> str | None:
        with self._lock:
            return self._error

    @property
    def chunk_ids(self) -> list[str]:
        """Ids of the chunks written so far; empty once the task has ended."""
        with self._lock:
            return list(self._chunk_ids or ())

    def is_terminal(self) -> bool:
        return self.state in _TERMINAL

    def _transition(self, state: TaskState) -> None:
        # caller holds the lock
        if self._state in _TERMINAL:
            return
        if _ORDER[state] < _ORDER[self._state]:
            raise ValueError(f"cannot move task from {self._state} back to {state}")
        self._state = state
        if state in _TERMINAL:
            self.ended_at = _now_ms()
            self._chunk_ids = None

    def start_splitting(self) -> None:
        with self._lock:
            self._transition(TaskState.SPLITTING)

    def add_written(self, chunk_id: str) -> None:
        with self._lock:
            self._written += 1
            if self._chunk_ids is not None:
                self._chunk_ids.append(chunk_id)

    def add_indexed(self, n: int = 1) -> None:
        with self._lock:
            self._indexed += n
            if self._indexed > self._written:
                raise ValueError("indexed count cannot exceed written count")
            self._maybe_finish()

    def splitting_done(self) -> None:
        """Body fully consumed and all chunks stored; indexing may lag."""
        with self._lock:
            self._splitting_done = True
            self._transition(TaskState.INDEXING)
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._splitting_done and self._indexed == self._written:
            self._transition(TaskState.FINISHED)

    def fail(self, message: str) -> None:
        with self._lock:
            if self._state not in _TERMINAL:
                self._error = message
                self._transition(TaskState.FAILED)

    def to_dict(self) -> dict:
        with self._lock:
            out = {
                "id": self.id,
                "state": self._state.value,
                "layer": str(self.layer),
                "chunksWritten": self._written,
                "chunksIndexed": self._indexed,
                "startedAt": self.started_at,
                "endedAt": self.ended_at,
            }
            if self._error is not None:
                out["error"] = self._error
            return out


class TaskRegistry:
    """Holds tasks; completed ones are pruned after a retention window."""

    def __init__(self, retention_seconds: float = 3600.0):
        self.retention_seconds = retention_seconds
        self._lock = threading.Lock()
        self._tasks: dict[str, ImportTask] = {}

    def create(self, layer: LayerPath) -> ImportTask:
        task = ImportTask(layer)
        with self._lock:
            self._tasks[task.id] = task
        self.prune()
        return task

    def get(self, task_id: str) -> ImportTask | None:
        self.prune()
        with self._lock:
            return self._tasks.get(task_id)

    def prune(self, now_ms: int | None = None) -> None:
        now = _now_ms() if now_ms is None else now_ms
        horizon = now - int(self.retention_seconds * 1000)
        with self._lock:
            stale = [
                tid
                for tid, t in self._tasks.items()
                if t.is_terminal() and t.ended_at is not None and t.ended_at < horizon
            ]
            for tid in stale:
                del self._tasks[tid]
