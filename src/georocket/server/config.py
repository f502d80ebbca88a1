"""Server configuration: one JSON file plus environment overrides.

File shape (all keys optional)::

    {
      "host": "127.0.0.1",
      "port": 63020,
      "store": {"backend": "filesystem", "path": "/data/store"},
      "index": {"path": "/data/index"},
      "tasks": {"retention_seconds": 3600},
      "limits": {
        "max_concurrent_requests": 32,
        "index_batch_size": 256,
        "index_queue_size": 1024
      },
      "reconcile_on_start": true
    }

Environment variables named ``GEOROCKET_<FIELD>`` (e.g. GEOROCKET_PORT,
GEOROCKET_STORE_BACKEND, GEOROCKET_STORE_PATH) override file values.
Unknown backends fail fast.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

from ..errors import ConfigError

DEFAULT_PORT = 63020


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    store_backend: str = "memory"
    store_path: str | None = None
    index_path: str | None = None
    task_retention_seconds: float = 3600.0
    max_concurrent_requests: int = 32
    index_batch_size: int = 256
    index_queue_size: int = 1024
    reconcile_on_start: bool = True

    def validate(self) -> "ServerConfig":
        if self.store_backend not in ("memory", "filesystem"):
            raise ConfigError(f"unknown store backend {self.store_backend!r}")
        if self.store_backend == "filesystem" and not self.store_path:
            raise ConfigError("store.backend=filesystem requires store.path")
        if self.index_batch_size < 1 or self.index_queue_size < 1:
            raise ConfigError("index batch and queue sizes must be positive")
        if self.max_concurrent_requests < 1:
            raise ConfigError("max_concurrent_requests must be positive")
        return self


def _from_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    values: dict = {}
    for key in ("host", "port", "reconcile_on_start"):
        if key in raw:
            values[key] = raw[key]
    store = raw.get("store", {})
    if "backend" in store:
        values["store_backend"] = store["backend"]
    if "path" in store:
        values["store_path"] = store["path"]
    if "path" in raw.get("index", {}):
        values["index_path"] = raw["index"]["path"]
    if "retention_seconds" in raw.get("tasks", {}):
        values["task_retention_seconds"] = raw["tasks"]["retention_seconds"]
    limits = raw.get("limits", {})
    for key in ("max_concurrent_requests", "index_batch_size", "index_queue_size"):
        if key in limits:
            values[key] = limits[key]
    return values


_FIELD_TYPES = {f.name: f.type for f in fields(ServerConfig)}


def _coerce(name: str, raw: str):
    if name in ("port", "max_concurrent_requests", "index_batch_size", "index_queue_size"):
        return int(raw)
    if name == "task_retention_seconds":
        return float(raw)
    if name == "reconcile_on_start":
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return raw


def load_config(path: str | None = None, env=None) -> ServerConfig:
    """Build a validated ServerConfig from a file (optional) and environment."""
    env = os.environ if env is None else env
    values = _from_file(path) if path else {}
    for name in _FIELD_TYPES:
        env_key = "GEOROCKET_" + name.upper()
        if env_key in env:
            try:
                values[name] = _coerce(name, env[env_key])
            except ValueError as e:
                raise ConfigError(f"bad value for {env_key}: {e}") from e
    return ServerConfig(**values).validate()
