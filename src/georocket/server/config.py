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

A key the file format does not define, at the top level or in a section,
is an error. Environment variables named ``GEOROCKET_<FIELD>`` (e.g.
GEOROCKET_PORT, GEOROCKET_STORE_BACKEND, GEOROCKET_STORE_PATH) override file
values; other ``GEOROCKET_*`` variables are left alone, since the CLI reads
``GEOROCKET_URL``. Unknown backends fail fast.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass

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


# where a config file holds each ServerConfig field: a key maps to the field
# it sets, or to the keys of the object it holds
_FILE_KEYS = {
    "host": "host",
    "port": "port",
    "reconcile_on_start": "reconcile_on_start",
    "store": {"backend": "store_backend", "path": "store_path"},
    "index": {"path": "index_path"},
    "tasks": {"retention_seconds": "task_retention_seconds"},
    "limits": {key: key for key in
               ("max_concurrent_requests", "index_batch_size", "index_queue_size")},
}


def _from_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    values: dict = {}
    _read_keys(raw, _FILE_KEYS, "", values)
    return values


def _read_keys(raw: dict, keys: dict, prefix: str, values: dict) -> None:
    """Put the fields that ``raw`` sets into ``values``; a key the file format
    does not define is an error, so a misspelt or removed setting cannot
    silently leave its default in place."""
    for key, value in raw.items():
        target = keys.get(key)
        if target is None:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(target, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix + key!r} must hold a JSON object")
            _read_keys(value, target, f"{prefix}{key}.", values)
        else:
            values[target] = value


_FIELD_TYPES = typing.get_type_hints(ServerConfig)  # field -> its declared type


def _coerce(name: str, raw: str):
    """``raw`` as the type that ``ServerConfig`` declares for field ``name``."""
    declared = _FIELD_TYPES[name]
    if declared is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if declared in (int, float):
        return declared(raw)
    return raw  # a str, or an optional one


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
