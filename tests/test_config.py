import json
import typing
from dataclasses import fields

import pytest

from georocket.errors import ConfigError
from georocket.server import ServerConfig, load_config


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(None, env={})
        assert config.port == 63020
        assert config.store_backend == "memory"
        assert config.reconcile_on_start is True

    def test_file_values(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({
            "host": "0.0.0.0",
            "port": 8080,
            "store": {"backend": "filesystem", "path": "/data/store"},
            "index": {"path": "/data/index"},
            "tasks": {"retention_seconds": 60},
            "limits": {"max_concurrent_requests": 4, "index_batch_size": 16,
                       "index_queue_size": 32},
            "reconcile_on_start": False,
        }))
        config = load_config(str(path), env={})
        assert config.host == "0.0.0.0"
        assert config.port == 8080
        assert config.store_backend == "filesystem"
        assert config.store_path == "/data/store"
        assert config.index_path == "/data/index"
        assert config.task_retention_seconds == 60
        assert config.max_concurrent_requests == 4
        assert config.index_batch_size == 16
        assert config.index_queue_size == 32
        assert config.reconcile_on_start is False

    def test_environment_overrides_file(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"port": 8080}))
        env = {"GEOROCKET_PORT": "9090", "GEOROCKET_STORE_BACKEND": "filesystem",
               "GEOROCKET_STORE_PATH": "/elsewhere",
               "GEOROCKET_RECONCILE_ON_START": "false"}
        config = load_config(str(path), env=env)
        assert config.port == 9090
        assert config.store_backend == "filesystem"
        assert config.store_path == "/elsewhere"
        assert config.reconcile_on_start is False

    # a valid value for each field as an environment variable gives it, and
    # the value it sets
    ENV_VALUES = {"host": ("0.0.0.0", "0.0.0.0"), "port": ("8080", 8080),
                  "store_backend": ("memory", "memory"),
                  "store_path": ("/data/store", "/data/store"),
                  "index_path": ("/data/index", "/data/index"),
                  "task_retention_seconds": ("60", 60.0), "max_concurrent_requests": ("4", 4),
                  "index_batch_size": ("16", 16), "index_queue_size": ("32", 32),
                  "reconcile_on_start": ("false", False)}

    @pytest.mark.parametrize("name", [f.name for f in fields(ServerConfig)])
    def test_each_environment_override_has_its_declared_type(self, name):
        raw, expected = self.ENV_VALUES[name]
        value = getattr(load_config(None, env={"GEOROCKET_" + name.upper(): raw}), name)
        assert value == expected
        assert isinstance(value, typing.get_type_hints(ServerConfig)[name])

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ConfigError):
            load_config(None, env={"GEOROCKET_STORE_BACKEND": "s3"})

    def test_filesystem_requires_path(self):
        with pytest.raises(ConfigError):
            ServerConfig(store_backend="filesystem").validate()

    def test_unreadable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(bad))

    def test_bad_env_value(self):
        with pytest.raises(ConfigError):
            load_config(None, env={"GEOROCKET_PORT": "eighty"})

    @pytest.mark.parametrize("content,key", [
        ({"index_throttle_ms": 30}, "'index_throttle_ms'"),
        ({"limits": {"index_batchsize": 4}}, "'limits.index_batchsize'"),
        ({"store": {"backend": "memory", "root": "/data"}}, "'store.root'"),
        ({"index": {"path": "/i", "fsync": False}}, "'index.fsync'"),
        ({"tasks": {"retention": 60}}, "'tasks.retention'"),
    ], ids=["top-level", "limits", "store", "index", "tasks"])
    def test_unknown_file_key_is_named(self, tmp_path, content, key):
        path = tmp_path / "server.json"
        path.write_text(json.dumps(content))
        with pytest.raises(ConfigError, match=key):
            load_config(str(path), env={})

    def test_section_must_be_an_object(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"store": "memory"}))
        with pytest.raises(ConfigError, match="'store' must hold a JSON object"):
            load_config(str(path), env={})

    def test_other_environment_variables_are_left_alone(self):
        # GEOROCKET_URL belongs to the CLI
        config = load_config(None, env={"GEOROCKET_URL": "http://localhost:1",
                                        "GEOROCKET_PORT": "9090"})
        assert config.port == 9090
