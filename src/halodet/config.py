"""Run configuration: flat TOML-style file, environment, and flag layering.

Precedence is flags > environment > config file. Secrets (API keys) are
accepted only from the environment; a key smuggled into a config file is a
hard error so benchmark configs stay shareable.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .cache import DiskCache
from .errors import ConfigInvalid
from .gateway import HttpModelBackend, ModelGateway
from .model import NAME_RE
from .stages import DetectionMethod
from .tools import (
    DEFAULT_SEARCH_ENDPOINT,
    REPLAY_IDS,
    GatewayAttributeAnswerer,
    HttpFactSearcher,
    HttpObjectDetector,
    HttpSceneTextReader,
    Replay,
    ToolBackendSet,
    mock_backend_set,
)

ENV_PREFIX = "HALODET_"

# Secrets never live in config files.
MODEL_API_KEY_ENV = "HALODET_MODEL_API_KEY"
SEARCH_API_KEY_ENV = "HALODET_SEARCH_API_KEY"
TOOL_API_KEY_ENV = "HALODET_TOOL_API_KEY"

# A value is a quoted string or an unquoted run; a "#" outside quotes starts a comment.
_LINE_RE = re.compile(
    r'^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*("(?:[^"\\]|\\.)*"|[^"#\s][^"#]*?)\s*(?:#.*)?$'
)


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Read a flat ``key = value`` file (TOML-style scalars, # comments, no repeated keys)."""
    values: dict[str, Any] = {}
    first_seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if not match:
            raise ConfigInvalid(f"{path}:{lineno}: expected key = value")
        key, raw_value = match.group(1), match.group(2)
        if key in first_seen:
            raise ConfigInvalid(
                f"{path}:{lineno}: key {key!r} already set on line {first_seen[key]}")
        first_seen[key] = lineno
        values[key] = _parse_scalar(raw_value, f"{path}:{lineno}")
    return values


def _parse_scalar(raw: str, where: str) -> Any:
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ConfigInvalid(f"{where}: bad string literal {raw}") from exc
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    raise ConfigInvalid(f"{where}: unquoted value {raw!r} (strings need quotes)")


BACKENDS = ("mock", "live")
_TOOL_MODES = ("default", "null")
# Each tool switch and the ToolBackendSet slot that its "null" empties.
TOOL_SWITCHES = {
    "object_tool": "object_detector",
    "attribute_tool": "attribute_answerer",
    "scene_text_tool": "scene_text_reader",
    "fact_tool": "fact_searcher",
}


@dataclass
class RunConfig:
    """Everything one detection run needs, independent of how it was supplied."""

    method: str = DetectionMethod.UNIHD.value
    backend: str = "mock"
    fixtures: str = ""
    bench: str = ""
    out: str = "results"
    run_id: str = ""
    width: int = 4
    cache_dir: str = ".halodet-cache"
    cache: bool = True
    demos: str = ""
    request_log: str = ""
    model_endpoint: str = ""
    model_name: str = ""
    detector_endpoint: str = ""
    ocr_endpoint: str = ""
    search_endpoint: str = DEFAULT_SEARCH_ENDPOINT
    object_tool: str = "default"
    attribute_tool: str = "default"
    scene_text_tool: str = "default"
    fact_tool: str = "default"

    def validate(self) -> None:
        if self.run_id and (not NAME_RE.fullmatch(self.run_id) or self.run_id in (".", "..")):
            raise ConfigInvalid(f"run id {self.run_id!r} must match {NAME_RE.pattern}, "
                                "other than . and ..")
        if self.width < 1:
            raise ConfigInvalid(f"width must be >= 1, got {self.width}")
        if self.method not in {m.value for m in DetectionMethod}:
            raise ConfigInvalid(f"unknown method {self.method!r}")
        if self.backend not in BACKENDS:
            raise ConfigInvalid(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "mock" and not self.fixtures:
            raise ConfigInvalid("mock backend needs --fixtures")
        if self.backend == "live" and not self.model_endpoint:
            raise ConfigInvalid("live backend needs model_endpoint")
        for name in TOOL_SWITCHES:
            if getattr(self, name) not in _TOOL_MODES:
                raise ConfigInvalid(f"{name} must be one of {_TOOL_MODES}")

    @property
    def detection_method(self) -> DetectionMethod:
        return DetectionMethod(self.method)

    def echo(self) -> dict[str, Any]:
        """Config snapshot for the run manifest (no secrets are stored here)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# Every field's default has the field's type: str, int or bool.
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def build_config(
    file_path: str | Path | None = None,
    flag_values: dict[str, Any] | None = None,
    env: dict[str, str] | None = None,
) -> RunConfig:
    """Layer file, environment, and flags into one validated RunConfig.

    A file or flag value must already have its field's type (a bool is no
    int); an environment string is parsed by it. Anything else is
    ConfigInvalid, naming the key or the variable.
    """
    env = dict(os.environ) if env is None else env
    merged: dict[str, Any] = {}

    if file_path is not None:
        for key, value in parse_config_file(file_path).items():
            if key.endswith("api_key"):
                raise ConfigInvalid(
                    f"{key}: secrets must come from the environment, not config files"
                )
            merged[key] = _checked(key, value, f"{file_path}: ")

    for name, kind in _FIELD_TYPES.items():
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            merged[name] = _parsed(env_key, env[env_key], kind)

    for key, value in (flag_values or {}).items():
        if value is not None:
            merged[key] = _checked(key, value)

    config = RunConfig(**merged)
    config.validate()
    return config


def _checked(key: str, value: Any, where: str = "") -> Any:
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigInvalid(f"{where}unknown config key {key!r}")
    if type(value) is not kind:
        raise ConfigInvalid(f"{where}{key} must be {kind.__name__}, got {value!r}")
    return value


def _parsed(variable: str, raw: str, kind: type) -> Any:
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigInvalid(f"{variable} must be {kind.__name__}, got {raw!r}") from None


# --- wiring ----------------------------------------------------------------------


def build_backends(config: RunConfig, env: dict[str, str] | None = None
                   ) -> tuple[ModelGateway, ToolBackendSet]:
    """The model gateway and the four tools.

    In mock mode each is a ``Replay`` of one fixture store, opened once, under
    its id in ``REPLAY_IDS``. A tool switched off holds ``Replay(None, "null")``,
    which finds nothing.
    """
    env = dict(os.environ) if env is None else env
    request_log = config.request_log or None
    if config.backend == "mock":
        if not Path(config.fixtures).is_dir():
            raise ConfigInvalid(f"fixture directory not found: {config.fixtures}")
        store = DiskCache(config.fixtures)
        gateway = ModelGateway(Replay(store, REPLAY_IDS["model"]), request_log=request_log)
        tools = mock_backend_set(store)
    else:
        api_key = env.get(MODEL_API_KEY_ENV, "")
        search_key = env.get(SEARCH_API_KEY_ENV, "")
        tool_key = env.get(TOOL_API_KEY_ENV) or None
        if not api_key:
            raise ConfigInvalid(f"live backend needs {MODEL_API_KEY_ENV} set")
        if not config.detector_endpoint or not config.ocr_endpoint:
            raise ConfigInvalid("live tools need detector_endpoint and ocr_endpoint")
        if not search_key:
            raise ConfigInvalid(f"live fact search needs {SEARCH_API_KEY_ENV} set")
        gateway = ModelGateway(
            HttpModelBackend(config.model_endpoint, api_key=api_key, model=config.model_name),
            request_log=request_log,
        )
        tools = ToolBackendSet(
            object_detector=HttpObjectDetector(config.detector_endpoint, api_key=tool_key),
            attribute_answerer=GatewayAttributeAnswerer(gateway),
            scene_text_reader=HttpSceneTextReader(config.ocr_endpoint, api_key=tool_key),
            fact_searcher=HttpFactSearcher(search_key, endpoint=config.search_endpoint),
        )
    for switch, slot in TOOL_SWITCHES.items():
        if getattr(config, switch) == "null":
            setattr(tools, slot, Replay(None, "null"))
    return gateway, tools
