"""Config layering: file, environment, flags; secrets only from env."""

from __future__ import annotations

import socket

import pytest

from halodet.bench import load_demos
from halodet.config import (
    TOOL_SWITCHES,
    RunConfig,
    build_backends,
    build_config,
    parse_config_file,
)
from halodet.errors import ConfigInvalid
from halodet.tools import Replay


def test_parse_flat_file(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        '# a comment\n'
        'method = "selfcheck0"\n'
        'width = 8\n'
        'cache = false\n'
        'detector_threshold = 0.5\n'
    )
    values = parse_config_file(config_file)
    assert values == {
        "method": "selfcheck0", "width": 8, "cache": False,
        "detector_threshold": 0.5,
    }


def test_bad_line_rejected(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("width 8\n")
    with pytest.raises(ConfigInvalid):
        parse_config_file(config_file)


def test_unquoted_string_rejected(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("method = selfcheck0\n")
    with pytest.raises(ConfigInvalid):
        build_config(config_file, env={})


def test_comment_after_value(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        'width = 3  # pairs in flight\n'
        'out = "res # x"  # the hash above is data\n'
        'cache = false# no space\n'
    )
    assert parse_config_file(config_file) == {"width": 3, "out": "res # x", "cache": False}


def test_comment_does_not_quote_a_bare_string(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("run_id = abc # x\n")
    with pytest.raises(ConfigInvalid, match="unquoted value 'abc'"):
        parse_config_file(config_file)


def test_repeated_key_rejected(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text('width = 2\nfixtures = "f"\nwidth = 8\n')
    with pytest.raises(ConfigInvalid) as exc_info:
        build_config(config_file, env={})
    message = str(exc_info.value)
    assert "'width'" in message
    assert ":3:" in message and "line 1" in message


def test_precedence_flags_over_env_over_file(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text('width = 2\nfixtures = "from-file"\nbench = "b.json"\n')
    config = build_config(
        config_file,
        flag_values={"width": 9},
        env={"HALODET_WIDTH": "5", "HALODET_FIXTURES": str(tmp_path)},
    )
    assert config.width == 9                 # flag wins
    assert config.fixtures == str(tmp_path)  # env beats file
    assert config.bench == "b.json"          # file only


def test_secrets_rejected_in_files(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text('model_api_key = "sk-nope"\n')
    with pytest.raises(ConfigInvalid) as exc_info:
        build_config(config_file, env={})
    assert "environment" in str(exc_info.value)


def test_unknown_key_rejected(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text('wdith = 3\n')
    with pytest.raises(ConfigInvalid):
        build_config(config_file, env={})


@pytest.mark.parametrize("line", ["width = 2.5", "out = 3", "width = true", "cache = 1"])
def test_a_file_value_of_the_wrong_type_is_rejected(tmp_path, line):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(f'fixtures = "{tmp_path}"\n{line}\n')
    with pytest.raises(ConfigInvalid) as exc_info:
        build_config(config_file, env={})
    key = line.split()[0]
    assert str(exc_info.value).startswith(f"{config_file}: {key} must be ")


@pytest.mark.parametrize("variable, raw", [
    ("HALODET_WIDTH", "2.5"), ("HALODET_CACHE", "flase"), ("HALODET_CACHE", ""),
])
def test_an_environment_value_of_the_wrong_type_is_rejected(tmp_path, variable, raw):
    with pytest.raises(ConfigInvalid) as exc_info:
        build_config(env={variable: raw, "HALODET_FIXTURES": str(tmp_path)})
    assert str(exc_info.value).startswith(f"{variable} must be ")


@pytest.mark.parametrize("raw, value", [
    ("true", True), ("yes", True), ("1", True), ("false", False), ("no", False), ("0", False),
])
def test_an_environment_bool_takes_six_spellings(tmp_path, raw, value):
    config = build_config(env={"HALODET_CACHE": raw, "HALODET_FIXTURES": str(tmp_path)})
    assert config.cache is value


def test_validation_rules():
    with pytest.raises(ConfigInvalid):
        RunConfig(width=0).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(method="magic", fixtures="x").validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(backend="mock", fixtures="").validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(backend="live", model_endpoint="").validate()
    RunConfig(backend="mock", fixtures="dir").validate()


def test_live_mode_requires_credentials(tmp_path):
    config = RunConfig(backend="live", model_endpoint="https://model.example")
    with pytest.raises(ConfigInvalid) as exc_info:
        build_backends(config, env={})
    assert "HALODET_MODEL_API_KEY" in str(exc_info.value)


def _config_file(folder, text):
    path = folder / "run.cfg"
    path.write_text(text)
    return path


_LIVE = {"backend": "live", "model_endpoint": "https://model.example",
         "ocr_endpoint": "https://ocr.example"}


@pytest.mark.parametrize("build, message", [
    (lambda tmp: build_config(_config_file(tmp, 'out = "a\\q"\n'), env={}),
     "bad string literal"),
    (lambda tmp: build_config(env={"HALODET_BACKEND": "remote"}), "backend must be one of"),
    (lambda tmp: build_config(env={"HALODET_FACT_TOOL": "off", "HALODET_FIXTURES": str(tmp)}),
     "fact_tool must be one of"),
    (lambda tmp: build_backends(RunConfig(fixtures=str(tmp / "missing")), env={}),
     "fixture directory not found"),
    (lambda tmp: build_backends(RunConfig(**_LIVE), env={"HALODET_MODEL_API_KEY": "k"}),
     "live tools need detector_endpoint and ocr_endpoint"),
    (lambda tmp: build_backends(RunConfig(**_LIVE, detector_endpoint="https://det.example"),
                                env={"HALODET_MODEL_API_KEY": "k"}),
     "live fact search needs HALODET_SEARCH_API_KEY set"),
], ids=["bad-string-literal", "unknown-backend", "unknown-tool-mode", "missing-fixtures",
        "live-without-detector", "live-without-search-key"])
def test_each_bad_setting_is_config_invalid(tmp_path, build, message):
    with pytest.raises(ConfigInvalid, match=message):
        build(tmp_path)


def test_live_mode_builds_the_live_backends_without_a_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("building the backends opened a connection")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    config = RunConfig(**_LIVE, detector_endpoint="https://det.example", model_name="gpt-x",
                       search_endpoint="https://search.example")
    gateway, tools = build_backends(config, env={"HALODET_MODEL_API_KEY": "k",
                                                 "HALODET_SEARCH_API_KEY": "s"})
    assert {"model": gateway.backend.backend_id, **tools.backend_ids()} == {
        "model": "gpt-x",
        "object_detector": "detector:https://det.example",
        "attribute_answerer": "gateway:gpt-x",
        "scene_text_reader": "scene-text:https://ocr.example",
        "fact_searcher": "search:https://search.example",
    }


_MOCK_IDS = {
    "model": "mock-model",
    "object_detector": "mock-object-detector",
    "attribute_answerer": "mock-attribute",
    "scene_text_reader": "mock-scene-text",
    "fact_searcher": "mock-fact-search",
}


@pytest.mark.parametrize("switch", list(TOOL_SWITCHES))
def test_null_tool_selection(tmp_path, switch):
    config = RunConfig(backend="mock", fixtures=str(tmp_path), **{switch: "null"})
    gateway, tools = build_backends(config, env={})
    slot = TOOL_SWITCHES[switch]
    assert isinstance(getattr(tools, slot), Replay)
    # The run manifest's backend_ids map, as detect writes it.
    assert {"model": gateway.backend.backend_id, **tools.backend_ids()} == \
        {**_MOCK_IDS, slot: "null"}


def test_load_demos(tmp_path):
    import json

    from e2e_scenario import demos_json

    path = tmp_path / "demos.json"
    path.write_text(json.dumps(demos_json()))
    demos = load_demos(path)
    assert len(demos) == 2
    assert demos[0].claims[0] == "There is a dog in the image."
    assert demos[0].verdicts[1].rationale == "The dog is brown, not green."
