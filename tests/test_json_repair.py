"""Lenient JSON reader: strict first, repairs flagged, failures loud."""

from __future__ import annotations

import pytest

from halodet.json_repair import loads_lenient


def test_strict_json_is_not_flagged():
    value, repaired = loads_lenient('{"claim1": "man"}')
    assert value == {"claim1": "man"}
    assert repaired is False


def test_markdown_fences_stripped():
    raw = '```json\n[{"claim1":"hallucination", "reason":"r"}]\n```'
    value, repaired = loads_lenient(raw)
    assert value == [{"claim1": "hallucination", "reason": "r"}]
    assert repaired is True


def test_trailing_commas_removed():
    value, repaired = loads_lenient('{"claim1": ["q1", "q2",],}')
    assert value == {"claim1": ["q1", "q2"]}
    assert repaired is True


def test_single_quotes_via_python_literals():
    value, repaired = loads_lenient("{'claim1': ['none']}")
    assert value == {"claim1": ["none"]}
    assert repaired is True


def test_unquoted_bare_string_in_flat_list():
    # The shape one in-template example actually prints.
    raw = ('{"claim1":["What is the man wearing?"], '
           '"claim2":["Does the man appear to be smoking?"], '
           '"claim3":[What color is the wall?]}')
    value, repaired = loads_lenient(raw)
    assert value["claim3"] == ["What color is the wall?"]
    assert repaired is True


def test_prose_around_the_payload():
    raw = 'Sure! Here is the result:\n{"claim1":"none"}\nHope that helps.'
    value, repaired = loads_lenient(raw)
    assert value == {"claim1": "none"}
    assert repaired is True


def test_unsalvageable_input_raises():
    with pytest.raises(ValueError):
        loads_lenient("no structured content here at all")


def test_bare_numbers_in_lists_survive():
    value, _ = loads_lenient("[1]")
    assert value == [1]


@pytest.mark.parametrize("item, value", [("true", True), ("null", None), ("2.5", 2.5)])
def test_a_bare_literal_or_number_item_is_not_quoted(item, value):
    parsed, repaired = loads_lenient(f'{{"a": [{item}], "b": [What color is it?]}}')
    assert parsed == {"a": [value], "b": ["What color is it?"]}
    assert repaired is True


def test_an_escaped_quote_does_not_end_a_string_in_prose():
    value, repaired = loads_lenient('Result: {"claim1": "a \\"}\\" sign"} as asked')
    assert value == {"claim1": 'a "}" sign'}
    assert repaired is True


def test_a_block_that_never_closes_is_rejected():
    with pytest.raises(ValueError):
        loads_lenient('Result: {"claim1": "none"')


@pytest.mark.parametrize("text", ["[" * 5000, "[" * 5000 + "]" * 5000, '{"a":' * 5000],
                         ids=["unclosed", "closed", "objects"])
def test_json_nested_too_deeply_is_not_json(text):
    # json.loads raises RecursionError, not ValueError, past about 1,000 levels.
    with pytest.raises(ValueError, match="not JSON"):
        loads_lenient(text)
